"""Extension experiment: discovery under injected faults (chaos matrix).

Not a paper figure — the paper's testbed numbers average over real WiFi
misbehavior (the error bars of Fig. 6(e)–(h)) — but a production-grade
discovery stack must keep completing when that misbehavior gets worse:
bursty loss, delay spikes, duplicated frames, corrupted frames, crashing
objects.  This experiment sweeps a fault-type x severity matrix through
:mod:`repro.net.faults` and reports discovery completion and recovery
cost for each cell, then isolates the recovery stack's contribution
under the headline condition (20% Gilbert–Elliott burst loss): per-
exchange retransmission (:class:`repro.net.retry.RetryPolicy`) plus fresh
QUE1 rounds vs the no-recovery baseline.

A third section checks that recovery never buys robustness with
secrecy: under loss + duplication faults the v3.0 structural
distinguisher advantage stays 0.0 and RES2 lengths stay constant, even
though the wire now carries retransmitted and duplicated frames
(docs/robustness.md has the argument).
"""

from __future__ import annotations

from repro.attacks.channel import CapturedExchange
from repro.attacks.distinguisher import res2_length_spread, subject_advantage
from repro.experiments.common import Table, make_level_fleet
from repro.net.faults import Fault, FaultKind, FaultSchedule, burst_loss_schedule
from repro.net.run import RetryPolicy, simulate_discovery
from repro.protocol.messages import Que2, Res2

#: The chaos matrix's standard workload (Level 2: full 4-way handshake,
#: so every message type is exposed to every fault).
FLEET_SIZE = 12
#: Severity sweep for the matrix cells.
SEVERITIES = (0.1, 0.2, 0.3)
#: Fixed seeds — chaos runs are as reproducible as everything else.
SEEDS = (0, 1, 2)

#: The recovery stack under test everywhere below.
RECOVERY = RetryPolicy()
RECOVERY_ROUNDS = 12
DEADLINE_S = 30.0


def _schedule(kind: FaultKind, severity: float, seed: int) -> FaultSchedule:
    """One whole-run schedule for a matrix cell."""
    if kind is FaultKind.BURST_LOSS:
        return burst_loss_schedule(severity, seed=seed)
    if kind is FaultKind.CRASH:
        # A third of the fleet power-cycles mid-discovery, scaled by
        # severity: down from t=0.5s for severity x 10 seconds.
        victims = tuple(
            f"obj-{i:03d}" for i in range(max(1, int(FLEET_SIZE * severity)))
        )
        return FaultSchedule(
            (Fault(FaultKind.CRASH, start_s=0.5, stop_s=0.5 + severity * 10.0,
                   nodes=victims),),
            seed=seed,
        )
    return FaultSchedule((Fault(kind, severity=severity),), seed=seed)


MATRIX_KINDS = (
    FaultKind.BURST_LOSS,
    FaultKind.DELAY_SPIKE,
    FaultKind.DUPLICATION,
    FaultKind.REORDER,
    FaultKind.CORRUPTION,
    FaultKind.CRASH,
)


def chaos_cell(kind: FaultKind, severity: float) -> dict:
    """Aggregate one matrix cell over the fixed seeds."""
    completed = total = 0
    makespans: list[float] = []
    retransmissions = lost = 0
    subject_creds, object_creds, _ = make_level_fleet(FLEET_SIZE, level=2)
    for seed in SEEDS:
        timeline = simulate_discovery(
            subject_creds, object_creds,
            faults=_schedule(kind, severity, seed),
            retry=RECOVERY, max_rounds=RECOVERY_ROUNDS,
            deadline_s=DEADLINE_S, seed=seed,
        )
        completed += len(timeline.completion)
        total += len(object_creds)
        makespans.append(timeline.total_time)
        retransmissions += timeline.retransmissions
        lost += timeline.messages_lost
    return {
        "fault": kind.value,
        "severity": severity,
        "completion_pct": round(100.0 * completed / total, 1),
        "mean_makespan_s": round(sum(makespans) / len(makespans), 3),
        "retransmissions": retransmissions,
        "frames_lost": lost,
    }


def chaos_matrix() -> list[dict]:
    return [
        chaos_cell(kind, severity)
        for kind in MATRIX_KINDS
        for severity in SEVERITIES
    ]


#: The recovery-ablation modes under the headline 20% burst-loss fault.
GATE_LOSS = 0.20
GATE_FLEET = 20
GATE_SEEDS = (0, 1, 2, 3, 4)
GATE_MODES = {
    "no recovery": {"retry": None, "max_rounds": 1},
    "rounds only": {"retry": None, "max_rounds": RECOVERY_ROUNDS},
    "retries only": {"retry": RECOVERY, "max_rounds": 1},
    "retries+rounds": {"retry": RECOVERY, "max_rounds": RECOVERY_ROUNDS},
}


def recovery_gate() -> dict:
    """Completion ratio per recovery mode under 20% burst loss.

    The committed gate (benchmarks/bench_faults.py): "retries+rounds"
    completes >= 99% of discoveries, "no recovery" < 80%.
    """
    subject_creds, object_creds, _ = make_level_fleet(GATE_FLEET, level=2)
    out: dict[str, dict] = {}
    for mode, knobs in GATE_MODES.items():
        completed = total = retransmissions = given_up = 0
        makespans: list[float] = []
        for seed in GATE_SEEDS:
            timeline = simulate_discovery(
                subject_creds, object_creds,
                faults=burst_loss_schedule(GATE_LOSS, seed=seed),
                deadline_s=DEADLINE_S, seed=seed, **knobs,
            )
            completed += len(timeline.completion)
            total += len(object_creds)
            retransmissions += timeline.retransmissions
            given_up += timeline.exchanges_given_up
            makespans.append(timeline.total_time)
        out[mode] = {
            "completion_ratio": round(completed / total, 4),
            "mean_makespan_s": round(sum(makespans) / len(makespans), 3),
            "retransmissions": retransmissions,
            # Whole exchanges abandoned to the outer round loop — at
            # most one per (object, round), never one per backoff timer.
            "exchanges_given_up": given_up,
        }
    return out


def indistinguishability_under_faults(seed: int = 7) -> dict:
    """The v3.0 distinguisher run against faulty-wire captures.

    Every QUE2 and RES2 the network *delivers* — including retransmitted
    and fault-duplicated copies — is captured as an eavesdropper would
    see it; a Level 3 fleet and a Level 2 fleet run under the same
    loss + duplication schedule.  v3.0's claim must survive recovery:
    MAC_S3 is always present (advantage 0.0) and RES2 ciphertexts are
    constant-length (spread 0), or a passive attacker could use the
    recovery machinery itself as the oracle.
    """
    schedule = FaultSchedule(
        burst_loss_schedule(0.15, seed=seed).entries
        + (Fault(FaultKind.DUPLICATION, severity=0.3),),
        seed=seed,
    )

    def captured_fleet(level: int):
        subject_creds, object_creds, _ = make_level_fleet(GATE_FLEET, level=level)
        que2: list[CapturedExchange] = []
        res2: list[CapturedExchange] = []
        # The objects a QUE2 reached and a RES2 came from.
        que2_objects: set[str] = set()
        res2_objects: set[str] = set()

        def on_delivery(_t: float, src: str, dst: str, message) -> None:
            if isinstance(message, Que2):
                que2.append(CapturedExchange(que2=message))
                que2_objects.add(dst)
            elif isinstance(message, Res2):
                res2.append(CapturedExchange(res2=message))
                res2_objects.add(src)

        simulate_discovery(
            subject_creds, object_creds, faults=schedule, retry=RECOVERY,
            max_rounds=RECOVERY_ROUNDS, deadline_s=DEADLINE_S, seed=seed,
            on_delivery=on_delivery,
        )
        counts = {"que2": len(que2), "res2": len(res2),
                  "que2_objects": len(que2_objects), "res2_objects": len(res2_objects)}
        return que2, res2, counts

    que2_l3, res2_l3, level3 = captured_fleet(3)
    que2_l2, res2_l2, level2 = captured_fleet(2)
    return {
        "fleet": GATE_FLEET,
        "que2_captured": len(que2_l3) + len(que2_l2),
        "res2_captured": len(res2_l3) + len(res2_l2),
        "per_population": {"level3": level3, "level2": level2},
        "advantage": subject_advantage(que2_l3, que2_l2),
        # v3.0 pads each object's RES2 to that *object's* constant length
        # (§VI-B), so the invariant is zero spread within a population —
        # retransmitted and duplicated copies included.
        "res2_length_spread": max(
            res2_length_spread(res2_l3), res2_length_spread(res2_l2)
        ),
    }


def run() -> Table:
    table = Table(
        "Extension: discovery under injected faults "
        f"({FLEET_SIZE} Level 2 objects, retries + {RECOVERY_ROUNDS} rounds, "
        f"seeds {list(SEEDS)})",
        ["fault", "severity", "completion %", "makespan s", "retx", "lost"],
    )
    for cell in chaos_matrix():
        table.add(
            cell["fault"], cell["severity"], cell["completion_pct"],
            cell["mean_makespan_s"], cell["retransmissions"],
            cell["frames_lost"],
        )
    gate = recovery_gate()
    indist = indistinguishability_under_faults()
    modes = "; ".join(
        f"{mode}: {stats['completion_ratio']:.0%}" for mode, stats in gate.items()
    )
    table.notes = (
        f"Recovery ablation under {GATE_LOSS:.0%} burst loss "
        f"({GATE_FLEET} objects x {len(GATE_SEEDS)} seeds): {modes}.  "
        "Distinguisher under loss+duplication faults: advantage "
        f"{indist['advantage']:.1f}, RES2 length spread "
        f"{indist['res2_length_spread']} B over {indist['res2_captured']} "
        "captured RES2s (retransmissions included)."
    )
    return table
