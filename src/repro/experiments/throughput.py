"""Throughput-scale discovery: calibrated lane packing of the sequential path.

The paper's §IX measures single-handshake latency; the deployment the
ROADMAP targets is one enterprise object (a printer, a door controller)
answering *hundreds of concurrent QUE2s per round*.  This experiment
measures aggregate handshake throughput at that scale, two ways:

* **wall-clock** — real seconds on *this* host for the sequential
  ``handle_*`` handlers, in an unmetered timed loop.
* **calibrated** — the per-handshake §IX-B op tally priced on the
  paper's hardware (Raspberry Pi 3 object / Nexus 6 subject), packed
  greedily onto the device's compute lanes.  The Pi 3 is a genuine
  quad-core part, so "4 lanes" is its real silicon, and the calibrated
  speedup is deterministic — the same on every CI host.

Measurement discipline:

* The wall pass is **unmetered** — nothing but the handlers sits inside
  the timed region.
* The calibrated costs come from **one** separate metered pass over the
  same handshakes; only the lane count changes between rows.
* :func:`measure_crypto_floor` times the public ``VerifyingKey.verify``
  and ``EphemeralECDH.derive_premaster`` on this host and derives the
  hard physical ceiling for the sequential path (3 verifies + 1 ECDH
  derive per object-side handshake) — the benchmarks gate the scalar
  path *relative to that floor*, so the gate means the same thing on a
  laptop and a throttled CI container.

Sections:

* A — *object-side*: ``n`` subjects hit one Level 3 object with QUE2s.
* B — *subject-side*: one subject processes ``n`` RES1 openings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.backend.registration import (
    Backend,
    ObjectCredentials,
    SubjectCredentials,
)
from repro.crypto import keypool
from repro.crypto.costmodel import NEXUS6, RASPBERRY_PI3, DeviceProfile
from repro.crypto.ecdh import EphemeralECDH
from repro.crypto.ecdsa import generate_signing_key
from repro.crypto.meter import metered
from repro.experiments.common import Table
from repro.pki import certificate as certificate_mod
from repro.pki import profile as profile_mod
from repro.protocol.object import ObjectEngine, _ObjectSession
from repro.protocol.session import Transcript
from repro.protocol.subject import SubjectEngine

#: Compute-lane counts the calibrated packing sweeps (1 = sequential).
LANE_SWEEP: tuple[int, ...] = (1, 2, 4)

#: The headline acceptance gate: calibrated handshakes/sec at 4 lanes
#: over one lane must reach this on the 1000-handshake scale experiment.
CALIBRATED_GATE_AT_4 = 2.5

#: Absolute sequential object-side wall target (handshakes/s) — and the
#: fraction of this host's measured crypto floor that stands in for it
#: on hardware whose raw OpenSSL ops are too slow to ever reach the
#: absolute number (a 1-vCPU container's P-256 verify costs ~95 µs;
#: 3 verifies + 1 derive already cap it below 2,800 h/s).
SEQUENTIAL_WALL_GATE_HPS = 2500.0
SEQUENTIAL_FLOOR_FRACTION = 0.55


@dataclass
class ScaleResult:
    """One side's scale batch: sequential wall time and calibrated costs."""

    n: int
    #: Sequential wall seconds for the whole batch on this host.
    wall_s: float
    #: Per-handshake paper-hardware seconds, one entry per item.
    costs_s: list[float]

    @property
    def wall_hps(self) -> float:
        return self.n / self.wall_s if self.wall_s > 0 else 0.0

    def calibrated_s(self, lanes: int) -> float:
        return greedy_makespan(self.costs_s, lanes)

    def calibrated_hps(self, lanes: int) -> float:
        makespan = self.calibrated_s(lanes)
        return self.n / makespan if makespan > 0 else 0.0

    def calibrated_speedup(self, lanes: int) -> float:
        return self.calibrated_hps(lanes) / self.calibrated_hps(1)


@dataclass
class ThroughputReport:
    n: int
    object_side: ScaleResult
    subject_side: ScaleResult

    def render(self) -> str:
        sections = []
        for title, result in (
            (f"Throughput A: object answering {self.n} QUE2s", self.object_side),
            (f"Throughput B: subject processing {self.n} RES1s", self.subject_side),
        ):
            table = Table(
                title, ["lanes", "calibrated hs/s", "calibrated speedup"]
            )
            for lanes in LANE_SWEEP:
                table.add(
                    lanes,
                    result.calibrated_hps(lanes),
                    result.calibrated_speedup(lanes),
                )
            table.notes = (
                "calibrated = paper-hardware op costs of the sequential "
                "handlers packed onto compute lanes (deterministic); "
                f"sequential wall on this host: {result.wall_hps:.1f} hs/s."
            )
            sections.append(table.render())
        return "\n\n".join(sections)


def greedy_makespan(costs_s: list[float], lanes: int) -> float:
    """Pack sequential per-item costs onto *lanes* parallel lanes.

    The calibrated multi-core model: each handshake is indivisible, the
    scheduler always feeds the least-loaded lane, and the batch finishes
    when the last lane does.
    """
    if lanes < 1:
        raise ValueError(f"lanes must be >= 1, got {lanes}")
    lane_loads = [0.0] * lanes
    for cost in costs_s:
        index = min(range(lanes), key=lane_loads.__getitem__)
        lane_loads[index] += cost
    return max(lane_loads)


def measure_crypto_floor(strength: int = 128, reps: int = 64) -> dict:
    """Time this host's raw per-op OpenSSL costs and the handshake floor.

    The sequential object-side handshake performs, irreducibly, 3 ECDSA
    verifies and 1 ECDH derive (§IX-B); everything else the engine does
    is Python the optimization work can shrink.  The returned
    ``floor_hps`` is therefore the throughput of a hypothetical handler
    with **zero** overhead on this host — the honest yardstick for the
    scalar-path gates and for comparing hosts in the committed baseline.
    """
    signing = generate_signing_key(strength)
    message = b"floor probe"
    signature = signing.sign(message)
    public = signing.public_key
    mine, peer = EphemeralECDH(strength), EphemeralECDH(strength)

    def verify() -> None:
        public.verify(signature, message)

    def derive() -> None:
        mine.derive_premaster(peer.kexm)

    for op in (verify, derive):  # warm-up: first call pays loads
        op()

    def best_us(op) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(reps):
                op()
            best = min(best, (time.perf_counter() - t0) / reps)
        return best * 1e6

    verify_us = best_us(verify)
    derive_us = best_us(derive)
    floor_us = 3 * verify_us + derive_us
    return {
        "verify_us": round(verify_us, 2),
        "derive_us": round(derive_us, 2),
        "floor_us": round(floor_us, 2),
        "floor_hps": round(1e6 / floor_us, 2),
    }


def make_wide_fleet(
    n_subjects: int, strength: int = 128
) -> tuple[list[SubjectCredentials], ObjectCredentials, Backend]:
    """One Level 3 object and *n_subjects* subjects, half of them fellows.

    The mixed membership matters: the scale batch exercises covert
    Level 3 serves and Level 2 cover-up serves side by side.
    """
    backend = Backend(strength=strength)
    backend.add_sensitive_policy("sensitive:special", "sensitive:serves-special")
    obj = backend.register_object(
        "obj-0", {"type": "printer"}, level=3,
        functions=("print",),
        variants=[("position=='staff'", ("print", "scan"))],
        covert_functions={"sensitive:serves-special": ("print_confidential",)},
    )
    subjects = [
        backend.register_subject(
            f"subj-{i:04d}", {"position": "staff", "department": "X"},
            ("sensitive:special",) if i % 2 == 0 else (),
        )
        for i in range(n_subjects)
    ]
    return subjects, obj, backend


def _clone_object_engine(
    creds: ObjectCredentials, source: ObjectEngine
) -> ObjectEngine:
    """A fresh engine holding copies of *source*'s open sessions.

    The copies share the (pure, reusable) session ECDH objects but get
    their own transcripts and table, so every measured configuration
    answers the *identical* set of in-flight handshakes from the same
    starting state (a QUE2 pops its session from one clone only).
    """
    clone = ObjectEngine(creds, session_limit=source.session_limit)
    for peer, session in source._sessions.items():
        clone._sessions[peer] = _ObjectSession(
            r_s=session.r_s,
            r_o=session.r_o,
            ecdh=session.ecdh,
            transcript=Transcript(parts=list(session.transcript.parts)),
            created_at=session.created_at,
        )
    return clone


def _reset_hot_caches() -> None:
    """Cold-start the cross-config caches so every row measures alike."""
    profile_mod.clear_verify_cache()
    certificate_mod.clear_parse_cache()


def prepare_object_side(n: int):
    """Phase 1 for Section A: *n* subjects each ready to send QUE2.

    Returns ``(object_creds, reference_engine, items)`` where *items*
    are ``(que2, peer_id)`` pairs answerable by any clone of the
    reference engine.
    """
    subjects, obj, _backend = make_wide_fleet(n)
    reference = ObjectEngine(obj, session_limit=n + 16)
    items = []
    for i, screds in enumerate(subjects):
        subject = SubjectEngine(screds)
        que1 = subject.start_round()
        res1 = reference.handle_que1(que1, f"peer-{i:04d}")
        que2 = subject.handle_res1(res1, "obj-0")
        assert que2 is not None, subject.errors
        items.append((que2, f"peer-{i:04d}"))
    return obj, reference, items


def _calibrated_costs(
    engine, items, handler, profile: DeviceProfile, what: str
) -> list[float]:
    """One metered pass: per-item §IX-B costs priced on *profile*."""
    per_message_s = profile.per_message_ms / 1000.0
    costs_s: list[float] = []
    completed = 0
    for message, peer_id in items:
        with metered() as tally:
            out = handler(message, peer_id)
        costs_s.append(profile.meter_cost_ms(tally) / 1000.0 + per_message_s)
        completed += out is not None
    if completed != len(items):
        raise RuntimeError(
            f"calibrated {what} pass: only {completed}/{len(items)} "
            f"completed; errors={engine.errors[:3]}"
        )
    return costs_s


def _wall_pass(engine, items, handler, what: str) -> float:
    """Unmetered timed loop over *items*; every one must complete."""
    completed = 0
    t0 = time.perf_counter()
    for message, peer_id in items:
        completed += handler(message, peer_id) is not None
    wall_s = time.perf_counter() - t0
    if completed != len(items):
        raise RuntimeError(
            f"sequential {what} pass: only {completed}/{len(items)} "
            f"completed; errors={engine.errors[:3]}"
        )
    return wall_s


def measure_object_scale(
    n: int = 1000, profile: DeviceProfile = RASPBERRY_PI3
) -> ScaleResult:
    """Section A: one object answers *n* QUE2s."""
    obj, reference, items = prepare_object_side(n)

    calibrated_engine = _clone_object_engine(obj, reference)
    _reset_hot_caches()
    costs_s = _calibrated_costs(
        calibrated_engine, items, calibrated_engine.handle_que2, profile,
        "object",
    )
    engine = _clone_object_engine(obj, reference)
    _reset_hot_caches()
    wall_s = _wall_pass(engine, items, engine.handle_que2, "object")
    return ScaleResult(n=n, wall_s=wall_s, costs_s=costs_s)


def prepare_subject_side(n: int):
    """Phase 1 for Section B: one subject facing *n* RES1 openings."""
    backend = Backend(strength=128)
    backend.add_sensitive_policy("sensitive:special", "sensitive:serves-special")
    subject_creds = backend.register_subject(
        "subject-0", {"position": "staff", "department": "X"},
        ("sensitive:special",),
    )
    object_engines = []
    for i in range(n):
        creds = backend.register_object(
            f"obj-{i:04d}", {"type": "kiosk"}, level=3,
            functions=("dispense",),
            variants=[("position=='staff'", ("dispense",))],
            covert_functions={"sensitive:serves-special": ("support",)},
        )
        object_engines.append(ObjectEngine(creds))
    opener = SubjectEngine(subject_creds)
    que1 = opener.start_round()
    items = [
        (engine.handle_que1(que1, "subject-0"), f"obj-{i:04d}")
        for i, engine in enumerate(object_engines)
    ]
    return subject_creds, opener, items


def _clone_subject_engine(subject_creds, opener) -> SubjectEngine:
    """A same-round replica of *opener*: start_round rebuilds the
    group-key state, then the nonce is aligned so the prepared RES1
    signatures (which cover R_S) stay valid."""
    engine = SubjectEngine(subject_creds)
    engine.start_round()
    engine._r_s = opener._r_s
    engine._que1_bytes = opener._que1_bytes
    return engine


def measure_subject_scale(
    n: int = 1000, profile: DeviceProfile = NEXUS6
) -> ScaleResult:
    """Section B: one subject processes *n* RES1s.

    The key pool is disabled for the measurement so both passes perform
    identical work (pool stock would otherwise vary run to run with
    refill-thread timing).
    """
    subject_creds, opener, items = prepare_subject_side(n)
    keypool.configure(enabled=False)
    try:
        calibrated_engine = _clone_subject_engine(subject_creds, opener)
        _reset_hot_caches()
        costs_s = _calibrated_costs(
            calibrated_engine, items, calibrated_engine.handle_res1, profile,
            "subject",
        )
        engine = _clone_subject_engine(subject_creds, opener)
        _reset_hot_caches()
        wall_s = _wall_pass(engine, items, engine.handle_res1, "subject")
    finally:
        keypool.configure(enabled=True)
    return ScaleResult(n=n, wall_s=wall_s, costs_s=costs_s)


def run(n: int = 1000, smoke: bool = False) -> ThroughputReport:
    if smoke:
        n = min(n, 64)
    return ThroughputReport(
        n=n,
        object_side=measure_object_scale(n),
        subject_side=measure_subject_scale(n),
    )


if __name__ == "__main__":  # pragma: no cover - manual invocation
    import sys

    smoke = "--smoke" in sys.argv
    print(run(smoke=smoke).render())
