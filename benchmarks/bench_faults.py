"""Fault injection and recovery — gates and the committed baseline.

``python benchmarks/bench_faults.py`` runs the chaos matrix
(:mod:`repro.experiments.fault_recovery`) and writes ``BENCH_faults.json``.
The committed gates (asserted by the test functions here, on the fixed
seeds the experiment pins — chaos runs are deterministic, so these are
exact, not statistical):

* with per-exchange retransmission + fresh QUE1 rounds, **>= 99%** of
  discoveries complete under 20% Gilbert–Elliott burst loss;
* the no-recovery baseline (one round, no retries) completes **< 80%**
  under the same schedules — the recovery stack is load-bearing;
* the retry layer itself fires (retransmissions > 0) and contributes
  beyond rounds alone;
* under loss + duplication faults the v3.0 structural distinguisher
  advantage stays **0.0** and the RES2 length spread stays **0 bytes**
  across every delivered copy, retransmissions included, with at least
  one QUE2 and one RES2 delivered per object in both fleets;
* identical seeds + identical ``FaultSchedule`` reproduce identical
  timelines (the determinism contract extended to failure modes).
"""

import json
import platform
import time
from pathlib import Path

from repro.experiments import fault_recovery
from repro.experiments.common import make_level_fleet
from repro.net.faults import burst_loss_schedule
from repro.net.run import simulate_discovery

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_faults.json"


# -- gates (run under pytest; fixed seeds, exact assertions) -------------------


def test_recovery_completion_gate():
    gate = fault_recovery.recovery_gate()
    assert gate["retries+rounds"]["completion_ratio"] >= 0.99, gate
    assert gate["no recovery"]["completion_ratio"] < 0.80, gate


def test_retry_layer_contributes():
    gate = fault_recovery.recovery_gate()
    assert gate["retries+rounds"]["retransmissions"] > 0, gate
    assert (
        gate["retries+rounds"]["completion_ratio"]
        >= gate["rounds only"]["completion_ratio"]
    ), gate
    assert (
        gate["retries only"]["completion_ratio"]
        > gate["no recovery"]["completion_ratio"]
    ), gate


def test_distinguisher_blind_under_faults():
    indist = fault_recovery.indistinguishability_under_faults()
    assert indist["advantage"] == 0.0, indist
    assert indist["res2_length_spread"] == 0, indist
    # The verdict must rest on every object of both fleets: each
    # population delivered at least one QUE2 and one RES2 per object.
    for population in indist["per_population"].values():
        assert population["que2_objects"] == indist["fleet"], indist
        assert population["res2_objects"] == indist["fleet"], indist


def test_chaos_runs_deterministic():
    subject_creds, object_creds, _ = make_level_fleet(8, level=2)
    schedule = burst_loss_schedule(0.20, seed=3)

    def once():
        timeline = simulate_discovery(
            subject_creds, object_creds, faults=schedule,
            retry=fault_recovery.RECOVERY, max_rounds=4, seed=3,
        )
        return (
            timeline.completion,
            timeline.retransmissions,
            timeline.messages_lost,
        )

    assert once() == once()


def write_baseline(path: Path = BASELINE_PATH) -> dict:
    baseline = {
        "generated_by": "benchmarks/bench_faults.py",
        "generated_on": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "gate": {
            "burst_loss": fault_recovery.GATE_LOSS,
            "fleet": fault_recovery.GATE_FLEET,
            "seeds": list(fault_recovery.GATE_SEEDS),
            "modes": fault_recovery.recovery_gate(),
        },
        "indistinguishability": fault_recovery.indistinguishability_under_faults(),
        "chaos_matrix": fault_recovery.chaos_matrix(),
    }
    path.write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


if __name__ == "__main__":
    print(json.dumps(write_baseline(), indent=2))
