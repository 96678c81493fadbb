"""Throughput-scale discovery — gates and the committed baseline.

``python benchmarks/bench_throughput.py`` runs the 1000-handshake scale
experiment (:mod:`repro.experiments.throughput`) and writes
``BENCH_throughput.json``.  ``--smoke`` shrinks the batch for CI.

The committed gates (asserted by the test functions here):

* **calibrated** handshakes/sec at 4 lanes is >= 2.5x one lane on the
  object-side and subject-side scale batches.  Calibrated throughput
  prices each sequential handshake's metered §IX-B ops on the paper's
  hardware (the quad-core Raspberry Pi 3 object, the Nexus 6 subject)
  and packs the batch greedily onto compute lanes, so the gate is
  deterministic on any host.
* the **sequential wall floor gate**: the scalar object-side path must
  reach 2,500 handshakes/s, or — on hosts whose raw OpenSSL ops cap the
  theoretical maximum below that — 55% of this host's measured crypto
  floor (3 verifies + 1 ECDH derive; :func:`measure_crypto_floor`).
  The floor-relative form means the gate measures *our* overhead, not
  the CI container's clock speed.
* the **smoke regression guard**: floor-normalized sequential
  efficiency (seq hs/s ÷ floor hs/s) must stay within 20% of the
  committed baseline's — catches scalar-path regressions on any host,
  any size, because the normalization cancels the hardware out.
"""

import argparse
import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.experiments.throughput import (
    CALIBRATED_GATE_AT_4,
    LANE_SWEEP,
    SEQUENTIAL_FLOOR_FRACTION,
    SEQUENTIAL_WALL_GATE_HPS,
    measure_crypto_floor,
    measure_object_scale,
    measure_subject_scale,
)
from repro.pki import profile as profile_mod

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

FULL_N = 1000
SMOKE_N = 64

#: Smoke regression guard: floor-normalized sequential efficiency may
#: drop at most this fraction below the committed baseline's.
REGRESSION_TOLERANCE = 0.20

_FLOOR_CACHE: dict | None = None


def host_crypto_floor() -> dict:
    """This host's measured crypto floor, cached for the test session."""
    global _FLOOR_CACHE
    if _FLOOR_CACHE is None:
        _FLOOR_CACHE = measure_crypto_floor()
    return _FLOOR_CACHE


def sequential_wall_target(floor_hps: float) -> float:
    """The host-calibrated scalar gate: the absolute bar, or the
    floor-relative one where raw OpenSSL speed puts the absolute bar
    physically out of reach."""
    return min(SEQUENTIAL_WALL_GATE_HPS, SEQUENTIAL_FLOOR_FRACTION * floor_hps)


def _result_to_json(result) -> dict:
    return {
        "n": result.n,
        "sequential_wall_s": round(result.wall_s, 4),
        "sequential_wall_handshakes_per_s": round(result.wall_hps, 2),
        "calibrated": [
            {
                "lanes": lanes,
                "calibrated_s": round(result.calibrated_s(lanes), 4),
                "calibrated_handshakes_per_s": round(result.calibrated_hps(lanes), 2),
                "calibrated_speedup": round(result.calibrated_speedup(lanes), 3),
            }
            for lanes in LANE_SWEEP
        ],
    }


# -- gates ---------------------------------------------------------------------


@pytest.fixture
def scale_n(request) -> int:
    return SMOKE_N if request.config.getoption("--smoke") else FULL_N


def test_calibrated_speedup_gate_object_side(scale_n):
    """>= 2.5x calibrated handshakes/sec at 4 lanes (deterministic)."""
    result = measure_object_scale(scale_n)
    speedup = result.calibrated_speedup(4)
    assert speedup >= CALIBRATED_GATE_AT_4, _result_to_json(result)


def test_calibrated_speedup_gate_subject_side(scale_n):
    result = measure_subject_scale(scale_n)
    speedup = result.calibrated_speedup(4)
    assert speedup >= CALIBRATED_GATE_AT_4, _result_to_json(result)


def test_sequential_wall_floor_gate(scale_n):
    """The scalar path must reach 2,500 hs/s — or 55% of this host's
    measured crypto floor where the absolute bar is out of physical
    reach (raw per-op OpenSSL costs alone exceed 1/2500 s)."""
    floor = host_crypto_floor()
    result = measure_object_scale(scale_n)
    target = sequential_wall_target(floor["floor_hps"])
    assert result.wall_hps >= target, {
        "sequential_wall_hps": result.wall_hps,
        "target": target,
        "floor": floor,
    }


def test_sequential_wall_regression_guard(scale_n):
    """Floor-normalized scalar throughput vs the committed baseline.

    Efficiency = sequential hs/s ÷ this host's floor hs/s cancels the
    hardware, so the smoke run on any CI container can catch a >20%
    scalar-path regression against a baseline recorded elsewhere.
    """
    if not BASELINE_PATH.exists():
        pytest.skip("no committed baseline")
    baseline = json.loads(BASELINE_PATH.read_text())
    base_floor = baseline.get("crypto_floor")
    if not base_floor or "sequential_efficiency" not in base_floor:
        pytest.skip("baseline predates the crypto-floor field; regenerate it")
    floor = host_crypto_floor()
    result = measure_object_scale(scale_n)
    efficiency = result.wall_hps / floor["floor_hps"]
    allowed = base_floor["sequential_efficiency"] * (1.0 - REGRESSION_TOLERANCE)
    assert efficiency >= allowed, {
        "sequential_wall_hps": result.wall_hps,
        "efficiency": round(efficiency, 4),
        "baseline_efficiency": base_floor["sequential_efficiency"],
        "allowed_min": round(allowed, 4),
        "floor": floor,
    }


# -- baseline ------------------------------------------------------------------


def _measure_all(n: int) -> dict:
    floor = host_crypto_floor()
    profile_mod.clear_verify_cache()
    object_side = measure_object_scale(n)
    subject_side = measure_subject_scale(n)
    sequential_efficiency = round(object_side.wall_hps / floor["floor_hps"], 4)
    return {
        "crypto_floor": {**floor, "sequential_efficiency": sequential_efficiency},
        "object_side": _result_to_json(object_side),
        "subject_side": _result_to_json(subject_side),
    }


def write_baseline(path: Path = BASELINE_PATH, n: int = FULL_N) -> dict:
    baseline = {
        "generated_by": "benchmarks/bench_throughput.py",
        "generated_on": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "host_cpus": os.cpu_count(),
        "gate": {
            "calibrated_speedup_at_4_lanes_min": CALIBRATED_GATE_AT_4,
            "sequential_wall_hps_min": SEQUENTIAL_WALL_GATE_HPS,
            "sequential_floor_fraction": SEQUENTIAL_FLOOR_FRACTION,
            "regression_tolerance": REGRESSION_TOLERANCE,
            "note": (
                "calibrated = metered ops of the sequential handlers priced "
                "on paper hardware, packed greedily onto compute lanes; "
                "deterministic on any host. wall = this host, unmetered "
                "sequential timed loop. The absolute wall bar falls back to "
                "floor-relative form on hosts whose raw OpenSSL op costs put "
                "it out of reach; the regression guard compares "
                "floor-normalized efficiency, which transfers across hosts."
            ),
        },
        **_measure_all(n),
    }
    path.write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"small batch (n={SMOKE_N}) and skip writing the baseline",
    )
    args = parser.parse_args()
    if args.smoke:
        print(json.dumps(_measure_all(SMOKE_N), indent=2))
    else:
        print(json.dumps(write_baseline(), indent=2))
