"""§IX headline — Argus 105 ms vs ABE/PBC >= 10x (128-bit).

Benchmarks the three schemes' critical paths on real code and records
the calibrated paper-hardware ratios.

Also the regression-baseline emitter: ``python benchmarks/bench_headline.py``
measures the cold-vs-warm handshake latency (hot-path optimization layer:
ephemeral-key pool + verification caches, docs/performance.md) and the
experiment runner's sequential/parallel wall-clock, then writes the
committed ``BENCH_headline.json`` so future PRs have a baseline to diff.
"""

import json
import platform
import statistics
import time
from pathlib import Path

import pytest

from repro.analysis.timing_model import headline_computation_ms
from repro.crypto import keypool
from repro.crypto.abe import CpAbe, policy_of_attributes
from repro.crypto.costmodel import NEXUS6, RASPBERRY_PI3, abe_decrypt_ms
from repro.crypto.pairing import PairingGroup
from repro.crypto.secret_handshake import HandshakeAuthority, run_handshake
from repro.experiments.common import make_level_fleet
from repro.pki import certificate as certificate_mod
from repro.pki import profile as profile_mod
from repro.protocol.discovery import run_round
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_headline.json"


def test_bench_argus_level2_handshake(benchmark):
    subject_creds, object_creds, _ = make_level_fleet(1, 2)
    subject = SubjectEngine(subject_creds)
    objects = {c.object_id: ObjectEngine(c) for c in object_creds}
    run_round(subject, objects)
    benchmark(run_round, subject, objects)
    argus_ms = headline_computation_ms()
    benchmark.extra_info["paper_hw_ms"] = argus_ms
    assert argus_ms == pytest.approx(105.6, abs=1.0)


def test_bench_abe_discovery_path(benchmark):
    scheme = CpAbe()
    pk, mk = scheme.setup()
    sk = scheme.keygen(mk, {"dept:X", "pos:staff"})
    ct = scheme.encrypt(
        pk, scheme.group.random_gt(), policy_of_attributes(["dept:X", "pos:staff"])
    )
    benchmark(scheme.decrypt, pk, sk, ct)
    abe_ms = abe_decrypt_ms(2)
    benchmark.extra_info["paper_hw_ms"] = abe_ms
    benchmark.extra_info["ratio_vs_argus"] = abe_ms / headline_computation_ms()
    assert abe_ms / headline_computation_ms() >= 10


def test_bench_pbc_discovery_path(benchmark):
    group = PairingGroup()
    auth = HandshakeAuthority(group)
    a, b = auth.issue(b"s"), auth.issue(b"o")
    benchmark(run_handshake, group, a, b)
    pbc_ms = NEXUS6.pairing_ms + RASPBERRY_PI3.pairing_ms
    benchmark.extra_info["paper_hw_ms"] = pbc_ms
    benchmark.extra_info["ratio_vs_argus"] = pbc_ms / headline_computation_ms()
    assert pbc_ms / headline_computation_ms() >= 10


# -- hot-path optimization baseline (BENCH_headline.json) -----------------------


def measure_cold_warm_handshake(iterations: int = 40) -> dict:
    """Median wall-clock of a Level 2 handshake round, cold vs warm.

    * cold: first contact — fresh engines (empty chain caches), cleared
      profile-verification cache and parse cache (which also drops every
      certificate's memo of the issuer keys it verified under, as
      ``bench_throughput.wall_pass`` does), key pool disabled (inline
      ECDH keygen).
    * warm: returning subject — same engines, every cache primed, the
      ephemeral-key pool pre-filled (background refill off so the pool
      never generates on the timed path).
    """
    subject_creds, object_creds, _ = make_level_fleet(1, 2)

    keypool.configure(enabled=False)
    try:
        cold = []
        for _ in range(iterations):
            profile_mod.clear_verify_cache()
            certificate_mod.clear_parse_cache()
            subject = SubjectEngine(subject_creds)
            objects = {c.object_id: ObjectEngine(c) for c in object_creds}
            t0 = time.perf_counter()
            run_round(subject, objects)
            cold.append(time.perf_counter() - t0)

        pool = keypool.configure(
            enabled=True, background_refill=False, low_water=0
        )
        pool.drain()
        pool.prime(2 * (iterations + 2))
        subject = SubjectEngine(subject_creds)
        objects = {c.object_id: ObjectEngine(c) for c in object_creds}
        run_round(subject, objects)  # prime leaf/profile caches
        warm = []
        for _ in range(iterations):
            t0 = time.perf_counter()
            run_round(subject, objects)
            warm.append(time.perf_counter() - t0)
    finally:
        keypool.configure(enabled=True, background_refill=True, low_water=4)

    cold_ms = statistics.median(cold) * 1000.0
    warm_ms = statistics.median(warm) * 1000.0
    return {
        "iterations": iterations,
        "cold_ms": round(cold_ms, 4),
        "warm_ms": round(warm_ms, 4),
        "reduction_pct": round(100.0 * (1.0 - warm_ms / cold_ms), 1),
    }


def measure_runner_wallclock(jobs: int = 4) -> dict:
    """Wall-clock of the full experiment report, sequential vs parallel.

    On a single-core host the process pool cannot beat sequential, so
    :func:`repro.experiments.runner.effective_jobs` drops the parallel
    request back to sequential — ``effective_jobs`` records which regime
    the baseline actually captured, and the speedup gate is
    ``>= 0.95`` there (no pool, no pool overhead).  The byte-identity of
    parallel vs sequential sections is what the tests assert; the
    speedup is hardware-dependent.
    """
    import os

    from repro.experiments import runner

    names = list(runner.ALL)
    t0 = time.perf_counter()
    runner.run_all_timed(names, jobs=1)
    sequential_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    runner.run_all_timed(names, jobs=jobs)
    parallel_s = time.perf_counter() - t0
    return {
        "experiments": len(names),
        "cpus": os.cpu_count(),
        "sequential_s": round(sequential_s, 3),
        "jobs": jobs,
        "effective_jobs": runner.effective_jobs(jobs, len(names)),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(sequential_s / parallel_s, 2),
    }


def test_warm_handshake_latency_reduction():
    """Acceptance: warm path (pool primed, caches hot) >= 30% faster."""
    result = measure_cold_warm_handshake(iterations=25)
    assert result["reduction_pct"] >= 30.0, result


def write_baseline(path: Path = BASELINE_PATH) -> dict:
    baseline = {
        "generated_by": "benchmarks/bench_headline.py",
        "generated_on": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "paper_hw_argus_ms": headline_computation_ms(),
        "handshake": measure_cold_warm_handshake(),
        "runner": measure_runner_wallclock(jobs=2),
    }
    path.write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


if __name__ == "__main__":
    print(json.dumps(write_baseline(), indent=2))
