"""Extension benchmark: concurrent subjects on one shared channel.

Not a paper figure; quantifies contention as the floor gets crowded
(see repro.experiments.concurrent_subjects).
"""

import pytest

from repro.experiments.concurrent_subjects import build_floor
from repro.net.run import simulate_concurrent_discovery


@pytest.mark.parametrize("n_subjects", [1, 4, 8])
def test_bench_concurrent_floor(benchmark, n_subjects):
    subjects, objects = build_floor(n_subjects, n_objects=8)
    timeline = benchmark(simulate_concurrent_discovery, subjects, objects)
    assert len(timeline.subject_completion) == n_subjects
    benchmark.extra_info["mean_completion_s"] = timeline.mean_completion
    benchmark.extra_info["makespan_s"] = timeline.makespan


def test_contention_monotonicity():
    makespans = []
    for n in (1, 4, 8):
        subjects, objects = build_floor(n, n_objects=8)
        makespans.append(
            simulate_concurrent_discovery(subjects, objects).makespan
        )
    assert makespans == sorted(makespans)
