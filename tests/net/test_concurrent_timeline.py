"""ConcurrentTimeline helpers and shared_floor topology unit tests."""

import pytest

from repro.net.run import ConcurrentTimeline
from repro.net.topology import shared_floor


class TestConcurrentTimeline:
    def test_makespan_and_mean(self):
        timeline = ConcurrentTimeline(
            subject_completion={"a": 1.0, "b": 3.0}, discovered_counts={"a": 2, "b": 2}
        )
        assert timeline.makespan == 3.0
        assert timeline.mean_completion == 2.0

    def test_empty_timeline(self):
        timeline = ConcurrentTimeline()
        assert timeline.makespan == 0.0
        assert timeline.mean_completion == 0.0


class TestSharedFloor:
    def test_all_subjects_hear_all_objects(self):
        graph = shared_floor(["s1", "s2"], ["o1", "o2", "o3"])
        for subject in ("s1", "s2"):
            assert set(graph.neighbors(subject)) == {"o1", "o2", "o3"}

    def test_subjects_not_directly_linked(self):
        graph = shared_floor(["s1", "s2"], ["o1"])
        assert not graph.has_edge("s1", "s2")

    def test_roles(self):
        graph = shared_floor(["s1"], ["o1"])
        assert graph.roles["s1"] == "subject"
        assert graph.roles["o1"] == "object"
