"""Randomized building layouts: discovery is topology-agnostic."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.common import make_level_fleet
from repro.net.run import simulate_discovery
from repro.net.topology import SUBJECT, hop_distance, random_building


class TestRandomBuilding:
    def test_connected(self):
        graph = random_building([f"o{i}" for i in range(10)], n_relays=4, seed=1)
        reached, frontier = {SUBJECT}, [SUBJECT]
        while frontier:
            for neighbor in graph.neighbors(frontier.pop(0)):
                if neighbor not in reached:
                    reached.add(neighbor)
                    frontier.append(neighbor)
        assert reached == set(graph.roles)

    def test_deterministic_per_seed(self):
        ids = [f"o{i}" for i in range(6)]
        a = random_building(ids, seed=3)
        b = random_building(ids, seed=3)
        assert set(a.edges()) == set(b.edges())

    def test_seeds_differ(self):
        ids = [f"o{i}" for i in range(6)]
        edge_sets = {frozenset(random_building(ids, seed=s).edges()) for s in range(6)}
        assert len(edge_sets) > 1

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           n_relays=st.integers(min_value=0, max_value=6))
    def test_every_layout_supports_full_discovery(self, seed, n_relays):
        """Whatever tree the generator produces, all objects get found."""
        subject, objects, _ = _FLEET
        graph = random_building(
            [c.object_id for c in objects], n_relays=n_relays, seed=seed
        )
        timeline = simulate_discovery(subject, objects, graph=graph)
        assert len(timeline.completion) == len(objects)

    def test_deeper_objects_slower(self):
        subject, objects, _ = _FLEET
        graph = random_building([c.object_id for c in objects], n_relays=5, seed=7)
        timeline = simulate_discovery(subject, objects, graph=graph)
        # completion times correlate with hop distance: farthest >= nearest
        by_hops = timeline.mean_latency_by_hops()
        hops = sorted(by_hops)
        assert by_hops[hops[-1]] >= by_hops[hops[0]]


# One shared fleet: key generation dominates test time otherwise.
_FLEET = make_level_fleet(5, 2)
