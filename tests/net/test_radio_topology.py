"""Link model and topology tests."""

import random

import pytest

from repro.net.radio import DEFAULT_WIFI, JITTERY_WIFI, LinkModel, Radio
from repro.net.topology import (
    SUBJECT,
    Topology,
    hop_distance,
    multihop,
    paper_multihop,
    random_building,
    shared_floor,
    star,
)


class TestLinkModel:
    def test_occupancy_grows_with_size(self):
        assert DEFAULT_WIFI.occupancy(1000) > DEFAULT_WIFI.occupancy(100)

    def test_occupancy_formula(self):
        link = LinkModel(frame_overhead_s=0.01, bitrate_bps=1000)
        assert link.occupancy(500) == pytest.approx(0.01 + 0.5)

    def test_jitter_varies(self):
        rng = random.Random(1)
        samples = {JITTERY_WIFI.occupancy(500, rng) for _ in range(10)}
        assert len(samples) > 1

    def test_jitter_never_negative(self):
        rng = random.Random(2)
        assert all(JITTERY_WIFI.occupancy(10, rng) > 0 for _ in range(200))

    def test_no_jitter_deterministic(self):
        rng = random.Random(3)
        assert DEFAULT_WIFI.occupancy(500, rng) == DEFAULT_WIFI.occupancy(500)


class TestRadio:
    def test_reserve_serializes(self):
        radio = Radio("r")
        s1, e1 = radio.reserve(0.0, 1.0)
        s2, e2 = radio.reserve(0.5, 1.0)
        assert (s1, e1) == (0.0, 1.0)
        assert (s2, e2) == (1.0, 2.0)  # queued behind the first


class TestTopology:
    def test_star(self):
        g = star(["a", "b", "c"])
        assert all(hop_distance(g, o) == 1 for o in ("a", "b", "c"))

    def test_multihop_distances(self):
        g = multihop([["a", "b"], ["c"], ["d"]])
        assert hop_distance(g, "a") == 1
        assert hop_distance(g, "c") == 2
        assert hop_distance(g, "d") == 3

    def test_relay_roles(self):
        g = multihop([["a"], ["b"], ["c"]])
        relays = [n for n, role in g.roles.items() if role == "relay"]
        assert relays == ["relay-1", "relay-2"]

    def test_paper_multihop_split(self):
        g = paper_multihop([f"o{i}" for i in range(20)], 4)
        by_hop = {}
        for i in range(20):
            by_hop.setdefault(hop_distance(g, f"o{i}"), []).append(i)
        assert {h: len(v) for h, v in by_hop.items()} == {1: 5, 2: 5, 3: 5, 4: 5}

    def test_paper_multihop_leftovers(self):
        g = paper_multihop([f"o{i}" for i in range(7)], 2)
        hops = [hop_distance(g, f"o{i}") for i in range(7)]
        assert hops.count(1) == 3 and hops.count(2) == 4

    def test_too_few_objects_rejected(self):
        with pytest.raises(ValueError):
            paper_multihop(["a"], 4)

    def test_subject_present(self):
        assert SUBJECT in star(["a"])


class TestTopologyContract:
    """Routes, hop counts and neighbour order of every layout."""

    def test_star_routes(self):
        g = star(["a", "b"])
        assert g.shortest_path(SUBJECT, "b") == [SUBJECT, "b"]
        assert g.shortest_path("b", SUBJECT) == ["b", SUBJECT]
        assert g.shortest_path("a", "b") == ["a", SUBJECT, "b"]

    def test_multihop_routes_through_the_relay_chain(self):
        g = multihop([["a", "b"], ["c"], ["d"]])
        assert g.shortest_path(SUBJECT, "d") == [SUBJECT, "relay-1", "relay-2", "d"]
        assert g.shortest_path("d", "a") == ["d", "relay-2", "relay-1", SUBJECT, "a"]
        assert hop_distance(g, "relay-2") == 2

    def test_paper_multihop_five_objects_per_hop(self):
        ids = [f"o{i}" for i in range(20)]
        g = paper_multihop(ids, 4)
        for index, object_id in enumerate(ids):
            hop = index // 5 + 1
            assert hop_distance(g, object_id) == hop
            relays = [f"relay-{k}" for k in range(1, hop)]
            assert g.shortest_path(SUBJECT, object_id) == [SUBJECT, *relays, object_id]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_building_routes_run_over_relays(self, seed):
        ids = [f"o{i}" for i in range(12)]
        g = random_building(ids, n_relays=4, seed=seed)
        assert len(list(g.edges())) == len(g.roles) - 1  # a tree
        for object_id in ids:
            path = g.shortest_path(SUBJECT, object_id)
            assert len(path) - 1 == hop_distance(g, object_id)
            assert all(g.roles[n] == "relay" for n in path[1:-1])
            assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))

    def test_shared_floor_routes(self):
        g = shared_floor(["s1", "s2"], ["o1", "o2"])
        assert g.shortest_path("s2", "o1") == ["s2", "o1"]
        assert hop_distance(g, "o2", "s1") == 1
        assert hop_distance(g, "s2", "s1") == 2

    def test_neighbors_follow_edge_insertion_order(self):
        assert list(star(["c", "a", "b"]).neighbors(SUBJECT)) == ["c", "a", "b"]
        g = multihop([["z"], ["y", "x"]])
        assert list(g.neighbors(SUBJECT)) == ["z", "relay-1"]
        assert list(g.neighbors("relay-1")) == [SUBJECT, "y", "x"]
        floor = shared_floor(["s2", "s1"], ["o2", "o1"])
        assert list(floor.neighbors("o1")) == ["s2", "s1"]
        assert list(floor.neighbors("s1")) == ["o2", "o1"]

    def test_edges_and_roles(self):
        g = multihop([["a"], ["b"]])
        assert list(g.edges()) == [
            (SUBJECT, "a"), (SUBJECT, "relay-1"), ("relay-1", "b"),
        ]
        assert g.has_edge("b", "relay-1") and g.has_edge("relay-1", "b")
        assert not g.has_edge(SUBJECT, "b")
        assert g.roles == {
            SUBJECT: "subject", "a": "object", "relay-1": "relay", "b": "object",
        }

    def test_unreachable_node_raises(self):
        g = star(["a"])
        g.add_node("island", "object")
        with pytest.raises(ValueError, match="no path"):
            hop_distance(g, "island")
        with pytest.raises(ValueError, match="not in the topology"):
            hop_distance(g, "nowhere")

    def test_edge_needs_both_nodes(self):
        g = Topology()
        g.add_node(SUBJECT, "subject")
        with pytest.raises(ValueError, match="not in the topology"):
            g.add_edge(SUBJECT, "ghost")
        assert list(g.neighbors(SUBJECT)) == []
