"""GroundNetwork: routing, contention, broadcast flooding, sizes."""

import pytest

from repro.crypto.costmodel import NEXUS6, RASPBERRY_PI3
from repro.net.node import GroundNetwork, SimNode, SizeMode, message_size
from repro.net.radio import LinkModel
from repro.net.simulator import Simulator
from repro.net.topology import SUBJECT, multihop, star
from repro.protocol.messages import Que1, Que2, Res1, Res1Level1, Res2

LINK = LinkModel(access_delay_s=0.01, frame_overhead_s=0.001, bitrate_bps=1e6)


def make_net(graph):
    sim = Simulator()
    net = GroundNetwork(sim, graph, LINK)
    for name, role in graph.roles.items():
        profile = NEXUS6 if role == "subject" else RASPBERRY_PI3
        net.add_node(SimNode(name, role, profile))
    return sim, net


class TestMessageSize:
    def test_nominal_sizes(self):
        assert message_size(Que1(b"n" * 28), SizeMode.NOMINAL) == 28
        assert message_size(Res1Level1(b"p"), SizeMode.NOMINAL) == 200
        assert message_size(Res1(b"n" * 28, b"c", b"k", b"s"), SizeMode.NOMINAL) == 772
        assert message_size(
            Que2(b"p", b"c", b"k", b"s", b"m" * 32, b"m" * 32), SizeMode.NOMINAL
        ) == 1008
        assert message_size(
            Que2(b"p", b"c", b"k", b"s", b"m" * 32, None), SizeMode.NOMINAL
        ) == 976
        assert message_size(Res2(b"ct", b"m" * 32), SizeMode.NOMINAL) == 280

    def test_actual_sizes(self):
        q = Que1(b"n" * 28)
        assert message_size(q, SizeMode.ACTUAL) == len(q.to_bytes())

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            message_size(object(), SizeMode.NOMINAL)


class TestDelivery:
    def test_unicast_single_hop(self):
        sim, net = make_net(star(["a"]))
        deliveries = []
        net.on_delivery = lambda t, s, d, m: deliveries.append((t, s, d))
        net.unicast(SUBJECT, "a", Que1(b"n" * 28))
        sim.run()
        assert len(deliveries) == 1
        (t, s, d) = deliveries[0]
        assert (s, d) == (SUBJECT, "a")
        expected = LINK.access_delay_s + LINK.occupancy(28)
        assert t == pytest.approx(expected)

    def test_unicast_multihop_latency_scales(self):
        graph = multihop([["near"], ["far"]])
        sim, net = make_net(graph)
        times = {}
        net.on_delivery = lambda t, s, d, m: times.setdefault(d, t)
        net.unicast(SUBJECT, "near", Que1(b"a" * 28))
        sim.run()
        t_near = times["near"]
        sim2, net2 = make_net(graph)
        times2 = {}
        net2.on_delivery = lambda t, s, d, m: times2.setdefault(d, t)
        net2.unicast(SUBJECT, "far", Que1(b"a" * 28))
        sim2.run()
        assert times2["far"] > 1.8 * t_near

    def test_unicast_peer_id_is_origin(self):
        """Replies from hop-2 objects must see the subject, not the relay."""
        graph = multihop([[], ["deep"]])
        sim, net = make_net(graph)
        seen = []
        net.on_delivery = lambda t, s, d, m: seen.append((s, d))
        net.unicast(SUBJECT, "deep", Que1(b"a" * 28))
        sim.run()
        assert (SUBJECT, "deep") in seen

    def test_contention_serializes_on_shared_radio(self):
        sim, net = make_net(star(["a", "b", "c"]))
        times = {}
        net.on_delivery = lambda t, s, d, m: times.setdefault(d, t)
        for dst in ("a", "b", "c"):
            net.unicast(SUBJECT, dst, Res1Level1(b"x" * 200))
        sim.run()
        sorted_times = sorted(times.values())
        occ = LINK.occupancy(200)
        # deliveries must be spaced by at least one occupancy window
        assert sorted_times[1] - sorted_times[0] == pytest.approx(occ, rel=0.01)
        assert sorted_times[2] - sorted_times[1] == pytest.approx(occ, rel=0.01)


class TestBroadcast:
    def test_reaches_all_star_nodes(self):
        sim, net = make_net(star(["a", "b", "c"]))
        got = set()
        net.on_delivery = lambda t, s, d, m: got.add(d)
        net.broadcast(SUBJECT, Que1(b"q" * 28))
        sim.run()
        assert got == {"a", "b", "c"}

    def test_relays_rebroadcast_once(self):
        graph = multihop([["a"], ["b"], ["c"]])
        sim, net = make_net(graph)
        got = []
        net.on_delivery = lambda t, s, d, m: got.append(d)
        net.broadcast(SUBJECT, Que1(b"q" * 28))
        sim.run()
        # each object receives exactly once (relays dedup)
        for obj in ("a", "b", "c"):
            assert got.count(obj) == 1

    def test_single_transmission_per_neighborhood(self):
        """Wireless broadcast: the subject transmits ONCE for all
        one-hop neighbors."""
        sim, net = make_net(star(["a", "b", "c"]))
        net.broadcast(SUBJECT, Que1(b"q" * 28))
        sim.run()
        assert net.nodes[SUBJECT].radio.messages_sent == 1


class TestRouting:
    def test_route_follows_the_relay_chain_both_ways(self):
        _, net = make_net(multihop([["a"], ["b"], ["c"]]))
        assert net._route(SUBJECT, "c") == [SUBJECT, "relay-1", "relay-2", "c"]
        assert net._route("c", SUBJECT) == ["c", "relay-2", "relay-1", SUBJECT]

    def test_unicast_to_an_unreachable_node_raises(self):
        graph = star(["a"])
        graph.add_node("island", "object")
        _, net = make_net(graph)
        with pytest.raises(ValueError, match="no path"):
            net.unicast(SUBJECT, "island", Que1(b"q" * 28))

    def test_broadcast_reaches_neighbors_in_edge_order(self):
        sim, net = make_net(star(["c", "a", "b"]))
        got = []
        net.on_delivery = lambda t, s, d, m: got.append(d)
        net.broadcast(SUBJECT, Que1(b"q" * 28))
        sim.run()
        assert got == ["c", "a", "b"]
