"""End-to-end over the simulator: discover, then command, all on the air."""

import pytest

from repro.access import CommandClient, CommandHandler
from repro.backend import Backend
from repro.crypto.costmodel import NEXUS6, RASPBERRY_PI3
from repro.net.node import GroundNetwork, SimNode
from repro.net.radio import DEFAULT_WIFI
from repro.net.simulator import Simulator
from repro.net.topology import SUBJECT, multihop, star
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine


def _build(graph, subject_creds, object_creds_list, implementations):
    sim = Simulator()
    net = GroundNetwork(sim, graph, DEFAULT_WIFI)
    subject_engine = SubjectEngine(subject_creds)
    subject_node = SimNode(SUBJECT, "subject", NEXUS6, subject_engine)
    subject_node.command_client = CommandClient(subject_engine)
    net.add_node(subject_node)
    for creds in object_creds_list:
        engine = ObjectEngine(creds)
        node = SimNode(creds.object_id, "object", RASPBERRY_PI3, engine)
        node.command_handler = CommandHandler(engine)
        for fn, impl in implementations.items():
            node.command_handler.register(fn, impl)
        net.add_node(node)
    for name, role in graph.roles.items():
        if role == "relay":
            net.add_node(SimNode(name, "relay", RASPBERRY_PI3))
    return sim, net, subject_engine, subject_node


@pytest.fixture
def lock_world():
    backend = Backend()
    manager = backend.register_subject("mgr", {"position": "manager"})
    lock = backend.register_object(
        "lock-1", {"type": "door lock"}, level=2, functions=("open",),
        variants=[("position=='manager'", ("open", "close"))],
    )
    return manager, lock


class TestAccessOverNetwork:
    def test_discover_then_command(self, lock_world):
        manager, lock = lock_world
        graph = star(["lock-1"])
        sim, net, engine, subject_node = _build(
            graph, manager, [lock], {"open": lambda args: b"door opened"}
        )

        que1 = engine.start_round()
        sim.schedule(0.0, lambda: net.broadcast(SUBJECT, que1))
        sim.run()
        assert "lock-1" in engine.established

        command = subject_node.command_client.build_command("lock-1", "open")
        sim.schedule(0.0, lambda: net.unicast(SUBJECT, "lock-1", command))
        sim.run()
        assert subject_node.command_results
        _, peer, payload = subject_node.command_results[-1]
        assert (peer, payload) == ("lock-1", b"door opened")

    def test_command_latency_accumulates(self, lock_world):
        """The command round trip costs real simulated time after the
        discovery finished."""
        manager, lock = lock_world
        sim, net, engine, subject_node = _build(
            star(["lock-1"]), manager, [lock], {"open": lambda args: b"ok"}
        )
        que1 = engine.start_round()
        sim.schedule(0.0, lambda: net.broadcast(SUBJECT, que1))
        sim.run()
        t_discovery = sim.now
        command = subject_node.command_client.build_command("lock-1", "open")
        net.unicast(SUBJECT, "lock-1", command)
        sim.run()
        assert sim.now > t_discovery + 0.05  # two more airtime legs

    def test_command_over_multihop(self, lock_world):
        manager, lock = lock_world
        graph = multihop([[], ["lock-1"]])  # lock is 2 hops away
        sim, net, engine, subject_node = _build(
            graph, manager, [lock], {"open": lambda args: b"ok"}
        )
        que1 = engine.start_round()
        sim.schedule(0.0, lambda: net.broadcast(SUBJECT, que1))
        sim.run()
        command = subject_node.command_client.build_command("lock-1", "open")
        net.unicast(SUBJECT, "lock-1", command)
        sim.run()
        assert subject_node.command_results[-1][2] == b"ok"

    def test_denied_command_over_network(self, lock_world):
        """An ungranted function comes back as an authenticated denial;
        the client records the failure without crashing the simulation."""
        manager, lock = lock_world
        sim, net, engine, subject_node = _build(
            star(["lock-1"]), manager, [lock], {"open": lambda args: b"ok"}
        )
        que1 = engine.start_round()
        sim.schedule(0.0, lambda: net.broadcast(SUBJECT, que1))
        sim.run()
        command = subject_node.command_client.build_command("lock-1", "reboot")
        net.unicast(SUBJECT, "lock-1", command)
        sim.run()
        t, peer, payload = subject_node.command_results[-1]
        assert payload == b""  # denial recorded, no result payload
        assert any("denied" in str(e) for e in engine.errors)
