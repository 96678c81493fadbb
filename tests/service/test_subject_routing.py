"""One subject-side router: the simulator and the client agree.

Both hosts hand every parsed flight to ``SubjectTracker.receive``, so a
flight meant for an object (QUE1, QUE2 or RQUE) reflected at a subject
gets the same treatment on either wire: one error record in the engine
and no answer.  The mirror of ``test_object_routing.py``.
"""

import pytest

from repro.crypto.costmodel import NEXUS6, RASPBERRY_PI3
from repro.crypto.primitives import fresh_nonce
from repro.net.node import GroundNetwork, SimNode
from repro.net.radio import DEFAULT_WIFI
from repro.net.simulator import Simulator
from repro.net.topology import SUBJECT, star
from repro.protocol.errors import MessageFormatError
from repro.protocol.messages import Que1, Rque
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine
from repro.service.client import SubjectServiceClient

KINDS = ("Que1", "Que2", "Rque")
ADDR = ("127.0.0.1", 47000)


def _flight(kind: str, subject, object_creds):
    """A QUE1, a real QUE2 or an RQUE: each meant for an object."""
    if kind == "Que1":
        return Que1(fresh_nonce())
    if kind == "Rque":
        return Rque(ticket=b"t" * 64, r_s=fresh_nonce(), binder=bytes(32))
    engine = SubjectEngine(subject)
    res1 = ObjectEngine(object_creds).handle_que1(engine.start_round(), "s")
    return engine.handle_res1(res1, "o")


def _assert_one_reflection_error(engine: SubjectEngine, mark: int, kind: str) -> None:
    fresh = engine.errors_since(mark)
    assert len(fresh) == 1
    assert isinstance(fresh[0], MessageFormatError)
    assert str(fresh[0]) == f"{kind} addressed to a subject"


@pytest.mark.parametrize("kind", KINDS)
def test_ground_network_records_one_error_and_sends_nothing(level2_fleet, kind):
    subject, objects, _ = level2_fleet
    object_id = objects[0].object_id
    engine = SubjectEngine(subject)
    sim = Simulator()
    net = GroundNetwork(sim, star([object_id]), DEFAULT_WIFI)
    net.add_node(SimNode(SUBJECT, "subject", NEXUS6, engine))
    net.add_node(SimNode(object_id, "object", RASPBERRY_PI3))
    mark = engine.errors_recorded

    net.unicast(object_id, SUBJECT, _flight(kind, subject, objects[0]))
    sim.run(until=10.0)

    _assert_one_reflection_error(engine, mark, kind)
    assert net.nodes[SUBJECT].radio.messages_sent == 0


@pytest.mark.parametrize("kind", KINDS)
def test_client_records_one_error_and_sends_nothing(level2_fleet, kind):
    subject, objects, _ = level2_fleet
    client = SubjectServiceClient(subject)
    client.tracker.start_round([ADDR])  # the frame comes from an awaited peer
    mark = client.engine.errors_recorded

    client.datagram_received(_flight(kind, subject, objects[0]).to_bytes(), ADDR)

    _assert_one_reflection_error(client.engine, mark, kind)
    assert client.stats.frames_rx == 1
    assert client.stats.frames_tx == 0
    assert client.tracker.awaits(ADDR)
