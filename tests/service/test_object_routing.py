"""One object-side router: the simulator and the daemon agree.

Both hosts hand every parsed flight to ``ObjectEngine.receive``, so a
misaddressed flight gets the same treatment on either wire: one error
record in the engine and no answer.  The flight here is the object's
own RES1 reflected back at it.
"""

from repro.crypto.costmodel import NEXUS6, RASPBERRY_PI3
from repro.crypto.primitives import fresh_nonce
from repro.net.node import GroundNetwork, SimNode
from repro.net.radio import DEFAULT_WIFI
from repro.net.simulator import Simulator
from repro.net.topology import SUBJECT, star
from repro.protocol.errors import MessageFormatError
from repro.protocol.messages import Que1, Res1
from repro.protocol.object import ObjectEngine
from repro.service.daemon import ObjectServiceDaemon


def _own_res1(engine: ObjectEngine, peer: str) -> Res1:
    res1 = engine.handle_que1(Que1(fresh_nonce()), peer)
    assert isinstance(res1, Res1)
    return res1


def _assert_one_reflection_error(engine: ObjectEngine, mark: int) -> None:
    fresh = engine.errors_since(mark)
    assert len(fresh) == 1
    assert isinstance(fresh[0], MessageFormatError)
    assert str(fresh[0]) == "Res1 addressed to an object"


class TestReflectedRes1:
    def test_ground_network_records_one_error_and_sends_nothing(self, level2_fleet):
        _, objects, _ = level2_fleet
        creds = objects[0]
        engine = ObjectEngine(creds, resend_cached_res2=True)
        sim = Simulator()
        net = GroundNetwork(sim, star([creds.object_id]), DEFAULT_WIFI)
        net.add_node(SimNode(SUBJECT, "subject", NEXUS6))
        net.add_node(SimNode(creds.object_id, "object", RASPBERRY_PI3, engine))
        res1 = _own_res1(engine, SUBJECT)
        mark = engine.errors_recorded
        delivered = []
        net.on_delivery = lambda t, src, dst, message: delivered.append(dst)

        net.unicast(SUBJECT, creds.object_id, res1)
        sim.run(until=10.0)

        assert delivered == [creds.object_id]
        _assert_one_reflection_error(engine, mark)
        assert net.nodes[creds.object_id].radio.messages_sent == 0

    def test_daemon_dispatch_records_one_error_and_sends_nothing(self, level2_fleet):
        _, objects, _ = level2_fleet
        daemon = ObjectServiceDaemon(objects[0], clock=lambda: 0.0)
        res1 = _own_res1(daemon.engine, "10.0.0.1:5000")
        mark = daemon.engine.errors_recorded

        assert daemon.dispatch(res1.to_bytes(), "10.0.0.1:5000") is None

        _assert_one_reflection_error(daemon.engine, mark)
        assert daemon.stats["frames_out"] == 0
