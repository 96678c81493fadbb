"""SubjectTracker: one subject-side exchange tracker for every host.

The simulator and the live client both hand each parsed reply to
``SubjectTracker.receive`` and take what settled from ``collect``; these
tests drive it engine-to-engine, with no transport at all.
"""

from dataclasses import replace

import pytest

from repro.crypto.meter import metered
from repro.crypto.primitives import fresh_nonce
from repro.net.retry import Retransmissions, RetryPolicy
from repro.protocol.errors import MessageFormatError, SessionError
from repro.protocol.messages import Que1, Que2, Res1Level1, Rque, Rres
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine
from repro.protocol.tracker import SubjectTracker
from repro.protocol.versions import Version

PEER = "media-node"


@pytest.fixture
def tracker(staff):
    return SubjectTracker(SubjectEngine(staff, Version.V3_0), Retransmissions(RetryPolicy()))


@pytest.fixture
def media_engine(media):
    return ObjectEngine(media, Version.V3_0, issue_tickets=True, resend_cached_res2=True)


def _to_res2(tracker, media_engine, peer=PEER):
    """Run phase 1 and send the QUE2; returns (que2, res2)."""
    que1 = tracker.start_round([peer])
    res1 = media_engine.handle_que1(que1, "subject")
    que2 = tracker.receive(res1, peer)
    assert isinstance(que2, Que2)
    tracker.table.sent(peer, que2, 0.0)
    return que2, media_engine.handle_que2(que2, "subject")


class TestRound:
    def test_full_handshake_settles_once(self, tracker, media_engine):
        _, res2 = _to_res2(tracker, media_engine)
        assert tracker.receive(res2, PEER) is None
        assert not tracker.awaits(PEER)
        # The retry table lets go only when the host collects.
        assert tracker.table.next_deadline() is not None
        [(peer, service)] = tracker.collect()
        assert peer == PEER and service.object_id == "media-1"
        assert tracker.table.next_deadline() is None
        assert tracker.collect() == []
        assert tracker.object_at == {PEER: "media-1"}

    def test_level1_reply_settles(self, tracker, thermo_engine):
        que1 = tracker.start_round(["thermo-node"])
        res1 = thermo_engine.handle_que1(que1, "subject")
        assert isinstance(res1, Res1Level1)
        assert tracker.receive(res1, "thermo-node") is None
        [(_, service)] = tracker.collect()
        assert service.level_seen == 1

    def test_unsought_peer_dropped_unverified(self, tracker, media_engine):
        que1 = tracker.start_round(["someone-else"])
        res1 = media_engine.handle_que1(que1, "subject")
        mark = tracker.engine.errors_recorded
        with metered() as tally:
            assert tracker.receive(res1, PEER) is None
        assert tally.snapshot() == {}
        assert tracker.engine.errors_recorded == mark
        assert tracker.collect() == []

    def test_rejected_reply_ends_the_exchange(self, tracker, media_engine):
        _, res2 = _to_res2(tracker, media_engine)
        forged = replace(res2, mac_o=bytes(len(res2.mac_o)))
        assert tracker.receive(forged, PEER) is None
        assert not tracker.awaits(PEER)
        assert tracker.collect() == [(PEER, None)]
        assert tracker.table.next_deadline() is None  # no re-send of a dead QUE2

    def test_duplicate_res1_is_an_engine_error(self, tracker, media_engine):
        que1 = tracker.start_round([PEER])
        res1 = media_engine.handle_que1(que1, "subject")
        assert isinstance(tracker.receive(res1, PEER), Que2)
        mark = tracker.engine.errors_recorded
        assert tracker.receive(res1, PEER) is None
        [error] = tracker.engine.errors_since(mark)
        assert isinstance(error, SessionError)
        assert tracker.awaits(PEER)  # still awaiting its RES2
        assert tracker.collect() == []

    def test_give_up_still_takes_a_late_answer(self, tracker, media_engine):
        _, res2 = _to_res2(tracker, media_engine)
        resends, gave_up = tracker.table.due(1e9)
        assert (resends, gave_up) == ([], [PEER])
        assert tracker.awaits(PEER)
        tracker.receive(res2, PEER)
        [(_, service)] = tracker.collect()
        assert service is not None

    def test_new_round_ends_open_exchanges(self, tracker, media_engine):
        _to_res2(tracker, media_engine)
        tracker.start_round(["other"])
        assert not tracker.awaits(PEER)
        assert tracker.table.next_deadline() is None


class TestWaiting:
    def test_phase_one_and_requests_in_flight(self, tracker, media_engine):
        que1 = tracker.start_round([PEER])
        assert tracker.waiting(phase_one=True)
        assert not tracker.waiting(phase_one=False)
        que2 = tracker.receive(media_engine.handle_que1(que1, "subject"), PEER)
        assert not tracker.waiting(phase_one=True)  # nothing sent yet
        tracker.table.sent(PEER, que2, 0.0)
        assert tracker.waiting(phase_one=False)
        tracker.close()
        assert not tracker.waiting(phase_one=True)


class TestResumption:
    def test_rres_names_the_object_found_at_the_peer(self, tracker, media_engine):
        _, res2 = _to_res2(tracker, media_engine)
        tracker.receive(res2, PEER)
        tracker.collect()
        [(peer, rque)] = tracker.start_resumption([PEER, "never-seen"])
        assert peer == PEER and isinstance(rque, Rque)
        rres = media_engine.handle_rque(rque, "subject")
        assert isinstance(rres, Rres)
        tracker.receive(rres, PEER)
        [(_, service)] = tracker.collect()
        assert service.object_id == "media-1"


class TestMisaddressed:
    @pytest.mark.parametrize("kind", ["Que1", "Que2", "Rque"])
    def test_object_bound_flight_is_one_error(self, tracker, media_engine, kind):
        que1 = tracker.start_round([PEER])
        res1 = media_engine.handle_que1(que1, "subject")
        que2 = tracker.receive(res1, PEER)
        flight = {
            "Que1": Que1(fresh_nonce()),
            "Que2": que2,
            "Rque": Rque(ticket=b"t" * 64, r_s=fresh_nonce(), binder=bytes(32)),
        }[kind]
        mark = tracker.engine.errors_recorded
        assert tracker.receive(flight, PEER) is None
        [error] = tracker.engine.errors_since(mark)
        assert isinstance(error, MessageFormatError)
        assert str(error) == f"{kind} addressed to a subject"
        assert tracker.awaits(PEER)
        assert tracker.collect() == []

