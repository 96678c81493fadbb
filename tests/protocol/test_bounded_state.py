"""Engine state that hostile or long-running traffic could grow.

The pending table holds half-open handshakes only: a QUE2 closes its
session (and releases the ephemeral key) whatever the outcome, and TTL
expiry reads only the front of the table.  The peer-identity map, the
object's established-session map and both engines' error logs are
capped by module constants.  Every check here counts; none is timed.
"""

import weakref

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.access import CommandClient, CommandHandler
from repro.backend import Backend
from repro.crypto.keypool import ecdh_keypair
from repro.crypto.primitives import MAC_LEN, fresh_nonce
from repro.protocol import errors as errors_mod
from repro.protocol import object as object_mod
from repro.protocol.discovery import run_round
from repro.protocol.errors import MessageFormatError
from repro.protocol.messages import Que1, Res2
from repro.protocol.object import ObjectEngine, _ObjectSession
from repro.protocol.subject import SubjectEngine

PEERS = ("p0", "p1", "p2", "p3", "p4", "p5")
MACHINE_LIMIT = 4
MACHINE_TTL_S = 10.0


class PendingTableMachine(RuleBasedStateMachine):
    """Interleaved QUE1, QUE2, duplicate QUE2, re-QUE1 and monotone ticks.

    The reference model is the scan-based TTL-plus-LRU table restricted
    to half-open sessions: a dict of peer -> (created_at, insertion
    number), expired by a full scan and trimmed by evicting the smallest
    insertion number.  A re-QUE1 is a new insertion.
    """

    def __init__(self, subject_creds, object_creds):
        super().__init__()
        self.subject_creds = subject_creds
        self.engine = ObjectEngine(
            object_creds,
            resend_cached_res2=True,
            pending_ttl_s=MACHINE_TTL_S,
            session_limit=MACHINE_LIMIT,
        )
        self.now = 0.0
        self.inserted = 0
        self.model: dict[str, tuple[float, int]] = {}
        self.built = {}  # peer -> the QUE2 answering its latest RES1
        self.sent = {}  # peer -> the last QUE2 sent from it
        self.answered: dict[str, bytes] = {}  # peer -> last answered QUE2 bytes

    @rule(peer=st.sampled_from(PEERS))
    def que1(self, peer):
        subject = SubjectEngine(self.subject_creds)
        res1 = self.engine.handle_que1(subject.start_round(), peer)
        self.built[peer] = subject.handle_res1(res1, "object")
        self.inserted += 1
        self.model.pop(peer, None)
        self.model[peer] = (self.now, self.inserted)
        while len(self.model) > MACHINE_LIMIT:
            del self.model[min(self.model, key=lambda p: self.model[p][1])]

    @precondition(lambda self: self.built)
    @rule(data=st.data())
    def que2(self, data):
        peer = data.draw(st.sampled_from(sorted(self.built)))
        self._send_que2(peer, self.built[peer])

    @precondition(lambda self: self.sent)
    @rule(data=st.data())
    def duplicate_que2(self, data):
        peer = data.draw(st.sampled_from(sorted(self.sent)))
        self._send_que2(peer, self.sent[peer])

    @rule(step=st.floats(min_value=0.0, max_value=12.0))
    def tick(self, step):
        self.now += step
        self.engine.tick(self.now)
        cutoff = self.now - MACHINE_TTL_S
        for peer in [p for p, (created, _) in self.model.items() if created < cutoff]:
            del self.model[peer]

    def _send_que2(self, peer, que2):
        self.sent[peer] = que2
        reply = self.engine.handle_que2(que2, peer)
        if self.answered.get(peer) == que2.to_bytes():
            assert reply is not None  # the cached RES2, table untouched
            return
        opened = self.model.pop(peer, None) is not None
        assert (reply is not None) == (opened and que2 is self.built[peer])
        if reply is not None:
            self.answered[peer] = que2.to_bytes()

    @invariant()
    def table_matches_model(self):
        expected = sorted(self.model, key=lambda p: self.model[p][1])
        assert list(self.engine._sessions) == expected


def test_pending_table_matches_reference_model(staff, media):
    run_state_machine_as_test(
        lambda: PendingTableMachine(staff, media),
        settings=settings(
            max_examples=25, stateful_step_count=20, deadline=None
        ),
    )


class TestPendingTable:
    def test_completed_handshakes_leave_no_session(self, staff, media):
        engine = ObjectEngine(media)
        for i in range(20):
            subject = SubjectEngine(staff)
            res1 = engine.handle_que1(subject.start_round(), f"peer-{i}")
            que2 = subject.handle_res1(res1, "object")
            assert engine.handle_que2(que2, f"peer-{i}") is not None
        assert not engine._sessions

    def test_ephemeral_key_released_at_que2(self, staff, media):
        engine = ObjectEngine(media)
        subject = SubjectEngine(staff)
        res1 = engine.handle_que1(subject.start_round(), "peer")
        key = weakref.ref(engine._sessions["peer"].ecdh)
        que2 = subject.handle_res1(res1, "object")
        assert key() is not None
        assert engine.handle_que2(que2, "peer") is not None
        assert key() is None

    def test_re_que1_moves_the_peer_to_the_back(self, media):
        engine = ObjectEngine(media)
        for peer in ("a", "b", "a"):
            engine.handle_que1(Que1(fresh_nonce()), peer)
        assert list(engine._sessions) == ["b", "a"]

    def test_tick_reads_only_the_front(self, media):
        class RecordingSession(_ObjectSession):
            reads = 0

            @property
            def created_at(self):
                RecordingSession.reads += 1
                return self._created_at

            @created_at.setter
            def created_at(self, value):
                self._created_at = value

        engine = ObjectEngine(media)
        ecdh = ecdh_keypair(media.strength)
        for i in range(object_mod.SESSION_LIMIT):
            engine._store_session(f"peer-{i}", RecordingSession(
                r_s=fresh_nonce(), r_o=fresh_nonce(), ecdh=ecdh,
                created_at=i / object_mod.SESSION_LIMIT,
            ))
        RecordingSession.reads = 0
        engine.tick(engine.pending_ttl_s)  # nothing has expired yet
        assert len(engine._sessions) == object_mod.SESSION_LIMIT
        assert RecordingSession.reads <= 1


class TestPeerIdentityBound:
    def test_many_peers_stay_under_the_cap(self, staff, media):
        """10^4 transport peers resuming in turn: the map stays capped."""
        subject = SubjectEngine(staff)
        engine = ObjectEngine(media, issue_tickets=True)
        run_round(subject, {media.object_id: engine})
        for i in range(10_000):
            rque = subject.start_resumption(media.object_id)
            rres = engine.handle_rque(rque, f"10.1.{i}:9")
            assert subject.handle_rres(rres, media.object_id) is not None
        assert len(engine.peer_identity) <= object_mod.PEER_IDENTITY_LIMIT
        assert engine.peer_identity["10.1.9999:9"] == staff.subject_id

    def test_command_resolves_every_peer_under_the_cap(
        self, staff, media, monkeypatch
    ):
        monkeypatch.setattr(object_mod, "PEER_IDENTITY_LIMIT", 8)
        subject = SubjectEngine(staff)
        engine = ObjectEngine(media, issue_tickets=True)
        run_round(subject, {media.object_id: engine})
        peers = [f"10.2.{i}:9" for i in range(12)]
        for peer in peers:
            rres = engine.handle_rque(
                subject.start_resumption(media.object_id), peer
            )
            subject.handle_rres(rres, media.object_id)
        client = CommandClient(subject)
        handler = CommandHandler(engine)
        handler.register("play", lambda args: b"ok")
        assert list(engine.peer_identity) == peers[-8:]
        for peer in peers[-8:]:
            command = client.build_command(media.object_id, "play")
            assert handler.handle(command, peer) is not None
        forgotten = client.build_command(media.object_id, "play")
        assert handler.handle(forgotten, peers[0]) is None


class TestEstablishedBound:
    def test_more_subjects_than_the_cap(self, monkeypatch):
        """Both writers (QUE2 and RQUE) refresh recency; the least
        recently written subject is the one evicted."""
        monkeypatch.setattr(object_mod, "PEER_IDENTITY_LIMIT", 3)
        backend = Backend()
        backend.add_policy("staff-media", "position=='staff'", "type=='multimedia'", ("play",))
        media = backend.register_object(
            "media-1", {"type": "multimedia"}, level=2, functions=("play",),
            variants=[("position=='staff'", ("play",))],
        )
        subjects = {
            f"staff-{i}": SubjectEngine(
                backend.register_subject(f"staff-{i}", {"position": "staff"})
            )
            for i in range(6)
        }
        engine = ObjectEngine(media, issue_tickets=True)
        for name in list(subjects)[:5]:
            run_round(subjects[name], {media.object_id: engine})
        assert list(engine.established) == ["staff-2", "staff-3", "staff-4"]
        returning = subjects["staff-2"]
        rres = engine.handle_rque(
            returning.start_resumption(media.object_id), "staff-2"
        )
        assert returning.handle_rres(rres, media.object_id) is not None
        run_round(subjects["staff-5"], {media.object_id: engine})
        assert list(engine.established) == ["staff-4", "staff-2", "staff-5"]
        assert len(engine.peer_identity) == 3


class TestErrorLogBound:
    def test_log_stays_under_the_cap_and_counts_everything(self, media):
        engine = ObjectEngine(media)
        for i in range(10 * errors_mod.ERROR_LOG_LIMIT):
            engine.record_wire_error(MessageFormatError(f"junk {i}"))
        assert len(engine.errors) <= errors_mod.ERROR_LOG_LIMIT
        assert engine.errors_recorded == 10 * errors_mod.ERROR_LOG_LIMIT
        assert str(engine.errors[-1]) == f"junk {engine.errors_recorded - 1}"

    @pytest.mark.parametrize("limit", [1, 2, 5])
    def test_errors_since_survives_a_trim(self, media, monkeypatch, limit):
        monkeypatch.setattr(errors_mod, "ERROR_LOG_LIMIT", limit)
        engine = ObjectEngine(media)
        for i in range(limit):
            engine.record_wire_error(MessageFormatError(f"old {i}"))
        mark = engine.errors_recorded
        engine.record_wire_error(MessageFormatError("new"))
        assert [str(e) for e in engine.errors_since(mark)] == ["new"]
        assert engine.errors_since(engine.errors_recorded) == []

    def test_subject_log_stays_bounded_after_junk_replies(self, staff):
        engine = SubjectEngine(staff)
        junk = Res2(ciphertext=b"\x00" * 64, mac_o=b"\x00" * MAC_LEN)
        replies = 3 * errors_mod.ERROR_LOG_LIMIT + 1
        peak = 0
        for i in range(replies):
            assert engine.handle_res2(junk, f"stranger-{i}") is None
            peak = max(peak, len(engine.errors))
        assert peak <= errors_mod.ERROR_LOG_LIMIT
        assert engine.errors_recorded == replies
        assert str(engine.errors[-1]) == (
            f"RES2 without open session from stranger-{replies - 1}"
        )
