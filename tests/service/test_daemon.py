"""ObjectServiceDaemon dispatch: graceful degradation, update plane.

The tests drive :meth:`ObjectServiceDaemon.dispatch` directly with a
manual clock — the dispatch contract (one frame in, at most one frame
out, silence for every failure) is transport-independent, so no sockets
are needed to pin it down.
"""

import pytest

from repro.backend.updatewire import UpdatePublisher, UpdateReceiver
from repro.experiments.common import make_level_fleet
from repro.protocol.messages import Rres, parse_message
from repro.protocol.errors import ERROR_LOG_LIMIT
from repro.protocol.subject import SubjectEngine
from repro.protocol.versions import Version
from repro.service.daemon import PEER_BUCKET_LIMIT, ObjectServiceDaemon
from repro.service.framing import ack_frame


class ManualClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


def make_daemon(creds, **kwargs):
    kwargs.setdefault("clock", ManualClock())
    return ObjectServiceDaemon(creds, **kwargs)


def run_handshake(daemon, subject_creds, peer="10.0.0.1:5000", subject_peer="o"):
    """Full QUE1→RES2 through dispatch; returns (service, que2_raw)."""
    engine = SubjectEngine(subject_creds, Version.V3_0)
    res1_raw = daemon.dispatch(engine.start_round().to_bytes(), peer)
    assert res1_raw is not None
    que2 = engine.handle_res1(parse_message(res1_raw), subject_peer)
    que2_raw = que2.to_bytes()
    res2_raw = daemon.dispatch(que2_raw, peer)
    assert res2_raw is not None
    service = engine.handle_res2(parse_message(res2_raw), subject_peer)
    return engine, service, que2_raw, res2_raw


class TestDispatchDegradation:
    def test_garbage_is_recorded_silence(self, level2_fleet):
        _, objects, _ = level2_fleet
        daemon = make_daemon(objects[0])
        before = len(daemon.engine.errors)
        assert daemon.dispatch(b"\xffnot-a-frame", "p") is None
        assert daemon.dispatch(b"", "p") is None
        assert len(daemon.engine.errors) == before + 2
        assert daemon.stats["wire_errors"] == 2

    def test_subject_bound_flight_silenced(self, level2_fleet):
        subject, objects, _ = level2_fleet
        daemon = make_daemon(objects[0])
        engine = SubjectEngine(subject, Version.V3_0)
        res1_raw = daemon.dispatch(engine.start_round().to_bytes(), "p")
        # Reflect the object's own RES1 back at it: a subject-bound
        # flight must be an error record, never an answer.
        before = len(daemon.engine.errors)
        assert daemon.dispatch(res1_raw, "p") is None
        assert len(daemon.engine.errors) == before + 1

    def test_full_handshake_and_cached_res2(self, level2_fleet):
        subject, objects, _ = level2_fleet
        daemon = make_daemon(objects[0])
        _, service, que2_raw, res2_raw = run_handshake(daemon, subject)
        assert service is not None
        assert service.object_id == objects[0].object_id
        # A byte-identical duplicate QUE2 (a retransmission) gets the
        # byte-identical cached RES2 back — the idempotent resend path.
        assert daemon.dispatch(que2_raw, "10.0.0.1:5000") == res2_raw

    def test_replayed_rque_gets_constant_length_decoy(self, level2_fleet):
        subject, objects, _ = level2_fleet
        daemon = make_daemon(objects[0])
        engine, service, _, _ = run_handshake(daemon, subject)
        rque = engine.start_resumption(service.object_id)
        assert rque is not None
        raw = rque.to_bytes()
        rres_real = daemon.dispatch(raw, "10.0.0.1:5000")
        rres_decoy = daemon.dispatch(raw, "6.6.6.6:666")  # replayed ticket
        assert rres_real is not None and rres_decoy is not None
        assert isinstance(parse_message(rres_decoy), Rres)
        # Indistinguishable on the wire: same length, different bytes.
        assert len(rres_decoy) == len(rres_real)
        assert rres_decoy != rres_real

    def test_load_shedding_is_silent_and_per_peer(self, level2_fleet):
        subject, objects, _ = level2_fleet
        daemon = make_daemon(
            objects[0], peer_burst_limit=2, peer_refill_per_s=0.0
        )
        engine = SubjectEngine(subject, Version.V3_0)
        assert daemon.dispatch(engine.start_round().to_bytes(), "flood") is not None
        assert daemon.dispatch(engine.start_round().to_bytes(), "flood") is not None
        # Third frame from the same peer: over budget — silence, even
        # though the frame itself is perfectly valid.
        shed_frame = engine.start_round().to_bytes()
        assert daemon.dispatch(shed_frame, "flood") is None
        assert daemon.stats["frames_shed"] == 1
        # A different peer is unaffected (the bucket is per-peer).
        assert daemon.dispatch(engine.start_round().to_bytes(), "calm") is not None

    def test_pending_table_ttl_eviction(self, level2_fleet):
        subject, objects, _ = level2_fleet
        clock = ManualClock()
        daemon = make_daemon(objects[0], clock=clock)
        engine = SubjectEngine(subject, Version.V3_0)
        assert daemon.dispatch(engine.start_round().to_bytes(), "stale-peer")
        assert "stale-peer" in daemon.engine._sessions
        clock.t = daemon.engine.pending_ttl_s + 1.0
        # Any dispatch ticks the engine clock; the half-open handshake
        # from before the TTL is evicted.
        daemon.dispatch(engine.start_round().to_bytes(), "fresh-peer")
        assert "stale-peer" not in daemon.engine._sessions

    def test_crash_goes_dark_and_restart_rejoins_cold(self, level2_fleet):
        subject, objects, _ = level2_fleet
        daemon = make_daemon(objects[0])
        run_handshake(daemon, subject)
        assert daemon.engine.established
        daemon.crash()
        assert daemon.is_down
        engine = SubjectEngine(subject, Version.V3_0)
        assert daemon.dispatch(engine.start_round().to_bytes(), "p") is None
        assert daemon.stats["frames_dropped_down"] == 1
        assert not daemon.engine.established  # volatile state gone
        daemon.restart()
        _, service, _, _ = run_handshake(daemon, subject, peer="10.0.0.2:6000")
        assert service is not None
        assert daemon.stats["crashes"] == 1
        assert daemon.stats["restarts"] == 1


class TestPeerStateBound:
    """Per-peer admission state stays bounded under hostile input."""

    def test_spoofed_source_flood_stays_under_the_cap(self, level2_fleet):
        # 10^5 junk datagrams from 10^4 spoofed sources, all at one
        # instant: no bucket refills, so only the hard cap bounds state.
        _, objects, _ = level2_fleet
        daemon = make_daemon(objects[0])
        peak = 0
        for i in range(100_000):
            daemon.dispatch(b"\xffjunk", f"10.0.{i % 10_000}:9")
            peak = max(peak, len(daemon._buckets))
        assert peak <= PEER_BUCKET_LIMIT
        assert daemon.stats["wire_errors"] == 100_000

    def test_junk_flood_leaves_the_error_log_under_the_cap(self, level2_fleet):
        _, objects, _ = level2_fleet
        daemon = make_daemon(objects[0])
        peak = 0
        for i in range(100_000):
            daemon.dispatch(b"\xffjunk", f"10.0.{i % 10_000}:9")
            peak = max(peak, len(daemon.engine.errors))
        assert peak <= ERROR_LOG_LIMIT
        assert daemon.engine.errors_recorded == 100_000

    def test_refilled_buckets_are_forgotten(self, level2_fleet):
        _, objects, _ = level2_fleet
        clock = ManualClock()
        daemon = make_daemon(objects[0], clock=clock)
        for i in range(100):
            daemon.dispatch(b"\xffjunk", f"peer-{i}")
        assert len(daemon._buckets) == 100
        # One frame refills in 1/refill seconds; afterwards every old
        # bucket is indistinguishable from a fresh one and is dropped.
        clock.t = 1.0 / daemon.peer_refill_per_s
        daemon.dispatch(b"\xffjunk", "late")
        assert list(daemon._buckets) == ["late"]

    def test_cap_evicts_least_recent_not_an_active_flooder(self, level2_fleet):
        _, objects, _ = level2_fleet
        daemon = make_daemon(objects[0], peer_burst_limit=2, peer_refill_per_s=0.0)
        daemon.dispatch(b"\xffjunk", "flood")
        daemon.dispatch(b"\xffjunk", "flood")
        over_budget = 0
        for i in range(2 * PEER_BUCKET_LIMIT):
            daemon.dispatch(b"\xffjunk", f"spoof-{i}")
            if i % 100 == 0:
                daemon.dispatch(b"\xffjunk", "flood")
                over_budget += 1
        # The flooder stayed recent, so the cap never reset its empty
        # bucket: every frame past its burst was shed.
        assert "flood" in daemon._buckets
        assert daemon.stats["frames_shed"] == over_budget
        assert len(daemon._buckets) == PEER_BUCKET_LIMIT


class TestUpdateDispatch:
    """Applying a revocation mutates the object credentials (that is the
    point), so these tests build a private fleet instead of sharing the
    session-scoped one."""

    @pytest.fixture(scope="class")
    def update_fleet(self):
        return make_level_fleet(1, level=2)

    def _revocation(self, fleet):
        subject, objects, backend = fleet
        receiver = UpdateReceiver(
            objects[0].object_id, backend.admin_public, object_creds=objects[0]
        )
        publisher = UpdatePublisher(backend.root_key)
        message = publisher.revoke_subject(
            objects[0].object_id, subject.subject_id
        )
        return objects[0], receiver, message

    def test_apply_then_reack_without_reapply(self, update_fleet):
        creds, receiver, message = self._revocation(update_fleet)
        daemon = make_daemon(creds, update_receiver=receiver)
        raw = message.to_bytes()
        assert daemon.dispatch(raw, "backend") == ack_frame(message.sequence)
        assert daemon.stats["updates_applied"] == 1
        errors_after_apply = len(receiver.errors)
        # The duplicate (a lost-ACK retransmission) is re-ACKed but not
        # re-applied — the receiver never even sees it.
        assert daemon.dispatch(raw, "backend") == ack_frame(message.sequence)
        assert daemon.stats["updates_reacked"] == 1
        assert daemon.stats["updates_applied"] == 1
        assert len(receiver.errors) == errors_after_apply

    def test_no_receiver_means_silence(self, update_fleet):
        _, objects, _ = update_fleet
        _, _, message = self._revocation(update_fleet)
        daemon = make_daemon(objects[0])  # update_receiver=None
        assert daemon.dispatch(message.to_bytes(), "backend") is None
        assert daemon.stats["updates_rejected"] == 1

    def test_mangled_update_is_recorded_silence(self, update_fleet):
        creds, receiver, message = self._revocation(update_fleet)
        daemon = make_daemon(creds, update_receiver=receiver)
        raw = message.to_bytes()
        assert daemon.dispatch(raw[:6], "backend") is None  # truncated
        assert daemon.stats["wire_errors"] == 1
        # A bit-flip that survives parsing dies on the admin signature.
        flipped = raw[:-1] + bytes([raw[-1] ^ 0x01])
        assert daemon.dispatch(flipped, "backend") is None
        assert daemon.stats["updates_applied"] == 0
        assert receiver.last_sequence == 0
