"""Session resumption: the RQUE/RRES fast path and its failure modes.

Covers the tentpole properties: symmetric-ops-only resumption, ticket
single-use/expiry/backend-invalidation with transparent fallback to the
full handshake, and v3.0 indistinguishability of the padded RRES.
"""

import pytest

from repro.backend import Backend
from repro.backend.updates import ChurnEngine
from repro.crypto import meter
from repro.protocol.discovery import run_round, run_warm_round
from repro.protocol.errors import FreshnessError
from repro.protocol.messages import Rque
from repro.protocol.object import ObjectEngine
from repro.protocol.resumption import SEALED_TICKET_LEN, ReplayLedger, TicketKeyring
from repro.protocol.subject import SubjectEngine

PUBLIC_KEY_OPS = ("ecdsa_sign", "ecdsa_verify", "ecdh_gen", "ecdh_derive")


def pk_ops(tally) -> int:
    return sum(tally.total(op) for op in PUBLIC_KEY_OPS)


def small_enterprise():
    """A fresh backend per test: churn/revocation tests mutate credentials."""
    backend = Backend()
    backend.add_sensitive_policy("sensitive:needs-support", "sensitive:serves-support")
    backend.add_policy("staff-media", "position=='staff'", "type=='multimedia'", ("play",))
    staff = backend.register_subject("staff-alice", {"position": "staff"})
    fellow = backend.register_subject(
        "student-sam", {"position": "student"},
        sensitive_attributes=("sensitive:needs-support",),
    )
    media = backend.register_object(
        "media-1", {"type": "multimedia"}, level=2, functions=("play",),
        variants=[("position=='staff'", ("play",))],
    )
    kiosk = backend.register_object(
        "kiosk-1", {"type": "magazine kiosk"}, level=3,
        functions=("dispense_magazine",),
        variants=[("true", ("dispense_magazine",))],
        covert_functions={"sensitive:serves-support": ("dispense_support_flyer",)},
    )
    return backend, staff, fellow, media, kiosk


class TestFastPath:
    def test_cold_round_issues_tickets(self, staff, media):
        subject = SubjectEngine(staff)
        objects = {media.object_id: ObjectEngine(media, issue_tickets=True)}
        run_round(subject, objects)
        assert subject.has_ticket(media.object_id)
        stored = subject.tickets[media.object_id]
        assert len(stored.ticket) == SEALED_TICKET_LEN
        assert stored.level == 2

    def test_resumed_rediscovery_uses_no_public_key_ops(self, staff, media):
        subject = SubjectEngine(staff)
        objects = {media.object_id: ObjectEngine(media, issue_tickets=True)}
        run_round(subject, objects)
        result = run_warm_round(subject, objects)
        assert result.service_ids() == {media.object_id}
        assert pk_ops(result.subject_ops) == 0
        assert pk_ops(result.object_ops[media.object_id]) == 0
        assert result.object_ops[media.object_id].total("resumption_accept") == 1

    def test_full_path_op_counts_unchanged(self, staff, media):
        """§IX-B steady state survives the resumption layer: 1 sign,
        3 verifies, 1 ECDH gen + 1 derive per side on the full path."""
        subject = SubjectEngine(staff)
        objects = {media.object_id: ObjectEngine(media, issue_tickets=True)}
        run_round(subject, objects)
        result = run_round(subject, objects)
        for ops in (result.subject_ops, result.object_ops[media.object_id]):
            assert ops.total("ecdsa_sign") == 1
            assert ops.total("ecdsa_verify") == 3
            assert ops.total("ecdh_gen") == 1
            assert ops.total("ecdh_derive") == 1

    def test_resumption_refreshes_the_ticket_chain(self, staff, media):
        subject = SubjectEngine(staff)
        objects = {media.object_id: ObjectEngine(media, issue_tickets=True)}
        run_round(subject, objects)
        first = subject.tickets[media.object_id].ticket
        run_warm_round(subject, objects)
        second = subject.tickets[media.object_id].ticket
        assert second != first  # a fresh single-use ticket every resumption
        third = run_warm_round(subject, objects)
        assert third.service_ids() == {media.object_id}

    def test_sessions_established_on_both_sides(self, staff, media):
        subject = SubjectEngine(staff)
        engine = ObjectEngine(media, issue_tickets=True)
        objects = {media.object_id: engine}
        run_round(subject, objects)
        run_warm_round(subject, objects)
        ours = subject.established[media.object_id]
        theirs = engine.established[staff.subject_id]
        assert ours.key == theirs.key
        assert ours.level == theirs.level == 2

    def test_level3_resumption_reports_level3(self, fellow, kiosk):
        subject = SubjectEngine(fellow)
        objects = {kiosk.object_id: ObjectEngine(kiosk, issue_tickets=True)}
        run_round(subject, objects)
        result = run_warm_round(subject, objects)
        (service,) = result.services
        assert service.level_seen == 3
        assert service.via_group is not None
        assert "dispense_support_flyer" in service.functions
        assert pk_ops(result.subject_ops) == 0

    def test_level1_objects_issue_no_tickets(self, staff, thermometer):
        subject = SubjectEngine(staff)
        objects = {
            thermometer.object_id: ObjectEngine(thermometer, issue_tickets=True)
        }
        run_round(subject, objects)
        assert not subject.has_ticket(thermometer.object_id)

    def test_issuance_off_by_default(self, staff, media):
        subject = SubjectEngine(staff)
        objects = {media.object_id: ObjectEngine(media)}
        run_round(subject, objects)
        assert not subject.has_ticket(media.object_id)


class TestRejectionAndFallback:
    def test_expired_ticket_falls_back_to_full_handshake(self, staff, media):
        subject = SubjectEngine(staff)
        engine = ObjectEngine(media, issue_tickets=True, ticket_lifetime=5)
        objects = {media.object_id: engine}
        run_round(subject, objects)
        engine.now = 100  # past the ticket's expiry (1 + 5)
        result = run_warm_round(subject, objects)
        # Rejected silently, then discovered via the full handshake anyway.
        assert result.service_ids() == {media.object_id}
        assert result.object_ops[media.object_id].total("resumption_reject") == 1
        assert any(isinstance(e, FreshnessError) for e in engine.errors)
        assert pk_ops(result.subject_ops) > 0  # the fallback's pk work

    def test_replayed_ticket_rejected(self, staff, media):
        subject = SubjectEngine(staff)
        engine = ObjectEngine(media, issue_tickets=True)
        run_round(subject, {media.object_id: engine})
        rque = subject.start_resumption(media.object_id)
        assert engine.handle_rque(rque, "wire-1") is not None
        with meter.metered() as tally:
            assert engine.handle_rque(rque, "wire-2") is None  # replay
        assert tally.total("resumption_reject") == 1
        assert any(isinstance(e, FreshnessError) for e in engine.errors)

    def test_backend_push_invalidates_tickets(self):
        """A ticket issued before a backend push must not short-circuit
        the re-check: the push bumps the epoch, the object rejects the
        ticket, and the subject re-runs the full handshake."""
        backend, staff, fellow, media, kiosk = small_enterprise()
        subject = SubjectEngine(staff)
        engine = ObjectEngine(media, issue_tickets=True)
        objects = {media.object_id: engine}
        run_round(subject, objects)
        epoch_before = media.resumption_epoch

        churn = ChurnEngine(backend)
        churn.add_policy_with_variant(
            "managers-too", "position=='manager'", "type=='multimedia'", ("play", "cast")
        )
        assert media.resumption_epoch > epoch_before

        result = run_warm_round(subject, objects)
        assert result.service_ids() == {media.object_id}  # full-handshake fallback
        assert result.object_ops[media.object_id].total("resumption_reject") == 1
        assert result.object_ops[media.object_id].total("resumption_accept") == 0

    def test_revoked_subject_cannot_resume(self):
        backend, staff, fellow, media, kiosk = small_enterprise()
        subject = SubjectEngine(staff)
        engine = ObjectEngine(media, issue_tickets=True)
        run_round(subject, {media.object_id: engine})

        ChurnEngine(backend).remove_subject(staff.subject_id)
        rque = subject.start_resumption(media.object_id)
        assert engine.handle_rque(rque, "wire-1") is None

    def test_unknown_ticket_gets_silence(self, staff, media):
        engine = ObjectEngine(media, issue_tickets=True)
        bogus = Rque(ticket=b"\x42" * SEALED_TICKET_LEN, r_s=b"\x01" * 28, binder=b"\x02" * 32)
        with meter.metered() as tally:
            assert engine.handle_rque(bogus, "stranger") is None
        assert tally.total("resumption_reject") == 1
        assert pk_ops(tally) == 0  # rejection is cheap and silent

    def test_tampered_binder_rejected(self, staff, media):
        subject = SubjectEngine(staff)
        engine = ObjectEngine(media, issue_tickets=True)
        run_round(subject, {media.object_id: engine})
        rque = subject.start_resumption(media.object_id)
        forged = Rque(ticket=rque.ticket, r_s=rque.r_s, binder=bytes(32))
        assert engine.handle_rque(forged, "wire-1") is None
        # the real RQUE still works: tampering didn't burn the ticket
        assert engine.handle_rque(rque, "wire-1") is not None

    def test_rotated_away_keyring_key_means_full_handshake(self, staff, media):
        subject = SubjectEngine(staff)
        engine = ObjectEngine(media, issue_tickets=True)
        objects = {media.object_id: engine}
        run_round(subject, objects)
        engine.ticket_keyring.rotate()
        assert run_warm_round(subject, objects).service_ids() == {media.object_id}
        # two rotations outlive the previous-key grace window
        run_round(subject, objects)
        engine.ticket_keyring.rotate()
        engine.ticket_keyring.rotate()
        result = run_warm_round(subject, objects)
        assert result.service_ids() == {media.object_id}
        assert result.object_ops[media.object_id].total("resumption_reject") == 1


class TestIndistinguishability:
    """v3.0: a Level 3 object's resumed answers must not leak the level."""

    def _resumed_rres(self, creds, kiosk_creds):
        subject = SubjectEngine(creds)
        engine = ObjectEngine(kiosk_creds, issue_tickets=True)
        run_round(subject, {kiosk_creds.object_id: engine})
        rque = subject.start_resumption(kiosk_creds.object_id)
        assert rque is not None
        with meter.metered() as tally:
            rres = engine.handle_rque(rque, "wire-1")
        assert rres is not None
        return rres, tally

    def test_rres_length_constant_across_levels(self, staff, fellow, kiosk):
        """The fellow's covert RRES and a non-fellow's Level-2-face RRES
        are byte-length identical (constant padded payload)."""
        rres_l2, _ = self._resumed_rres(staff, kiosk)
        rres_l3, _ = self._resumed_rres(fellow, kiosk)
        assert len(rres_l2.ciphertext) == len(rres_l3.ciphertext)
        assert len(rres_l2.to_bytes()) == len(rres_l3.to_bytes())

    def test_rres_op_counts_equal_across_levels(self, staff, fellow, kiosk):
        """Equalized cost: the object does the identical symmetric-op
        sequence whether the ticket resumes Level 2 or Level 3."""
        _, ops_l2 = self._resumed_rres(staff, kiosk)
        _, ops_l3 = self._resumed_rres(fellow, kiosk)
        assert ops_l2.counts == ops_l3.counts
        assert pk_ops(ops_l2) == 0

    def test_res2_length_spread_still_zero_with_tickets(self, staff, fellow, kiosk):
        """The original v3.0 guarantee holds with the ticket slot added:
        RES2 ciphertexts are constant-length per object."""
        lengths = set()
        for creds in (staff, fellow):
            subject = SubjectEngine(creds)
            engine = ObjectEngine(kiosk, issue_tickets=True)
            result = run_round(subject, {kiosk.object_id: engine})
            assert result.services
            lengths.add(len(subject.established[kiosk.object_id].key))
            que1 = subject.start_round()
            res1 = engine.handle_que1(que1, creds.subject_id)
            que2 = subject.handle_res1(res1, kiosk.object_id)
            res2 = engine.handle_que2(que2, creds.subject_id)
            lengths.add(len(res2.ciphertext))
        assert len(lengths) == 2  # one key length + one ciphertext length


#: Cache-visibility markers whose counts depend on process-wide cache
#: and key-pool state rather than on the exchange itself.
CACHE_STATE_MARKERS = frozenset(
    {"profile_verify_cached", "cert_verify_cached", "ecdh_pool_hit", "ecdh_pool_miss"}
)

#: Per-side tallies of one first-contact handshake and one resumption,
#: pinned from the AEAD/HMAC implementation that predates the hashlib
#: HMAC and the pre-expanded ticket keys: a faster symmetric layer must
#: meter exactly the same operations (§IX-B).
FULL_SUBJECT = {
    "aes": 1, "hmac": 10, "ecdsa_sign": 1, "ecdsa_verify": 4, "ecdh_gen": 1, "ecdh_derive": 1,
}
FULL_OBJECT_L2 = {
    "aes": 2, "hmac": 10, "ecdsa_sign": 1, "ecdsa_verify": 4, "ecdh_gen": 1, "ecdh_derive": 1,
    "resumption_ticket_issued": 1,
}
FULL_OBJECT_L3 = {**FULL_OBJECT_L2, "hmac": 12}
RRES_SUBJECT = {"aes": 1, "hmac": 6}
RQUE_OBJECT = {"aes": 3, "hmac": 13, "resumption_accept": 1, "resumption_ticket_issued": 1}


def op_tally(tally) -> dict[str, int]:
    return {
        op: n for (op, _), n in tally.counts.items() if op not in CACHE_STATE_MARKERS
    }


class TestPinnedOpTallies:
    def _tallies(self, subject_creds, object_creds):
        subject = SubjectEngine(subject_creds)
        engine = ObjectEngine(object_creds, issue_tickets=True)
        full = run_round(subject, {object_creds.object_id: engine})
        rque = subject.start_resumption(object_creds.object_id)
        with meter.metered() as object_ops:
            rres = engine.handle_rque(rque, "wire-1")
        with meter.metered() as subject_ops:
            assert subject.handle_rres(rres, object_creds.object_id) is not None
        return (
            op_tally(full.subject_ops),
            op_tally(full.object_ops[object_creds.object_id]),
            op_tally(subject_ops),
            op_tally(object_ops),
        )

    def test_level2(self, staff, media):
        assert self._tallies(staff, media) == (
            FULL_SUBJECT, FULL_OBJECT_L2, RRES_SUBJECT, RQUE_OBJECT,
        )

    def test_covert_level3(self, fellow, kiosk):
        assert self._tallies(fellow, kiosk) == (
            FULL_SUBJECT, FULL_OBJECT_L3, RRES_SUBJECT, RQUE_OBJECT,
        )

    def test_level2_face_of_a_level3_object(self, staff, kiosk):
        """The non-fellow's Level 2 face costs what the covert session
        costs, on the full path and on resumption alike."""
        assert self._tallies(staff, kiosk) == (
            FULL_SUBJECT, FULL_OBJECT_L3, RRES_SUBJECT, RQUE_OBJECT,
        )


class TestTicketPrimitives:
    def test_replay_ledger_is_bounded(self):
        ledger = ReplayLedger(limit=4)
        ids = [bytes([i]) * 16 for i in range(6)]
        for tid in ids:
            assert ledger.redeem(tid)
        assert len(ledger) == 4  # oldest two evicted
        assert not ledger.redeem(ids[-1])

    def test_keyring_grace_window_is_one_rotation(self):
        from repro.protocol.resumption import TicketPayload, fresh_ticket_id

        keyring = TicketKeyring()
        payload = TicketPayload(
            ticket_id=fresh_ticket_id(), peer_id="s", level=2, group_id="",
            variant="default", master=b"\x07" * 32, expiry=99, epoch=0,
        )
        sealed = keyring.seal(payload)
        keyring.rotate()
        assert keyring.open(sealed) == payload  # previous key still opens
        keyring.rotate()
        assert keyring.open(sealed) is None

    def test_keyring_creation_and_rotation_meter_nothing(self):
        with meter.metered() as tally:
            keyring = TicketKeyring()
            keyring.rotate()
            keyring.rotate()
        assert tally.counts == {}

    def test_sealed_tickets_are_constant_length(self, staff, media, fellow, kiosk):
        lengths = set()
        for subject_creds, object_creds in ((staff, media), (fellow, kiosk)):
            subject = SubjectEngine(subject_creds)
            engine = ObjectEngine(object_creds, issue_tickets=True)
            run_round(subject, {object_creds.object_id: engine})
            lengths.add(len(subject.tickets[object_creds.object_id].ticket))
        assert lengths == {SEALED_TICKET_LEN}
