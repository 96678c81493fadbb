"""Subject/Object engine behaviour: the handshake state machines."""

import pytest

from repro.attacks.channel import run_exchange
from repro.crypto.meter import metered
from repro.protocol.errors import (
    AuthenticationError,
    FreshnessError,
    SessionError,
    VisibilityError,
)
from repro.protocol.messages import Que2, Res1, Res1Level1
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine
from repro.protocol.versions import Version


class TestLevel1Flow:
    def test_discovery(self, subject_engine, thermo_engine):
        capture = run_exchange(subject_engine, thermo_engine)
        assert capture.outcome is not None
        assert capture.outcome.level_seen == 1
        assert capture.outcome.functions == ("read_temperature",)

    def test_duplicate_que1_dropped(self, subject_engine, thermo_engine):
        que1 = subject_engine.start_round()
        assert thermo_engine.handle_que1(que1, "peer") is not None
        assert thermo_engine.handle_que1(que1, "peer") is None
        assert any(isinstance(e, FreshnessError) for e in thermo_engine.errors)

    def test_tampered_profile_rejected(self, subject_engine, thermo_engine):
        que1 = subject_engine.start_round()
        res1 = thermo_engine.handle_que1(que1, subject_engine.creds.subject_id)
        tampered = Res1Level1(res1.profile_bytes[:-1] + b"\x00")
        assert subject_engine.handle_res1_level1(tampered, "thermo-1") is None
        assert any(isinstance(e, AuthenticationError) for e in subject_engine.errors)

    def test_duplicate_res1_discovered_once_per_round(
        self, subject_engine, thermo_engine
    ):
        que1 = subject_engine.start_round()
        res1 = thermo_engine.handle_que1(que1, subject_engine.creds.subject_id)
        assert subject_engine.handle_res1_level1(res1, "thermo-1") is not None
        with metered() as tally:
            assert subject_engine.handle_res1_level1(res1, "thermo-1") is None
        assert tally.snapshot() == {}  # dropped before Profile.verify
        assert len(subject_engine.discovered) == 1
        assert any(
            isinstance(e, SessionError) and "duplicate RES1" in str(e)
            for e in subject_engine.errors
        )
        # A new round seeks the peer again.
        subject_engine.start_round()
        assert subject_engine.handle_res1_level1(res1, "thermo-1") is not None


class TestLevel2Flow:
    def test_staff_gets_staff_variant(self, subject_engine, media_engine):
        capture = run_exchange(subject_engine, media_engine)
        assert capture.outcome.level_seen == 2
        assert capture.outcome.functions == ("play",)

    def test_manager_gets_manager_variant(self, manager, media_engine):
        capture = run_exchange(SubjectEngine(manager), media_engine)
        assert capture.outcome.functions == ("play", "cast", "admin")

    def test_visitor_gets_silence(self, visitor, media_engine):
        capture = run_exchange(SubjectEngine(visitor), media_engine)
        assert capture.outcome is None
        assert "object stayed silent after QUE2" in capture.notes
        assert any(isinstance(e, VisibilityError) for e in media_engine.errors)

    def test_profile_verified_against_cert_identity(self, staff, manager, media):
        """A QUE2 carrying Alice's certificate but Bob's PROF must fail —
        identity binding between CERT and PROF."""
        engine = ObjectEngine(media)
        subject = SubjectEngine(staff)
        que1 = subject.start_round()
        res1 = engine.handle_que1(que1, staff.subject_id)
        que2 = subject.handle_res1(res1, media.object_id)
        frankenstein = Que2(
            profile_bytes=manager.profile.to_bytes(),  # someone else's PROF
            cert_chain_bytes=que2.cert_chain_bytes,
            kexm=que2.kexm,
            signature=que2.signature,
            mac_s2=que2.mac_s2,
            mac_s3=que2.mac_s3,
        )
        assert engine.handle_que2(frankenstein, staff.subject_id) is None
        assert any(isinstance(e, AuthenticationError) for e in engine.errors)

    def test_que2_without_session_rejected(self, staff, media_engine):
        subject = SubjectEngine(staff)
        # craft a valid-looking QUE2 without ever sending QUE1
        que2 = Que2(b"p", b"c", b"k" * 64, b"s", b"m" * 32, b"m" * 32)
        assert media_engine.handle_que2(que2, staff.subject_id) is None
        assert any(isinstance(e, SessionError) for e in media_engine.errors)

    def test_revoked_subject_rejected(self, backend, media):
        victim = backend.register_subject("rev-victim", {"position": "staff"})
        engine = ObjectEngine(media)
        engine.creds.revoked_subjects.add("rev-victim")
        try:
            capture = run_exchange(SubjectEngine(victim), engine)
            assert capture.outcome is None
        finally:
            engine.creds.revoked_subjects.discard("rev-victim")

    def test_tampered_kexm_aborts(self, staff, media):
        """Flipping KEXM_O invalidates the RES1 signature: subject aborts."""
        engine = ObjectEngine(media)
        subject = SubjectEngine(staff)

        def tamper(name, message):
            if name == "res1":
                bad_kexm = bytearray(message.kexm)
                bad_kexm[0] ^= 1
                return Res1(message.r_o, message.cert_chain_bytes,
                            bytes(bad_kexm), message.signature)
            return message

        capture = run_exchange(subject, engine, tamper=tamper)
        assert capture.outcome is None
        assert any(isinstance(e, AuthenticationError) for e in subject.errors)

    def test_tampered_mac_s2_rejected(self, staff, media):
        engine = ObjectEngine(media)

        def tamper(name, message):
            if name == "que2":
                return Que2(message.profile_bytes, message.cert_chain_bytes,
                            message.kexm, message.signature,
                            b"\x00" * 32, message.mac_s3)
            return message

        capture = run_exchange(SubjectEngine(staff), engine, tamper=tamper)
        assert capture.outcome is None
        assert any(isinstance(e, AuthenticationError) for e in engine.errors)

    def test_tampered_res2_rejected(self, staff, media):
        engine = ObjectEngine(media)
        subject = SubjectEngine(staff)

        def tamper(name, message):
            if name == "res2":
                from repro.protocol.messages import Res2
                return Res2(message.ciphertext, b"\x00" * 32)
            return message

        capture = run_exchange(subject, engine, tamper=tamper)
        assert capture.outcome is None
        assert any(isinstance(e, AuthenticationError) for e in subject.errors)


class TestLevel3Flow:
    def test_fellow_gets_covert_variant(self, fellow_engine, kiosk_engine):
        capture = run_exchange(fellow_engine, kiosk_engine)
        assert capture.outcome.level_seen == 3
        assert capture.outcome.functions == ("dispense_support_flyer",)
        assert capture.outcome.via_group is not None

    def test_nonfellow_gets_level2_face(self, subject_engine, kiosk_engine):
        """The double-faced role: cover-up key users get the magazine."""
        capture = run_exchange(subject_engine, kiosk_engine)
        assert capture.outcome.level_seen == 2
        assert capture.outcome.functions == ("dispense_magazine",)

    def test_fellow_sees_level2_on_plain_media(self, backend, media_engine):
        """A fellow probing a genuine Level 2 object succeeds at Level 2 —
        her MAC_S3 simply never matches. (Staff fellow, so she satisfies
        one of the media object's variant predicates.)"""
        staff_fellow = backend.register_subject(
            "staff-fellow", {"position": "staff", "department": "X"},
            sensitive_attributes=("sensitive:needs-support",),
        )
        capture = run_exchange(SubjectEngine(staff_fellow), media_engine)
        assert capture.outcome.level_seen == 2

    def test_stale_group_key_fails_covert(self, backend, fellow, kiosk):
        """After a group rekey, the old key only ever yields the L2 face."""
        from repro.backend.registration import SubjectCredentials

        group_id = next(iter(fellow.group_keys))
        stale = SubjectCredentials(
            subject_id=fellow.subject_id,
            strength=fellow.strength,
            signing_key=fellow.signing_key,
            cert_chain=fellow.cert_chain,
            profile=fellow.profile,
            group_keys={group_id: b"\x13" * 32},  # wrong key
            coverup_key=fellow.coverup_key,
            admin_public=fellow.admin_public,
        )
        capture = run_exchange(SubjectEngine(stale), ObjectEngine(kiosk))
        assert capture.outcome.level_seen == 2

    def test_multi_group_rounds(self, backend):
        """§VI-C: a subject in two groups discovers both covert services
        by using her keys in turn."""
        backend.add_sensitive_policy("sensitive:g2", "sensitive:serves-g2")
        subject = backend.register_subject(
            "multi-sam", {"position": "student"},
            ("sensitive:needs-support", "sensitive:g2"),
        )
        kiosk2 = backend.register_object(
            "kiosk-g2", {"type": "kiosk"}, level=3, functions=("mag",),
            variants=[("true", ("mag",))],
            covert_functions={"sensitive:serves-g2": ("g2-flyer",)},
        )
        kiosk1 = backend.register_object(
            "kiosk-g1b", {"type": "kiosk"}, level=3, functions=("mag",),
            variants=[("true", ("mag",))],
            covert_functions={"sensitive:serves-support": ("g1-flyer",)},
        )
        from repro.protocol.discovery import discover

        result = discover(subject, [kiosk1, kiosk2])
        by_id = {s.object_id: s for s in result.services}
        assert by_id["kiosk-g1b"].level_seen == 3
        assert by_id["kiosk-g2"].level_seen == 3
        assert by_id["kiosk-g1b"].functions == ("g1-flyer",)
        assert by_id["kiosk-g2"].functions == ("g2-flyer",)

    def test_unknown_group_id_rejected(self, subject_engine):
        with pytest.raises(SessionError):
            subject_engine.start_round("no-such-group")


class TestSettledPeers:
    """A re-broadcast round that no longer seeks a peer drops its RES1."""

    def test_settled_res1_costs_no_crypto_and_no_error(
        self, subject_engine, media_engine
    ):
        que1 = subject_engine.start_round(settled={"media-1"})
        res1 = media_engine.handle_que1(que1, subject_engine.creds.subject_id)
        with metered() as tally:
            assert subject_engine.handle_res1(res1, "media-1") is None
        assert tally.snapshot() == {}
        assert subject_engine.errors == []

    def test_settled_level1_res1_is_not_discovered_again(
        self, subject_engine, thermo_engine
    ):
        que1 = subject_engine.start_round(settled={"thermo-1"})
        res1 = thermo_engine.handle_que1(que1, subject_engine.creds.subject_id)
        with metered() as tally:
            assert subject_engine.handle_res1_level1(res1, "thermo-1") is None
        assert tally.snapshot() == {}
        assert subject_engine.discovered == []
        assert subject_engine.errors == []

    def test_other_peers_still_handshake(self, subject_engine, media_engine):
        que1 = subject_engine.start_round(settled={"someone-else"})
        res1 = media_engine.handle_que1(que1, subject_engine.creds.subject_id)
        assert isinstance(subject_engine.handle_res1(res1, "media-1"), Que2)

    def test_next_round_seeks_every_peer_again(self, subject_engine, media_engine):
        subject_engine.start_round(settled={"media-1"})
        que1 = subject_engine.start_round()
        res1 = media_engine.handle_que1(que1, subject_engine.creds.subject_id)
        assert isinstance(subject_engine.handle_res1(res1, "media-1"), Que2)
