"""Replay/freshness attacks and the v2-vs-v3 structural distinguisher."""

import pytest

from repro.attacks.channel import run_exchange
from repro.attacks.distinguisher import classify_subject, subject_advantage
from repro.attacks.replay import replay_attack
from repro.protocol import errors as errors_mod
from repro.protocol.errors import MessageFormatError
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine
from repro.protocol.versions import Version


class TestReplay:
    def test_all_replays_rejected(self, staff, media):
        target = ObjectEngine(media)
        subject = SubjectEngine(staff)
        capture = run_exchange(subject, target)
        assert capture.outcome is not None
        result = replay_attack(capture, target, staff.subject_id)
        assert not result.replayed_que1_answered
        assert not result.replayed_que2_answered
        assert not result.spliced_que2_answered

    def test_replay_against_level3_object(self, fellow, kiosk):
        target = ObjectEngine(kiosk)
        subject = SubjectEngine(fellow)
        capture = run_exchange(subject, target)
        result = replay_attack(capture, target, fellow.subject_id)
        assert not result.spliced_que2_answered

    def test_verdicts_survive_an_error_log_trim(self, staff, media, monkeypatch):
        """A full error log is trimmed mid-attack; the verdicts hold."""
        monkeypatch.setattr(errors_mod, "ERROR_LOG_LIMIT", 2)
        target = ObjectEngine(media)
        capture = run_exchange(SubjectEngine(staff), target)
        for _ in range(2):
            target.record_wire_error(MessageFormatError("junk"))
        result = replay_attack(capture, target, staff.subject_id)
        assert not result.replayed_que1_answered
        assert not result.replayed_que2_answered
        assert not result.spliced_que2_answered

    def test_fresh_round_after_replay_still_works(self, staff, media):
        """Replay defence must not brick the object for honest users."""
        target = ObjectEngine(media)
        capture = run_exchange(SubjectEngine(staff), target)
        replay_attack(capture, target, staff.subject_id)
        fresh = run_exchange(SubjectEngine(staff), target)
        assert fresh.outcome is not None


class TestDistinguisherVerdicts:
    def test_v2_fellow_flagged(self, fellow, kiosk):
        capture = run_exchange(SubjectEngine(fellow, Version.V2_0),
                               ObjectEngine(kiosk, Version.V2_0))
        assert classify_subject(capture).subject_seeking_level3 is True

    def test_v2_plain_subject_not_flagged(self, staff, media):
        capture = run_exchange(SubjectEngine(staff, Version.V2_0),
                               ObjectEngine(media, Version.V2_0))
        assert classify_subject(capture).subject_seeking_level3 is False

    def test_v3_everyone_flagged_hence_no_signal(self, staff, fellow, media, kiosk):
        for creds, obj in ((staff, media), (fellow, kiosk)):
            capture = run_exchange(SubjectEngine(creds, Version.V3_0),
                                   ObjectEngine(obj, Version.V3_0))
            assert classify_subject(capture).subject_seeking_level3 is True

    def test_no_capture_is_unknown(self):
        from repro.attacks.channel import CapturedExchange
        assert classify_subject(CapturedExchange()).subject_seeking_level3 is None

    def test_advantage_requires_both_populations(self):
        with pytest.raises(ValueError):
            subject_advantage([], [])


class TestLevel1ReplaySemantics:
    def test_replayed_level1_profile_is_harmless(self, staff, thermometer):
        """A replayed Level 1 RES1 carries a GENUINE admin-signed public
        profile: accepting it re-learns true public information — there
        is no integrity or secrecy violation to prevent (the paper signs
        Level 1 PROFs for integrity only)."""
        from repro.attacks.channel import run_exchange
        from repro.protocol.object import ObjectEngine
        from repro.protocol.subject import SubjectEngine

        capture = run_exchange(SubjectEngine(staff), ObjectEngine(thermometer))
        # the attacker replays the captured RES1 to a different subject
        other = SubjectEngine(staff)
        other.start_round()
        service = other.handle_res1_level1(capture.res1, "thermo-1")
        assert service is not None
        assert service.profile.verify(staff.admin_public)  # still genuine

    def test_forged_level1_profile_still_rejected(self, staff, thermometer):
        """What replay does NOT allow: modifying the replayed profile."""
        from repro.attacks.channel import run_exchange
        from repro.protocol.messages import Res1Level1
        from repro.protocol.object import ObjectEngine
        from repro.protocol.subject import SubjectEngine

        capture = run_exchange(SubjectEngine(staff), ObjectEngine(thermometer))
        forged = Res1Level1(
            capture.res1.profile_bytes.replace(b"read_temperature", b"xead_temperature")
        )
        victim = SubjectEngine(staff)
        victim.start_round()
        assert victim.handle_res1_level1(forged, "thermo-1") is None
