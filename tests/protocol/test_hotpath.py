"""Hot-path optimization layer at the protocol level.

Verifies the engine-facing behavior of the caches and the key pool:
warm rounds keep the paper's op counts while exposing cache-hit
markers, the Level 1 broadcast answer is serialized once, padding memos
invalidate when the backend pushes new variants, and security-sensitive
behavior (replay rejection, revocation, silence on failure) is
unchanged with every cache primed.
"""

import dataclasses

import pytest

from repro.backend import Backend
from repro.backend.updates import ChurnEngine
from repro.crypto import keypool
from repro.pki.certificate import clear_parse_cache
from repro.pki.profile import clear_verify_cache
from repro.protocol.discovery import run_round
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine


class TestWarmRoundAccounting:
    def test_warm_round_exposes_cache_markers(self, staff, media):
        """Round 2 serves chain + PROF verifications from cache — visible
        via the new counters — while §IX-B totals stay at 1/3/1/1."""
        subject = SubjectEngine(staff)
        objects = {media.object_id: ObjectEngine(media)}
        run_round(subject, objects)
        result = run_round(subject, objects)
        s, o = result.subject_ops, result.object_ops[media.object_id]
        for ops in (s, o):
            assert ops.total("ecdsa_sign") == 1
            assert ops.total("ecdsa_verify") == 3
            assert ops.total("ecdh_gen") == 1
            # chain bytes + admin-signed PROF both served from cache
            assert ops.total("cert_verify_cached") == 1
            assert ops.total("profile_verify_cached") == 1

    def test_pool_markers_visible_in_round_ops(self, staff, media):
        pool = keypool.default_pool()
        pool.drain()
        old = pool.background_refill
        pool.background_refill = False
        try:
            pool.prime(4)
            subject = SubjectEngine(staff)
            objects = {media.object_id: ObjectEngine(media)}
            result = run_round(subject, objects)
            assert result.subject_ops.total("ecdh_pool_hit") == 1
            assert result.object_ops[media.object_id].total("ecdh_pool_hit") == 1
        finally:
            pool.background_refill = old
            pool.drain()

    def test_cold_round_has_no_cache_markers(self):
        clear_verify_cache()
        clear_parse_cache()
        # Subject and object certified under different regions: their
        # chains share no certificate, so neither side's first check can
        # fill the process certificate memo for the other.
        backend = Backend(regions=("east", "west"))
        backend.add_policy(
            "staff-media", "position=='staff'", "type=='multimedia'", ("play",)
        )
        staff = backend.register_subject("cold-staff", {"position": "staff"}, region="east")
        media = backend.register_object(
            "cold-media", {"type": "multimedia"}, level=2, functions=("play",),
            variants=[("position=='staff'", ("play",))], region="west",
        )
        subject = SubjectEngine(staff)
        objects = {media.object_id: ObjectEngine(media)}
        result = run_round(subject, objects)
        assert result.subject_ops.total("profile_verify_cached") == 0
        assert result.object_ops[media.object_id].total("cert_verify_cached") == 0


class TestLevel1ResponseCache:
    def test_res1_payload_computed_once(self, thermometer, subject_engine):
        engine = ObjectEngine(thermometer)
        que1 = subject_engine.start_round()
        first = engine.handle_que1(que1, "s")
        que1b = subject_engine.start_round()
        second = engine.handle_que1(que1b, "s")
        assert first is second  # the cached message object is reused

    def test_res1_cache_invalidates_on_profile_swap(self, thermometer, subject_engine):
        engine = ObjectEngine(thermometer)
        first = engine.handle_que1(subject_engine.start_round(), "s")
        # a backend push replaces the public profile object
        engine.creds = dataclasses.replace(thermometer)
        engine.creds.public_profile = dataclasses.replace(
            thermometer.public_profile, signature=thermometer.public_profile.signature
        )
        second = engine.handle_que1(subject_engine.start_round(), "s")
        assert first is not second
        assert first.profile_bytes == second.profile_bytes


class TestPaddedLengthMemo:
    def test_memo_stable_across_calls(self, media):
        engine = ObjectEngine(media)
        assert engine.padded_payload_length() == engine.padded_payload_length()

    def test_memo_invalidates_when_variants_change(self):
        backend = Backend()
        creds = backend.register_object(
            "m", {"type": "multimedia"}, level=2, functions=("play",),
            variants=[("position=='staff'", ("play",))],
        )
        engine = ObjectEngine(creds)
        before = engine.padded_payload_length()
        ChurnEngine(backend).add_policy_with_variant(
            "interns-too", "position=='intern'", "type=='multimedia'",
            ("play", "cast", "transcode", "a-much-longer-function-name"),
        )
        after = engine.padded_payload_length()
        assert after > before  # the new longest variant resized the padding


class TestSecurityUnchangedWarm:
    def test_replay_rejected_with_all_caches_primed(self, staff, media):
        subject = SubjectEngine(staff)
        engine = ObjectEngine(media)
        run_round(subject, {media.object_id: engine})  # warm everything
        que1 = subject.start_round()
        assert engine.handle_que1(que1, staff.subject_id) is not None
        assert engine.handle_que1(que1, staff.subject_id) is None  # replayed nonce

    def test_revoked_subject_rejected_despite_warm_leaf_cache(self, staff, media):
        """Revocation is checked after chain verification, so a cached
        (still cryptographically valid) chain must not bypass it."""
        subject = SubjectEngine(staff)
        # private creds copy: the revocation push must not leak into the
        # session-scoped fixture
        creds = dataclasses.replace(media, revoked_subjects=set())
        engine = ObjectEngine(creds)
        result = run_round(subject, {media.object_id: engine})
        assert result.services  # first contact succeeded; caches are warm
        engine.creds.revoked_subjects.add(staff.subject_id)
        subject2 = SubjectEngine(staff)
        result2 = run_round(subject2, {media.object_id: engine})
        assert not result2.services
        assert any("revoked" in str(e) for e in engine.errors)

    def test_revoked_subject_refused_with_certificate_memoized(self, staff, media):
        """A fresh engine answers the subject's chain from the process
        certificate memo, and still checks revocation after it."""
        clear_parse_cache()
        run_round(SubjectEngine(staff), {media.object_id: ObjectEngine(media)})
        creds = dataclasses.replace(media, revoked_subjects={staff.subject_id})
        engine = ObjectEngine(creds)
        result = run_round(SubjectEngine(staff), {media.object_id: engine})
        assert not result.services
        # leaf + intermediate both served from the memo
        assert result.object_ops[media.object_id].total("cert_verify_cached") == 2
        assert any("revoked" in str(e) for e in engine.errors)

    def test_leaf_outside_window_refused_with_certificate_memoized(self):
        backend = Backend()
        backend.add_policy(
            "staff-media", "position=='staff'", "type=='multimedia'", ("play",)
        )
        subject = backend.register_subject("windowed", {"position": "staff"})
        obj = backend.register_object(
            "media-w", {"type": "multimedia"}, level=2, functions=("play",),
            variants=[("position=='staff'", ("play",))],
        )
        backend.reissue_certificate("windowed", not_before=10, not_after=100)

        def round_at(now: int, engine: ObjectEngine):
            return run_round(SubjectEngine(subject, now=now), {obj.object_id: engine})

        clear_parse_cache()
        assert round_at(50, ObjectEngine(obj, now=50)).services  # memo warm
        for now in (9, 101):
            engine = ObjectEngine(obj, now=now)
            assert not round_at(now, engine).services
            assert any("bad subject chain" in str(e) for e in engine.errors)
        for now in (10, 100):  # the window's own bounds lie inside it
            assert round_at(now, ObjectEngine(obj, now=now)).services

    def test_que2_replay_rejected_warm(self, staff, media):
        subject = SubjectEngine(staff)
        engine = ObjectEngine(media)
        run_round(subject, {media.object_id: engine})
        que1 = subject.start_round()
        res1 = engine.handle_que1(que1, staff.subject_id)
        que2 = subject.handle_res1(res1, media.object_id)
        assert engine.handle_que2(que2, staff.subject_id) is not None
        assert engine.handle_que2(que2, staff.subject_id) is None  # one QUE2/session


class TestDiscoveryEquivalence:
    @pytest.mark.parametrize("primed", [False, True])
    def test_same_services_cold_and_warm(self, staff, media, kiosk, thermometer, primed):
        pool = keypool.default_pool()
        pool.drain()
        if primed:
            pool.prime(8)
        else:
            clear_verify_cache()
        subject = SubjectEngine(staff)
        objects = {
            c.object_id: ObjectEngine(c) for c in (media, kiosk, thermometer)
        }
        result = run_round(subject, objects)
        assert {s.object_id for s in result.services} == {
            media.object_id, kiosk.object_id, thermometer.object_id
        }
        pool.drain()
