"""A parsed certificate remembers the issuer keys that verified it.

``Certificate.verify_signature`` memoizes positive results on the
parsed instance (shared process-wide through the parse cache), keyed by
the issuer key's bytes.  A hit still meters the logical ``ecdsa_verify``
plus ``cert_verify_cached``; a failure or a different key always pays a
real verify; ``clear_parse_cache()`` forgets everything.
"""

import pytest

from repro.crypto import meter
from repro.crypto.ecdsa import VerifyingKey, generate_signing_key
from repro.pki.certificate import (
    Certificate,
    CertificateChain,
    clear_parse_cache,
    issue_certificate,
)
from repro.pki.chain import ChainVerifier
from repro.protocol.discovery import run_round
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine


@pytest.fixture(scope="module")
def pki():
    root = generate_signing_key()
    inter = generate_signing_key()
    entity = generate_signing_key()
    c_inter = issue_certificate("root", root, "region", inter.public_key, 1)
    c_leaf = issue_certificate("region", inter, "dev", entity.public_key, 2)
    return root, inter, c_leaf, CertificateChain((c_leaf, c_inter))


@pytest.fixture(autouse=True)
def cold_memo():
    clear_parse_cache()
    yield
    clear_parse_cache()


@pytest.fixture
def real_verifies(monkeypatch):
    """Count the ECDSA verifications that really run."""
    calls = {"n": 0}
    verify = VerifyingKey.verify

    def counted(self, signature, message):
        calls["n"] += 1
        return verify(self, signature, message)

    monkeypatch.setattr(VerifyingKey, "verify", counted)
    return calls


def _parsed(cert: Certificate) -> Certificate:
    return Certificate.from_bytes(cert.to_bytes())


class TestWhatIsRemembered:
    def test_other_issuer_key_pays_a_real_verify_and_is_rejected(
        self, pki, real_verifies
    ):
        _, inter, c_leaf, _ = pki
        cert = _parsed(c_leaf)
        assert cert.verify_signature(inter.public_key)
        other = generate_signing_key().public_key
        real_verifies["n"] = 0
        assert not cert.verify_signature(other)
        assert not cert.verify_signature(other)
        assert real_verifies["n"] == 2

    def test_flipped_signature_byte_pays_and_fails_every_time(
        self, pki, real_verifies
    ):
        _, inter, c_leaf, _ = pki
        wire = bytearray(c_leaf.to_bytes())
        wire[-1] ^= 0x01
        cert = Certificate.from_bytes(bytes(wire))
        for _ in range(3):
            assert not cert.verify_signature(inter.public_key)
        assert real_verifies["n"] == 3

    def test_issued_certificate_is_not_memoized(self, pki, real_verifies):
        """Only parsed instances carry the memo: the parse cache owns it."""
        _, inter, c_leaf, _ = pki
        assert c_leaf.verify_signature(inter.public_key)
        assert c_leaf.verify_signature(inter.public_key)
        assert real_verifies["n"] == 2


class TestAccounting:
    def test_hit_meters_one_logical_verify_at_the_issuer_strength(
        self, real_verifies
    ):
        issuer = generate_signing_key(192)
        entity = generate_signing_key(128)
        cert = _parsed(issue_certificate("ca", issuer, "dev", entity.public_key, 3))
        assert cert.strength == 128
        assert cert.verify_signature(issuer.public_key)
        real_verifies["n"] = 0
        with meter.metered() as tally:
            assert cert.verify_signature(issuer.public_key)
        assert real_verifies["n"] == 0
        assert tally.snapshot() == {
            ("ecdsa_verify", 192): 1,
            ("cert_verify_cached", 192): 1,
        }

    def test_fresh_verifier_still_meters_four_then_three(self, staff, media):
        """§IX-B: a verifier's first contact adds the intermediate check
        to the 3 verifies of a handshake, memo warm or cold."""
        subject = SubjectEngine(staff)
        run_round(subject, {media.object_id: ObjectEngine(media)})  # memo warm
        engine = ObjectEngine(media)
        first = run_round(subject, {media.object_id: engine})
        again = run_round(subject, {media.object_id: engine})
        first_ops = first.object_ops[media.object_id]
        assert first_ops.total("ecdsa_verify") == 4
        assert first_ops.total("cert_verify_cached") == 2  # leaf + intermediate
        assert again.object_ops[media.object_id].total("ecdsa_verify") == 3

    def test_shared_intermediate_is_checked_once_per_process(self, staff, media):
        """Both chains of one region end in the same intermediate: the
        subject checks it first (RES1), so the object's check of it is
        the memo hit, and the object still checks the subject's leaf."""
        result = run_round(SubjectEngine(staff), {media.object_id: ObjectEngine(media)})
        object_ops = result.object_ops[media.object_id]
        assert result.subject_ops.total("cert_verify_cached") == 0
        assert object_ops.total("cert_verify_cached") == 1
        assert object_ops.total("ecdsa_verify") == 4


class TestClearing:
    def test_clear_parse_cache_makes_the_next_check_real(self, pki, real_verifies):
        root, _, _, chain = pki
        data = chain.to_bytes()
        assert ChainVerifier("root", root.public_key).verify_chain_bytes(data)
        real_verifies["n"] = 0
        assert ChainVerifier("root", root.public_key).verify_chain_bytes(data)
        assert real_verifies["n"] == 0  # leaf + intermediate from the memo
        clear_parse_cache()
        assert ChainVerifier("root", root.public_key).verify_chain_bytes(data)
        assert real_verifies["n"] == 2

    def test_clear_drops_the_memo_of_an_instance_still_held(
        self, pki, real_verifies
    ):
        _, inter, c_leaf, _ = pki
        cert = _parsed(c_leaf)
        assert cert.verify_signature(inter.public_key)
        clear_parse_cache()
        real_verifies["n"] = 0
        assert cert.verify_signature(inter.public_key)
        assert real_verifies["n"] == 1
