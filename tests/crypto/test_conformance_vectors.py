"""Golden conformance vectors for the Argus key schedule and AEAD.

These hex constants pin the exact byte-level behaviour of HMAC-SHA256,
the K2/K3 derivation, the finished MACs and the AEAD blob format. Any change — a label typo, a reordered
concatenation, a different PRF iteration — breaks interop between
subjects and objects built from different revisions, and MUST fail here
before it fails in the field. If you change the key schedule on
purpose, bump these vectors in the same commit and say why.
"""

import hashlib
import hmac

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from repro.crypto import aead, kdf
from repro.crypto.primitives import hkdf_like_prf, hmac_sha256

PRE_K = bytes(range(32))
R_S = bytes([0xAA]) * 28
R_O = bytes([0xBB]) * 28
GROUP_KEY = bytes([0xCC]) * 32
TRANSCRIPT = b"transcript bytes for conformance"

K2_HEX = "ba8734f3dc3119b35dba290bdbeb1dbf1ef692470d15fa2a09bda39026810a15"
K3_HEX = "aa0b587cee9cae857375a4a57b876d0feed0afefece880c30ccd78134c191d57"
MAC_S2_HEX = "90598902b40f154dcb1d1ce69de1b0f16588d7157a4bce67f1a1f74b33e702ea"
MAC_S3_HEX = "58c793bdd037ed6b2f5418eca847159d66e66fbe7749eb22a867d2f0e3300cd0"
MAC_O2_HEX = "777c97356abaf76a76558b7709acb90aa993a591fe0676f7ffa7a838553cc5c2"
PRF48_HEX = (
    "1ddc15ddb69b6847e626be4111457273464cd9492bbf556b178885f27234e5eb"
    "b85ca269a9e936a8026a6eb359c5d50c"
)


class TestKeyScheduleVectors:
    def test_k2(self):
        assert kdf.derive_k2(PRE_K, R_S, R_O).hex() == K2_HEX

    def test_k3(self):
        k2 = kdf.derive_k2(PRE_K, R_S, R_O)
        assert kdf.derive_k3(k2, GROUP_KEY, R_S, R_O).hex() == K3_HEX

    def test_mac_s2(self):
        k2 = bytes.fromhex(K2_HEX)
        assert kdf.subject_finished(k2, TRANSCRIPT).hex() == MAC_S2_HEX

    def test_mac_s3(self):
        k3 = bytes.fromhex(K3_HEX)
        assert kdf.subject_finished(k3, TRANSCRIPT).hex() == MAC_S3_HEX

    def test_mac_o2(self):
        k2 = bytes.fromhex(K2_HEX)
        assert kdf.object_finished(k2, TRANSCRIPT).hex() == MAC_O2_HEX

    def test_prf_expansion(self):
        assert hkdf_like_prf(b"secret", b"label", b"seed", 48).hex() == PRF48_HEX

    def test_labels_are_the_papers(self):
        """The exact ASCII strings of §V are part of the wire contract."""
        assert kdf.LABEL_KEY == b"session key"
        assert kdf.LABEL_SUBJECT == b"subject finished"
        assert kdf.LABEL_OBJECT == b"object finished"


#: RFC 4231 HMAC-SHA256 test cases 1, 2, 4, 6 and 7 (6 and 7 use a
#: 131-byte key, longer than the 64-byte block, so it is hashed first).
RFC4231 = {
    1: (b"\x0b" * 20, b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    2: (b"Jefe", b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    4: (bytes(range(1, 26)), b"\xcd" * 50,
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    6: (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    7: (b"\xaa" * 131,
        b"This is a test using a larger than block-size key and a larger than "
        b"block-size data. The key needs to be hashed before being used by the "
        b"HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
}


class TestHmacVectors:
    @pytest.mark.parametrize("case", sorted(RFC4231))
    def test_rfc4231(self, case):
        key, data, expected = RFC4231[case]
        assert hmac_sha256(key, data).hex() == expected

    def test_block_sized_key(self):
        """A 64-byte key is used as is: the ``K2 || K_grp`` of K3."""
        key = bytes.fromhex(K2_HEX) + GROUP_KEY
        assert len(key) == 64
        assert hmac_sha256(key, kdf.LABEL_KEY + R_S + R_O).hex() == K3_HEX


AEAD_KEY = bytes(range(32))
AEAD_IV = bytes(range(0xA0, 0xB0))

#: ``aead.encrypt(AEAD_KEY, plaintext(n))`` under the fixed IV, pinned
#: from the implementation that predates the hashlib HMAC and the
#: pre-expanded keys: (blob length, SHA-256 of the blob).
AEAD_VECTORS = {
    0: (64, "0e570566619f3eba756951bc99e9cc2bd78f45b2e365198216daceba6fbe63d1"),
    15: (64, "b365ec43336dc12636973fb45bc4df93c74b6580d20e8fa2ade563cd00dfa0b1"),
    16: (80, "ef2bf5327475926edd1f7543abcd6b09e4e4816d0b36f03cdeb75e497b4e1e54"),
    200: (256, "5b10eb458c1681ea7ec897fcdcb77a84b219b56fdef2b46259a8746878329116"),
    224: (288, "80e651168545c6bd5a5787ab2737d65fd67038dc54bfb6eb1c87b3e8d7be8bc6"),
}
#: The whole empty-plaintext blob: IV, one block of padding, tag.
AEAD_EMPTY_HEX = (
    "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf164a2406fac7aebad08f306c8521bfc3"
    "07f426aa5147dd217acf7cb3cb9aab5d55b9a3df2a9a2e890954395549c59f36"
)


def plaintext(n: int) -> bytes:
    return bytes(i % 251 for i in range(n))


def key_forms():
    return {"bytes": AEAD_KEY, "cipher": aead.SymmetricCipher(AEAD_KEY)}


@pytest.fixture
def fixed_iv(monkeypatch):
    monkeypatch.setattr(aead, "random_bytes", lambda n: AEAD_IV[:n])


class TestAeadVectors:
    @pytest.mark.parametrize("form", ["bytes", "cipher"])
    @pytest.mark.parametrize("size", sorted(AEAD_VECTORS))
    def test_blob(self, fixed_iv, form, size):
        blob = aead.encrypt(key_forms()[form], plaintext(size))
        assert (len(blob), hashlib.sha256(blob).hexdigest()) == AEAD_VECTORS[size]

    def test_empty_blob_in_full(self, fixed_iv):
        assert aead.encrypt(AEAD_KEY, b"").hex() == AEAD_EMPTY_HEX

    @pytest.mark.parametrize("size", sorted(AEAD_VECTORS))
    def test_each_form_opens_the_others_blobs(self, size):
        forms = key_forms()
        for sealer in forms.values():
            blob = aead.encrypt(sealer, plaintext(size))
            for opener in forms.values():
                assert aead.decrypt(opener, blob) == plaintext(size)


def sealed_body(padded: bytes) -> bytes:
    """A blob whose tag is correct over a body whose padding may not be:
    the AES and MAC subkeys expanded by hand as the format defines them."""
    enc_key = hkdf_like_prf(AEAD_KEY, b"argus aead enc", b"", 16)
    mac_key = hkdf_like_prf(AEAD_KEY, b"argus aead mac", b"", 32)
    enc = Cipher(algorithms.AES(enc_key), modes.CBC(AEAD_IV)).encryptor()
    body = enc.update(padded) + enc.finalize()
    return AEAD_IV + body + hmac.new(mac_key, AEAD_IV + body, hashlib.sha256).digest()


class TestAeadRejections:
    @pytest.mark.parametrize("form", ["bytes", "cipher"])
    def test_hand_sealed_body_opens(self, form):
        blob = sealed_body(b"fifteen bytes!!" + b"\x01")
        assert aead.decrypt(key_forms()[form], blob) == b"fifteen bytes!!"

    @pytest.mark.parametrize("form", ["bytes", "cipher"])
    def test_bad_tag(self, form):
        blob = bytearray(aead.encrypt(AEAD_KEY, plaintext(40)))
        blob[-1] ^= 0x80
        with pytest.raises(aead.AeadError, match="MAC"):
            aead.decrypt(key_forms()[form], bytes(blob))

    @pytest.mark.parametrize("form", ["bytes", "cipher"])
    def test_truncated_blob(self, form):
        blob = aead.encrypt(AEAD_KEY, plaintext(40))
        for cut in (1, 16, len(blob) - 63):
            with pytest.raises(aead.AeadError):
                aead.decrypt(key_forms()[form], blob[:-cut])

    @pytest.mark.parametrize("form", ["bytes", "cipher"])
    @pytest.mark.parametrize(
        "padded",
        [
            plaintext(15) + b"\x00",  # pad byte 0
            plaintext(15) + b"\x11",  # pad byte 17 > block
            plaintext(29) + b"\x02\x03\x03",  # inconsistent pad bytes
        ],
        ids=["zero", "seventeen", "inconsistent"],
    )
    def test_bad_padding_under_a_good_tag(self, form, padded):
        with pytest.raises(aead.AeadError, match="padding"):
            aead.decrypt(key_forms()[form], sealed_body(padded))
