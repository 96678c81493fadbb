"""AES-CBC + HMAC encrypt-then-MAC, matching the paper's accounting.

§IX-A: "[PROF_O]ENC_K is assumed to use AES in CBC mode with 16-byte IV
and 32-byte MAC, thus has 248 B" (for a 200-byte average PROF).

Layout of a ciphertext blob::

    IV (16 B) || AES-CBC(PKCS7(plaintext)) || HMAC-SHA256 tag (32 B)

The encryption key and MAC key are both expanded from the session key
(``K2`` or ``K3``) via the HMAC PRF, so callers hand us exactly the key
the paper names. A 200-byte plaintext pads to 208 bytes of CBC output,
giving 16 + 208 + 32 = 256 B; the paper's 248 B figure corresponds to
zero-padding-free accounting — we reproduce the paper's number in
:mod:`repro.analysis.overhead` by using its stated field sizes, and note
the 8-byte PKCS7 delta there.
"""

from __future__ import annotations

from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.ciphers.modes import CBC

from repro.crypto import meter
from repro.crypto.primitives import constant_time_equal, hmac_digest, random_bytes

IV_LEN = 16
TAG_LEN = 32
BLOCK_LEN = 16

#: The PRF inputs of the two subkeys: ``label || counter 0``, so each is
#: the first block of ``hkdf_like_prf(session_key, label, b"", n)``.
_ENC_SEED = b"argus aead enc" + bytes(4)
_MAC_SEED = b"argus aead mac" + bytes(4)


class AeadError(Exception):
    """Raised when decryption or tag verification fails."""


def _expand_keys(session_key: bytes) -> tuple[AES, bytes]:
    """Derive independent AES-128 and HMAC keys from the session key."""
    enc_key = hmac_digest(session_key, _ENC_SEED)[:16]
    return AES(enc_key), hmac_digest(session_key, _MAC_SEED)


class SymmetricCipher:
    """A session key whose AES and MAC subkeys are expanded once.

    Pass it to :func:`encrypt`/:func:`decrypt` in place of the raw key
    when one key seals or opens many blobs, as an object's ticket key
    does: the blobs are byte-identical, and the two PRF expansions run
    when the cipher is built instead of on every call. Building one
    meters nothing; each operation meters the same 1 ``aes`` + 3
    ``hmac`` as under a raw key, so §IX-B counts do not depend on the
    key form.
    """

    __slots__ = ("_aes", "_mac_key")

    def __init__(self, session_key: bytes) -> None:
        if not session_key:
            raise ValueError("session key must be non-empty")
        self._aes, self._mac_key = _expand_keys(session_key)

    def encrypt(self, plaintext: bytes) -> bytes:
        return encrypt(self, plaintext)

    def decrypt(self, blob: bytes) -> bytes:
        return decrypt(self, blob)


def _key_schedule(key: bytes | SymmetricCipher) -> tuple[AES, bytes]:
    """The AES key and MAC key for one operation under *key*.

    Meters the two subkey expansions and the tag, 3 ``hmac``, for
    either key form.
    """
    meter.record("hmac", n=3)
    if isinstance(key, SymmetricCipher):
        return key._aes, key._mac_key
    return _expand_keys(key)


def encrypt(key: bytes | SymmetricCipher, plaintext: bytes) -> bytes:
    """Encrypt-then-MAC *plaintext* under *key*."""
    meter.record("aes")
    aes, mac_key = _key_schedule(key)
    iv = random_bytes(IV_LEN)
    pad = BLOCK_LEN - len(plaintext) % BLOCK_LEN
    enc = Cipher(aes, CBC(iv)).encryptor()
    body = enc.update(plaintext + bytes((pad,)) * pad) + enc.finalize()
    return iv + body + hmac_digest(mac_key, iv + body)


def decrypt(key: bytes | SymmetricCipher, blob: bytes) -> bytes:
    """Verify and decrypt a blob produced by :func:`encrypt`.

    Raises :class:`AeadError` on any malformation or tag mismatch; the
    caller (the subject engine) treats that as "this RES2 was not
    encrypted under this key", which is how Level 2 vs Level 3
    ciphertexts are told apart in v3.0 (§VI-B). The padding is checked
    only after the tag, so a bad pad is never an oracle.
    """
    meter.record("aes")
    if len(blob) < IV_LEN + BLOCK_LEN + TAG_LEN:
        raise AeadError(f"ciphertext too short: {len(blob)} bytes")
    aes, mac_key = _key_schedule(key)
    iv, body, tag = blob[:IV_LEN], blob[IV_LEN:-TAG_LEN], blob[-TAG_LEN:]
    if not constant_time_equal(tag, hmac_digest(mac_key, iv + body)):
        raise AeadError("MAC verification failed")
    if len(body) % BLOCK_LEN != 0:
        raise AeadError("ciphertext body not block-aligned")
    dec = Cipher(aes, CBC(iv)).decryptor()
    padded = dec.update(body) + dec.finalize()
    pad = padded[-1]
    if not 0 < pad <= BLOCK_LEN or padded[-pad:] != bytes((pad,)) * pad:
        raise AeadError("invalid padding")
    return padded[:-pad]


def ciphertext_length(plaintext_len: int) -> int:
    """Exact length of :func:`encrypt`'s output for a given plaintext."""
    padded = (plaintext_len // BLOCK_LEN + 1) * BLOCK_LEN
    return IV_LEN + padded + TAG_LEN
