"""Low-level cryptographic helpers shared by every Argus component.

The paper fixes its symmetric primitives (§V, §IX-A): SHA-256 for hashing,
HMAC-SHA256 for message authentication codes and as the pseudorandom
function of the key schedule, and 28-byte randoms (``R_S``/``R_O``) for
freshness — the same nonce length TLS 1.2 uses.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import os

from repro.crypto import meter

#: Length in bytes of the freshness nonces ``R_S`` and ``R_O`` (§IX-A).
NONCE_LEN = 28

#: Length in bytes of an HMAC-SHA256 tag (§IX-A: "MAC_X (SHA-256) is 32 B").
MAC_LEN = 32

#: Length in bytes of a SHA-256 digest.
HASH_LEN = 32


def sha256(data: bytes) -> bytes:
    """Return the SHA-256 digest of *data*."""
    return hashlib.sha256(data).digest()


#: SHA-256's input block: RFC 2104 pads the HMAC key to this length.
_SHA256_BLOCK = 64

#: ``key XOR ipad`` and ``key XOR opad`` as ``bytes.translate`` tables.
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """Return ``HMAC-SHA256(key, data)``.

    This is the paper's ``HMAC(secret, seed)`` pseudorandom function used
    both for the key schedule (§V) and for the ``MAC_{S,i}``/``MAC_{O,i}``
    handshake-finished tags.
    """
    meter.record("hmac")
    return hmac_digest(key, data)


def hmac_digest(key: bytes, data: bytes) -> bytes:
    """RFC 2104 HMAC-SHA256 straight from :mod:`hashlib`, unmetered.

    Byte-identical to ``hmac.new(key, data, "sha256").digest()`` without
    its per-call object and pad setup. Only :mod:`repro.crypto.aead`
    calls it directly, because it meters its own key schedule per
    operation; everything else goes through :func:`hmac_sha256`.
    """
    if len(key) > _SHA256_BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_SHA256_BLOCK, b"\0")
    inner = hashlib.sha256(key.translate(_IPAD))
    inner.update(data)
    return hashlib.sha256(key.translate(_OPAD) + inner.digest()).digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without leaking their contents via timing.

    Every MAC verification in the protocol goes through this helper; a
    variable-time comparison would hand the §VII Case 9 timing attacker a
    far larger signal than the one the paper already defends against.
    """
    return _hmac.compare_digest(a, b)


def random_bytes(n: int) -> bytes:
    """Return *n* cryptographically secure random bytes."""
    return os.urandom(n)


def fresh_nonce() -> bytes:
    """Return a fresh 28-byte nonce (an ``R_S`` or ``R_O``)."""
    return random_bytes(NONCE_LEN)


def hkdf_like_prf(secret: bytes, label: bytes, seed: bytes, length: int = 32) -> bytes:
    """Expand *secret* into *length* bytes using the paper's HMAC PRF.

    The paper writes ``K = HMAC(secret, label || seed)`` and uses a single
    32-byte output per key. For generality (and for the AEAD layer, which
    needs an encryption key and a MAC key) we iterate the PRF in counter
    mode, TLS-PRF style, so any output length is available while the
    first 32 bytes coincide exactly with the paper's definition.
    """
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    out = bytearray()
    counter = 0
    while len(out) < length:
        block = hmac_sha256(secret, label + seed + counter.to_bytes(4, "big"))
        out.extend(block)
        counter += 1
    return bytes(out[:length])
