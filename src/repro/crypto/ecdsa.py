"""ECDSA signing/verification at the paper's four security strengths.

Argus fixes its public-key authentication algorithm at ECDSA (§V: "fixing
… authentication at ECDSA, which [is] significantly more efficient than
other algorithms like RSA"). Fig. 6(a) evaluates four security strengths
— 112, 128, 192 and 256 bit — which map to the NIST curves P-224, P-256,
P-384 and P-521 respectively (the standard strength-to-curve mapping; the
paper settles on 128-bit / P-256 for all other experiments).

Signatures are serialized in **raw (r || s)** fixed-width form rather than
DER so that message sizes are deterministic: at 128-bit strength a
signature is exactly 64 bytes, matching §IX-A ("KEXM_X and SIG_X are
64 B").
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature,
    encode_dss_signature,
)

from repro.crypto import meter

#: Paper security strength (bits) -> NIST curve.  Read-only: the table
#: is consulted from forked experiment-runner workers, so it must stay
#: immutable across fork (POOL-SAFETY).
STRENGTH_TO_CURVE: Mapping[int, ec.EllipticCurve] = MappingProxyType({
    112: ec.SECP224R1(),
    128: ec.SECP256R1(),
    192: ec.SECP384R1(),
    256: ec.SECP521R1(),
})

#: The strength the paper uses for everything but Fig. 6(a).
DEFAULT_STRENGTH = 128


def _scalar_len(curve: ec.EllipticCurve) -> int:
    """Byte length of one ECDSA scalar (r or s) on *curve*."""
    return (curve.key_size + 7) // 8


def signature_length(strength: int = DEFAULT_STRENGTH) -> int:
    """Raw (r || s) signature length in bytes at *strength*.

    64 bytes at the paper's default 128-bit strength.
    """
    return 2 * _scalar_len(_curve_for(strength))


def _curve_for(strength: int) -> ec.EllipticCurve:
    try:
        return STRENGTH_TO_CURVE[strength]
    except KeyError:
        raise ValueError(
            f"unsupported security strength {strength}; "
            f"choose one of {sorted(STRENGTH_TO_CURVE)}"
        ) from None


@dataclass(frozen=True)
class VerifyingKey:
    """An ECDSA public key bound to its security strength."""

    strength: int
    _key: ec.EllipticCurvePublicKey

    def verify(self, signature: bytes, message: bytes) -> bool:
        """Return True iff *signature* is a valid raw (r||s) signature."""
        meter.record("ecdsa_verify", self.strength)
        n = _scalar_len(self._key.curve)
        if len(signature) != 2 * n:
            return False
        r = int.from_bytes(signature[:n], "big")
        s = int.from_bytes(signature[n:], "big")
        try:
            der = encode_dss_signature(r, s)
            self._key.verify(der, message, ec.ECDSA(hashes.SHA256()))
            return True
        except (InvalidSignature, ValueError):
            return False

    def to_bytes(self) -> bytes:
        """Serialize as an uncompressed SEC1 point (0x04 || X || Y).

        Memoized: the encoding is deterministic and the serialized key
        doubles as a cache key on the handshake hot path (the profile
        verification cache keys on it every QUE2/RES2).
        """
        cached = self.__dict__.get("_bytes_cache")
        if cached is None:
            cached = self._key.public_bytes(
                serialization.Encoding.X962,
                serialization.PublicFormat.UncompressedPoint,
            )
            object.__setattr__(self, "_bytes_cache", cached)
        return cached

    @classmethod
    def from_bytes(cls, data: bytes, strength: int = DEFAULT_STRENGTH) -> "VerifyingKey":
        """Deserialize an uncompressed SEC1 point at *strength*."""
        curve = _curve_for(strength)
        key = ec.EllipticCurvePublicKey.from_encoded_point(curve, data)
        return cls(strength, key)


@dataclass(frozen=True)
class SigningKey:
    """An ECDSA private key bound to its security strength.

    Issued by the backend at bootstrapping (§IV-A: "issues a private key
    K_X^pri").
    """

    strength: int
    _key: ec.EllipticCurvePrivateKey

    def sign(self, message: bytes) -> bytes:
        """Sign *message*, returning a fixed-width raw (r || s) signature."""
        meter.record("ecdsa_sign", self.strength)
        der = self._key.sign(message, ec.ECDSA(hashes.SHA256()))
        r, s = decode_dss_signature(der)
        n = _scalar_len(self._key.curve)
        return r.to_bytes(n, "big") + s.to_bytes(n, "big")

    @property
    def public_key(self) -> VerifyingKey:
        return VerifyingKey(self.strength, self._key.public_key())

    def to_pem(self) -> bytes:
        """Serialize the private key (PKCS8 PEM, unencrypted).

        Used by provisioning snapshots; real deployments would wrap this
        in at-rest encryption, which is outside the protocol's scope.
        """
        return self._key.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )

    @classmethod
    def from_pem(cls, data: bytes) -> "SigningKey":
        key = serialization.load_pem_private_key(data, password=None)
        if not isinstance(key, ec.EllipticCurvePrivateKey):
            raise ValueError("PEM does not contain an EC private key")
        strength = next(
            (s for s, curve in STRENGTH_TO_CURVE.items()
             if curve.name == key.curve.name),
            None,
        )
        if strength is None:
            raise ValueError(f"unsupported curve {key.curve.name}")
        return cls(strength, key)


def generate_signing_key(strength: int = DEFAULT_STRENGTH) -> SigningKey:
    """Generate a fresh ECDSA key pair at *strength* bits of security."""
    curve = _curve_for(strength)
    return SigningKey(strength, ec.generate_private_key(curve))
