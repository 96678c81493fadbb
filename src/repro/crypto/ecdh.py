"""Ephemeral ECDH key exchange — the paper's ``KEXM`` material.

Argus fixes its key-exchange algorithm at *ephemeral* ECDH (§V), which
gives the protocol forward secrecy (§VII Case 1: compromising a long-term
ECDSA key never reveals past session keys, because each session's
premaster secret derives from one-shot ECDH keys).

The public value (``KEXM_X``) is serialized as the raw X || Y coordinates
*without* the SEC1 0x04 prefix, so that at 128-bit strength it is exactly
64 bytes, matching §IX-A ("KEXM_X … are 64 B").
"""

from __future__ import annotations

from cryptography.hazmat.primitives.asymmetric import ec

from repro.crypto import meter
from repro.crypto.ecdsa import DEFAULT_STRENGTH, _curve_for, _scalar_len


def kexm_length(strength: int = DEFAULT_STRENGTH) -> int:
    """Length in bytes of a serialized KEXM at *strength* (64 at 128-bit)."""
    return 2 * _scalar_len(_curve_for(strength))


class EphemeralECDH:
    """A one-shot ECDH key pair.

    Usage mirrors the protocol: the object generates its pair when
    building RES1, the subject generates hers when building QUE2, and
    each side calls :meth:`derive_premaster` on the peer's ``KEXM`` bytes
    to obtain the shared premaster secret ``preK`` (§V).
    """

    def __init__(self, strength: int = DEFAULT_STRENGTH) -> None:
        self.strength = strength
        self._curve = _curve_for(strength)
        meter.record("ecdh_gen", strength)
        self._private = ec.generate_private_key(self._curve)

    @classmethod
    def from_precomputed(
        cls, private: ec.EllipticCurvePrivateKey, strength: int
    ) -> "EphemeralECDH":
        """Wrap a pre-generated private key (the key-pool handout path).

        The ``ecdh_gen`` op is recorded *here*, at handout, not when the
        pool's refill thread actually generated the key: the handshake
        that consumes the key is the one the paper's §IX-B op accounting
        charges for it, so calibrated timing and op-count checks see
        identical totals whether the key was pooled or made on demand.
        Only the wall-clock cost moves off the critical path.
        """
        self = object.__new__(cls)
        self.strength = strength
        self._curve = _curve_for(strength)
        meter.record("ecdh_gen", strength)
        self._private = private
        return self

    @property
    def kexm(self) -> bytes:
        """The public key-exchange material, raw X || Y coordinates.

        Memoized: the key pair is fixed at construction and the bytes
        go into transcripts and signatures — several
        reads per handshake, one point conversion.
        """
        cached = self.__dict__.get("_kexm")
        if cached is None:
            numbers = self._private.public_key().public_numbers()
            n = _scalar_len(self._curve)
            cached = numbers.x.to_bytes(n, "big") + numbers.y.to_bytes(n, "big")
            self._kexm = cached
        return cached

    def derive_premaster(self, peer_kexm: bytes) -> bytes:
        """Compute the ECDH shared secret from the peer's KEXM bytes.

        Raises ValueError if *peer_kexm* is malformed or not a point on
        the curve — a tampered KEXM must abort the handshake, not produce
        a garbage key.
        """
        meter.record("ecdh_derive", self.strength)
        n = _scalar_len(self._curve)
        if len(peer_kexm) != 2 * n:
            raise ValueError(
                f"KEXM must be {2 * n} bytes at strength {self.strength}, "
                f"got {len(peer_kexm)}"
            )
        # Re-attach the SEC1 uncompressed-point prefix stripped at send time.
        point = b"\x04" + peer_kexm
        try:
            peer_public = ec.EllipticCurvePublicKey.from_encoded_point(
                self._curve, point
            )
        except ValueError as exc:
            raise ValueError(f"invalid KEXM point: {exc}") from exc
        return self._private.exchange(ec.ECDH(), peer_public)
