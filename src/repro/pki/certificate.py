"""Public-key certificates (CERT) and the backend's chain of trust.

§IV-A: each registered subject/object receives a private key and a
public-key certificate *signed by the admin*; the backend is "a hierarchy
of servers … it realizes a chain of trust". We implement an X.509-like
certificate with a deterministic binary encoding:

    TBS  :=  version(1) || strength(2) || serial(8) ||
             len(subject_id)(2) || subject_id ||
             len(issuer_id)(2)  || issuer_id  ||
             not_before(8) || not_after(8) ||
             len(pubkey)(2) || pubkey
    CERT :=  TBS || signature(over TBS)

At the paper's 128-bit strength a real Argus certificate is 552 B of TBS
plus a 64 B ECDSA signature = 616 B on the wire; our compact encoding is
smaller, so wire-size *accounting* uses the paper's nominal numbers
(:mod:`repro.protocol.messages`) while verification uses these real
bytes.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto import meter
from repro.crypto.ecdsa import SigningKey, VerifyingKey

#: Paper-nominal TBS size at 128-bit (§IX-A: "X.509 ECDSA certificate of 552 B").
NOMINAL_CERT_BODY = 552
#: Nominal full certificate on the wire: body + 64 B admin signature.
NOMINAL_CERT_WIRE = NOMINAL_CERT_BODY + 64

#: Parsed-certificate cache, keyed by exact wire bytes.  Certificates
#: are frozen and their encoding is canonical, so the parsed instance
#: can be shared freely; the win is the intermediate/admin certificate
#: that appears byte-identical inside every chain an engine sees (each
#: parse re-loads the embedded EC point otherwise).  Each parsed
#: instance also carries the issuer keys its signature has verified
#: under (:meth:`Certificate.verify_signature`), so every engine and
#: verifier in the process that sees these bytes again skips the ECDSA
#: check.  LRU-bounded; a failed parse or a failed check is never
#: cached.
_PARSE_CACHE: OrderedDict[bytes, "Certificate"] = OrderedDict()
_PARSE_CACHE_MAX = 4096


def clear_parse_cache() -> None:
    """Forget parsed certificates and the issuer keys they verified
    under (cold-path benchmarks and tests)."""
    for cert in _PARSE_CACHE.values():
        cert.__dict__["_verified_by"].clear()
    _PARSE_CACHE.clear()


class CertificateError(Exception):
    """Raised on malformed or unverifiable certificates."""


@dataclass(frozen=True)
class Certificate:
    """A signed binding of an entity id to its public key."""

    subject_id: str
    issuer_id: str
    public_key: VerifyingKey
    serial: int
    not_before: int
    not_after: int
    strength: int
    signature: bytes

    # -- encoding ---------------------------------------------------------------

    @staticmethod
    def _tbs_bytes(
        subject_id: str,
        issuer_id: str,
        public_key: VerifyingKey,
        serial: int,
        not_before: int,
        not_after: int,
        strength: int,
    ) -> bytes:
        sid = subject_id.encode()
        iid = issuer_id.encode()
        pub = public_key.to_bytes()
        return b"".join(
            [
                struct.pack(">BHQ", 1, strength, serial),
                struct.pack(">H", len(sid)), sid,
                struct.pack(">H", len(iid)), iid,
                struct.pack(">QQ", not_before, not_after),
                struct.pack(">H", len(pub)), pub,
            ]
        )

    def tbs(self) -> bytes:
        """The to-be-signed portion (memoized; the instance is immutable)."""
        cached = self.__dict__.get("_tbs_cache")
        if cached is None:
            cached = self._tbs_bytes(
                self.subject_id, self.issuer_id, self.public_key,
                self.serial, self.not_before, self.not_after, self.strength,
            )
            object.__setattr__(self, "_tbs_cache", cached)
        return cached

    def to_bytes(self) -> bytes:
        cached = self.__dict__.get("_bytes_cache")
        if cached is None:
            cached = self.tbs() + self.signature
            object.__setattr__(self, "_bytes_cache", cached)
        return cached

    @classmethod
    def from_bytes(cls, data: bytes) -> "Certificate":
        cached = _PARSE_CACHE.get(data)
        if cached is not None:
            _PARSE_CACHE.move_to_end(data)
            return cached
        try:
            version, strength, serial = struct.unpack_from(">BHQ", data, 0)
            if version != 1:
                raise CertificateError(f"unsupported certificate version {version}")
            offset = 11
            (sid_len,) = struct.unpack_from(">H", data, offset)
            offset += 2
            subject_id = data[offset : offset + sid_len].decode()
            offset += sid_len
            (iid_len,) = struct.unpack_from(">H", data, offset)
            offset += 2
            issuer_id = data[offset : offset + iid_len].decode()
            offset += iid_len
            not_before, not_after = struct.unpack_from(">QQ", data, offset)
            offset += 16
            (pub_len,) = struct.unpack_from(">H", data, offset)
            offset += 2
            public_key = VerifyingKey.from_bytes(
                data[offset : offset + pub_len], strength
            )
            offset += pub_len
            signature = data[offset:]
        except (struct.error, UnicodeDecodeError, ValueError) as exc:
            raise CertificateError(f"malformed certificate: {exc}") from exc
        if not signature:
            raise CertificateError("certificate missing signature")
        cert = cls(
            subject_id=subject_id,
            issuer_id=issuer_id,
            public_key=public_key,
            serial=serial,
            not_before=not_before,
            not_after=not_after,
            strength=strength,
            signature=signature,
        )
        # The encoding is canonical: the received bytes are the
        # serialization, so verification never re-encodes the TBS.
        wire = bytes(data)
        object.__setattr__(cert, "_tbs_cache", wire[:offset])
        object.__setattr__(cert, "_bytes_cache", wire)
        object.__setattr__(cert, "_verified_by", set())
        _PARSE_CACHE[wire] = cert
        if len(_PARSE_CACHE) > _PARSE_CACHE_MAX:
            _PARSE_CACHE.popitem(last=False)
        return cert

    # -- verification -------------------------------------------------------------

    def verify_signature(self, issuer_key: VerifyingKey) -> bool:
        """Check the issuer's signature over the TBS bytes.

        A parsed certificate remembers each issuer key (by its bytes)
        that its signature verified under: the answer is a pure function
        of bytes already checked, so a repeat check under the same key
        meters the logical ``ecdsa_verify`` plus ``cert_verify_cached``
        and skips the real one.  Failures are not remembered, and any
        other key pays a real verify.
        """
        verified_by = self.__dict__.get("_verified_by")
        issuer = issuer_key.to_bytes()
        if verified_by is not None and issuer in verified_by:
            meter.record("ecdsa_verify", issuer_key.strength)
            meter.record("cert_verify_cached", issuer_key.strength)
            return True
        if not issuer_key.verify(self.signature, self.tbs()):
            return False
        if verified_by is not None:
            verified_by.add(issuer)
        return True

    def valid_at(self, now: int) -> bool:
        return self.not_before <= now <= self.not_after


def issue_certificate(
    issuer_id: str,
    issuer_key: SigningKey,
    subject_id: str,
    subject_public: VerifyingKey,
    serial: int,
    not_before: int = 0,
    not_after: int = 2**40,
    strength: int | None = None,
) -> Certificate:
    """Create and sign a certificate for *subject_id*."""
    strength = strength if strength is not None else subject_public.strength
    if strength != subject_public.strength:
        raise CertificateError(
            f"certificate strength {strength} != key strength {subject_public.strength}"
        )
    tbs = Certificate._tbs_bytes(
        subject_id, issuer_id, subject_public, serial, not_before, not_after, strength
    )
    signature = issuer_key.sign(tbs)
    return Certificate(
        subject_id=subject_id,
        issuer_id=issuer_id,
        public_key=subject_public,
        serial=serial,
        not_before=not_before,
        not_after=not_after,
        strength=strength,
        signature=signature,
    )


@dataclass(frozen=True)
class CertificateChain:
    """An entity certificate plus intermediates up to (not including) the root.

    The backend hierarchy (§II-A) means an object in Building Z may hold a
    certificate signed by the Building-Z server, whose own certificate is
    signed by the campus root. Verification walks leaf -> intermediates and
    requires the last issuer to be the trusted root key.
    """

    certificates: tuple[Certificate, ...]

    def __post_init__(self) -> None:
        if not self.certificates:
            raise CertificateError("a chain needs at least the leaf certificate")

    @property
    def leaf(self) -> Certificate:
        return self.certificates[0]

    def verify(self, root_id: str, root_key: VerifyingKey, now: int = 1) -> bool:
        """Validate issuer linkage, signatures, and validity windows."""
        chain = self.certificates
        for cert in chain:
            if not cert.valid_at(now):
                return False
        for child, parent in zip(chain, chain[1:]):
            if child.issuer_id != parent.subject_id:
                return False
            if not child.verify_signature(parent.public_key):
                return False
        top = chain[-1]
        return top.issuer_id == root_id and top.verify_signature(root_key)

    def to_bytes(self) -> bytes:
        cached = self.__dict__.get("_bytes_cache")
        if cached is not None:
            return cached
        parts = [struct.pack(">B", len(self.certificates))]
        for cert in self.certificates:
            blob = cert.to_bytes()
            parts.append(struct.pack(">I", len(blob)))
            parts.append(blob)
        encoded = b"".join(parts)
        object.__setattr__(self, "_bytes_cache", encoded)
        return encoded

    @classmethod
    def from_bytes(cls, data: bytes) -> "CertificateChain":
        try:
            (count,) = struct.unpack_from(">B", data, 0)
            offset = 1
            certs = []
            for _ in range(count):
                (length,) = struct.unpack_from(">I", data, offset)
                offset += 4
                certs.append(Certificate.from_bytes(data[offset : offset + length]))
                offset += length
        except (struct.error, CertificateError) as exc:
            raise CertificateError(f"malformed chain: {exc}") from exc
        if offset != len(data):
            raise CertificateError(f"malformed chain: {len(data) - offset} trailing bytes")
        chain = cls(tuple(certs))
        object.__setattr__(chain, "_bytes_cache", bytes(data))
        return chain
