"""Attribute profiles (PROF) — the credential at the heart of discovery.

§IV-A: "A subject PROF lists the subject's non-sensitive attributes and
can be publicly disclosed; an object PROF lists provided functions (thus
service information) besides the object's non-sensitive attributes."
PROFs are signed by the admin, so integrity holds even for Level 1
plaintext responses.

A Level 2 object holds *m* variants ``{pred_i, PROF_{O,i}}`` keyed by a
predicate over subject attributes; a Level 3 object holds variants keyed
by a secret-group key. Those pairings live in
:mod:`repro.backend.registration`; this module defines the PROF itself.
"""

from __future__ import annotations

import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.attributes.model import AttributeSet
from repro.crypto import meter
from repro.crypto.ecdsa import SigningKey, VerifyingKey

#: Paper-nominal PROF wire size (§IX-A: "PROF_X averagely has 200 B").
NOMINAL_PROF_WIRE = 200

#: LRU bound for the admin-signature verification cache.
VERIFY_CACHE_MAX = 4096

# Verification results keyed by (admin key bytes, profile body, signature).
# The mapping is a pure function of its key, so both positive and negative
# results are cacheable; on a hit the *logical* ecdsa_verify op is still
# metered (§IX-B accounting stays identical warm or cold) along with a
# profile_verify_cached marker so benchmarks can tell the paths apart.
_verify_cache: OrderedDict[tuple[bytes, bytes, bytes], bool] = OrderedDict()
_verify_lock = threading.Lock()


def clear_verify_cache() -> None:
    """Empty the profile-verification cache (tests and cold benchmarks)."""
    with _verify_lock:
        _verify_cache.clear()


def verify_cache_len() -> int:
    with _verify_lock:
        return len(_verify_cache)


class ProfileError(Exception):
    """Raised on malformed or unverifiable profiles."""


@dataclass(frozen=True)
class Profile:
    """A signed attribute profile.

    ``functions`` is empty for subjects; for objects it carries the
    service information ("provided functions") — the thing visibility
    scoping protects.
    """

    entity_id: str
    attributes: AttributeSet
    functions: tuple[str, ...] = field(default_factory=tuple)
    variant: str = "default"
    signature: bytes = b""

    def body_bytes(self) -> bytes:
        """Canonical unsigned encoding (what the admin signs).

        Memoized on the (frozen, immutable) instance: RES2 framing and
        padding re-serialize every PROF variant per handshake otherwise.
        """
        cached = self.__dict__.get("_body_cache")
        if cached is not None:
            return cached
        encoded = self._encode_body()
        object.__setattr__(self, "_body_cache", encoded)
        return encoded

    def _encode_body(self) -> bytes:
        eid = self.entity_id.encode()
        var = self.variant.encode()
        attrs = self.attributes.to_bytes()
        funcs = "\n".join(self.functions).encode()
        for name, blob in (("entity_id", eid), ("variant", var)):
            if len(blob) > 0xFFFF:
                raise ProfileError(f"{name} too long")
        return b"".join(
            [
                struct.pack(">H", len(eid)), eid,
                struct.pack(">H", len(var)), var,
                struct.pack(">I", len(attrs)), attrs,
                struct.pack(">I", len(funcs)), funcs,
            ]
        )

    def to_bytes(self) -> bytes:
        if not self.signature:
            raise ProfileError("profile is unsigned; use sign_profile() first")
        cached = self.__dict__.get("_bytes_cache")
        if cached is None:
            cached = self.body_bytes() + self.signature
            object.__setattr__(self, "_bytes_cache", cached)
        return cached

    @classmethod
    def from_bytes(cls, data: bytes) -> "Profile":
        try:
            offset = 0
            (eid_len,) = struct.unpack_from(">H", data, offset)
            offset += 2
            entity_id = data[offset : offset + eid_len].decode()
            offset += eid_len
            (var_len,) = struct.unpack_from(">H", data, offset)
            offset += 2
            variant = data[offset : offset + var_len].decode()
            offset += var_len
            (attrs_len,) = struct.unpack_from(">I", data, offset)
            offset += 4
            attributes = AttributeSet.from_bytes(data[offset : offset + attrs_len])
            offset += attrs_len
            (funcs_len,) = struct.unpack_from(">I", data, offset)
            offset += 4
            funcs_blob = data[offset : offset + funcs_len].decode()
            offset += funcs_len
            functions = tuple(funcs_blob.split("\n")) if funcs_blob else ()
            signature = data[offset:]
        except (struct.error, UnicodeDecodeError, ValueError) as exc:
            raise ProfileError(f"malformed profile: {exc}") from exc
        if not signature:
            raise ProfileError("profile missing signature")
        profile = cls(
            entity_id=entity_id,
            attributes=attributes,
            functions=functions,
            variant=variant,
            signature=signature,
        )
        # The wire encoding is canonical, so the received bytes *are* the
        # serialization — stash them so verify/to_bytes never re-encode.
        object.__setattr__(profile, "_body_cache", bytes(data[:offset]))
        object.__setattr__(profile, "_bytes_cache", bytes(data))
        return profile

    def verify(self, admin_key: VerifyingKey) -> bool:
        """Check the admin's signature; the integrity guarantee of Level 1.

        Results are served from a process-wide LRU keyed by the exact
        (admin key, body, signature) bytes: a returning subject's PROF_S
        (or a re-served PROF_O variant) costs one dict lookup instead of
        an ECDSA verification. Hits still meter the logical
        ``ecdsa_verify`` op plus ``profile_verify_cached``.
        """
        if not self.signature:
            return False
        body = self.body_bytes()
        key = (admin_key.to_bytes(), body, self.signature)
        with _verify_lock:
            hit = _verify_cache.get(key)
            if hit is not None:
                _verify_cache.move_to_end(key)
        if hit is not None:
            meter.record("ecdsa_verify", admin_key.strength)
            meter.record("profile_verify_cached", admin_key.strength)
            return hit
        ok = admin_key.verify(self.signature, body)
        with _verify_lock:
            _verify_cache[key] = ok
            while len(_verify_cache) > VERIFY_CACHE_MAX:
                _verify_cache.popitem(last=False)
        return ok


def sign_profile(profile: Profile, admin_key: SigningKey) -> Profile:
    """Return a copy of *profile* signed by the admin."""
    signature = admin_key.sign(profile.body_bytes())
    return Profile(
        entity_id=profile.entity_id,
        attributes=profile.attributes,
        functions=profile.functions,
        variant=profile.variant,
        signature=signature,
    )
