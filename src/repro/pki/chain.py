"""Chain verification with intermediate and whole-chain caching.

In steady state a device keeps seeing the same intermediate-CA
certificates (there are only a handful of admin servers), so caching
verified intermediates means each handshake costs exactly **one**
certificate verification — which is how the paper's per-discovery op
counts (1 sign + 3 verifies on each side, §IX-B) come out.

A returning peer presents the same chain bytes every round, so a
**chain-bytes cache** in :meth:`ChainVerifier.verify_chain_bytes` takes
the *warm* path below even that: the exact wire bytes of a fully
verified chain map straight to the parsed leaf, skipping
deserialization and the leaf's signature check.

The cache remembers only *successes*, re-checks the chain's validity
window on every hit (an expired certificate never rides a stale cache
entry), and never sees revocation — the engines check the revocation
list *after* chain verification, so a revoked-but-cached subject is
still rejected. Hits meter the logical ``ecdsa_verify`` (one per warm
handshake, exactly the §IX-B count) plus ``cert_verify_cached``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple

from repro.crypto import meter
from repro.crypto.ecdsa import VerifyingKey
from repro.pki.certificate import Certificate, CertificateChain, CertificateError

#: Default LRU bound for every per-verifier cache.
LEAF_CACHE_MAX = 1024


class CacheInfo(NamedTuple):
    """A :func:`functools.lru_cache`-style snapshot of cache health."""

    hits: int
    misses: int
    maxsize: int
    chain_size: int
    intermediate_size: int


class ChainVerifier:
    """Verifies chains against one trusted root, caching verified results.

    Every cache — intermediates included — is LRU-bounded by *maxsize*
    so a churning fleet (thousands of distinct subjects cycling through)
    cannot grow the verifier without limit; :meth:`cache_info` exposes
    hit/miss counters for the benchmarks that watch warm-path health.
    """

    def __init__(
        self, root_id: str, root_key: VerifyingKey, maxsize: int = LEAF_CACHE_MAX
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.root_id = root_id
        self.root_key = root_key
        self.maxsize = maxsize
        #: Verified intermediate certs, keyed by their serialized bytes;
        #: value is the intermediate's public key for child verification.
        self._verified: OrderedDict[bytes, VerifyingKey] = OrderedDict()
        #: Fully verified chains: wire bytes -> (leaf, window_lo, window_hi).
        self._chain_ok: OrderedDict[bytes, tuple[Certificate, int, int]] = OrderedDict()
        self._hits = 0
        self._misses = 0

    def cache_info(self) -> CacheInfo:
        """Hit/miss counters and current cache sizes.

        A *hit* is any lookup served from the chain-bytes cache; a
        *miss* is a verification that had to run real signature checks. Intermediate-ladder reuse is deliberately not counted —
        it is the steady state, not a signal.
        """
        return CacheInfo(
            hits=self._hits,
            misses=self._misses,
            maxsize=self.maxsize,
            chain_size=len(self._chain_ok),
            intermediate_size=len(self._verified),
        )

    def clear_caches(self) -> None:
        """Forget every cached verification (tests and cold benchmarks)."""
        self._verified.clear()
        self._chain_ok.clear()
        self._hits = 0
        self._misses = 0

    def verify_chain_bytes(self, data: bytes, now: int = 1) -> Certificate | None:
        """Parse + verify a serialized chain; return the leaf or None."""
        hit = self._chain_ok.get(data)
        if hit is not None:
            leaf, lo, hi = hit
            if lo <= now <= hi:
                self._chain_ok.move_to_end(data)
                self._hits += 1
                meter.record("ecdsa_verify", leaf.strength)
                meter.record("cert_verify_cached", leaf.strength)
                return leaf
            # Outside the validity window: fall through to the full walk
            # (which re-checks valid_at and fails) without touching the
            # entry — the window may cover a later `now`.
        try:
            chain = CertificateChain.from_bytes(data)
        except CertificateError:
            return None
        leaf = self.verify(chain, now)
        if leaf is not None:
            lo = max(cert.not_before for cert in chain.certificates)
            hi = min(cert.not_after for cert in chain.certificates)
            self._remember(self._chain_ok, bytes(data), (leaf, lo, hi))
        return leaf

    def verify(self, chain: CertificateChain, now: int = 1) -> Certificate | None:
        """Verify the chain; return the leaf certificate on success."""
        certs = chain.certificates
        leaf = certs[0]
        if not all(cert.valid_at(now) for cert in certs):
            return None

        # Find/establish the leaf's issuer key, walking cached intermediates.
        if len(certs) == 1:
            if leaf.issuer_id != self.root_id:
                return None
            issuer_key = self.root_key
        else:
            issuer_key = self._issuer_key(certs[1:], now)
            if issuer_key is None:
                return None
            if leaf.issuer_id != certs[1].subject_id:
                return None

        self._misses += 1
        return leaf if leaf.verify_signature(issuer_key) else None

    def _issuer_key(
        self, intermediates: tuple[Certificate, ...], now: int
    ) -> VerifyingKey | None:
        """Validate the intermediate ladder (cached after first sight).

        This is the one intermediate-CA check a handshake pays the first
        time this verifier sees a chain: §IX-B counts 3 ``ecdsa_verify``
        per side per handshake, plus this check on first contact.
        """
        first = intermediates[0]
        cache_key = first.to_bytes()
        cached = self._verified.get(cache_key)
        if cached is not None:
            self._verified.move_to_end(cache_key)
            return cached
        # Full walk: each intermediate signed by the next, top by the root.
        for child, parent in zip(intermediates, intermediates[1:]):
            if child.issuer_id != parent.subject_id:
                return None
            if not child.valid_at(now) or not child.verify_signature(parent.public_key):
                return None
        top = intermediates[-1]
        if top.issuer_id != self.root_id or not top.verify_signature(self.root_key):
            return None
        self._remember(self._verified, cache_key, first.public_key)
        return first.public_key

    def _remember(self, cache: OrderedDict, key, value) -> None:
        cache[key] = value
        while len(cache) > self.maxsize:
            cache.popitem(last=False)

    def warm_up(self, chain: CertificateChain, now: int = 1) -> None:
        """Pre-verify a chain so later calls hit the cache (bench setup)."""
        self.verify_chain_bytes(chain.to_bytes(), now)
