"""ChainVerifier: caching behaviour and the §IX-B op-count contract."""

import pytest

from repro.crypto import meter
from repro.crypto.ecdsa import generate_signing_key
from repro.pki.certificate import CertificateChain, issue_certificate
from repro.pki.chain import ChainVerifier


@pytest.fixture(scope="module")
def pki():
    root = generate_signing_key()
    inter = generate_signing_key()
    entity = generate_signing_key()
    c_inter = issue_certificate("root", root, "region", inter.public_key, 1)
    c_leaf = issue_certificate("region", inter, "dev", entity.public_key, 2)
    return root, inter, entity, CertificateChain((c_leaf, c_inter))


class TestVerification:
    def test_valid_chain_returns_leaf(self, pki):
        root, _, _, chain = pki
        verifier = ChainVerifier("root", root.public_key)
        leaf = verifier.verify(chain)
        assert leaf is not None and leaf.subject_id == "dev"

    def test_wrong_root_rejected(self, pki):
        _, _, _, chain = pki
        fake = generate_signing_key()
        assert ChainVerifier("root", fake.public_key).verify(chain) is None

    def test_bytes_interface(self, pki):
        root, _, _, chain = pki
        verifier = ChainVerifier("root", root.public_key)
        assert verifier.verify_chain_bytes(chain.to_bytes()).subject_id == "dev"
        assert verifier.verify_chain_bytes(b"garbage") is None

    def test_expired_leaf_rejected(self, pki):
        root, inter, entity, _ = pki
        c_inter = issue_certificate("root", root, "region", inter.public_key, 1)
        c_leaf = issue_certificate(
            "region", inter, "dev", entity.public_key, 2, not_after=5
        )
        verifier = ChainVerifier("root", root.public_key)
        assert verifier.verify(CertificateChain((c_leaf, c_inter)), now=10) is None

    def test_forged_intermediate_rejected(self, pki):
        root, _, entity, _ = pki
        rogue_inter = generate_signing_key()
        fake_root = generate_signing_key()
        c_inter = issue_certificate("root", fake_root, "region", rogue_inter.public_key, 1)
        c_leaf = issue_certificate("region", rogue_inter, "dev", entity.public_key, 2)
        verifier = ChainVerifier("root", root.public_key)
        assert verifier.verify(CertificateChain((c_leaf, c_inter))) is None


class TestCaching:
    def test_steady_state_is_one_verify(self, pki):
        """After warm-up, a 2-cert chain costs exactly 1 ECDSA verify —
        the assumption behind the paper's 3-verify per-discovery count."""
        root, _, _, chain = pki
        verifier = ChainVerifier("root", root.public_key)
        verifier.warm_up(chain)
        with meter.metered() as tally:
            assert verifier.verify(chain) is not None
        assert tally.total("ecdsa_verify") == 1

    def test_cold_chain_verifies_everything(self, pki):
        root, _, _, chain = pki
        verifier = ChainVerifier("root", root.public_key)
        with meter.metered() as tally:
            assert verifier.verify(chain) is not None
        assert tally.total("ecdsa_verify") == 2

    def test_cache_does_not_leak_across_intermediates(self, pki):
        """A different intermediate (even same-named) must be re-verified."""
        root, _, entity, chain = pki
        verifier = ChainVerifier("root", root.public_key)
        verifier.warm_up(chain)
        rogue = generate_signing_key()
        fake_root = generate_signing_key()
        c_inter = issue_certificate("root", fake_root, "region", rogue.public_key, 9)
        c_leaf = issue_certificate("region", rogue, "dev", entity.public_key, 10)
        assert verifier.verify(CertificateChain((c_leaf, c_inter))) is None


class TestLeafAndChainCaches:
    def test_leaf_hit_still_meters_logical_verify(self, pki):
        """A returning leaf costs a lookup, but §IX-B still counts 1 verify
        — plus the cert_verify_cached marker distinguishing warm from cold."""
        root, _, _, chain = pki
        verifier = ChainVerifier("root", root.public_key)
        verifier.verify(chain)
        with meter.metered() as tally:
            assert verifier.verify(chain) is not None
        assert tally.total("ecdsa_verify") == 1
        assert tally.total("cert_verify_cached") == 1

    def test_cold_verify_has_no_cached_marker(self, pki):
        root, _, _, chain = pki
        verifier = ChainVerifier("root", root.public_key)
        with meter.metered() as tally:
            assert verifier.verify(chain) is not None
        assert tally.total("cert_verify_cached") == 0

    def test_chain_bytes_hit_skips_parsing(self, pki):
        root, _, _, chain = pki
        verifier = ChainVerifier("root", root.public_key)
        data = chain.to_bytes()
        assert verifier.verify_chain_bytes(data) is not None
        with meter.metered() as tally:
            leaf = verifier.verify_chain_bytes(data)
        assert leaf is not None and leaf.subject_id == "dev"
        assert tally.total("ecdsa_verify") == 1
        assert tally.total("cert_verify_cached") == 1

    def test_cached_chain_rejected_outside_validity_window(self, pki):
        """Expiry invalidation: a warm cache entry never outlives the
        certificate's validity window."""
        root, inter, entity, _ = pki
        c_inter = issue_certificate("root", root, "region", inter.public_key, 21)
        c_leaf = issue_certificate(
            "region", inter, "dev", entity.public_key, 22, not_after=100
        )
        chain = CertificateChain((c_leaf, c_inter))
        verifier = ChainVerifier("root", root.public_key)
        data = chain.to_bytes()
        assert verifier.verify_chain_bytes(data, now=50) is not None
        assert verifier.verify_chain_bytes(data, now=101) is None
        assert verifier.verify(chain, now=101) is None
        # still valid again for an in-window `now` (clock skew replays)
        assert verifier.verify_chain_bytes(data, now=99) is not None

    def test_not_yet_valid_cached_chain_rejected(self, pki):
        root, inter, entity, _ = pki
        c_inter = issue_certificate("root", root, "region", inter.public_key, 23)
        c_leaf = issue_certificate(
            "region", inter, "dev", entity.public_key, 24, not_before=10
        )
        chain = CertificateChain((c_leaf, c_inter))
        verifier = ChainVerifier("root", root.public_key)
        data = chain.to_bytes()
        assert verifier.verify_chain_bytes(data, now=20) is not None
        assert verifier.verify_chain_bytes(data, now=5) is None

    def test_failures_are_not_cached(self, pki):
        root, inter, entity, _ = pki
        rogue = generate_signing_key()
        c_inter = issue_certificate("root", root, "region", inter.public_key, 25)
        c_leaf = issue_certificate("region", rogue, "dev", entity.public_key, 26)
        bad_chain = CertificateChain((c_leaf, c_inter)).to_bytes()
        verifier = ChainVerifier("root", root.public_key)
        assert verifier.verify_chain_bytes(bad_chain) is None
        assert verifier.verify_chain_bytes(bad_chain) is None  # still rejected

    def test_clear_caches_forces_full_reverify(self, pki):
        root, _, _, chain = pki
        verifier = ChainVerifier("root", root.public_key)
        verifier.warm_up(chain)
        verifier.clear_caches()
        with meter.metered() as tally:
            assert verifier.verify(chain) is not None
        assert tally.total("ecdsa_verify") == 2  # leaf + intermediate again
        assert tally.total("cert_verify_cached") == 0


def _subject_chain(pki, name: str, serial: int) -> CertificateChain:
    """A new subject under the fixture's *existing* intermediate (same
    cert bytes, so the intermediate cache is genuinely shared)."""
    _, inter, _, chain = pki
    entity = generate_signing_key()
    c_leaf = issue_certificate("region", inter, name, entity.public_key, serial)
    return CertificateChain((c_leaf, chain.certificates[1]))


class TestLRUBoundsAndCacheInfo:
    def test_cache_info_counts_hits_and_misses(self, pki):
        root, _, _, chain = pki
        verifier = ChainVerifier("root", root.public_key)
        assert verifier.cache_info().hits == 0
        verifier.verify(chain)          # cold: miss
        verifier.verify(chain)          # leaf cache: hit
        data = chain.to_bytes()
        verifier.verify_chain_bytes(data)  # leaf cache again: hit
        verifier.verify_chain_bytes(data)  # chain-bytes cache: hit
        info = verifier.cache_info()
        assert (info.hits, info.misses) == (3, 1)
        assert info.maxsize == verifier.maxsize
        assert info.leaf_size == 1 and info.chain_size == 1
        assert info.intermediate_size == 1

    def test_caches_never_exceed_maxsize(self, pki):
        """A churning fleet (many distinct subjects) stays bounded."""
        root, *_ = pki
        verifier = ChainVerifier("root", root.public_key, maxsize=4)
        for i in range(10):
            chain = _subject_chain(pki, f"churn-{i}", 100 + i)
            assert verifier.verify_chain_bytes(chain.to_bytes()) is not None
        info = verifier.cache_info()
        assert info.leaf_size <= 4 and info.chain_size <= 4
        assert info.intermediate_size <= 4
        assert info.misses == 10

    def test_lru_evicts_oldest_first(self, pki):
        root, *_ = pki
        verifier = ChainVerifier("root", root.public_key, maxsize=2)
        chains = [_subject_chain(pki, f"lru-{i}", 200 + i) for i in range(3)]
        verifier.verify(chains[0])
        verifier.verify(chains[1])
        verifier.verify(chains[0])  # hit: refreshes leaf 0's LRU slot
        verifier.verify(chains[2])  # miss: evicts leaf 1, not leaf 0
        misses = verifier.cache_info().misses
        with meter.metered() as tally:
            verifier.verify(chains[0])  # survived the eviction
        assert tally.total("cert_verify_cached") == 1
        verifier.verify(chains[1])  # evicted: full re-verify
        assert verifier.cache_info().misses == misses + 1

    def test_maxsize_below_one_rejected(self, pki):
        root, *_ = pki
        with pytest.raises(ValueError):
            ChainVerifier("root", root.public_key, maxsize=0)
