"""Op metering and the calibrated device cost tables."""

import pytest

from repro.crypto import aead, meter
from repro.crypto.costmodel import (
    NEXUS6,
    RASPBERRY_PI3,
    STRENGTHS,
    abe_decrypt_ms,
)
from repro.crypto.ecdh import EphemeralECDH
from repro.crypto.ecdsa import generate_signing_key
from repro.crypto.primitives import hmac_sha256


class TestMeter:
    def test_no_meter_is_noop(self):
        hmac_sha256(b"k", b"m")  # must not raise with no active meter

    def test_counts_ops(self):
        key = generate_signing_key()
        with meter.metered() as tally:
            sig = key.sign(b"m")
            key.public_key.verify(sig, b"m")
        assert tally.counts[("ecdsa_sign", 128)] == 1
        assert tally.counts[("ecdsa_verify", 128)] == 1

    def test_counts_ecdh(self):
        with meter.metered() as tally:
            a = EphemeralECDH()
            b = EphemeralECDH()
            a.derive_premaster(b.kexm)
        assert tally.total("ecdh_gen") == 2
        assert tally.total("ecdh_derive") == 1

    def test_nested_meters_fold_into_outer(self):
        with meter.metered() as outer:
            hmac_sha256(b"k", b"m")
            with meter.metered() as inner:
                hmac_sha256(b"k", b"m")
                hmac_sha256(b"k", b"m")
            hmac_sha256(b"k", b"m")
        assert inner.total("hmac") == 2
        assert outer.total("hmac") == 4

    def test_meter_deactivated_after_block(self):
        with meter.metered() as tally:
            pass
        hmac_sha256(b"k", b"m")
        assert tally.total("hmac") == 0

    def test_merge(self):
        a, b = meter.OpMeter(), meter.OpMeter()
        a.add("hmac")
        b.add("hmac", n=2)
        a.merge(b)
        assert a.total("hmac") == 3


class TestAeadMetering:
    """§IX-B prices one AEAD operation as 1 AES + 3 HMAC (two subkey
    expansions and the tag), whichever key form it is handed."""

    KEY = b"k" * 32

    @pytest.mark.parametrize("form", ["bytes", "cipher"])
    def test_one_operation_records_1_aes_3_hmac(self, form):
        key = self.KEY if form == "bytes" else aead.SymmetricCipher(self.KEY)
        with meter.metered() as sealing:
            blob = aead.encrypt(key, b"payload")
        with meter.metered() as opening:
            aead.decrypt(key, blob)
        with meter.metered() as refusing:
            with pytest.raises(aead.AeadError):
                aead.decrypt(key, blob[:-1] + bytes([blob[-1] ^ 1]))
        for tally in (sealing, opening, refusing):
            assert tally.counts == {("aes", 0): 1, ("hmac", 0): 3}

    def test_building_a_cipher_records_nothing(self):
        with meter.metered() as tally:
            aead.SymmetricCipher(self.KEY)
        assert tally.counts == {}


class TestCostModel:
    def test_level2_subject_anchor(self):
        """1 sign + 3 verify + 2 ECDH = 27.4 ms (Fig. 6(b))."""
        t = NEXUS6
        total = (
            t.op_cost_ms("ecdsa_sign", 128)
            + 3 * t.op_cost_ms("ecdsa_verify", 128)
            + t.op_cost_ms("ecdh_gen", 128)
            + t.op_cost_ms("ecdh_derive", 128)
        )
        assert total == pytest.approx(27.4, abs=0.01)

    def test_level2_object_anchor(self):
        t = RASPBERRY_PI3
        total = (
            t.op_cost_ms("ecdsa_sign", 128)
            + 3 * t.op_cost_ms("ecdsa_verify", 128)
            + t.op_cost_ms("ecdh_gen", 128)
            + t.op_cost_ms("ecdh_derive", 128)
        )
        assert total == pytest.approx(78.2, abs=0.1)

    def test_level1_subject_anchor(self):
        assert NEXUS6.op_cost_ms("ecdsa_verify", 128) == pytest.approx(5.1)

    def test_fig6a_endpoints(self):
        assert NEXUS6.op_cost_ms("ecdsa_sign", 112) == pytest.approx(4.7)
        assert NEXUS6.op_cost_ms("ecdsa_sign", 256) == pytest.approx(26.0)

    def test_monotone_in_strength(self):
        for op in ("ecdsa_sign", "ecdsa_verify", "ecdh_gen", "ecdh_derive"):
            costs = [NEXUS6.op_cost_ms(op, s) for s in STRENGTHS]
            assert costs == sorted(costs)

    def test_pairing_anchors(self):
        assert NEXUS6.pairing_ms == 2200.0
        assert RASPBERRY_PI3.pairing_ms == 7700.0

    def test_pi_hmac_anchor(self):
        """§IX-C: MAC verification costs ~0.08 ms on a Pi."""
        assert RASPBERRY_PI3.hmac_ms == pytest.approx(0.08)

    def test_meter_pricing(self):
        tally = meter.OpMeter()
        tally.add("ecdsa_sign", 128)
        tally.add("hmac", n=10)
        expected = NEXUS6.op_cost_ms("ecdsa_sign", 128) + 10 * NEXUS6.hmac_ms
        assert NEXUS6.meter_cost_ms(tally) == pytest.approx(expected)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown operation"):
            NEXUS6.op_cost_ms("quantum_sign")

    def test_unknown_strength_rejected(self):
        with pytest.raises(ValueError):
            NEXUS6.op_cost_ms("ecdsa_sign", 160)

    def test_scaled_profile(self):
        fast = RASPBERRY_PI3.scaled(0.5)
        assert fast.pairing_ms == pytest.approx(3850.0)
        assert fast.op_cost_ms("ecdsa_sign", 128) == pytest.approx(
            RASPBERRY_PI3.op_cost_ms("ecdsa_sign", 128) / 2
        )

    def test_abe_anchor_linear(self):
        """Fig. 6(c): ~1 s per attribute."""
        assert abe_decrypt_ms(5) - abe_decrypt_ms(4) == pytest.approx(1000.0)
        with pytest.raises(ValueError):
            abe_decrypt_ms(0)
