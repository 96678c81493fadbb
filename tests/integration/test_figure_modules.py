"""Unit-level checks of the figure-module measure() helpers."""

import pytest

from repro.experiments import fig6a, fig6c, fig6d, msg_overhead
from repro.experiments.fig6b import measure_level


class TestFig6aMeasure:
    def test_local_measurement_shape(self):
        local = fig6a.measure_local(128, iterations=3)
        assert set(local) == {"ecdsa_sign", "ecdsa_verify", "ecdh_gen", "ecdh_derive"}
        assert all(v > 0 for v in local.values())

    def test_higher_strength_slower_locally(self):
        fast = fig6a.measure_local(128, iterations=5)
        slow = fig6a.measure_local(256, iterations=5)
        assert slow["ecdsa_sign"] > fast["ecdsa_sign"]


class TestFig6bMeasure:
    def test_level1_object_is_free(self):
        m = measure_level(1)
        assert m["object_ms"] == pytest.approx(0.0, abs=0.2)

    def test_level2_sides_asymmetric(self):
        m = measure_level(2)
        assert m["object_ms"] > 2 * m["subject_ms"]


class TestFig6cMeasure:
    def test_decryption_verified_correct(self):
        result = fig6c.measure(3)
        assert result["pairings"] == 7
        assert result["calibrated_ms"] == pytest.approx(3500.0)

    def test_shared_scheme_reusable(self):
        from repro.crypto.abe import CpAbe

        scheme = CpAbe()
        a = fig6c.measure(2, scheme)
        b = fig6c.measure(4, scheme)
        assert b["pairings"] > a["pairings"]


class TestFig6dMeasure:
    def test_local_pairing_fast_in_sim_group(self):
        """The transparent group's pairing is microseconds — which is WHY
        cost must come from the calibrated tables, not local wall time."""
        assert fig6d.measure_local_pairing(iterations=50) < 1.0

    def test_local_hmac_sub_ms(self):
        assert fig6d.measure_local_hmac(iterations=200) < 1.0


class TestCaptureExchange:
    def test_level3_capture(self):
        capture = msg_overhead.capture_exchange(level=3)
        assert capture.que2.mac_s3 is not None
        assert len(capture.que1.to_bytes()) == 29

    def test_level2_capture_complete(self):
        capture = msg_overhead.capture_exchange(level=2)
        assert all(m is not None for m in (capture.que1, capture.res1, capture.que2, capture.res2))
