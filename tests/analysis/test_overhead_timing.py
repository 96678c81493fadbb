"""Message-overhead accounting and the analytic timing model."""

import pytest

from repro.analysis import overhead, timing_model
from repro.crypto.costmodel import NEXUS6, RASPBERRY_PI3
from repro.experiments.msg_overhead import capture_exchange


class TestOverheadAccounting:
    def test_paper_budget_rows(self):
        budgets = {b.name: b.nominal for b in overhead.paper_accounting()}
        assert budgets["QUE1"] == 28
        assert budgets["RES1 (Level 1)"] == 200
        assert budgets["RES1 (Level 2/3)"] == 772
        assert budgets["QUE2 (v3.0)"] == 1008
        assert budgets["RES2"] == 280

    def test_exchange_totals(self):
        totals = overhead.exchange_totals()
        assert totals["level1"] == 228
        assert totals["level23"] == 2088

    def test_v3_delta_is_one_mac(self):
        deltas = overhead.overhead_vs_v1()
        assert deltas["delta"] == 32

    def test_actual_capture_has_all_messages(self):
        capture = capture_exchange()
        sizes = overhead.actual_sizes(capture.que1, capture.res1, capture.que2, capture.res2)
        assert set(sizes) == {"QUE1", "RES1", "QUE2", "RES2"}
        assert all(v > 0 for v in sizes.values())

    def test_actual_que1_near_nominal(self):
        # 1 type byte + 28-byte nonce
        assert len(capture_exchange().que1.to_bytes()) == 29


class TestTimingModel:
    def test_level1_computation(self):
        assert timing_model.level1_computation_ms() == pytest.approx(5.1)

    def test_level23_computation_anchors(self):
        assert timing_model.level23_computation_ms(NEXUS6) == pytest.approx(27.4, abs=0.01)
        assert timing_model.level23_computation_ms(RASPBERRY_PI3) == pytest.approx(78.2, abs=0.1)

    def test_headline_105ms(self):
        """§IX: 'Argus needs only 105 ms'."""
        assert timing_model.headline_computation_ms() == pytest.approx(105.6, abs=1.0)

    def test_prediction_levels_ordered(self):
        l1 = timing_model.predict_single_object(1)
        l2 = timing_model.predict_single_object(2)
        assert l1.total_s < l2.total_s

    def test_prediction_hops_linear_in_transmission(self):
        one = timing_model.predict_single_object(2, hops=1)
        four = timing_model.predict_single_object(2, hops=4)
        assert four.computation_s == one.computation_s
        assert four.transmission_s == pytest.approx(4 * one.transmission_s)

    def test_level1_mostly_transmission(self):
        """Fig. 6(f): Level 1 is ~89% transmission."""
        l1 = timing_model.predict_single_object(1)
        assert l1.transmission_fraction > 0.75

    def test_level2_balanced(self):
        """Fig. 6(f): Level 2/3 is ~45% transmission (we land 45-65%)."""
        l2 = timing_model.predict_single_object(2)
        assert 0.35 < l2.transmission_fraction < 0.7

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            timing_model.predict_single_object(4)
