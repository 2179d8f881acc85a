"""Calibration scoring: binning, ECE/MCE/Brier, input validation.

Hand-worked oracle for the four-prediction example:
  (0.95, 1) (0.95, 0) -> bin [0.9, 1.0]: conf 0.95, acc 0.5, gap 0.45, weight 0.5
  (0.55, 1)           -> bin [0.5, 0.6): conf 0.55, acc 1.0, gap 0.45, weight 0.25
  (0.05, 0)           -> bin [0.0, 0.1): conf 0.05, acc 0.0, gap 0.05, weight 0.25
  ECE = 0.5*0.45 + 0.25*0.45 + 0.25*0.05 = 0.35 ; MCE = 0.45
  Brier = (0.0025 + 0.9025 + 0.2025 + 0.0025) / 4 = 0.2775
The seven empty bins add nothing to either score.
"""

import numpy as np
import pytest

from beliefplan.calibration import reliability_report


class TestBinning:
    def test_hand_worked_bins(self):
        # 0.91 and 0.99 share bin 9: conf 0.95, acc 0.5, gap 0.45;
        # 0.12 and 0.15 share bin 1: conf 0.135, acc 0.0, gap 0.135
        report = reliability_report([0.91, 0.99, 0.15, 0.12], [1, 0, 0, 0])
        assert report.ece == pytest.approx(0.5 * 0.45 + 0.5 * 0.135, abs=1e-12)
        assert report.mce == pytest.approx(0.45, abs=1e-12)

    def test_last_bin_closed_at_one(self):
        # one bin holding both: gap |1 - 0.95|; 1.0 alone or dropped would give 0.1
        assert reliability_report([1.0, 0.9], [1, 1]).mce == pytest.approx(0.05, abs=1e-12)

    def test_left_edges_inclusive(self):
        # every exact grid edge shares the bin it opens with that bin's middle
        for m in range(10):
            p = m / 10
            report = reliability_report([p, p + 0.05], [1, 1])
            assert report.mce == pytest.approx(1 - p - 0.025, abs=1e-12), (
                f"edge {p} fell outside bin {m}"
            )

    def test_counts_partition_batch(self):
        # with every label 1 the bins' weighted gaps sum to 1 - mean confidence
        # only when each prediction lands in exactly one bin
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            p = rng.uniform(0, 1, n)
            assert reliability_report(p, np.ones(n, dtype=int)).ece == pytest.approx(
                1 - p.mean(), abs=1e-12
            )

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            reliability_report([], [])


class TestScores:
    def test_hand_worked_ece_mce_brier(self):
        report = reliability_report([0.95, 0.95, 0.55, 0.05], [1, 0, 1, 0])
        assert report.ece == pytest.approx(0.35, abs=1e-12)
        assert report.mce == pytest.approx(0.45, abs=1e-12)
        assert report.brier == pytest.approx(0.2775, abs=1e-12)

    def test_perfect_predictions_score_zero(self):
        report = reliability_report([1.0, 0.0, 1.0], [1, 0, 1])
        assert report.ece == 0.0
        assert report.mce == 0.0
        assert report.brier == 0.0

    def test_ece_never_exceeds_mce(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(1, 300))
            report = reliability_report(rng.uniform(0, 1, n), rng.integers(0, 2, n))
            assert 0.0 <= report.ece <= report.mce + 1e-12 <= 1.0 + 1e-12

    def test_calibrated_stream_scores_low(self):
        rng = np.random.default_rng(47)
        p = rng.uniform(0, 1, 20000)
        y = (rng.uniform(0, 1, 20000) < p).astype(int)
        assert reliability_report(p, y).ece <= 0.02

    def test_sharpening_breaks_calibration(self):
        # pushing confidences away from 0.5 without touching labels must
        # strictly raise ECE on a calibrated stream, for every seed tried
        rng = np.random.default_rng(53)
        for _ in range(20):
            p = rng.uniform(0.01, 0.99, 4000)
            y = (rng.uniform(0, 1, 4000) < p).astype(int)
            base = reliability_report(p, y).ece
            sharp = p**2 / (p**2 + (1 - p) ** 2)
            assert reliability_report(sharp, y).ece > base


class TestBatchValidation:
    def test_batch_validation(self):
        for confidences, labels in [
            ([0.5, 0.6], [1]),  # unequal lengths
            ([[0.5]], [[1]]),  # not vectors
            ([0.5], [3]),  # label outside {0, 1}
            ([1.5], [1]),  # confidence above 1
            ([-0.1], [0]),  # confidence below 0
            ([float("nan")], [1]),
        ]:
            with pytest.raises(ValueError):
                reliability_report(confidences, labels)
