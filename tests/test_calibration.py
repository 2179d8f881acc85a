"""Calibration scoring: binning, ECE/MCE/Brier, batch validation.

Hand-worked oracle for the four-prediction example:
  (0.95, 1) (0.95, 0) -> bin [0.9, 1.0]: conf 0.95, acc 0.5, gap 0.45, weight 0.5
  (0.55, 1)           -> bin [0.5, 0.6): conf 0.55, acc 1.0, gap 0.45, weight 0.25
  (0.05, 0)           -> bin [0.0, 0.1): conf 0.05, acc 0.0, gap 0.05, weight 0.25
  ECE = 0.5*0.45 + 0.25*0.45 + 0.25*0.05 = 0.35 ; MCE = 0.45
  Brier = (0.0025 + 0.9025 + 0.2025 + 0.0025) / 4 = 0.2775
"""

import numpy as np
import pytest

from beliefplan.calibration import (
    PredictionBatch,
    bin_predictions,
    brier,
    ece,
    mce,
    reliability_report,
)


def four_prediction_batch():
    return PredictionBatch([0.95, 0.95, 0.55, 0.05], [1, 0, 1, 0])


class TestBinning:
    def test_hand_worked_bins(self):
        bins = bin_predictions(four_prediction_batch())
        assert len(bins) == 10
        assert bins[9].count == 2
        assert bins[9].mean_confidence == pytest.approx(0.95)
        assert bins[9].accuracy == pytest.approx(0.5)
        assert bins[5].count == 1 and bins[5].accuracy == 1.0
        assert bins[0].count == 1 and bins[0].accuracy == 0.0
        assert sum(b.count for b in bins) == 4

    def test_empty_bins_kept_with_undefined_stats(self):
        bins = bin_predictions(four_prediction_batch())
        assert bins[3].count == 0
        assert bins[3].mean_confidence is None and bins[3].accuracy is None
        assert bins[3].gap == 0.0

    def test_last_bin_closed_at_one(self):
        bins = bin_predictions(PredictionBatch([1.0, 0.9], [1, 1]))
        assert bins[9].count == 2

    def test_left_edges_inclusive(self):
        # every exact grid edge lands in the bin it opens
        for m in range(10):
            p = m / 10
            bins = bin_predictions(PredictionBatch([p], [1]))
            assert bins[m].count == 1, f"edge {p} fell outside bin {m}"

    def test_counts_partition_batch(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            batch = PredictionBatch(rng.uniform(0, 1, n), rng.integers(0, 2, n))
            assert sum(b.count for b in bin_predictions(batch)) == n

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            bin_predictions(PredictionBatch([], []))


class TestScores:
    def test_hand_worked_ece_mce_brier(self):
        batch = four_prediction_batch()
        bins = bin_predictions(batch)
        assert ece(bins) == pytest.approx(0.35, abs=1e-12)
        assert mce(bins) == pytest.approx(0.45, abs=1e-12)
        assert brier(batch) == pytest.approx(0.2775, abs=1e-12)

    def test_perfect_predictions_score_zero(self):
        batch = PredictionBatch([1.0, 0.0, 1.0], [1, 0, 1])
        report = reliability_report(batch)
        assert report.ece == 0.0
        assert report.mce == 0.0
        assert report.brier == 0.0

    def test_ece_never_exceeds_mce(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(1, 300))
            batch = PredictionBatch(rng.uniform(0, 1, n), rng.integers(0, 2, n))
            bins = bin_predictions(batch)
            assert 0.0 <= ece(bins) <= mce(bins) + 1e-12 <= 1.0 + 1e-12

    def test_calibrated_stream_scores_low(self):
        rng = np.random.default_rng(47)
        p = rng.uniform(0, 1, 20000)
        y = (rng.uniform(0, 1, 20000) < p).astype(int)
        report = reliability_report(PredictionBatch(p, y))
        assert report.ece <= 0.02

    def test_sharpening_breaks_calibration(self):
        # pushing confidences away from 0.5 without touching labels must
        # strictly raise ECE on a calibrated stream, for every seed tried
        rng = np.random.default_rng(53)
        for _ in range(20):
            p = rng.uniform(0.01, 0.99, 4000)
            y = (rng.uniform(0, 1, 4000) < p).astype(int)
            base = ece(bin_predictions(PredictionBatch(p, y)))
            sharp = p**2 / (p**2 + (1 - p) ** 2)
            worse = ece(bin_predictions(PredictionBatch(sharp, y)))
            assert worse > base


class TestBatchValidation:
    def test_batch_validation(self):
        with pytest.raises(ValueError):
            PredictionBatch([0.5, 0.6], [1])
        with pytest.raises(ValueError):
            PredictionBatch([0.5], [3])
