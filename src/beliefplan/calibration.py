"""Calibration measurement for confidence streams.

A perception stack that says "0.8" should be right about 80% of the time.
This module scores that property on a stream of (confidence, label) pairs:
reliability binning into ten equal-width bins, expected and maximum
calibration error, and Brier score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

N_BINS = 10


@dataclass(frozen=True)
class PredictionBatch:
    """Confidence/label pairs, validated on construction."""

    confidences: np.ndarray
    labels: np.ndarray

    def __init__(self, confidences: Sequence[float], labels: Sequence[int]):
        conf = np.asarray(confidences, dtype=float)
        lab = np.asarray(labels)
        if conf.ndim != 1 or lab.ndim != 1 or conf.shape != lab.shape:
            raise ValueError("confidences and labels must be equal-length vectors")
        if conf.size and (np.any(conf < 0) or np.any(conf > 1) or np.any(np.isnan(conf))):
            raise ValueError("confidences must lie in [0, 1]")
        if not np.all(np.isin(lab, (0, 1))):
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "confidences", conf)
        object.__setattr__(self, "labels", lab.astype(np.int64))

    def __len__(self) -> int:
        return int(self.confidences.size)


@dataclass(frozen=True)
class CalibrationBin:
    """One reliability bin: [lo, hi) except the last bin, which is closed."""

    lo: float
    hi: float
    count: int
    mean_confidence: float | None
    accuracy: float | None

    @property
    def gap(self) -> float:
        if self.count == 0:
            return 0.0
        return abs(self.accuracy - self.mean_confidence)


@dataclass(frozen=True)
class ReliabilityReport:
    bins: tuple[CalibrationBin, ...]
    ece: float
    mce: float
    brier: float
    n: int


def bin_predictions(batch: PredictionBatch) -> tuple[CalibrationBin, ...]:
    """Assign predictions to ``N_BINS`` equal-width confidence bins.

    Bin m covers [(m-1)/M, m/M) with the final bin closed at 1 so that a
    confidence of exactly 1.0 is counted.  Empty bins are kept in place with
    undefined statistics.
    """
    if len(batch) == 0:
        raise ValueError("cannot bin an empty prediction batch")
    edges = np.array([i / N_BINS for i in range(N_BINS + 1)])
    idx = np.searchsorted(edges, batch.confidences, side="right") - 1
    idx = np.minimum(idx, N_BINS - 1)
    bins = []
    for m in range(N_BINS):
        mask = idx == m
        count = int(np.sum(mask))
        if count:
            mean_conf = float(np.mean(batch.confidences[mask]))
            acc = float(np.mean(batch.labels[mask]))
        else:
            mean_conf = None
            acc = None
        bins.append(CalibrationBin(float(edges[m]), float(edges[m + 1]), count, mean_conf, acc))
    return tuple(bins)


def ece(bins: Iterable[CalibrationBin]) -> float:
    """Expected calibration error: count-weighted mean of per-bin gaps."""
    bins = tuple(bins)
    total = sum(b.count for b in bins)
    if total == 0:
        raise ValueError("cannot score empty bins")
    return sum((b.count / total) * b.gap for b in bins)


def mce(bins: Iterable[CalibrationBin]) -> float:
    """Maximum calibration error over non-empty bins."""
    gaps = [b.gap for b in bins if b.count > 0]
    if not gaps:
        raise ValueError("cannot score empty bins")
    return max(gaps)


def brier(batch: PredictionBatch) -> float:
    """Mean squared error between confidences and labels."""
    if len(batch) == 0:
        raise ValueError("cannot score an empty prediction batch")
    return float(np.mean((batch.confidences - batch.labels) ** 2))


def reliability_report(batch: PredictionBatch) -> ReliabilityReport:
    bins = bin_predictions(batch)
    return ReliabilityReport(bins, ece(bins), mce(bins), brier(batch), len(batch))

