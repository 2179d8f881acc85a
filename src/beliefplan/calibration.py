"""Calibration measurement for confidence streams.

A perception stack that says "0.8" should be right about 80% of the time.
This module scores that property on a stream of (confidence, label) pairs:
reliability binning into ten equal-width bins, expected and maximum
calibration error, and Brier score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

N_BINS = 10


@dataclass(frozen=True)
class ReliabilityReport:
    ece: float
    mce: float
    brier: float


def reliability_report(
    confidences: Sequence[float], labels: Sequence[int]
) -> ReliabilityReport:
    """Score confidence/label pairs over ``N_BINS`` equal-width bins.

    Bin m covers [m/M, (m+1)/M), with the final bin closed at 1 so that a
    confidence of exactly 1.0 is counted.  A bin's gap is |accuracy - mean
    confidence|.  ECE is the count-weighted mean of the gaps, MCE the
    largest gap over non-empty bins, and Brier the mean squared error
    between confidences and labels.
    """
    conf = np.asarray(confidences, dtype=float)
    lab = np.asarray(labels)
    if conf.ndim != 1 or lab.ndim != 1 or conf.shape != lab.shape:
        raise ValueError("confidences and labels must be equal-length vectors")
    if conf.size == 0:
        raise ValueError("cannot score an empty prediction batch")
    if np.any(conf < 0) or np.any(conf > 1) or np.any(np.isnan(conf)):
        raise ValueError("confidences must lie in [0, 1]")
    if not np.all(np.isin(lab, (0, 1))):
        raise ValueError("labels must be 0 or 1")
    lab = lab.astype(np.int64)
    edges = np.array([i / N_BINS for i in range(N_BINS + 1)])
    idx = np.minimum(np.searchsorted(edges, conf, side="right") - 1, N_BINS - 1)
    ece = 0.0
    mce = 0.0
    for m in range(N_BINS):
        mask = idx == m
        count = int(np.sum(mask))
        if count:
            gap = abs(float(np.mean(lab[mask])) - float(np.mean(conf[mask])))
            ece += (count / conf.size) * gap
            mce = max(mce, gap)
    return ReliabilityReport(ece, mce, float(np.mean((conf - lab) ** 2)))
