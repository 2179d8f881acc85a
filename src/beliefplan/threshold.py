"""Curve fitting for threshold sweeps and uncertainty decay.

Success-versus-threshold data is fit with the saturating exponential
form by damped Gauss-Newton from a fixed grid of starting points;
planning-time data with a line by closed-form least squares.  Fitted
curves of the sigmoid and logarithmic success forms and the quadratic and
logarithmic time forms can still be evaluated and optimized.  The ratio
of a success and a time curve defines a threshold-efficiency score whose
numeric optimum this module locates by dense grid search plus bisection
on the derivative.

The decay-rate estimator recovers the per-step multiplicative uncertainty
reduction from observed U sequences via mean log ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# conventional operating point quoted with the fitted optimum; the plateau
# measurement is centred on it
REFERENCE_OPERATING_TAU = 0.73

_START_A = (0.3, 0.6, 0.9)
_START_B = (1.0, 5.0, 10.0)

_GN_MAX_ITER = 200
_GN_TOL = 1e-13


class FitError(ValueError):
    """Raised when data cannot support the requested fit."""


@dataclass(frozen=True)
class SweepSample:
    """One threshold setting's aggregate outcome."""

    tau: float
    success_rate: float
    mean_time_ms: float

    def __post_init__(self):
        if not (0.0 < self.tau < 1.0):
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if not (0.0 <= self.success_rate <= 1.0):
            raise ValueError(f"success rate must lie in [0, 1], got {self.success_rate}")
        if self.mean_time_ms < 0:
            raise ValueError(f"mean time must be non-negative, got {self.mean_time_ms}")


def _success_value(form: str, params: Sequence[float], tau: float) -> float:
    if form == "exponential":
        a, b = params
        return a * (1.0 - math.exp(-b * tau))
    if form == "sigmoid":
        a, b, t0 = params
        return a / (1.0 + math.exp(-b * (tau - t0)))
    if form == "logarithmic":
        a, b = params
        return a * math.log(1.0 + b * tau)
    raise ValueError(f"unknown success form {form!r}")


def _success_slope(form: str, params: Sequence[float], tau: float) -> float:
    if form == "exponential":
        a, b = params
        return a * b * math.exp(-b * tau)
    if form == "sigmoid":
        a, b, t0 = params
        s = 1.0 / (1.0 + math.exp(-b * (tau - t0)))
        return a * b * s * (1.0 - s)
    if form == "logarithmic":
        a, b = params
        return a * b / (1.0 + b * tau)
    raise ValueError(f"unknown success form {form!r}")


def _time_value(form: str, params: Sequence[float], tau: float) -> float:
    c, d = params
    if form == "linear":
        return c + d * tau
    if form == "quadratic":
        return c + d * tau * tau
    if form == "logarithmic":
        return c + d * math.log(1.0 + tau)
    raise ValueError(f"unknown time form {form!r}")


def _time_slope(form: str, params: Sequence[float], tau: float) -> float:
    _, d = params
    if form == "linear":
        return d
    if form == "quadratic":
        return 2.0 * d * tau
    if form == "logarithmic":
        return d / (1.0 + tau)
    raise ValueError(f"unknown time form {form!r}")


@dataclass(frozen=True)
class SuccessFit:
    form: str
    params: tuple[float, ...]
    r_squared: float

    def predict(self, tau: float) -> float:
        return _success_value(self.form, self.params, tau)

    def slope(self, tau: float) -> float:
        return _success_slope(self.form, self.params, tau)


@dataclass(frozen=True)
class TimeFit:
    form: str
    params: tuple[float, ...]
    r_squared: float

    def predict(self, tau: float) -> float:
        return _time_value(self.form, self.params, tau)

    def slope(self, tau: float) -> float:
        return _time_slope(self.form, self.params, tau)


def _r2(ss_res: float, ss_tot: float) -> float:
    """1 - ss_res / ss_tot; a constant target scores 1 on an exact fit, else 0."""
    if ss_tot == 0.0:
        return 1.0 if ss_res < 1e-18 else 0.0
    return 1.0 - ss_res / ss_tot


def _r_squared(observed: np.ndarray, predicted: np.ndarray) -> float:
    return _r2(
        float(np.sum((observed - predicted) ** 2)),
        float(np.sum((observed - observed.mean()) ** 2)),
    )


def _jacobian(params: np.ndarray, taus: np.ndarray) -> np.ndarray:
    a, b = params
    e = np.exp(-b * taus)
    return np.column_stack([1.0 - e, a * taus * e])


def _model(params: np.ndarray, taus: np.ndarray) -> np.ndarray:
    return np.array([_success_value("exponential", params, t) for t in taus])


def _gauss_newton(
    start: np.ndarray, taus: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, float]:
    params = start.astype(float).copy()
    lam = 1e-3
    sse = float(np.sum((ys - _model(params, taus)) ** 2))
    for _ in range(_GN_MAX_ITER):
        residual = ys - _model(params, taus)
        jac = _jacobian(params, taus)
        jtj = jac.T @ jac
        jtr = jac.T @ residual
        stepped = False
        for _ in range(12):
            try:
                delta = np.linalg.solve(jtj + lam * np.eye(len(params)), jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = params + delta
            trial[1] = max(trial[1], 1e-8)  # rate parameter stays positive
            trial_sse = float(np.sum((ys - _model(trial, taus)) ** 2))
            if np.isfinite(trial_sse) and trial_sse <= sse:
                improved = sse - trial_sse
                params, sse = trial, trial_sse
                lam = max(lam / 10.0, 1e-12)
                stepped = True
                if improved < _GN_TOL:
                    return params, sse
                break
            lam *= 10.0
        if not stepped:
            break
    return params, sse


def fit_success(samples: Sequence[SweepSample]) -> SuccessFit:
    """Fit the exponential success curve a * (1 - exp(-b * tau)) by
    multi-start damped Gauss-Newton.

    Nine starting points on a fixed (level, rate) grid guard against local
    minima; the best converged fit wins.  The fitted level is clamped into
    (0, 1] and the rate kept positive.
    """
    taus = np.array([s.tau for s in samples], dtype=float)
    ys = np.array([s.success_rate for s in samples], dtype=float)
    if len(set(taus.tolist())) < 2:
        raise FitError(
            f"exponential fit needs at least 2 distinct thresholds, got {len(set(taus.tolist()))}"
        )
    best: tuple[np.ndarray, float] | None = None
    for a0 in _START_A:
        for b0 in _START_B:
            params, sse = _gauss_newton(np.array([a0, b0]), taus, ys)
            if best is None or sse < best[1]:
                best = (params, sse)
    params = best[0]
    params[0] = min(max(params[0], 1e-8), 1.0)
    params[1] = max(params[1], 1e-8)
    r2 = _r_squared(ys, _model(params, taus))
    if not np.isfinite(r2):
        raise FitError("exponential fit failed to produce a finite score")
    return SuccessFit("exponential", tuple(float(p) for p in params), r2)


def fit_time(samples: Sequence[SweepSample]) -> TimeFit:
    """Fit the linear time curve c + d * tau by closed-form least squares.

    Negative intercepts or slopes are clamped to zero with the remaining
    parameter refit, since planning time cannot be negative or improve
    with a stricter threshold.
    """
    xs = np.array([s.tau for s in samples], dtype=float)
    ys = np.array([s.mean_time_ms for s in samples], dtype=float)
    if len(set(xs.tolist())) < 2:
        raise FitError("time fit needs at least 2 distinct thresholds")
    var = float(np.sum((xs - xs.mean()) ** 2))
    d = float(np.sum((xs - xs.mean()) * (ys - ys.mean())) / var)
    c = float(ys.mean() - d * xs.mean())
    if d < 0:
        d = 0.0
        c = max(float(ys.mean()), 0.0)
    elif c < 0:
        c = 0.0
        d = max(float(np.sum(xs * ys) / np.sum(xs * xs)), 0.0)
    predicted = c + d * xs
    return TimeFit("linear", (c, d), _r_squared(ys, predicted))


def efficiency(success_fit: SuccessFit, time_fit: TimeFit, tau: float) -> float:
    """Success per unit planning time at a threshold."""
    t = time_fit.predict(tau)
    if t <= 0:
        raise ValueError(f"time curve is non-positive at tau={tau}; efficiency undefined")
    return success_fit.predict(tau) / t


@dataclass(frozen=True)
class ThresholdOptimum:
    tau: float
    efficiency: float
    at_endpoint: bool


def optimize_threshold(success_fit: SuccessFit, time_fit: TimeFit) -> ThresholdOptimum:
    """Numerically maximize efficiency over [0.01, 0.99].

    A 10^4-point grid locates the maximum; when the efficiency slope
    changes sign around it, bisection sharpens the answer, otherwise the
    grid point (an endpoint, for monotone curves) is returned as is.
    """

    def slope_sign(tau: float) -> float:
        t = time_fit.predict(tau)
        if t <= 0:
            raise ValueError(f"time curve non-positive at tau={tau}")
        return success_fit.slope(tau) * t - success_fit.predict(tau) * time_fit.slope(tau)

    grid = np.linspace(0.01, 0.99, 10_000)
    values = np.array([efficiency(success_fit, time_fit, t) for t in grid])
    j = int(np.argmax(values))
    if 0 < j < len(grid) - 1:
        left, right = grid[j - 1], grid[j + 1]
        if slope_sign(left) > 0 > slope_sign(right):
            for _ in range(100):
                mid = 0.5 * (left + right)
                if slope_sign(mid) > 0:
                    left = mid
                else:
                    right = mid
            tau_star = 0.5 * (left + right)
            return ThresholdOptimum(
                float(tau_star), efficiency(success_fit, time_fit, tau_star), False
            )
        return ThresholdOptimum(float(grid[j]), float(values[j]), False)
    return ThresholdOptimum(float(grid[j]), float(values[j]), True)


def lambert_optimum(success_fit: SuccessFit) -> float:
    """Closed-form 1/rate reference point for the exponential success form.

    Useful as a sanity cross-check against the numeric optimum; the two
    genuinely differ for general time curves.
    """
    if success_fit.form != "exponential":
        raise ValueError("closed-form reference exists only for the exponential form")
    return 1.0 / success_fit.params[1]


def plateau_relative_change(success_fit: SuccessFit) -> float:
    """Relative change of the success curve across REFERENCE_OPERATING_TAU +- 0.1."""
    center = REFERENCE_OPERATING_TAU
    mid = success_fit.predict(center)
    if mid <= 0:
        raise ValueError(f"success curve non-positive at tau={center}")
    span = abs(success_fit.predict(center + 0.1) - success_fit.predict(center - 0.1))
    return span / mid


# ---------------------------------------------------------------------------
# uncertainty decay rate


@dataclass(frozen=True)
class AlphaFit:
    alpha_hat: float
    r_squared: float
    n_dropped: int


def fit_alpha_pooled(traces: Iterable[Sequence[float]]) -> AlphaFit:
    """Shared decay rate across episodes with per-episode starting levels.

    All step log-ratios pool into one mean; the fit is scored in log space
    with each trace anchored at its own first value, against the baseline
    of per-trace means.  Non-positive values have no logarithm: they are
    dropped, and ``n_dropped`` counts them over all traces.
    """
    cleaned: list[list[float]] = []
    dropped_total = 0
    for trace in traces:
        kept = [float(u) for u in trace if u > 0]
        dropped_total += len(trace) - len(kept)
        if len(kept) >= 2:
            cleaned.append(kept)
    if not cleaned:
        raise FitError("no trace contributed at least 2 positive uncertainty values")
    all_ratios = np.concatenate([np.diff(np.log(t)) for t in cleaned])
    mean_log = float(all_ratios.mean())
    alpha_hat = 1.0 - math.exp(mean_log)
    ss_res = 0.0
    ss_tot = 0.0
    for trace in cleaned:
        logs = np.log(trace)
        predicted = logs[0] + mean_log * np.arange(len(logs))
        ss_res += float(np.sum((logs - predicted) ** 2))
        ss_tot += float(np.sum((logs - logs.mean()) ** 2))
    return AlphaFit(alpha_hat, _r2(ss_res, ss_tot), dropped_total)
