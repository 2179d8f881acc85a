"""Curve fitting tests.

The recovery tests sample the fitted forms (exponential success, linear
time) noiselessly on a threshold grid and require the fitter to reproduce
the generating parameters; the optimizer is checked against an independent
dense-grid argmax oracle for every evaluable pair of forms.
"""

import math
import warnings

import numpy as np
import pytest

from beliefplan.threshold import (
    AlphaFit,
    FitError,
    SuccessFit,
    TimeFit,
    efficiency,
    fit_alpha_pooled,
    fit_success,
    fit_time,
    lambert_optimum,
    optimize_threshold,
    plateau_relative_change,
)

TAU_GRID = [round(0.1 + 0.05 * k, 3) for k in range(17)]  # 0.1 .. 0.9


def on_grid(fn):
    return TAU_GRID, [fn(t) for t in TAU_GRID]


def exp_curve(a, b):
    return lambda t: a * (1 - math.exp(-b * t))


class TestSuccessFits:
    def test_exponential_recovery(self):
        fit = fit_success(*on_grid(exp_curve(0.89, 4.73)))
        assert fit.form == "exponential"
        assert fit.params[0] == pytest.approx(0.89, abs=1e-3)
        assert fit.params[1] == pytest.approx(4.73, abs=1e-3)
        assert fit.r_squared >= 0.999

    def test_noisy_data_still_close(self):
        rng = np.random.default_rng(4)
        curve = exp_curve(0.85, 5.0)
        fit = fit_success(
            *on_grid(lambda t: min(1.0, max(0.0, curve(t) + rng.normal(0, 0.02))))
        )
        assert fit.params[0] == pytest.approx(0.85, abs=0.05)
        assert fit.params[1] == pytest.approx(5.0, abs=0.8)
        assert fit.r_squared >= 0.95

    def test_level_clamped_to_unit(self):
        # data saturating at 1.0 must not fit a level above 1
        fit = fit_success(*on_grid(exp_curve(1.0, 6.0)))
        assert fit.params[0] <= 1.0

    def test_too_few_points_rejected(self):
        with pytest.raises(FitError):
            fit_success([0.5], [0.6])


class TestTimeFits:
    def test_linear_recovery(self):
        fit = fit_time(*on_grid(lambda t: 8.2 + 12.5 * t))
        assert fit.form == "linear"
        assert fit.params[0] == pytest.approx(8.2, abs=1e-9)
        assert fit.params[1] == pytest.approx(12.5, abs=1e-9)
        assert fit.r_squared >= 0.999

    def test_negative_slope_clamped_flat(self):
        fit = fit_time(*on_grid(lambda t: 20.0 - 5.0 * t))
        assert fit.params[1] == 0.0
        assert fit.params[0] == pytest.approx(20.0 - 5.0 * float(np.mean(TAU_GRID)))

    def test_too_few_points_rejected(self):
        with pytest.raises(FitError):
            fit_time([0.5], [10.0])


class TestEfficiency:
    def test_ratio(self):
        s = SuccessFit("exponential", (0.89, 4.73), 1.0)
        t = TimeFit("linear", (8.2, 12.5), 1.0)
        tau = 0.5
        expected = 0.89 * (1 - math.exp(-4.73 * 0.5)) / (8.2 + 12.5 * 0.5)
        assert efficiency(s, t, tau) == pytest.approx(expected)

    def test_zero_time_curve_rejected(self):
        s = SuccessFit("exponential", (0.89, 4.73), 1.0)
        t = TimeFit("linear", (0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            efficiency(s, t, 0.5)

    def test_unknown_form_rejected_when_built(self):
        # a form belongs to one family: each table rejects the other's names
        for fit, form in ((SuccessFit, "linear"), (TimeFit, "sigmoid"), (TimeFit, "cubic")):
            with pytest.raises(ValueError, match="unknown"):
                fit(form, (1.0, 1.0), 1.0)


SUCCESS_FITS = {
    "exponential": SuccessFit("exponential", (0.89, 4.73), 1.0),
    "sigmoid": SuccessFit("sigmoid", (0.89, 8.0, 0.65), 1.0),
    "logarithmic": SuccessFit("logarithmic", (0.45, 3.5), 1.0),
}
TIME_FITS = {
    "linear": TimeFit("linear", (8.2, 12.5), 1.0),
    "quadratic": TimeFit("quadratic", (8.0, 15.0), 1.0),
    "logarithmic": TimeFit("logarithmic", (8.5, 10.0), 1.0),
}


class TestOptimizer:
    @pytest.mark.parametrize("s_form", sorted(SUCCESS_FITS))
    @pytest.mark.parametrize("t_form", sorted(TIME_FITS))
    def test_matches_dense_grid_oracle(self, s_form, t_form):
        s_fit, t_fit = SUCCESS_FITS[s_form], TIME_FITS[t_form]
        result = optimize_threshold(s_fit, t_fit)
        grid = np.linspace(0.01, 0.99, 100_000)
        values = [efficiency(s_fit, t_fit, t) for t in grid]
        oracle_tau = float(grid[int(np.argmax(values))])
        assert result.tau == pytest.approx(oracle_tau, abs=1e-3)
        assert result.efficiency == pytest.approx(max(values), rel=1e-6)

    def test_monotone_curve_ends_at_boundary(self):
        s_fit = SUCCESS_FITS["logarithmic"]
        flat_time = TimeFit("linear", (10.0, 0.0), 1.0)  # efficiency keeps rising
        result = optimize_threshold(s_fit, flat_time)
        assert result.tau == pytest.approx(0.99)
        assert result.at_endpoint

    def test_reference_points_disagree_for_canonical_parameters(self):
        # the numeric optimum, the 1/rate shortcut, and the conventional
        # 0.73 operating point are three different numbers for these curves
        s_fit, t_fit = SUCCESS_FITS["exponential"], TIME_FITS["linear"]
        result = optimize_threshold(s_fit, t_fit)
        shortcut = lambert_optimum(s_fit)
        assert shortcut == pytest.approx(1 / 4.73, abs=1e-12)
        assert abs(result.tau - shortcut) > 0.05
        assert abs(result.tau - 0.73) > 0.05

    def test_lambert_requires_exponential(self):
        with pytest.raises(ValueError):
            lambert_optimum(SUCCESS_FITS["sigmoid"])


class TestPlateau:
    def test_canonical_curve_is_flat_near_073(self):
        assert plateau_relative_change(SUCCESS_FITS["exponential"]) < 0.05

    def test_steep_region_is_not(self):
        # a sigmoid whose midpoint sits at 0.73 is steepest there
        steep = SuccessFit("sigmoid", (0.89, 20.0, 0.73), 1.0)
        assert plateau_relative_change(steep) > 0.05


class TestAlphaFit:
    def test_exact_decay_recovered(self):
        trace = [0.8 * 0.7**k for k in range(6)]
        fit = fit_alpha_pooled([trace])
        assert fit.alpha_hat == pytest.approx(0.3, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.n_dropped == 0

    def test_single_transition(self):
        fit = fit_alpha_pooled([[0.8, 0.4]])
        assert fit.alpha_hat == pytest.approx(0.5)

    def test_scale_invariant(self):
        trace = [0.9 * 0.75**k for k in range(5)]
        a1 = fit_alpha_pooled([trace]).alpha_hat
        a2 = fit_alpha_pooled([[0.25 * u for u in trace]]).alpha_hat
        assert a1 == pytest.approx(a2, abs=1e-12)

    def test_nonpositive_values_dropped_and_counted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # n_dropped is the one report
            fit = fit_alpha_pooled([[0.8, 0.56, 0.0, 0.392], [0.5, -0.1, 0.35]])
        assert fit.n_dropped == 2
        assert fit.alpha_hat == pytest.approx(0.3, abs=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(FitError):
            fit_alpha_pooled([[0.5], [0.4]])
        with pytest.raises(FitError) as info:
            fit_alpha_pooled([[0.5, 0.0], [0.0, -0.1, 0.0]])
        assert info.value.n_dropped == 4

    def test_noisy_recovery(self):
        rng = np.random.default_rng(12)
        traces = []
        for _ in range(20):
            u0 = rng.uniform(0.5, 0.95)
            traces.append(
                [u0 * 0.7**k * math.exp(rng.normal(0, 0.05)) for k in range(5)]
            )
        fit = fit_alpha_pooled(traces)
        assert isinstance(fit, AlphaFit)
        assert fit.alpha_hat == pytest.approx(0.3, abs=0.03)
        assert fit.r_squared >= 0.9

    def test_pooled_matches_single_on_one_trace(self):
        # one noisy trace: the mean log ratio, scored against its own mean
        trace = [0.8, 0.6, 0.39, 0.3, 0.2]
        logs = np.log(trace)
        mean_log = float(np.mean(np.diff(logs)))
        predicted = logs[0] + mean_log * np.arange(len(trace))
        r2 = 1.0 - np.sum((logs - predicted) ** 2) / np.sum((logs - logs.mean()) ** 2)
        pooled = fit_alpha_pooled([trace])
        assert pooled.alpha_hat == pytest.approx(1.0 - math.exp(mean_log), abs=1e-12)
        assert pooled.r_squared == pytest.approx(float(r2), abs=1e-12)
        assert 0.0 < pooled.r_squared < 1.0

    def test_pooled_requires_usable_trace(self):
        with pytest.raises(FitError):
            fit_alpha_pooled([[0.5]])
