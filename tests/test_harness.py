"""Tests for the experiment harness and its CLI."""

import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from beliefplan import cli, harness, mrf, planner
from beliefplan.cli import main
from beliefplan.core import (
    ProbabilisticState,
    classify,
    fuse_observation,
    predicate_uncertainty,
    shrink_uncertainty,
    state_uncertainty_independent,
)
from beliefplan.harness import (
    ExperimentConfig,
    ExperimentReport,
    cohens_d,
    config_from_file,
    default_goal,
    export,
    generate_scene_files,
    rows_to_csv,
    run,
    summary_to_json,
    unimodal_rise_fall,
    wilson_ci,
    _trial_seeds,
)
from beliefplan import scene as scene_module
from beliefplan.planner import PlannerOptions, convergence_bound, plan_under_uncertainty
from beliefplan.scene import NoiseConfig, PlanningEnvironment, generate_scene, scene_to_json


def _reference_trial_seeds(config_seed, setting_idx, trial_idx):
    """One SeedSequence per trial, as the harness seeds trials."""
    ss = np.random.SeedSequence([config_seed, setting_idx, trial_idx])
    scene_seed, perception_seed = ss.generate_state(2, np.uint32)
    return int(scene_seed), int(perception_seed)


def _trial(config, setting_idx=0, trial_idx=0):
    """A unit's trial as its batch hands it over: the generated scene and
    the perception seed."""
    scene_seed, perception_seed = _trial_seeds(config.seed, [(setting_idx, trial_idx)])[0]
    return generate_scene(config.n_objects, config.stack_bias, scene_seed), perception_seed


class TestWilson:
    def test_published_interval(self):
        # hand evaluation: p=0.88, z=1.96, center=0.918416, margin=0.097925,
        # denominator=1.076832
        lo, hi = wilson_ci(44, 50, 1.96)
        assert abs(lo - 0.762) < 5e-4
        assert abs(hi - 0.944) < 5e-4
        assert abs(lo - 0.7619487) < 1e-6
        assert abs(hi - 0.9438251) < 1e-6

    def test_all_successes(self):
        # p=1 makes the margin exactly z^2/2n, so the upper limit is exactly 1
        lo, hi = wilson_ci(10, 10, 1.96)
        assert hi == 1.0
        assert abs(lo - 10 / (10 + 1.96**2)) < 1e-12

    def test_no_successes(self):
        lo, hi = wilson_ci(0, 10, 1.96)
        assert lo == 0.0
        assert 0 < hi < 1

    def test_contains_point_estimate(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            s = int(rng.integers(0, n + 1))
            lo, hi = wilson_ci(s, n)
            assert 0.0 <= lo <= s / n <= hi <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_ci(5, 0)
        with pytest.raises(ValueError):
            wilson_ci(11, 10)
        with pytest.raises(ValueError):
            wilson_ci(-1, 10)
        with pytest.raises(ValueError):
            wilson_ci(5, 10, z=0.0)


class TestCohensD:
    def test_hand_value(self):
        assert abs(cohens_d([1, 2, 3], [2, 3, 4]) - (-1.0)) < 1e-12

    def test_identical_samples(self):
        assert cohens_d([1, 2, 3], [1, 2, 3]) == 0.0

    def test_one_pooled_sd_shift(self):
        xs = [1.0, 2.0, 3.0]
        ys = [x - 1.0 for x in xs]  # shifted down by exactly one pooled SD
        assert abs(cohens_d(xs, ys) - 1.0) < 1e-12

    def test_degenerate(self):
        with pytest.raises(ValueError):
            cohens_d([1.0], [2.0, 3.0])
        with pytest.raises(ValueError):
            cohens_d([2.0, 2.0], [2.0, 2.0])
        with pytest.raises(ValueError):  # the float mean of [5.6] * 3 is one ulp off
            cohens_d([16.6] * 3, [5.6] * 3)


class TestUnimodal:
    def test_rise_then_fall(self):
        assert unimodal_rise_fall([0.2, 0.6, 0.9, 0.7, 0.4])

    def test_plateau_peak(self):
        assert unimodal_rise_fall([0.2, 0.9, 0.9, 0.4])

    def test_monotone_rise_is_not_shaped(self):
        assert not unimodal_rise_fall([0.1, 0.5, 0.9])

    def test_dip_rejected(self):
        assert not unimodal_rise_fall([0.2, 0.8, 0.3, 0.9, 0.4])

    def test_too_short(self):
        assert not unimodal_rise_fall([0.2, 0.8])


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig(kind="calibration")
        assert cfg.trials == 20 and cfg.samples == 10_000

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="nope")

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="calibration", trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="calibration", tau_plan=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="calibration", alpha=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="threshold-sweep", taus=(0.5, 1.5))
        with pytest.raises(ValueError, match="taus"):
            ExperimentConfig(kind="threshold-sweep", taus=())

    @pytest.mark.parametrize("alpha", [1e-17, 2.0**-54, math.ulp(0.0)])
    def test_alpha_that_shrinks_nothing_rejected_by_name(self, alpha):
        # 1 - alpha rounds to 1.0, so a look would leave every residual as it is
        assert 1.0 - alpha == 1.0
        with pytest.raises(ValueError, match="^alpha must"):
            ExperimentConfig(kind="convergence", alpha=alpha)

    def test_least_alpha_that_shrinks_is_kept(self):
        alpha = math.nextafter(2.0**-54, 1.0)
        assert 1.0 - alpha < 1.0
        assert ExperimentConfig(kind="alpha-fit", alpha=alpha).alpha == alpha
        with pytest.raises(ValueError, match="^alpha must bring convergence"):
            ExperimentConfig(kind="convergence", alpha=alpha)  # past the round cap

    def test_convergence_that_cannot_finish_rejected_by_name(self):
        assert convergence_bound(0.7, 1e-16, 1.0) == 10_844_422_945_852_991
        with pytest.raises(ValueError, match="^alpha must .* 10844422945852991"):
            ExperimentConfig(kind="convergence", alpha=1e-16)

    def test_slow_convergence_within_the_cap_is_kept(self):
        assert convergence_bound(0.99, 1e-6, 1.0) == 4_605_168
        ExperimentConfig(kind="convergence", alpha=1e-6, tau_plan=0.99)

    def test_round_cap_is_inclusive(self, monkeypatch):
        k = convergence_bound(0.99, 1e-6, 1.0)
        monkeypatch.setattr(harness, "MAX_CONVERGENCE_ROUNDS", k)
        ExperimentConfig(kind="convergence", alpha=1e-6, tau_plan=0.99)
        monkeypatch.setattr(harness, "MAX_CONVERGENCE_ROUNDS", k - 1)
        with pytest.raises(ValueError, match="^alpha must"):
            ExperimentConfig(kind="convergence", alpha=1e-6, tau_plan=0.99)

    @pytest.mark.parametrize("kind", ["calibration", "alpha-fit", "threshold-sweep",
                                      "plan-benchmark", "mrf-check"])
    def test_other_kinds_keep_a_slow_alpha(self, kind):
        assert ExperimentConfig(kind=kind, alpha=1e-16).alpha == 1e-16

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_objects", 2),
            ("n_objects", 12),
            ("stack_bias", -0.1),
            ("stack_bias", 1.5),
            ("noise_flip", 0.5),
            ("noise_sd", -1.0),
            ("miscal_gamma", 0.0),
        ],
    )
    def test_bad_scene_and_noise_ranges(self, field, value):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="plan-benchmark", **{field: value})

    @pytest.mark.parametrize(
        "field,value", [("trials", 2.5), ("seed", True), ("refine", 1), ("taus", (0.5, "0.7"))]
    )
    def test_mistyped_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ExperimentConfig(kind="alpha-fit", **{field: value})

    @pytest.mark.parametrize("taus", [(0.9, 0.5, 0.7, 0.6, 0.8), (0.5, 0.5), (0.6, 0.8, 0.7)])
    def test_taus_must_increase(self, taus):
        # the sweep's shape check reads the success rates in grid order
        with pytest.raises(ValueError, match="taus must be strictly increasing"):
            ExperimentConfig(kind="threshold-sweep", taus=taus)

    def test_taus_normalized(self):
        cfg = ExperimentConfig(kind="threshold-sweep", taus=[0.5, 0.7])
        assert cfg.taus == (0.5, 0.7)

    def test_noise_mapping(self):
        cfg = ExperimentConfig(
            kind="alpha-fit", noise_flip=0.05, noise_sd=0.4, miscal_gamma=2.0, alpha=0.25
        )
        noise = cfg.noise()
        assert noise.base_flip_rate == 0.05
        assert noise.logit_noise_sd == 0.4
        assert noise.miscal_gamma == 2.0
        assert noise.gain == 0.25

    def test_config_file_roundtrip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"trials": 7, "taus": [0.4, 0.6]}))
        vals = config_from_file(p)
        assert vals == {"trials": 7, "taus": (0.4, 0.6)}

    def test_config_file_accepts_every_default(self, tmp_path):
        base = ExperimentConfig(kind="plan-benchmark")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({f.name: getattr(base, f.name) for f in fields(base)}))
        assert ExperimentConfig(**config_from_file(p)) == base
        p.write_text(json.dumps({"noise_sd": 2}))  # a whole number is a number
        assert config_from_file(p) == {"noise_sd": 2}

    def test_config_file_unknown_field(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ValueError, match="bogus"):
            config_from_file(p)


class TestSeeds:
    def test_deterministic_and_distinct(self):
        units = [(s, t) for s in range(4) for t in range(50)]
        seeds = _trial_seeds(3, units)
        assert seeds == _trial_seeds(3, units)
        assert seeds[5] == _trial_seeds(3, [(0, 5)])[0]
        assert len(set(seeds)) == 200
        assert all(type(v) is int for pair in seeds for v in pair)

    @pytest.mark.parametrize("config_seed", [0, 2**32 - 1, 2**32, 2**64 + 3])
    def test_words_of_numpys_seed_sequence(self, config_seed):
        # one column-wise pass gives each unit SeedSequence's first two words
        units = [(s, t) for s in (0, 1, 2**32 - 1) for t in (0, 7, 999)]
        want = [_reference_trial_seeds(config_seed, s, t) for s, t in units]
        assert _trial_seeds(config_seed, units) == want


class TestDefaultGoal:
    def test_three_object_chain(self):
        scene = generate_scene(4, 0.4, 12)
        goal = default_goal(scene)
        ids = scene.object_ids()
        assert str(goal) == f"On({ids[0]},{ids[1]}) & On({ids[1]},{ids[2]})"


class TestCalibrationKind:
    def test_schema_and_summary(self):
        rep = run(ExperimentConfig(kind="calibration", seed=4, samples=300))
        assert rep.kind == "calibration"
        assert rep.header == ("confidence", "label")
        assert len(rep.rows) == 300
        for p, y in rep.rows:
            assert 0.0 <= p <= 1.0 and y in (0, 1)
        assert 0.0 <= rep.summary["ece"] <= 1.0
        assert rep.summary["n_samples"] == 300
        assert set(rep.summary["checks"]) == {"ece_within_tol", "brier_within_tol"}


class TestCalibrationIndex:
    def test_calibration_builds_only_the_scenes_index(self):
        # the per-scene predicate count reuses the generated scenes' index
        scene_module._predicate_index.cache_clear()
        run(ExperimentConfig(kind="calibration", seed=4, samples=300))
        assert scene_module._predicate_index.cache_info().currsize == 1


class TestOnePredicateIndex:
    def test_an_episode_shares_the_scenes_index(self, monkeypatch):
        states = {"observe": [], "fuse_observation": [], "refined_state": []}

        def recorded(name, fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                states[name].append(out)
                return out
            return wrapped

        for name in ("fuse_observation", "refined_state"):
            monkeypatch.setattr(planner, name, recorded(name, getattr(planner, name)))
        monkeypatch.setattr(
            PlanningEnvironment, "observe", recorded("observe", PlanningEnvironment.observe)
        )
        scene = generate_scene(5, seed=3)
        env = PlanningEnvironment(scene, NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0), 3)
        options = PlannerOptions(refine_with_mrf=True)
        episode = plan_under_uncertainty(env, default_goal(scene), options=options)
        assert len(episode.iterations) == 3
        assert [len(v) for v in states.values()] == [3, 2, 3]
        shrunk = [shrink_uncertainty(s, 0.5) for s in states["observe"]]
        index = scene_module._predicate_index(scene.object_ids())
        assert all(s.scored is index for s in [*shrunk, *itertools.chain(*states.values())])

    def test_decay_rounds_share_the_scenes_index(self, monkeypatch):
        rounds = []

        def recorded(belief):
            rounds.append(belief)
            return state_uncertainty_independent(belief)

        monkeypatch.setattr(harness, "state_uncertainty_independent", recorded)
        config = ExperimentConfig(kind="alpha-fit", trials=1, steps=4)
        harness._alpha_unit(config, 0, 0, _trial(config))
        assert len(rounds) == 5
        ids = tuple(sorted(f"o{k}" for k in range(config.n_objects)))
        index = scene_module._predicate_index(ids)
        assert all(belief.scored is index for belief in rounds)

    def test_structural_edges_built_once_per_episode(self, monkeypatch):
        # the refinement builds the edges, and their cutset, once per index
        built = _count_calls(monkeypatch, mrf, "_structural_edges")
        mrf._cutset.cache_clear()
        scene = generate_scene(5, seed=3)
        env = PlanningEnvironment(scene, NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0), 3)
        options = PlannerOptions(refine_with_mrf=True)
        plan_under_uncertainty(env, default_goal(scene), options=options)
        info = mrf._cutset.cache_info()
        assert (info.misses, info.hits) == (1, 2) and len(built) == 1

    def test_structural_edges_built_once_per_plan_refine_run(self, monkeypatch):
        built = _count_calls(monkeypatch, mrf, "_structural_edges")
        mrf._cutset.cache_clear()
        run(ExperimentConfig(kind="plan-benchmark", seed=5, trials=4, refine=True))
        info = mrf._cutset.cache_info()
        assert info.misses == 1 and info.hits > 8 and len(built) == 1


class TestAlphaFitKind:
    def test_schema_and_decay(self):
        cfg = ExperimentConfig(
            kind="alpha-fit", seed=9, trials=3, steps=4,
            noise_flip=0.02, noise_sd=0.6, n_objects=3,
        )
        rep = run(cfg)
        assert rep.header == ("episode_id", "step", "U", "action_kind")
        assert len(rep.rows) == 3 * 5  # steps + initial observation
        for episode in range(3):
            trace = [r[2] for r in rep.rows if r[0] == episode]
            steps = [r[1] for r in rep.rows if r[0] == episode]
            assert steps == list(range(5))
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
            assert trace[-1] < trace[0]
        kinds = {r[3] for r in rep.rows}
        assert kinds == {"observe", "look_closer"}
        assert 0.0 < rep.summary["alpha_hat"] < 1.0


class TestConvergenceKind:
    def test_schema_and_bound(self):
        cfg = ExperimentConfig(
            kind="convergence", seed=2, trials=4, n_objects=3,
            noise_flip=0.1, noise_sd=0.8,
        )
        rep = run(cfg)
        assert rep.header == ("trial", "u0", "k_empirical", "k_bound", "gap_pct")
        assert len(rep.rows) == 4
        for trial, u0, k_emp, k_bound, gap in rep.rows:
            assert 0.0 < u0 <= 1.0
            assert k_emp <= k_bound + 1  # exact-mode guarantee
            if k_bound > 0:
                assert abs(gap - 100.0 * (k_bound - k_emp) / k_bound) < 1e-9
        assert rep.summary["checks"]["all_within_bound_plus_one"]


def _reference_sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _reference_attention_rounds(config, trial):
    """The decay kinds' beliefs as first defined: each round looks at every
    object once, then re-perceives in exact-reduction mode and fuses.

    Exact-reduction perception ignores the attention residual in the flip
    rate and logit noise and scales each emitted uncertainty by it instead,
    keeping the confidence on its side of 0.5; a residual of 1 leaves the
    confidence as it is.  One generator per predicate, as perception had.
    """
    scene, seed = trial
    cfg = config.noise()
    index, (truth,), (hidden,) = scene_module._truth_pass([scene])
    occluded = {obj for obj, h in zip(index.ids, hidden.tolist()) if h}
    draws = []
    for k in range(len(index.preds)):
        rng = np.random.default_rng([seed, scene.seed, k])
        draws.append(float(rng.standard_normal()))

    def observe(residuals):
        conf = {}
        for pred, t, g in zip(index.preds, truth.tolist(), draws):
            residual = min(residuals.get(a, 1.0) for a in pred.args)
            eta = cfg.base_flip_rate
            sd = cfg.logit_noise_sd * (2.0 if set(pred.args) & occluded else 1.0)
            p = t * (1.0 - eta) + (1.0 - t) * eta
            if sd != 0.0:
                ts = min(max(p, 1e-12), 1.0 - 1e-12)
                p = _reference_sigmoid(math.log(ts / (1.0 - ts)) + sd * g)
            if cfg.miscal_gamma != 1.0:
                num = p**cfg.miscal_gamma
                p = num / (num + (1.0 - p) ** cfg.miscal_gamma)
            if residual < 1.0:
                u = predicate_uncertainty(p) * residual
                p = 1.0 - u if p >= 0.5 else u
            conf[pred] = min(max(p, 0.0), 1.0)
        return ProbabilisticState(conf)

    env = PlanningEnvironment(scene, cfg, seed)  # holds the attention; the rounds only look
    belief = observe(env.residual)
    while True:
        yield belief
        for obj in scene.object_ids():
            env.apply_info("look_closer", obj)
        belief = fuse_observation(belief, observe(env.residual))


def _reference_alpha_unit(config, setting_idx, trial_idx, trial):
    """The alpha-fit unit as first defined: the state uncertainty of the
    first ``steps + 1`` rounds of :func:`_reference_attention_rounds`."""
    rounds = _reference_attention_rounds(config, trial)
    trace = [state_uncertainty_independent(b) for b in itertools.islice(rounds, config.steps + 1)]
    return trace, harness.modeled_episode_ms(config.steps + 1, config.steps * config.n_objects)


def _reference_convergence_unit(config, setting_idx, trial_idx, trial):
    """The convergence unit as first defined: classify each round of
    :func:`_reference_attention_rounds` until no predicate is uncertain."""
    rounds = _reference_attention_rounds(config, trial)
    belief = next(rounds)
    u0 = state_uncertainty_independent(belief)
    k_bound = convergence_bound(config.tau_plan, config.alpha, u0)
    k_emp = 0
    while classify(belief, config.tau_plan).uncertain.any() and k_emp < k_bound + 2:
        belief = next(rounds)
        k_emp += 1
    return u0, k_emp, k_bound, harness.modeled_episode_ms(k_emp + 1, k_emp * config.n_objects)


class TestDecayMatchesReference:
    CONFIGS = [
        ExperimentConfig(kind="alpha-fit", seed=0, trials=6),
        ExperimentConfig(kind="convergence", seed=1, trials=6),
        ExperimentConfig(kind="alpha-fit", seed=2, trials=4, noise_flip=0.0, noise_sd=0.0),
        ExperimentConfig(kind="convergence", seed=2, trials=4, noise_flip=0.0, noise_sd=0.0),
        ExperimentConfig(
            kind="alpha-fit", seed=3, trials=4, steps=30, alpha=0.9, n_objects=7, miscal_gamma=2.0
        ),
        ExperimentConfig(kind="convergence", seed=3, trials=4, alpha=0.9, n_objects=7,
                         miscal_gamma=2.0),
        ExperimentConfig(kind="convergence", seed=4, trials=6, noise_flip=0.3, noise_sd=3.0,
                         alpha=0.05, tau_plan=0.95),
        ExperimentConfig(kind="alpha-fit", seed=5, trials=4, steps=12, noise_flip=0.2,
                         noise_sd=1.5, miscal_gamma=0.5, stack_bias=0.9),
        # the residual saturates at the least positive float from the 324th look
        ExperimentConfig(kind="alpha-fit", seed=6, trials=2, steps=400, alpha=0.9),
        ExperimentConfig(kind="convergence", seed=2**64 + 3, trials=4, alpha=0.6,
                         tau_plan=0.999, miscal_gamma=1.5),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.kind}-{c.seed}")
    def test_rows_and_summary_byte_identical(self, monkeypatch, config):
        got = run(config)
        monkeypatch.setattr(harness, "_alpha_unit", _reference_alpha_unit)
        monkeypatch.setattr(harness, "_convergence_unit", _reference_convergence_unit)
        want = run(config)
        assert rows_to_csv(got.header, got.rows) == rows_to_csv(want.header, want.rows)
        assert summary_to_json(got.summary) == summary_to_json(want.summary)

    @pytest.mark.parametrize("unit", [harness._alpha_unit, harness._convergence_unit])
    def test_a_decay_unit_perceives_once(self, monkeypatch, unit):
        calls = _count_calls(monkeypatch, scene_module, "perceive_with_labels")
        config = ExperimentConfig(kind="alpha-fit", trials=1, steps=6, tau_plan=0.99)
        unit(config, 0, 0, _trial(config))
        assert len(calls) == 1

    def test_a_convergence_unit_classifies_at_most_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return classify(*args)

        monkeypatch.setattr(harness, "classify", counted)
        config = ExperimentConfig(kind="convergence", trials=1, alpha=0.05, tau_plan=0.99)
        trial = _trial(config)
        got = harness._convergence_unit(config, 0, 0, trial)
        assert got[1] > 20  # k_emp: many rounds, one classify
        assert len(calls) == 1
        assert got == _reference_convergence_unit(config, 0, 0, trial)


class TestSweepKind:
    def test_schema(self):
        cfg = ExperimentConfig(
            kind="threshold-sweep", seed=6, trials=2, taus=(0.55, 0.75)
        )
        rep = run(cfg)
        assert rep.header == ("tau", "success_rate", "mean_time_ms", "trials")
        assert len(rep.rows) == 2
        assert [r[0] for r in rep.rows] == [0.55, 0.75]
        for _, rate, ms, trials in rep.rows:
            assert 0.0 <= rate <= 1.0 and ms > 0 and trials == 2
        assert "checks" in rep.summary


class TestBenchmarkKind:
    def test_paired_rows(self):
        cfg = ExperimentConfig(
            kind="plan-benchmark", seed=8, trials=3, noise_flip=0.12, noise_sd=0.9
        )
        rep = run(cfg)
        assert len(rep.rows) == 6
        for trial in range(3):
            policies = [r[1] for r in rep.rows if r[0] == trial]
            assert policies == ["info_on", "info_off"]
        s = rep.summary
        lo, hi = s["wilson_info_on"]
        assert lo <= s["success_rate_info_on"] <= hi

    def test_info_off_never_gathers(self):
        cfg = ExperimentConfig(
            kind="plan-benchmark", seed=21, trials=3, noise_flip=0.15, noise_sd=1.0
        )
        rep = run(cfg)
        assert all(r[3] == 0 for r in rep.rows if r[1] == "info_off")

    def test_policy_reaches_the_planner_as_options(self, monkeypatch):
        # bench/run.py's episode timer reads options.info_enabled to leave
        # the info_off episodes out of its episode times
        flags = []
        original = harness.plan_under_uncertainty

        def recording(*args, **kwargs):
            flags.append(kwargs["options"].info_enabled)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "plan_under_uncertainty", recording)
        rep = run(ExperimentConfig(kind="plan-benchmark", seed=8, trials=1))
        assert [r[1] for r in rep.rows] == ["info_on", "info_off"]
        assert flags == [True, False]


def _reference_benchmark_unit(config, setting_idx, trial_idx, trial):
    """Each policy's episode on its own fresh environment, observing its round 0 itself."""
    scene, perception_seed = trial
    out = []
    for policy, info_enabled in (("info_on", True), ("info_off", False)):
        episode, modeled = harness._episode(
            config, scene, perception_seed, config.tau_plan, info_enabled
        )
        plan_len = len(episode.plan) if episode.plan is not None else -1
        out.append((policy, int(episode.success), episode.info_action_count, plan_len,
                    len(episode.iterations), modeled))
    return out


def _count_calls(monkeypatch, module, name):
    """The calls of ``module.name``, counted through every beliefplan binding of it."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "beliefplan" and vars(mod).get(name) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


class TestBenchmarkSharesRoundZero:
    CONFIGS = [
        ExperimentConfig(kind="plan-benchmark", seed=seed, trials=5, refine=refine,
                         n_objects=n, max_retries=retries, noise_flip=0.15, noise_sd=1.0)
        for refine in (False, True)
        for n in (4, 7)
        for retries in (1, 3)
        for seed in (1, 12, 2**40 + 5)
    ]

    @staticmethod
    def assert_matches_reference(monkeypatch, config):
        got = run(config)
        with monkeypatch.context() as m:
            m.setattr(harness, "_benchmark_unit", _reference_benchmark_unit)
            want = run(config)
        assert rows_to_csv(got.header, got.rows) == rows_to_csv(want.header, want.rows)
        assert summary_to_json(got.summary) == summary_to_json(want.summary)
        return got

    @pytest.mark.parametrize(
        "config", CONFIGS,
        ids=lambda c: f"refine{int(c.refine)}-n{c.n_objects}-r{c.max_retries}-s{c.seed}",
    )
    def test_rows_and_summary_byte_identical(self, monkeypatch, config):
        self.assert_matches_reference(monkeypatch, config)

    @pytest.mark.parametrize("refine", [False, True])
    def test_info_off_rounds_after_a_give_up_match(self, monkeypatch, refine):
        # every search stops at the cap, so info_off fuses rounds 1 and 2
        # into the belief it was handed
        monkeypatch.setattr(planner, "MAX_EXPANSIONS", 2)
        config = ExperimentConfig(kind="plan-benchmark", seed=3, trials=4, refine=refine,
                                  noise_flip=0.15, noise_sd=1.0)
        rep = self.assert_matches_reference(monkeypatch, config)
        assert any(r[1] == "info_off" and r[5] == 3 for r in rep.rows)

    def test_info_off_neither_perceives_nor_refines_round_0(self, monkeypatch):
        perceives = _count_calls(monkeypatch, scene_module, "perceive_with_labels")
        refines = _count_calls(monkeypatch, mrf, "refined_state")
        bp = _count_calls(monkeypatch, mrf, "loopy_bp")
        config = ExperimentConfig(kind="plan-benchmark", seed=7, trials=6, refine=True,
                                  noise_flip=0.15, noise_sd=1.0)
        rep = run(config)
        rounds = sum(r[5] for r in rep.rows)
        assert len(perceives) == len(refines) == rounds - config.trials
        assert not bp  # refinement is exact, with no belief propagation

    def test_no_work_carries_over_between_runs(self, monkeypatch):
        # a cache kept across runs would make a repeated run cheaper than one run
        perceives = _count_calls(monkeypatch, scene_module, "perceive_with_labels")
        refines = _count_calls(monkeypatch, mrf, "refined_state")
        config = ExperimentConfig(kind="plan-benchmark", seed=9, trials=4, refine=True,
                                  noise_flip=0.15, noise_sd=1.0)
        counts = []
        for _ in range(2):
            run(config)
            counts.append((len(perceives), len(refines)))
            perceives.clear()
            refines.clear()
        assert counts[0] == counts[1] and counts[0][1] > 0

    def test_each_run_searches_afresh(self, monkeypatch):
        # the search store starts empty at each run, and within a run a
        # projected world that repeats is searched once
        searches = _count_calls(monkeypatch, planner, "_search")
        episodes = []
        original = harness.plan_under_uncertainty

        def recording(*args, **kwargs):
            episodes.append(original(*args, **kwargs))
            return episodes[-1]

        monkeypatch.setattr(harness, "plan_under_uncertainty", recording)
        config = ExperimentConfig(kind="threshold-sweep", seed=9, trials=8)
        counts = []
        for _ in range(2):
            run(config)
            plan_rounds = sum(
                r.action_kind in ("plan", "give_up") for e in episodes for r in e.iterations
            )
            counts.append((len(searches), plan_rounds))
            searches.clear()
            episodes.clear()
        assert counts[0] == counts[1]
        assert 0 < counts[0][0] < counts[0][1]


class TestMrfCheckKind:
    def test_schema_and_tightening(self):
        rep = run(ExperimentConfig(kind="mrf-check", seed=14, trials=12))
        assert rep.header == (
            "trial", "n_nodes", "n_edges", "converged", "max_marginal_dev",
            "u_dep", "u_indep",
        )
        assert len(rep.rows) == 12
        for _, n, n_edges, converged, dev, u_dep, u_indep in rep.rows:
            assert 2 <= n <= 10
            assert u_dep <= u_indep + 1e-9
            if n_edges == 0:
                assert abs(u_dep - u_indep) <= 1e-9
        assert rep.summary["checks"]["tightening_holds"]

    def test_includes_edgeless_graphs(self):
        rep = run(ExperimentConfig(kind="mrf-check", seed=14, trials=40))
        assert rep.summary["n_edgeless"] >= 1
        assert rep.summary["n_edgeless"] < 40


class TestDeterminism:
    def test_rerun_byte_identical(self):
        cfg = ExperimentConfig(kind="mrf-check", seed=5, trials=8)
        a, b = run(cfg), run(cfg)
        assert rows_to_csv(a.header, a.rows) == rows_to_csv(b.header, b.rows)
        assert summary_to_json(a.summary) == summary_to_json(b.summary)

    @pytest.fixture
    def pools(self, monkeypatch):
        """Stands in for the process pool, running each batch in this
        process; holds the (max_workers, batch sizes) of each pool made."""
        made = []

        class InlinePool:
            def __init__(self, max_workers):
                self.record = (max_workers, [])
                made.append(self.record)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize):
                self.record[1].extend(len(batch) for batch in iterables[2])
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        return made

    def test_at_most_one_process_per_unit(self, pools, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 8)
        config = ExperimentConfig(kind="mrf-check", seed=5, trials=2, workers=3)
        run(config)
        run(replace(config, trials=1))  # one unit runs in this process
        assert pools == [(2, [1, 1])]

    def test_at_most_one_process_per_usable_cpu(self, pools, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
        config = ExperimentConfig(kind="plan-benchmark", seed=4, trials=40, workers=10**6)
        capped = run(config)
        assert pools == [(3, [14, 14, 12])]
        serial = run(replace(config, workers=1))
        assert rows_to_csv(capped.header, capped.rows) == rows_to_csv(serial.header, serial.rows)
        assert summary_to_json(capped.summary) == summary_to_json(serial.summary)

    def test_usable_cpus(self):
        assert 1 <= harness._usable_cpus() <= (os.cpu_count() or 1)

    @pytest.mark.parametrize("workers", [4, 8])
    def test_worker_count_invisible(self, workers):
        base = ExperimentConfig(kind="mrf-check", seed=5, trials=8)
        seq = run(base)
        par = run(replace(base, workers=workers))
        assert rows_to_csv(seq.header, seq.rows) == rows_to_csv(par.header, par.rows)
        assert summary_to_json(seq.summary) == summary_to_json(par.summary)


class TestBatching:
    @pytest.fixture
    def passes(self, monkeypatch):
        """The (entropy shape, output words) of every noise draw pass: a
        draw pass asks for 8 words per predicate, a trial-seed pass for 2
        per unit, which is not counted."""
        seen = []
        seed_words = scene_module._seed_words

        def counted(entropy, n_words):
            if n_words != 2:
                seen.append((entropy.shape, n_words))
            return seed_words(entropy, n_words)

        monkeypatch.setattr(scene_module, "_seed_words", counted)
        scene_module._worlds.clear()
        return seen

    def test_one_draw_pass_per_batch(self, passes):
        # 100 units in batches of 32, 32, 32 and 4; a unit's 40 predicates are
        # drawn with its batch, and its episode's re-observations draw nothing
        run(ExperimentConfig(kind="threshold-sweep", seed=2, trials=20, noise_flip=0.15))
        assert harness._BATCH_UNITS == 32
        assert passes == [((3, 40 * b), 8) for b in (32, 32, 32, 4)]

    def test_one_truth_pass_per_batch(self, monkeypatch):
        # 100 units in batches of 32, 32, 32 and 4: each batch generates its
        # scenes once and computes their truths in one pass, and no episode
        # computes a scene's truths again
        passes, scenes = [], []
        truth_pass, generate = scene_module._truth_pass, harness.generate_scene

        def counted_pass(batch):
            passes.append(batch)
            return truth_pass(batch)

        def counted_scene(*args):
            scenes.append(generate(*args))
            return scenes[-1]

        monkeypatch.setattr(scene_module, "_truth_pass", counted_pass)
        monkeypatch.setattr(harness, "generate_scene", counted_scene)
        perceives = _count_calls(monkeypatch, scene_module, "perceive_with_labels")
        scene_module._worlds.clear()
        run(ExperimentConfig(kind="threshold-sweep", seed=2, trials=20, noise_flip=0.15))
        assert [len(batch) for batch in passes] == [32, 32, 32, 4]
        assert [s for batch in passes for s in batch] == scenes and len(scenes) == 100
        assert len(perceives) > 100  # some episodes re-observe, and all read cached truths

    def test_default_goal_is_built_once_per_object_set(self):
        harness._restacking_goal.cache_clear()
        run(ExperimentConfig(kind="threshold-sweep", seed=2, trials=4, noise_flip=0.15))
        info = harness._restacking_goal.cache_info()
        assert (info.misses, info.hits) == (1, 19)
        scene = generate_scene(4, seed=7)
        assert default_goal(scene) is default_goal(generate_scene(4, seed=8))

    def test_both_policies_read_one_draw(self, passes):
        run(ExperimentConfig(kind="plan-benchmark", seed=2, trials=40, noise_flip=0.15))
        assert passes == [((3, 1280), 8), ((3, 320), 8)]

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(kind="threshold-sweep", seed=2, trials=20, taus=(0.5, 0.7)),
            ExperimentConfig(kind="plan-benchmark", seed=2, trials=40, noise_flip=0.15),
            ExperimentConfig(kind="calibration", seed=2, samples=2000),
        ],
        ids=lambda c: c.kind,
    )
    def test_one_channel_pass_per_batch(self, monkeypatch, config):
        # each batch forms its trials' unattended observations in one channel
        # pass, and no observation without attention runs the channel again
        events = []
        channel, run_batch = scene_module._channel, harness._run_batch
        perceive = scene_module.perceive_with_labels

        def counted_channel(cfg, truth, *rows):
            events.append(("channel", truth.shape))
            return channel(cfg, truth, *rows)

        def counted_batch(config, unit, batch):
            events.append(("batch", len(batch)))
            return run_batch(config, unit, batch)

        def counted_perceive(scene, cfg, seed, residual=None, cleared=()):
            events.append(("perceive", bool(residual or cleared)))
            try:
                return perceive(scene, cfg, seed, residual, cleared)
            finally:
                events.append(("returned", None))

        monkeypatch.setattr(scene_module, "_channel", counted_channel)
        monkeypatch.setattr(harness, "_run_batch", counted_batch)
        for module in (scene_module, harness):
            monkeypatch.setattr(module, "perceive_with_labels", counted_perceive)
        scene_module._worlds.clear()
        run(config)

        n = 40  # the candidate predicates of 4 objects
        batches, attended, unattended = [], 0, 0
        inside = None  # whether the open perceive call has attention
        for kind, value in events:
            if kind == "batch":
                batches.append([value, 0])
            elif kind == "perceive":
                inside = value
                attended += value
                unattended += not value
            elif kind == "returned":
                inside = None
            elif inside is None:  # a batch's own pass, before any unit runs
                assert value == (batches[-1][0], n)
                batches[-1][1] += 1
            else:
                assert inside and value == (n,)
        assert [size for size, _ in batches] in ([32, 8], [32, 18])
        assert all(count == 1 for _, count in batches)
        assert unattended >= sum(size for size, _ in batches)  # every unit's round 0
        assert attended > 0 or config.kind == "calibration"

    def test_mrf_check_draws_nothing(self, passes):
        run(ExperimentConfig(kind="mrf-check", seed=2, trials=3))
        assert passes == []

    @pytest.fixture
    def traffic(self, monkeypatch):
        """The scene seeds of every truth pass, the keys of every draw pass,
        and the (scene seed, perception seed) pairs of every batch, in order."""
        truths, passes, batches = [], [], []
        truth_pass, draw_pass = scene_module._truth_pass, scene_module._draw_pass
        run_batch = harness._run_batch

        def counted_truths(scenes):
            truths.append([scene.seed for scene in scenes])
            return truth_pass(scenes)

        def counted_pass(keys):
            passes.append(list(keys))
            return draw_pass(keys)

        def counted_batch(config, unit, batch):
            batches.append(_trial_seeds(config.seed, batch))
            return run_batch(config, unit, batch)

        monkeypatch.setattr(scene_module, "_truth_pass", counted_truths)
        monkeypatch.setattr(scene_module, "_draw_pass", counted_pass)
        monkeypatch.setattr(harness, "_run_batch", counted_batch)
        scene_module._worlds.clear()
        return truths, passes, batches

    @pytest.mark.parametrize("seed", [2, 2**64 + 3])
    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(kind="calibration", samples=2000),
            ExperimentConfig(kind="alpha-fit", trials=40, steps=2),
            ExperimentConfig(kind="convergence", trials=40),
            ExperimentConfig(kind="threshold-sweep", trials=20, taus=(0.5, 0.7)),
            ExperimentConfig(kind="plan-benchmark", trials=40, noise_flip=0.15),
        ],
        ids=lambda c: c.kind,
    )
    def test_every_pass_is_one_batch(self, traffic, config, seed):
        # 50 scenes, or 40 units: batches of 32 and of the rest, each one
        # truth pass and one draw pass, and no episode computes again
        truths, passes, batches = traffic
        run(replace(config, seed=seed))
        n = 40  # the candidate predicates of 4 objects
        assert [len(b) for b in batches] in ([32, 18], [32, 8])
        assert truths == [[s for s, _ in batch] for batch in batches]
        assert passes == [[(p, s, n) for s, p in batch] for batch in batches]
        for keys in passes:
            assert {k for _, _, k in keys} == {n}
            assert all(max(p, s) < 2**32 for p, s, _ in keys)  # one 32-bit word each


class TestExport:
    def test_csv_files(self, tmp_path):
        rep = run(ExperimentConfig(kind="mrf-check", seed=1, trials=3))
        paths = export(rep, tmp_path, "csv")
        assert [p.name for p in paths] == ["mrf-check_rows.csv", "mrf-check_summary.json"]
        text = paths[0].read_text()
        assert text.splitlines()[0] == "trial,n_nodes,n_edges,converged,max_marginal_dev,u_dep,u_indep"
        assert len(text.splitlines()) == 4
        doc = json.loads(paths[1].read_text())
        assert doc["n_trials"] == 3

    def test_json_format(self, tmp_path):
        rep = run(ExperimentConfig(kind="mrf-check", seed=1, trials=3))
        paths = export(rep, tmp_path, "json")
        assert [p.name for p in paths] == ["mrf-check.json"]
        doc = json.loads(paths[0].read_text())
        assert doc["kind"] == "mrf-check"
        assert doc["header"] == list(rep.header)
        assert len(doc["rows"]) == 3

    def test_empty_report_header_only(self, tmp_path):
        rep = ExperimentReport("threshold-sweep", ("tau", "success_rate", "mean_time_ms", "trials"), [], {})
        paths = export(rep, tmp_path, "csv")
        assert paths[0].read_text() == "tau,success_rate,mean_time_ms,trials\n"

    def test_rewrite_byte_identical(self, tmp_path):
        rep = run(ExperimentConfig(kind="convergence", seed=3, trials=3, n_objects=3))
        a = export(rep, tmp_path / "a", "csv")
        b = export(rep, tmp_path / "b", "csv")
        assert a[0].read_bytes() == b[0].read_bytes()
        assert a[1].read_bytes() == b[1].read_bytes()

    def test_nine_significant_digits(self):
        text = rows_to_csv(("x",), [(0.123456789123456789,)])
        assert text == "x\n0.123456789\n"

    def test_bad_format(self, tmp_path):
        rep = ExperimentReport("mrf-check", ("a",), [], {})
        with pytest.raises(ValueError):
            export(rep, tmp_path, "yaml")


class TestSceneFiles:
    def test_gen_and_reload(self, tmp_path):
        paths = generate_scene_files(3, 4, 0.4, 17, tmp_path)
        assert len(paths) == 3
        for k, p in enumerate(paths):
            scene = generate_scene(4, 0.4, _reference_trial_seeds(17, 0, k)[0])
            assert len(scene.objects) == 4
            assert p.read_text() == scene_to_json(scene) + "\n"

    def test_count_validation(self, tmp_path):
        with pytest.raises(ValueError):
            generate_scene_files(0, 4, 0.4, 17, tmp_path)


class TestCli:
    @pytest.mark.parametrize("command", sorted(cli._SUBCOMMAND_KINDS))
    def test_flags_mirror_the_config(self, command):
        # a config field without a flag would silently keep its default
        dests = set(vars(cli.build_parser().parse_args([command]))) - {"command"}
        config_fields = {f.name for f in fields(ExperimentConfig)} - {"kind"}
        assert dests == config_fields | {"out_dir", "format", "config"}

    def test_mrf_check_prints_summary(self, capsys, tmp_path):
        rc = main(["mrf-check", "--trials", "4", "--seed", "2", "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        summary = json.loads(out)
        assert summary["n_trials"] == 4
        assert (tmp_path / "mrf-check_rows.csv").exists()
        assert (tmp_path / "mrf-check_summary.json").exists()

    def test_json_format_flag(self, capsys, tmp_path):
        rc = main(["verify-convergence", "--trials", "2", "--objects", "3",
                   "--out-dir", str(tmp_path), "--format", "json"])
        assert rc == 0
        assert (tmp_path / "convergence.json").exists()

    def test_config_file_with_cli_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 9, "n_objects": 3}))
        rc = main(["verify-convergence", "--config", str(cfg), "--trials", "2"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_trials"] == 2  # flag beats file

    def test_bad_config_field(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"wrong": 1}))
        rc = main(["mrf-check", "--config", str(cfg)])
        assert rc == 2
        assert "wrong" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            {"taus": 0.5}, {"trials": "5"}, {"n_objects": 4.5}, {"refine": "no"}, {"seed": True},
            {"taus": []},
        ],
    )
    def test_mistyped_config_value_exits_2(self, capsys, tmp_path, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["plan", "--config", str(cfg), "--trials", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        (name,) = doc
        assert err.startswith("error:") and err.count("\n") == 1 and name in err

    def test_whole_number_in_config_file_exports_as_float(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"miscal_gamma": 1}))
        args = ["calibrate", "--samples", "50", "--trials", "2"]
        assert main([*args, "--config", str(cfg)]) == 0
        from_file = capsys.readouterr().out
        assert main([*args, "--miscal-gamma", "1"]) == 0
        assert from_file == capsys.readouterr().out
        assert '"miscal_gamma": 1.0' in from_file

    def test_too_many_objects_exits_2(self, capsys):
        rc = main(["plan", "--objects", "12", "--trials", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_objects" in err

    def test_flip_rate_out_of_range_exits_2(self, capsys):
        rc = main(["calibrate", "--noise-flip", "0.7", "--samples", "10"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "0.7" in err

    @pytest.mark.parametrize(
        "flag,name",
        [("--noise-sd", "logit_noise_sd"), ("--miscal-gamma", "miscal_gamma")],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_exits_2(self, capsys, flag, name, value):
        rc = main(["plan", "--trials", "1", flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and name in err

    def test_gen_scenes_bad_object_count_exits_2(self, capsys, tmp_path):
        rc = main(["gen-scenes", "--objects", "12", "--out-dir", str(tmp_path / "scenes")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "flags,name", [(["--objects", "11"], "n_objects"), (["--seed", "-1"], "seed")]
    )
    def test_gen_scenes_bad_input_creates_no_directory(self, capsys, tmp_path, flags, name):
        out = tmp_path / "scenes"
        rc = main(["gen-scenes", *flags, "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert not out.exists()

    def test_out_dir_naming_a_file_exits_2_before_any_trial(self, capsys, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run", ran.append)
        out = tmp_path / "taken"
        out.write_text("")
        rc = main(["calibrate", "--samples", "50", "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and str(out) in err
        assert ran == [] and out.read_text() == ""

    def test_out_dir_whose_rows_file_is_a_directory_exits_2(self, capsys, tmp_path):
        (tmp_path / "plan-benchmark_rows.csv").mkdir()
        rc = main(["plan", "--trials", "1", "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "plan-benchmark_rows.csv" in err

    def test_fit_alpha_without_noise_reports_fit_error(self, capsys, tmp_path):
        # a noiseless channel gives all-zero traces, which no decay rate fits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["fit-alpha", "--noise-flip", "0", "--noise-sd", "0", "--trials", "3",
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        out, err = capsys.readouterr()
        summary = json.loads(out)
        assert all(line.startswith("wrote ") for line in err.splitlines())
        assert "fit_error" in summary and "alpha_hat" not in summary
        assert summary["n_dropped"] == 3 * 5  # every value of every trace
        assert summary["checks"] == {"alpha_within_band": False, "r_squared_ok": False}
        assert summary["n_episodes"] == 3
        rows = (tmp_path / "alpha-fit_rows.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 * 5 and all(r.split(",")[2] == "0" for r in rows[1:])

    @pytest.mark.parametrize(
        "args",
        [
            ["calibrate", "--samples", "200", "--miscal-gamma", "2000"],
            ["plan", "--trials", "3", "--miscal-gamma", "2000"],
            ["fit-alpha", "--trials", "1", "--steps", "400", "--alpha", "0.9"],
        ],
    )
    def test_extreme_sharpening_and_saturated_attention_run(self, capsys, args):
        assert main(args) == 0
        assert isinstance(json.loads(capsys.readouterr().out), dict)

    def test_gen_scenes(self, capsys, tmp_path):
        rc = main(["gen-scenes", "--trials", "2", "--objects", "3",
                   "--seed", "4", "--out-dir", str(tmp_path / "scenes")])
        assert rc == 0
        files = sorted((tmp_path / "scenes").iterdir())
        assert len(files) == 2
        for k, f in enumerate(files):
            scene = generate_scene(3, 0.4, _reference_trial_seeds(4, 0, k)[0])
            assert f.read_text() == scene_to_json(scene) + "\n"

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unsorted_taus_exit_2(self, capsys):
        rc = main(["sweep-threshold", "--trials", "2", "--taus", "0.9", "0.5", "0.7"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "strictly increasing" in err
        assert err.count("\n") == 1

    def test_alpha_that_shrinks_nothing_exits_2(self, capsys):
        rc = main(["verify-convergence", "--alpha", "1e-17", "--trials", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha must") and err.count("\n") == 1

    def test_convergence_that_cannot_finish_exits_2(self, capsys):
        rc = main(["verify-convergence", "--alpha", "1e-16", "--trials", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha must") and err.count("\n") == 1

    def test_sweep_cli_taus(self, capsys):
        rc = main(["sweep-threshold", "--trials", "2", "--taus", "0.6", "0.8",
                   "--seed", "3"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["tau_grid"] == [0.6, 0.8]
