"""Tests for the experiment harness and its CLI."""

import json
import math
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from beliefplan import cli, harness
from beliefplan.cli import main
from beliefplan.core import ProbabilisticState, fuse_observation, predicate_uncertainty
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
from beliefplan.scene import apply_info_action, generate_scene, scene_to_json


def _reference_trial_seeds(config_seed, setting_idx, trial_idx):
    """One SeedSequence per trial, as the harness seeds trials."""
    ss = np.random.SeedSequence([config_seed, setting_idx, trial_idx])
    scene_seed, perception_seed = ss.generate_state(2, np.uint32)
    return int(scene_seed), int(perception_seed)


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


def _reference_attention_rounds(config, seeds):
    """The decay kinds' beliefs as first defined: each round looks at every
    object once, then re-perceives in exact-reduction mode and fuses.

    Exact-reduction perception ignores the attention residual in the flip
    rate and logit noise and scales each emitted uncertainty by it instead,
    keeping the confidence on its side of 0.5; a residual of 1 leaves the
    confidence as it is.  One generator per predicate, as perception had.
    """
    scene, seed = harness._trial_scene(config, seeds)
    cfg = config.noise()
    index, truth, occluded = scene_module._scene_facts(scene)
    draws = []
    for k in range(len(index.preds)):
        rng = np.random.default_rng([seed, scene.seed, k])
        draws.append(float(rng.standard_normal()))

    def observe(cfg):
        conf = {}
        for pred, t, g in zip(index.preds, truth.tolist(), draws):
            residual = min(dict(cfg.focus).get(a, 1.0) for a in pred.args)
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

    belief = observe(cfg)
    while True:
        yield belief
        for obj in scene.object_ids():
            cfg = apply_info_action(cfg, "look_closer", obj)
        belief = fuse_observation(belief, observe(cfg))


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
        monkeypatch.setattr(harness, "_attention_rounds", _reference_attention_rounds)
        want = run(config)
        assert rows_to_csv(got.header, got.rows) == rows_to_csv(want.header, want.rows)
        assert summary_to_json(got.summary) == summary_to_json(want.summary)

    @pytest.mark.parametrize("unit", [harness._alpha_unit, harness._convergence_unit])
    def test_a_decay_unit_perceives_once(self, monkeypatch, unit):
        calls = []
        perceive = scene_module.perceive_with_labels

        def counted(*args):
            calls.append(args)
            return perceive(*args)

        for name, module in list(sys.modules.items()):  # every binding of the function
            if name.split(".")[0] == "beliefplan" and vars(module).get(
                "perceive_with_labels"
            ) is perceive:
                monkeypatch.setattr(module, "perceive_with_labels", counted)
        config = ExperimentConfig(kind="alpha-fit", trials=1, steps=6, tau_plan=0.99)
        unit(config, 0, 0, _trial_seeds(config.seed, [(0, 0)])[0])
        assert len(calls) == 1


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

    def test_at_most_one_process_per_unit(self, monkeypatch):
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        config = ExperimentConfig(kind="mrf-check", seed=5, trials=2, workers=3)
        run(config)
        run(replace(config, trials=1))  # one unit runs in this process
        assert sizes == [2]

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
        """The (entropy shape, output words) of every noise draw pass."""
        seen = []
        seed_words = scene_module._seed_words

        def counted(entropy, n_words):
            seen.append((entropy.shape, n_words))
            return seed_words(entropy, n_words)

        monkeypatch.setattr(scene_module, "_seed_words", counted)
        scene_module._draws.clear()
        return seen

    def test_one_draw_pass_per_batch(self, passes):
        # 100 units in batches of 32, 32, 32 and 4; a unit's 40 predicates are
        # drawn with its batch, and its episode's re-observations draw nothing
        run(ExperimentConfig(kind="threshold-sweep", seed=2, trials=20, noise_flip=0.15))
        assert harness._BATCH_UNITS == 32
        assert passes == [((3, 40 * b), 8) for b in (32, 32, 32, 4)]

    def test_both_policies_read_one_draw(self, passes):
        run(ExperimentConfig(kind="plan-benchmark", seed=2, trials=40, noise_flip=0.15))
        assert passes == [((3, 1280), 8), ((3, 320), 8)]

    def test_mrf_check_draws_nothing(self, passes):
        run(ExperimentConfig(kind="mrf-check", seed=2, trials=3))
        assert passes == []

    @pytest.fixture
    def traffic(self, monkeypatch):
        """The keys of every draw pass, and the (scene seed, perception seed)
        pairs of every batch, in order."""
        passes, batches = [], []
        draw_pass, run_batch = scene_module._draw_pass, harness._run_batch

        def counted_pass(keys):
            passes.append(list(keys))
            return draw_pass(keys)

        def counted_batch(config, unit, batch):
            batches.append(_trial_seeds(config.seed, batch))
            return run_batch(config, unit, batch)

        monkeypatch.setattr(scene_module, "_draw_pass", counted_pass)
        monkeypatch.setattr(harness, "_run_batch", counted_batch)
        scene_module._draws.clear()
        return passes, batches

    @pytest.mark.parametrize("seed", [2, 2**64 + 3])
    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(kind="calibration", samples=2000),
            ExperimentConfig(kind="alpha-fit", trials=40, steps=2),
            ExperimentConfig(kind="convergence", trials=40),
        ],
        ids=lambda c: c.kind,
    )
    def test_every_draw_pass_is_one_batch(self, traffic, config, seed):
        # 50 scenes, or 40 trials: batches of 32 and of the rest
        passes, batches = traffic
        run(replace(config, seed=seed))
        n = 40  # the candidate predicates of 4 objects
        assert [len(b) for b in batches] in ([32, 18], [32, 8])
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

    def test_sweep_cli_taus(self, capsys):
        rc = main(["sweep-threshold", "--trials", "2", "--taus", "0.6", "0.8",
                   "--seed", "3"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["tau_grid"] == [0.6, 0.8]
