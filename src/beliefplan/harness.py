"""Reproducible experiment harness.

Every experiment kind maps a config to per-trial rows plus a summary
block.  Trial randomness derives from hashing (experiment seed, setting
index, trial index) into independent seed sequences, so results are
byte-identical across re-runs, worker counts and batch sizes.  Trials run
in batches, each one task of the process pool when there are workers, and
are assembled in index order.  For the kinds that perceive, a batch
generates its trials' scenes once and hands each trial its (scene,
perception seed); before any trial runs, one ``scene.prefetch_trials``
request under the config's noise forms every trial's world, round-0
observation included, as one row of each of its passes.  Every later
lookup is under the same noise and finds its trial held; only
observations under attention run the channel again, on their own row.
Ground truth is the simulator's work, not the robot's, so none of it is
done inside an episode.  The default goal is built once per object set.

All exported timings are modeled from the fixed per-operation costs in
``MODELED_COST_MS`` rather than measured, keeping output files
deterministic; a planning episode's time follows from the counts it
carries (rounds, info actions, A* expansions, plan length).
``tests/test_golden.py`` pins the digests of one small config per kind, so
an output change between commits fails a test too.

The decay kinds (alpha-fit, convergence) perceive the trial's scene once
and shrink that observation's uncertainties round by round by the decay
law; convergence follows only the residual and the most uncertain
predicate on each side of 0.5; the planning kinds (threshold-sweep,
plan-benchmark) run every episode through one runner on the trial's scene.
"""

from __future__ import annotations

import functools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from beliefplan.calibration import reliability_report
from beliefplan.core import (
    GroundPredicate,
    Relation,
    classify,
    next_residual,
    predicate_uncertainties,
    shrink_uncertainty,
    state_uncertainty_independent,
)
from beliefplan.mrf import (
    PredicateMrf,
    conditional_uncertainty,
    correlation_edge,
    entropy,
    enumerate_beliefs,
    loopy_bp,
    unary_potentials,
)
from beliefplan.planner import (
    LOOK_CLOSER,
    Goal,
    PlannerOptions,
    convergence_bound,
    plan_under_uncertainty,
)
from beliefplan.scene import (
    NoiseConfig,
    PlanningEnvironment,
    check_scene_shape,
    generate_scene,
    perceive_with_labels,
    predicate_count,
    prefetch_trials,
    scene_to_json,
    seed_sequence_words,
)
from beliefplan.threshold import (
    REFERENCE_OPERATING_TAU,
    AlphaFitError,
    FitError,
    fit_alpha_pooled,
    fit_success,
    fit_time,
    lambert_optimum,
    optimize_threshold,
    plateau_relative_change,
)

BP_DEVIATION_TOL = 0.05
ECE_TOL = 0.02  # a calibration stream within it counts as calibrated
# A convergence trial walks up to its bound + 2 rounds, about 0.5 µs each,
# and the bound peaks at u0 = 1; a config whose peak bound passes this cap
# (about 5 s a trial) is rejected rather than left to run for days.
MAX_CONVERGENCE_ROUNDS = 10**7

# Modeled per-operation costs in milliseconds.  Every exported
# ``modeled_time_ms`` is computed from this one table instead of measured,
# so output files stay byte-identical across machines and runs.
MODELED_COST_MS = {
    "episode": 2.0,  # fixed cost of a planning episode or a decay trace
    "observe": 1.5,  # one observation
    "info_action": 4.0,  # one information-gathering action
    "expansion": 0.02,  # one A* expansion
    "plan_step": 0.5,  # one action of the executed plan
    "calibration_run": 1.0,  # fixed cost of a calibration run
    "calibration_sample": 0.01,  # one scored (confidence, label) pair
    "mrf_graph": 1.0,  # fixed cost of one mrf-check graph
    "mrf_node": 0.5,  # one node of that graph
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int = 0
    trials: int = 20
    samples: int = 10_000  # calibration stream length
    steps: int = 4  # observation rounds per decay episode
    tau_plan: float = 0.7
    alpha: float = 0.3
    noise_flip: float = 0.1
    noise_sd: float = 0.8
    miscal_gamma: float = 1.0
    n_objects: int = 4
    stack_bias: float = 0.4
    max_retries: int = 3
    taus: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9)
    refine: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.kind not in _DRIVERS:
            raise ValueError(f"kind must be one of {tuple(_DRIVERS)}, got {self.kind!r}")
        # each value has its field's type, and a whole number given for a
        # float field exports as a float, wherever it came from
        for f in fields(self):
            value = getattr(self, f.name)
            if not _type_ok(value, f.type):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
            if f.type == "float":
                object.__setattr__(self, f.name, float(value))
            elif f.type == "tuple[float, ...]":
                object.__setattr__(self, f.name, tuple(float(v) for v in value))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("trials", "samples", "steps", "max_retries", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not (0.0 < self.tau_plan < 1.0):
            raise ValueError(f"tau_plan must lie in (0, 1), got {self.tau_plan}")
        if not (0.0 < self.alpha < 1.0) or 1.0 - self.alpha == 1.0:  # that alpha shrinks nothing
            raise ValueError(f"alpha must lie in (0, 1) with 1 - alpha < 1, got {self.alpha}")
        if self.kind == "convergence":
            k = convergence_bound(self.tau_plan, self.alpha, 1.0)
            if k > MAX_CONVERGENCE_ROUNDS:
                raise ValueError(
                    f"alpha must bring convergence at tau_plan {self.tau_plan} within "
                    f"{MAX_CONVERGENCE_ROUNDS} rounds (the bound at u0 = 1 is {k}), "
                    f"got {self.alpha}"
                )
        if not self.taus:
            raise ValueError("taus must name at least one threshold")
        if any(a >= b for a, b in zip(self.taus, self.taus[1:])):
            raise ValueError(f"taus must be strictly increasing, got {list(self.taus)}")
        for t in self.taus:
            if not (0.0 < t < 1.0):
                raise ValueError(f"sweep threshold must lie in (0, 1), got {t}")
        check_scene_shape(self.n_objects, self.stack_bias)
        self.noise()  # NoiseConfig checks noise_flip, noise_sd and miscal_gamma

    def noise(self) -> NoiseConfig:
        return NoiseConfig(
            base_flip_rate=self.noise_flip,
            logit_noise_sd=self.noise_sd,
            miscal_gamma=self.miscal_gamma,
            gain=self.alpha,
        )


def _type_ok(value, type_name: str) -> bool:
    """Whether a value has the type an ``ExperimentConfig`` field declares;
    ``taus`` may be a list (as JSON loads it) or a tuple of numbers."""
    if type_name == "tuple[float, ...]":
        return isinstance(value, (list, tuple)) and all(_type_ok(v, "float") for v in value)
    if isinstance(value, bool):  # True / False are a subclass of int
        return type_name == "bool"
    return isinstance(value, {"int": int, "float": (int, float), "str": str}.get(type_name, ()))


def config_from_file(path: str | Path) -> dict:
    """Load config overrides from a JSON file of field: value pairs.

    Each value must have its field's JSON type (a whole number for an int
    field, any number for a float, true or false for a bool, a list of
    numbers for ``taus``); ranges are checked by ``ExperimentConfig``.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    unknown = set(doc) - set(types)
    if unknown:
        raise ValueError(f"unknown config fields in {path}: {sorted(unknown)}")
    for name, value in sorted(doc.items()):
        if not _type_ok(value, types[name]):
            raise ValueError(
                f"config field {name} in {path} must be {types[name]}, got {json.dumps(value)}"
            )
    if "taus" in doc:
        doc["taus"] = tuple(doc["taus"])
    return doc


@dataclass
class ExperimentReport:
    kind: str
    header: tuple[str, ...]
    rows: list[tuple]
    summary: dict


# ---------------------------------------------------------------------------
# statistics


def wilson_ci(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if not (0 <= successes <= trials):
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    if z <= 0:
        raise ValueError(f"z must be positive, got {z}")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = p + z2 / (2.0 * trials)
    margin = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    # at p in {0, 1} the margin equals the slack exactly; clamp the sqrt rounding
    return (max(0.0, (center - margin) / denom), min(1.0, (center + margin) / denom))


def unimodal_rise_fall(values: Sequence[float]) -> bool:
    """True when the sequence rises to an interior peak then falls away.

    Plateaus, up to a rounding tolerance of 1e-9, are tolerated; monotone
    sequences are not rise-then-fall.
    """
    tol = 1e-9
    vals = [float(v) for v in values]
    if len(vals) < 3:
        return False
    peak = max(range(len(vals)), key=lambda i: vals[i])
    rise = all(vals[i + 1] >= vals[i] - tol for i in range(peak))
    fall = all(vals[i + 1] <= vals[i] + tol for i in range(peak, len(vals) - 1))
    shaped = vals[peak] > vals[0] + tol and vals[peak] > vals[-1] + tol
    return rise and fall and shaped


def cohens_d(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Effect size with pooled sample (n-1) standard deviation."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2 or len(ys) < 2:
        raise ValueError("both samples need at least 2 values")
    # two constant samples have no spread, though a float mean one ulp off
    # can give a variance of 1e-30 and so a huge d
    if xs.max() == xs.min() and ys.max() == ys.min():
        raise ValueError("both samples are constant; effect size undefined")
    var_x = float(np.var(xs, ddof=1))
    var_y = float(np.var(ys, ddof=1))
    pooled = math.sqrt(
        ((len(xs) - 1) * var_x + (len(ys) - 1) * var_y) / (len(xs) + len(ys) - 2)
    )
    return (float(xs.mean()) - float(ys.mean())) / pooled


# ---------------------------------------------------------------------------
# per-trial seeding and episodes


def _trial_seeds(config_seed: int, units: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The (scene seed, perception seed) of each (setting, trial) index pair:
    the first two 32-bit words of ``SeedSequence([config_seed, setting,
    trial])``, all from one :func:`seed_sequence_words` pass."""
    words = seed_sequence_words([(config_seed, s, t) for s, t in units], 2)
    return [tuple(pair) for pair in words.tolist()]


def default_goal(scene) -> Goal:
    """Deterministic three-object restacking goal for benchmark episodes,
    built once per object set."""
    return _restacking_goal(scene.object_ids())


@functools.lru_cache(maxsize=64)
def _restacking_goal(ids: tuple[str, ...]) -> Goal:
    """On(a, b) and On(b, c) for the first three of sorted object ids."""
    a, b, c = ids[:3]
    on = Relation.ON
    return Goal(frozenset({GroundPredicate(on, (a, b)), GroundPredicate(on, (b, c))}))


def _first_observation(config: ExperimentConfig, trial: tuple):
    """A trial's one observation of its scene and its label stream."""
    scene, perception_seed = trial
    return perceive_with_labels(scene, config.noise(), perception_seed)


def modeled_episode_ms(
    observes: int, infos: int, expansions: int = 0, plan_length: int = 0
) -> float:
    """Modeled time of an episode or decay trace, from ``MODELED_COST_MS``."""
    cost = MODELED_COST_MS
    return (
        cost["episode"]
        + cost["observe"] * observes
        + cost["info_action"] * infos
        + cost["expansion"] * expansions
        + cost["plan_step"] * plan_length
    )


def _episode(config: ExperimentConfig, scene, perception_seed: int, tau_plan: float,
             info_enabled: bool = True, first_belief=None):
    """One closed-loop planning episode towards the default goal, and its
    modeled time: one observation per round.  ``first_belief`` is an
    earlier episode's round-0 belief on this scene and seed, if any."""
    env = PlanningEnvironment(scene, config.noise(), perception_seed)
    episode = plan_under_uncertainty(
        env,
        default_goal(scene),
        tau_plan=tau_plan,
        max_retries=config.max_retries,
        options=PlannerOptions(refine_with_mrf=config.refine, info_enabled=info_enabled),
        first_belief=first_belief,
    )
    modeled = modeled_episode_ms(
        len(episode.iterations), episode.info_action_count, episode.expansions,
        len(episode.plan) if episode.plan else 0,
    )
    return episode, modeled


# ---------------------------------------------------------------------------
# experiment units (module-level for process pools)

# Units run in batches of at most this many.  A batch generates its scenes
# once, and one ``prefetch_trials`` request under the config's noise forms
# its trials' worlds, which the scene module holds, whatever the batch's
# size, until a request that is not all held under its noise.
_BATCH_UNITS = 32


def _calibration_unit(config: ExperimentConfig, setting_idx: int, trial_idx: int, trial):
    state, labels = _first_observation(config, trial)
    return list(zip(state.confidences.tolist(), labels.tolist()))


def _alpha_unit(config: ExperimentConfig, setting_idx: int, trial_idx: int, trial):
    # round k: the first observation with every uncertainty scaled by the
    # residual r_k of k full-attention rounds, each a look at every object
    first, _ = _first_observation(config, trial)
    trace, r = [], 1.0
    for _ in range(config.steps + 1):
        trace.append(state_uncertainty_independent(shrink_uncertainty(first, r)))
        r = next_residual(r, config.alpha)
    return trace, modeled_episode_ms(config.steps + 1, config.steps * config.n_objects)


def _convergence_unit(config: ExperimentConfig, setting_idx: int, trial_idx: int, trial):
    first, _ = _first_observation(config, trial)
    u0 = state_uncertainty_independent(first)
    k_bound = convergence_bound(config.tau_plan, config.alpha, u0)
    # round k > 0 scales every uncertainty by r_k, and rounded products fall with r:
    # it is certain iff classify's test holds for the most uncertain on each side of 0.5
    p, tau = first.confidences, config.tau_plan
    u = predicate_uncertainties(p)
    u_true, u_false = (float(u[side].max(initial=0.0)) for side in (p >= 0.5, p < 0.5))
    uncertain, k_emp, r = classify(first, tau).uncertain.any(), 0, 1.0
    while uncertain and k_emp < k_bound + 2:
        r = next_residual(r, config.alpha)
        k_emp += 1
        t, f = 1.0 - u_true * r, u_false * r
        uncertain = not ((t > tau or t + tau < 1.0) and (f > tau or f + tau < 1.0))
    return u0, k_emp, k_bound, modeled_episode_ms(k_emp + 1, k_emp * config.n_objects)


def _sweep_unit(config: ExperimentConfig, setting_idx: int, trial_idx: int, trial):
    scene, perception_seed = trial
    episode, modeled = _episode(config, scene, perception_seed, config.taus[setting_idx])
    return int(episode.success), modeled


def _benchmark_unit(config: ExperimentConfig, setting_idx: int, trial_idx: int, trial):
    scene, perception_seed = trial
    # info_on runs first and forms round 0's belief inside its own episode,
    # whose time the bench measures; info_off, the untimed ablation, would
    # observe and refine exactly that belief again, so it starts from it
    out, first = [], None
    for policy, info_enabled in (("info_on", True), ("info_off", False)):
        episode, modeled = _episode(
            config, scene, perception_seed, config.tau_plan, info_enabled, first
        )
        first = episode.first_belief
        out.append(
            (
                policy,
                int(episode.success),
                episode.info_action_count,
                len(episode.plan) if episode.plan is not None else -1,
                len(episode.iterations),
                modeled,
            )
        )
    return out


def _mrf_unit(config: ExperimentConfig, setting_idx: int, trial_idx: int, seeds):
    scene_seed, _ = seeds
    rng = np.random.default_rng([scene_seed, trial_idx])
    n = int(rng.integers(2, 11))
    preds = tuple(GroundPredicate(Relation.CLEAR, (f"n{k:02d}",)) for k in range(n))
    confs = rng.uniform(0.05, 0.95, size=n)
    unary = np.array([unary_potentials(float(p)) for p in confs])
    edges = []
    if rng.uniform() >= 0.15:  # keep some graphs edgeless for the equality case
        order = rng.permutation(n)
        pairs = set()
        for idx in range(1, n):
            a, b = int(order[idx]), int(order[int(rng.integers(idx))])
            pairs.add((min(a, b), max(a, b)))
        for _ in range(int(rng.integers(0, n // 2 + 1))):  # chords close cycles
            a, b = rng.choice(n, size=2, replace=False)
            pairs.add((int(min(a, b)), int(max(a, b))))
        for i, j in sorted(pairs):
            rho = float(rng.uniform(0.1, 0.7)) * (1 if rng.uniform() < 0.5 else -1)
            edges.append(correlation_edge(i, j, rho))
    mrf = PredicateMrf(preds, unary, tuple(edges))
    exact = enumerate_beliefs(mrf)
    bp = loopy_bp(mrf)
    max_dev = float(np.max(np.abs(bp.node_marginals - exact.node_marginals)))
    u_dep = conditional_uncertainty(mrf)
    # baseline uses the joint's own marginals so edgeless graphs land on
    # exact equality (conditioning on nothing changes nothing)
    u_indep = sum(entropy(pair) for pair in exact.node_marginals)
    return n, len(edges), int(bp.converged), max_dev, u_dep, u_indep


def _run_batch(config: ExperimentConfig, unit, batch: list[tuple[int, int]]) -> list:
    """``unit(config, s, t, trial)`` for each (setting, trial) index pair of
    a batch, in order.  An mrf-check trial is its (scene seed, perception
    seed).  For the kinds that perceive, a trial is its generated scene and
    perception seed: the batch generates its scenes once, and one
    :func:`prefetch_trials` request under the config's noise, made before
    any unit runs, forms every trial's world with its round-0 observation,
    which every lookup the units make, under that noise, finds held."""
    trials = _trial_seeds(config.seed, batch)
    if config.kind != "mrf-check":
        trials = [
            (generate_scene(config.n_objects, config.stack_bias, scene_seed), seed)
            for scene_seed, seed in trials
        ]
        prefetch_trials(trials, config.noise())
    return [unit(config, s, t, trial) for (s, t), trial in zip(batch, trials)]


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _map_units(config: ExperimentConfig, unit, units: list[tuple]) -> list:
    """``unit(config, s, t, trial)`` for each (setting, trial) index pair, in
    order, run in batches of at most ``_BATCH_UNITS`` (see
    :func:`_run_batch`).  With workers, capped at the usable CPUs, each batch
    is one task of the pool, and batches shrink so that every worker gets one."""
    workers = min(config.workers, _usable_cpus())
    size = min(_BATCH_UNITS, -(-len(units) // workers))
    batches = [units[i : i + size] for i in range(0, len(units), size)]
    workers = min(workers, len(batches))  # no process without a batch to run
    if workers <= 1:
        return [out for batch in batches for out in _run_batch(config, unit, batch)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        n = len(batches)
        done = pool.map(_run_batch, [config] * n, [unit] * n, batches, chunksize=1)
        return [out for outs in done for out in outs]


# ---------------------------------------------------------------------------
# experiment drivers


def _run_calibration(config: ExperimentConfig) -> ExperimentReport:
    n_scenes = math.ceil(config.samples / predicate_count(config.n_objects))
    results = _map_units(config, _calibration_unit, [(0, t) for t in range(n_scenes)])
    pairs = [pair for chunk in results for pair in chunk][: config.samples]
    rel = reliability_report([p for p, _ in pairs], [y for _, y in pairs])
    summary = {
        "n_samples": len(pairs),
        "n_scenes": n_scenes,
        "ece": rel.ece,
        "mce": rel.mce,
        "brier": rel.brier,
        "verdict": rel.ece <= ECE_TOL,
        "miscal_gamma": config.miscal_gamma,
        "modeled_time_ms": (
            MODELED_COST_MS["calibration_run"]
            + MODELED_COST_MS["calibration_sample"] * len(pairs)
        ),
        "checks": {
            "ece_within_tol": rel.ece <= ECE_TOL,
            "brier_within_tol": rel.brier <= 0.26,
        },
    }
    rows = [(float(p), int(y)) for p, y in pairs]
    return ExperimentReport("calibration", ("confidence", "label"), rows, summary)


def _run_alpha_fit(config: ExperimentConfig) -> ExperimentReport:
    results = _map_units(config, _alpha_unit, [(0, t) for t in range(config.trials)])
    traces = [trace for trace, _ in results]
    rows = [
        (episode_id, step, float(u), "observe" if step == 0 else LOOK_CLOSER)
        for episode_id, trace in enumerate(traces)
        for step, u in enumerate(trace)
    ]
    summary: dict = {
        "alpha_configured": config.alpha,
        "n_episodes": len(traces),
        "steps_per_episode": config.steps,
        "modeled_time_ms": sum(modeled for _, modeled in results),
    }
    try:
        fit = fit_alpha_pooled(traces)
    except AlphaFitError as err:  # e.g. every trace all zeros on a noiseless channel
        summary["fit_error"] = str(err)
        summary["n_dropped"] = err.n_dropped
        summary["checks"] = {"alpha_within_band": False, "r_squared_ok": False}
    else:
        summary.update(
            alpha_hat=fit.alpha_hat,
            r_squared=fit.r_squared,
            n_dropped=fit.n_dropped,
            checks={
                "alpha_within_band": abs(fit.alpha_hat - config.alpha) <= 0.05,
                "r_squared_ok": fit.r_squared >= 0.85,
            },
        )
    return ExperimentReport(
        "alpha-fit", ("episode_id", "step", "U", "action_kind"), rows, summary
    )


def _run_convergence(config: ExperimentConfig) -> ExperimentReport:
    results = _map_units(config, _convergence_unit, [(0, t) for t in range(config.trials)])
    rows = [
        (trial_idx, float(u0), int(k_emp), int(k_bound),
         100.0 * (k_bound - k_emp) / k_bound if k_bound > 0 else 0.0)
        for trial_idx, (u0, k_emp, k_bound, _) in enumerate(results)
    ]
    within = sum(k_emp <= k_bound for _, _, k_emp, k_bound, _ in rows)
    within_plus_one = sum(k_emp <= k_bound + 1 for _, _, k_emp, k_bound, _ in rows)
    summary = {
        "n_trials": len(rows),
        "alpha": config.alpha,
        "tau_plan": config.tau_plan,
        "frac_within_bound": within / len(rows),
        "frac_within_bound_plus_one": within_plus_one / len(rows),
        "mean_gap_pct": float(np.mean([r[4] for r in rows])),
        "mean_k_empirical": float(np.mean([r[2] for r in rows])),
        "mean_k_bound": float(np.mean([r[3] for r in rows])),
        "modeled_time_ms": sum(r[3] for r in results),
        "checks": {"all_within_bound_plus_one": within_plus_one == len(rows)},
    }
    return ExperimentReport(
        "convergence", ("trial", "u0", "k_empirical", "k_bound", "gap_pct"), rows, summary
    )


def _run_threshold_sweep(config: ExperimentConfig) -> ExperimentReport:
    units = [(s, t) for s in range(len(config.taus)) for t in range(config.trials)]
    results = _map_units(config, _sweep_unit, units)
    rows = []
    for setting_idx, tau in enumerate(config.taus):
        chunk = results[setting_idx * config.trials : (setting_idx + 1) * config.trials]
        successes = sum(r[0] for r in chunk)
        mean_ms = float(np.mean([r[1] for r in chunk]))
        rate = successes / len(chunk)
        rows.append((float(tau), float(rate), mean_ms, len(chunk)))
    summary: dict = {
        "n_trials_per_tau": config.trials,
        "tau_grid": list(config.taus),
        "modeled_time_ms": float(sum(r[2] * r[3] for r in rows)),
    }
    taus = [r[0] for r in rows]
    try:
        s_fit = fit_success(taus, [r[1] for r in rows])
        t_fit = fit_time(taus, [r[2] for r in rows])
        optimum = optimize_threshold(s_fit, t_fit)
        shortcut = lambert_optimum(s_fit)
        summary.update(
            {
                "success_fit": {
                    "form": s_fit.form,
                    "params": list(s_fit.params),
                    "r_squared": s_fit.r_squared,
                },
                "time_fit": {
                    "form": t_fit.form,
                    "params": list(t_fit.params),
                    "r_squared": t_fit.r_squared,
                },
                "tau_star_numeric": optimum.tau,
                "tau_star_at_endpoint": optimum.at_endpoint,
                "efficiency_at_optimum": optimum.efficiency,
                "tau_star_one_over_rate": shortcut,
                "tau_reference_nominal": REFERENCE_OPERATING_TAU,
                # three candidate operating points rarely coincide; flag it
                "reference_points_consistent": (
                    abs(optimum.tau - REFERENCE_OPERATING_TAU) <= 0.02
                    and abs(optimum.tau - shortcut) <= 0.02
                ),
                "plateau_relative_change": plateau_relative_change(s_fit),
                "checks": {
                    "unimodal_rise_fall": unimodal_rise_fall([r[1] for r in rows]),
                    "exponential_fit_ok": s_fit.r_squared >= 0.85,
                },
            }
        )
    except (FitError, ValueError) as err:
        summary["fit_error"] = str(err)
        summary["checks"] = {"unimodal_rise_fall": False, "exponential_fit_ok": False}
    return ExperimentReport(
        "threshold-sweep", ("tau", "success_rate", "mean_time_ms", "trials"), rows, summary
    )


def _run_plan_benchmark(config: ExperimentConfig) -> ExperimentReport:
    results = _map_units(config, _benchmark_unit, [(0, t) for t in range(config.trials)])
    rows = []
    on_successes = off_successes = 0
    on_times, off_times, on_infos = [], [], []
    for trial_idx, pair in enumerate(results):
        for policy, success, infos, plan_len, rounds, modeled in pair:
            rows.append((trial_idx, policy, success, infos, plan_len, rounds, modeled))
            if policy == "info_on":
                on_successes += success
                on_times.append(modeled)
                on_infos.append(infos)
            else:
                off_successes += success
                off_times.append(modeled)
    n = len(results)
    try:
        time_effect = cohens_d(on_times, off_times)
    except ValueError:  # degenerate: each policy's modeled times are constant
        time_effect = None
    summary = {
        "n_trials": n,
        "success_rate_info_on": on_successes / n,
        "success_rate_info_off": off_successes / n,
        "wilson_info_on": list(wilson_ci(on_successes, n)),
        "wilson_info_off": list(wilson_ci(off_successes, n)),
        "mean_info_actions": float(np.mean(on_infos)),
        "mean_time_ms_info_on": float(np.mean(on_times)),
        "mean_time_ms_info_off": float(np.mean(off_times)),
        "time_effect_cohens_d": time_effect,
        "modeled_time_ms": float(np.sum(on_times) + np.sum(off_times)),
        "checks": {"info_gathering_helps": on_successes > off_successes},
    }
    return ExperimentReport(
        "plan-benchmark",
        ("trial", "policy", "success", "info_actions", "plan_length", "rounds", "modeled_time_ms"),
        rows,
        summary,
    )


def _run_mrf_check(config: ExperimentConfig) -> ExperimentReport:
    results = _map_units(config, _mrf_unit, [(0, t) for t in range(config.trials)])
    rows = []
    ok = 0
    tightened = 0
    equality_matches_edges = 0
    edgeless = 0
    for trial_idx, (n, n_edges, converged, max_dev, u_dep, u_indep) in enumerate(results):
        rows.append((trial_idx, n, n_edges, converged, float(max_dev), float(u_dep), float(u_indep)))
        ok += converged and max_dev <= BP_DEVIATION_TOL
        tightened += u_dep <= u_indep + 1e-9
        equal = abs(u_dep - u_indep) <= 1e-9
        equality_matches_edges += equal == (n_edges == 0)
        edgeless += n_edges == 0
    summary = {
        "n_trials": len(rows),
        "frac_converged_within_tol": ok / len(rows),
        "deviation_tol": BP_DEVIATION_TOL,
        "frac_tightened": tightened / len(rows),
        "n_edgeless": edgeless,
        "mean_max_marginal_dev": float(np.mean([r[4] for r in rows])),
        "modeled_time_ms": sum(
            MODELED_COST_MS["mrf_graph"] + MODELED_COST_MS["mrf_node"] * r[1] for r in rows
        ),
        "checks": {
            "tightening_holds": tightened == len(rows),
            "equality_iff_edgeless": equality_matches_edges == len(rows),
        },
    }
    return ExperimentReport(
        "mrf-check",
        ("trial", "n_nodes", "n_edges", "converged", "max_marginal_dev", "u_dep", "u_indep"),
        rows,
        summary,
    )


_DRIVERS = {
    "calibration": _run_calibration,
    "alpha-fit": _run_alpha_fit,
    "convergence": _run_convergence,
    "threshold-sweep": _run_threshold_sweep,
    "plan-benchmark": _run_plan_benchmark,
    "mrf-check": _run_mrf_check,
}


def run(config: ExperimentConfig) -> ExperimentReport:
    """Execute one experiment; deterministic in the config."""
    return _DRIVERS[config.kind](config)


# ---------------------------------------------------------------------------
# export


def _fmt_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    return str(value)


def _sanitize(value):
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(format(float(value), ".9g"))
    return value


def rows_to_csv(header: Iterable[str], rows: Iterable[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def summary_to_json(summary: dict) -> str:
    return json.dumps(_sanitize(summary), indent=2, sort_keys=True) + "\n"


def export(report: ExperimentReport, out_dir: str | Path, fmt: str = "csv") -> list[Path]:
    """Write a report's rows and summary; returns the created paths."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    if fmt == "csv":
        rows_path = out / f"{report.kind}_rows.csv"
        rows_path.write_text(rows_to_csv(report.header, report.rows))
        paths.append(rows_path)
        summary_path = out / f"{report.kind}_summary.json"
        summary_path.write_text(summary_to_json(report.summary))
        paths.append(summary_path)
    else:
        doc = {
            "kind": report.kind,
            "header": list(report.header),
            "rows": [list(r) for r in report.rows],
            "summary": report.summary,
        }
        path = out / f"{report.kind}.json"
        path.write_text(json.dumps(_sanitize(doc), indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def generate_scene_files(
    count: int, n_objects: int, stack_bias: float, seed: int, out_dir: str | Path
) -> list[Path]:
    """Write a batch of seeded scene JSON files; every input is checked
    before the output directory is created."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    check_scene_shape(n_objects, stack_bias)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, (scene_seed, _) in enumerate(_trial_seeds(seed, [(0, k) for k in range(count)])):
        scene = generate_scene(n_objects, stack_bias, scene_seed)
        path = out / f"scene_{seed}_{k:04d}.json"
        path.write_text(scene_to_json(scene) + "\n")
        paths.append(path)
    return paths
