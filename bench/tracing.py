"""In-memory spans around beliefplan's public functions, and per-layer self time.

The tracer wraps functions from outside the package: every module attribute
that is bound to a traced function is replaced for the duration of a
``with install(tracer):`` block, so calls are seen wherever the caller looks
the name up (``planner`` and ``harness`` bind names with ``from ... import``).
Spans live in memory; ``layer_metrics`` turns them into the per-layer
metrics of the benchmark.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

# (span name, module, attribute path).  ``perceive`` only forwards to
# ``perceive_with_labels``, so it is left unwrapped to count each call once.
TRACED = (
    ("scene.generate", "beliefplan.scene", "generate_scene"),
    ("scene.perceive", "beliefplan.scene", "perceive_with_labels"),
    ("scene.execute", "beliefplan.scene", "PlanningEnvironment.execute"),
    ("core.fuse", "beliefplan.core", "fuse_observation"),
    ("core.classify", "beliefplan.core", "classify"),
    ("core.uncertainty", "beliefplan.core", "state_uncertainty_independent"),
    ("planner.episode", "beliefplan.planner", "plan_under_uncertainty"),
    ("planner.project", "beliefplan.planner", "world_state_from_beliefs"),
    ("mrf.build", "beliefplan.mrf", "build_mrf"),
    ("mrf.bp", "beliefplan.mrf", "loopy_bp"),
    ("mrf.refine", "beliefplan.mrf", "refined_state"),
    ("threshold.fit", "beliefplan.threshold", "fit_success"),
    ("threshold.fit", "beliefplan.threshold", "fit_time"),
    ("threshold.fit", "beliefplan.threshold", "optimize_threshold"),
    ("threshold.fit", "beliefplan.threshold", "lambert_optimum"),
    ("threshold.fit", "beliefplan.threshold", "plateau_relative_change"),
    ("threshold.fit", "beliefplan.threshold", "fit_alpha_pooled"),
    ("harness.run", "beliefplan.harness", "run"),
    ("harness.export", "beliefplan.harness", "export"),
)

# per-layer self-time metric -> span name
SELF_TIME_METRICS = {
    "scene.perceive_s": "scene.perceive",
    "scene.generate_s": "scene.generate",
    "scene.execute_s": "scene.execute",
    "core.fuse_s": "core.fuse",
    "core.classify_s": "core.classify",
    "core.uncertainty_s": "core.uncertainty",
    "planner.episode_self_s": "planner.episode",
    "planner.project_s": "planner.project",
    "mrf.bp_s": "mrf.bp",
    "mrf.build_s": "mrf.build",
    "mrf.refine_s": "mrf.refine",
    "threshold.fit_s": "threshold.fit",
    "harness.self_s": "harness.run",
    "harness.export_s": "harness.export",
}


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # index of the enclosing span in Tracer.spans


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0
        cursor = span.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo = max(kid.start, cursor)
            hi = min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """Spans and work counters of one traced run, on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._observed: set[tuple[int, int]] = set()
        self._on_return = {
            "scene.perceive": self._count_perceive,
            "planner.episode": self._count_episode,
            "mrf.bp": self._count_bp,
            "harness.export": self._count_export,
        }

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        on_return = self._on_return.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, 0, 0, stack[-1] if stack else None))
            stack.append(idx)
            spans[idx].start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx].end = time.perf_counter_ns()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _count_perceive(self, args, kwargs, result):
        scene = args[0] if args else kwargs["scene"]
        seed = args[2] if len(args) > 2 else kwargs["seed"]
        key = (scene.seed, int(seed))
        self.counters["perceive_calls"] += 1
        self.counters["reobserved"] += key in self._observed
        self._observed.add(key)
        self.counters["predicates_scored"] += len(result[0])

    def _count_episode(self, args, kwargs, episode):
        c = self.counters
        c["episodes"] += 1
        c["plans_found"] += episode.plan is not None
        c["expansions"] += episode.expansions
        c["expansions_max"] = max(c["expansions_max"], episode.expansions)
        c["rounds"] += len(episode.iterations)
        c["info_actions"] += episode.info_action_count

    def _count_bp(self, args, kwargs, beliefs):
        self.counters["bp_calls"] += 1
        self.counters["bp_sweeps"] += beliefs.iterations
        self.counters["bp_nonconverged"] += not beliefs.converged

    def _count_export(self, args, kwargs, paths):
        self.counters["export_bytes"] += sum(Path(p).stat().st_size for p in paths)


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def bindings(fn) -> list[tuple[object, str]]:
    """Every (module, attribute) of the loaded beliefplan package bound to fn."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if name == "beliefplan" or name.startswith("beliefplan."):
            found += [(module, attr) for attr, value in vars(module).items() if value is fn]
    return found


@contextmanager
def install(tracer: Tracer):
    """Replace every binding of each traced function for the block's duration."""
    patches = []
    for name, module, path in TRACED:
        owner, attr = _resolve(module, path)
        fn = getattr(owner, attr)
        wrapped = tracer.wrap(name, fn)
        targets = bindings(fn) if isinstance(owner, types.ModuleType) else [(owner, attr)]
        patches += [(target, a, fn, wrapped) for target, a in targets]
    try:
        for target, attr, _, wrapped in patches:
            setattr(target, attr, wrapped)
        yield tracer
    finally:
        for target, attr, fn, _ in reversed(patches):
            setattr(target, attr, fn)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times (seconds) and counters of one traced run."""
    by_name: Counter = Counter()
    episode_ns = 0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        by_name[span.name] += own
        if span.name == "planner.episode":
            episode_ns += span.end - span.start
    out = {metric: by_name[span] / 1e9 for metric, span in SELF_TIME_METRICS.items()}
    c = tracer.counters
    out["planner.episode_s"] = episode_ns / 1e9
    out["scene.predicates_scored"] = c["predicates_scored"]
    out["scene.reobserve_frac"] = c["reobserved"] / c["perceive_calls"] if c["perceive_calls"] else 0.0
    for key in ("expansions", "expansions_max", "rounds", "info_actions"):
        out["planner." + key] = c[key]
    out["planner.plans_found_frac"] = c["plans_found"] / c["episodes"] if c["episodes"] else 0.0
    for key in ("bp_calls", "bp_sweeps", "bp_nonconverged"):
        out["mrf." + key] = c[key]
    out["harness.export_bytes"] = c["export_bytes"]
    return out
