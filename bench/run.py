"""beliefplan benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 36 --trace 0

Run from the repository root.  The benchmark imports ``beliefplan`` from
``src/`` of the tree it sits in and writes scratch output under
``.bench_out/``.  With ``--trace 0`` it repeats ``harness.run`` + ``export``
(``workers=1``) while another run fits in ``--seconds`` (at least once) and
reports the end-to-end metrics, as times on a machine of nominal speed (see
``speed.py``); with ``--trace 1`` it repeats traced runs the same way and
reports the per-layer metrics.  Either way it then runs the workload at its
smaller check size with ``workers=1`` and ``workers=2`` (and traced, with
``--trace 1``), untimed.  Every run's exported files are hashed: the runs of
each size must agree on one digest.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (digests, every run, sample
counts, environment) is written to ``.bench_out/`` and summarised on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from speed import SpeedProbe
from workloads import WORKLOADS, check_report, nonfinite_rows, outcome, unit_count

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SPAWNS = 9

# prints the (system-wide, monotonic) perf_counter once the config is built
_SETUP_CODE = (
    "import json, sys, time; sys.path.insert(0, sys.argv[1]); "
    "from beliefplan.harness import ExperimentConfig; "
    "ExperimentConfig(**json.loads(sys.argv[2])); print(time.perf_counter())"
)


@dataclasses.dataclass
class RunRecord:
    label: str
    run_s: float  # nominal-machine seconds when probed, else wall seconds
    wall_s: float  # wall seconds, minus the time of probe slices
    units: int
    failed: int
    digest: str | None = None
    outcome: dict | None = None
    problems: list[str] = dataclasses.field(default_factory=list)


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def episode_timer(fn, spans: list):
    """``fn`` that appends each call's (start, end) ``perf_counter`` pair to ``spans``."""

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        # plan-benchmark's info_off ablation is not the planner a robot runs
        options = kwargs.get("options")
        if options is None or options.info_enabled:
            spans.append((t0, time.perf_counter()))
        return result

    return timed


def run_once(harness, config, label: str, *, probed: bool = False,
             episode_s: list | None = None, tracer=None) -> RunRecord:
    """One ``run`` + ``export``; an exception fails all of the run's units.

    A probed run's time is in nominal-machine seconds, and so is the time of
    each ``plan_under_uncertainty`` call it appends to ``episode_s``, if
    given.  Otherwise times are wall seconds.
    """
    units = unit_count(config)
    probe = SpeedProbe()
    spans: list = []
    original = harness.plan_under_uncertainty
    if episode_s is not None:
        harness.plan_under_uncertainty = episode_timer(original, spans)
    try:
        with contextlib.ExitStack() as stack:
            if tracer:
                stack.enter_context(tracing.install(tracer))
            if probed:
                stack.enter_context(probe.running())
            paused = probe.paused
            t0 = time.perf_counter()
            report = harness.run(config)
            paths = harness.export(report, OUT / config.kind / label)
            t1 = time.perf_counter()
    except Exception:  # a run that fails is counted, and the bench goes on
        traceback.print_exc(file=sys.stderr)
        return RunRecord(label, 0.0, 0.0, units, units)
    finally:
        harness.plan_under_uncertainty = original
    wall_s = t1 - t0 - (probe.paused - paused)
    run_s = probe.nominal(t0, t1) if probed else wall_s
    if episode_s is not None:
        episode_s.extend(probe.nominal(a, b) for a, b in spans)
    failed = min(units, nonfinite_rows(report))
    return RunRecord(label, run_s, wall_s, units, failed, digest(paths), outcome(report),
                     check_report(config, report))


def measure_setup(params: dict, spawns: int) -> float:
    """Median wall time for a fresh interpreter to import the harness and build the config.

    The child reports when it is done: ``subprocess.run`` with a timeout
    polls for the exit in steps of up to 50 ms, too coarse for this.
    """
    times = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), json.dumps(params)],
                               check=True, timeout=120, capture_output=True, text=True)
        times.append(float(child.stdout) - t0)
    return statistics.median(times)


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(name: str, seed: int, seconds: float, trace: bool, *,
            trials: int | None = None, setup_spawns: int = SETUP_SPAWNS) -> dict:
    """Run one workload; returns the full record, including the result line.

    ``--trace 0`` repeats probed runs while another one fits in
    ``seconds``; ``--trace 1`` repeats traced runs the same way.  Then the
    check-size config runs untraced with ``workers=1`` and ``workers=2``
    and, with ``--trace 1``, traced: all of them must give one digest.
    """
    from beliefplan import harness

    workload = WORKLOADS[name]
    params = dict(workload.params, seed=seed)
    if trials is not None:
        params["trials"] = trials
    config = harness.ExperimentConfig(**params)
    record: dict = {"workload": name, "seed": seed, "trace": int(trace), "config": params}

    setup_s = None if trace else measure_setup(params, setup_spawns)
    runs: list[RunRecord] = []
    episode_reps: list[list[float]] = []  # per timed run, episode times in call order
    layers: list[dict] = []
    start = time.perf_counter()
    while True:  # another run only if it fits in the remaining time
        lap = time.perf_counter()
        if trace:
            tracer = tracing.Tracer()
            runs.append(run_once(harness, config, "traced", tracer=tracer))
            if not runs[-1].failed:
                layers.append(tracing.layer_metrics(tracer))
        else:
            episode_s: list[float] = []
            runs.append(run_once(harness, config, "timed", probed=True, episode_s=episode_s))
            if runs[-1].digest is not None:
                episode_reps.append(episode_s)
        now = time.perf_counter()
        if now - start + (now - lap) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check = dataclasses.replace(config, trials=min(config.trials, workload.check_trials))
    checks = [run_once(harness, check, "check1", probed=True),
              run_once(harness, dataclasses.replace(check, workers=2), "check2")]
    if trace:  # probed too, so that trace_overhead_frac compares nominal times
        checks.append(run_once(harness, check, "check-traced", probed=True, tracer=tracing.Tracer()))

    attempted = sum(r.units for r in runs + checks)
    failed = sum(r.failed for r in runs + checks)
    problems = sorted({p for r in runs + checks for p in r.problems})

    def agree(group: list[RunRecord]) -> bool:
        return all(r.digest is not None and (r.digest, r.outcome) == (group[0].digest, group[0].outcome)
                   for r in group)

    correct = agree(runs) and agree(checks) and not problems

    if trace:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]} if layers else {}
        if correct:
            metrics["traced_run_s"] = statistics.median(r.run_s for r in runs)
            metrics["trace_overhead_frac"] = checks[2].run_s / checks[0].run_s - 1.0
            metrics.update(runs[0].outcome)
        metrics["failed_frac"] = failed / attempted
    else:
        metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        if episode_reps:
            metrics["run_s"] = statistics.median(r.run_s for r in runs if r.digest is not None)
            # runs repeat the same episodes in the same order: take each
            # episode's median over the runs, then percentiles over episodes
            episodes = [statistics.median(ts) for ts in zip(*episode_reps)]
            metrics["episode_ms_p50"] = statistics.median(episodes) * 1000.0
            metrics["episode_ms_p90"] = percentile(episodes, 90) * 1000.0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if trace else "end_to_end"] if m["name"] in metrics},
    }
    digests = sorted({r.digest for r in runs if r.digest is not None})
    record.update(
        digest=digests[0] if len(digests) == 1 else digests,
        check_digest=checks[0].digest,
        outcome=runs[0].outcome,
        problems=problems,
        runs=[dataclasses.asdict(r) for r in runs + checks],
        episode_samples=[len(ts) for ts in episode_reps],
        environment={
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
        },
        result=result,
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not (SRC / "beliefplan" / "harness.py").is_file():
        print(f"error: no beliefplan sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import beliefplan

    if Path(beliefplan.__file__).resolve().parent != SRC / "beliefplan":
        print(f"error: imported beliefplan from {beliefplan.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    detail = json.dumps(record, indent=1, sort_keys=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(detail + "\n")
    summary = ("workload", "seed", "digest", "check_digest", "episode_samples", "environment")
    print(json.dumps({k: record[k] for k in summary}), file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
