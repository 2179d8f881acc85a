"""The benchmark's workloads and the checks on their outputs.

Each workload is one ``ExperimentConfig`` (as keyword arguments); the
``--seed`` argument becomes the config seed, from which the harness derives
every scene and perception draw.  Why each workload exists is
written down in README.md next to this file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# the README's threshold-sweep noise settings
_SWEEP_NOISE = dict(noise_flip=0.025, noise_sd=1.5, alpha=0.6, max_retries=2, stack_bias=0.35)
_TAUS = (0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class Workload:
    params: dict  # ExperimentConfig fields other than seed and workers
    check_trials: int  # trials of the untimed workers=1 against workers=2 check


WORKLOADS = {
    "sweep-small": Workload(
        dict(kind="threshold-sweep", trials=200, n_objects=4, taus=_TAUS, **_SWEEP_NOISE),
        40,
    ),
    "sweep-large": Workload(
        dict(kind="threshold-sweep", trials=160, n_objects=7, taus=_TAUS, **_SWEEP_NOISE),
        8,
    ),
    "plan-refine": Workload(
        dict(kind="plan-benchmark", trials=20, n_objects=4, noise_flip=0.15, noise_sd=1.0, refine=True),
        2,
    ),
}


def unit_count(config) -> int:
    """Harness work units one run of this config maps over."""
    if config.kind == "threshold-sweep":
        return len(config.taus) * config.trials
    return config.trials


def nonfinite_rows(report) -> int:
    """Rows holding a NaN or infinite value."""
    return sum(
        any(isinstance(v, float) and not math.isfinite(v) for v in row) for row in report.rows
    )


def outcome(report) -> dict:
    """The behaviour guard read from a report: the share of episodes reaching the goal."""
    if report.kind == "threshold-sweep":
        runs = sum(r[3] for r in report.rows)
        return {"plan_success_rate": sum(r[1] * r[3] for r in report.rows) / runs}
    return {"plan_success_rate": sum(r[2] for r in report.rows) / len(report.rows)}


def check_report(config, report) -> list[str]:
    """Problems with a report's rows and summary; empty when the output is right."""
    problems = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    rows = report.rows
    if config.kind == "threshold-sweep":
        need([r[0] for r in rows] == list(config.taus), "one row per tau, in order")
        need(all(r[3] == config.trials for r in rows), "every tau runs every trial")
        need(all(0.0 <= r[1] <= 1.0 for r in rows), "success rates lie in [0, 1]")
        need(all(r[2] > 0.0 for r in rows), "modeled times are positive")
    else:
        need(len(rows) == 2 * config.trials, "two policies per trial")
        need([r[1] for r in rows] == ["info_on", "info_off"] * config.trials, "policy order")
        for trial, policy, success, infos, plan_len, rounds, modeled in rows:
            need(success in (0, 1), f"trial {trial} {policy}: success is 0 or 1")
            need(1 <= rounds <= config.max_retries, f"trial {trial} {policy}: rounds in range")
            need(0 <= infos < rounds, f"trial {trial} {policy}: info actions precede the last round")
            need(policy == "info_on" or infos == 0, f"trial {trial}: info_off gathers nothing")
            need(not success or plan_len >= 0, f"trial {trial} {policy}: success needs a plan")
            need(modeled > 0.0, f"trial {trial} {policy}: modeled time is positive")
    return problems
