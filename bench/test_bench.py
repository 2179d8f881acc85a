"""Tests of the benchmark itself: span arithmetic, tracer placement, smoke runs.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from beliefplan import harness, planner, scene  # noqa: E402
from beliefplan.mrf import CapacityError  # noqa: E402
from speed import NOMINAL_SLICE_S, SpeedProbe  # noqa: E402
from tracing import Span, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span("root", 0, 100, None),
        Span("a", 10, 40, 0),
        Span("a.inner", 15, 20, 1),
        Span("b", 30, 60, 0),  # overlaps a: the overlap is subtracted once
        Span("c", 90, 120, 0),  # runs past root: only 90..100 is covered
        Span("d", 70, 80, 0),
    ]
    assert self_times(spans) == [100 - (50 + 10 + 10), 25, 5, 30, 30, 10]


def test_speed_scale_uses_the_slices_near_a_span():
    probe = SpeedProbe()
    probe.stamps = [1.0, 2.0, 3.0, 10.0]
    probe.slices = [NOMINAL_SLICE_S * k for k in (1, 2, 4, 8)]
    assert probe.scale(1.5, 2.5, window=0.6) == pytest.approx(1 / 2)  # slices at 1, 2 and 3 s
    assert probe.scale(9.0, 11.0) == pytest.approx(1 / 8)  # only the slice at 10 s
    assert probe.scale(5.0, 6.0, window=0.0) == pytest.approx(1 / 3)  # none near: all four


def test_nominal_time_skips_slices_and_scales_each_piece_locally():
    probe = SpeedProbe()
    slow = 2 * NOMINAL_SLICE_S
    probe.stamps = [1.0 + slow, 3.0 + NOMINAL_SLICE_S]  # slices start at 1 s and 3 s
    probe.slices = [slow, NOMINAL_SLICE_S]
    # before the first slice only it is near: half speed; between the two,
    # the median of both; after the second only it is near: nominal speed
    expected = 0.5 * 0.5 + (2.0 - slow) / 1.5 + (0.5 - NOMINAL_SLICE_S)
    assert probe.nominal(0.5, 3.5) == pytest.approx(expected)


def test_probe_ticks_during_the_block_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe(period=0.005)
    with probe.running():
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert len(probe.slices) >= 2
    assert probe.paused == pytest.approx(sum(probe.slices))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_patches_every_binding_and_restores_them():
    originals = {
        "harness.plan": harness.plan_under_uncertainty,
        "planner.project": planner.world_state_from_beliefs,
        "scene.labels": scene.perceive_with_labels,
        "harness.labels": harness.perceive_with_labels,
        "execute": scene.PlanningEnvironment.execute,
    }
    perceive = scene.perceive
    with tracing.install(tracing.Tracer()):
        assert harness.plan_under_uncertainty is not originals["harness.plan"]
        assert planner.plan_under_uncertainty is harness.plan_under_uncertainty
        assert planner.world_state_from_beliefs is not originals["planner.project"]
        assert scene.perceive_with_labels is not originals["scene.labels"]
        assert harness.perceive_with_labels is scene.perceive_with_labels
        assert scene.PlanningEnvironment.execute is not originals["execute"]
        assert scene.perceive is perceive  # wrapping both would count each call twice
    assert harness.plan_under_uncertainty is originals["harness.plan"]
    assert planner.world_state_from_beliefs is originals["planner.project"]
    assert scene.perceive_with_labels is originals["scene.labels"]
    assert harness.perceive_with_labels is originals["harness.labels"]
    assert scene.PlanningEnvironment.execute is originals["execute"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_every_workload_at_smallest_size(workload, trace):
    record = run.measure(workload, 0, 0, bool(trace), trials=1, setup_spawns=1)
    result = record["result"]
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert isinstance(record["digest"], str)


def test_exception_fails_all_units_of_the_run(monkeypatch):
    def capped(*args, **kwargs):
        raise CapacityError("search capped")

    monkeypatch.setattr(harness, "plan_under_uncertainty", capped)
    record = run.measure("sweep-small", 0, 0, False, trials=1, setup_spawns=1)
    result = record["result"]
    # the timed run and the workers=1 and workers=2 check runs each fail all their units
    assert result["failed"] == result["attempted"] == 3 * len(WORKLOADS["sweep-small"].params["taus"])
    assert not result["correct"]


def test_non_finite_row_is_a_failed_unit(monkeypatch):
    monkeypatch.setattr(harness, "_sweep_unit", lambda *a, **k: (1, float("nan")))
    config = harness.ExperimentConfig(**dict(WORKLOADS["sweep-small"].params, trials=2))
    record = run.run_once(harness, config, "untraced")
    assert (record.units, record.failed) == (10, 5)  # five rows, one per tau
    assert record.problems


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
