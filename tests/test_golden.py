"""Golden digests: the exported files of one small config per experiment kind.

The harness promises byte-identical outputs across re-runs, worker counts
and hash seeds; these pins extend that promise across commits.  Each
digest is the sha256 over the exported file names and bytes (csv rows plus
summary json).  The scene files that ``gen-scenes`` writes are pinned the
same way.  A change that alters outputs on purpose re-pins the affected
digests and says so in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

import beliefplan
from beliefplan import harness
from beliefplan.harness import ExperimentConfig, export, generate_scene_files, run

CONFIGS = {
    "calibration": ExperimentConfig("calibration", seed=3, samples=600),
    "alpha-fit": ExperimentConfig("alpha-fit", seed=5, trials=6),
    "convergence": ExperimentConfig("convergence", seed=7, trials=6),
    "threshold-sweep": ExperimentConfig(
        "threshold-sweep", seed=11, trials=4, noise_flip=0.15, noise_sd=1.0
    ),
    "plan-benchmark": ExperimentConfig(
        "plan-benchmark", seed=13, trials=3, noise_flip=0.15, noise_sd=1.0, refine=True
    ),
    "mrf-check": ExperimentConfig("mrf-check", seed=17, trials=24),
}

GOLDEN = {
    "calibration": "fc71376865af42850570503a5e36a632e971738e75d988697ef26a9465ce7269",
    "alpha-fit": "805c904383fb21eedc0c7e233b94650673e5f9b5b15aa67f66c9f377d5aedf4e",
    "convergence": "96f5ccc6858033ddfeb9d4693daeef5618405bec0f6b9a4e40cb297667f2cd6f",
    "threshold-sweep": "9b17b72a2a2fd10267dce8fc8f767bf28075fcc791aa1b43f11424fed57e5791",
    "plan-benchmark": "278bb3b724bbf928c03743c7a5b243647edbee2179c68568334489c19b68591b",
    "mrf-check": "50c3a36d0d0a369dc051d9549ee6de090c642b131a6eb2d4ab430a54a22f7247",
}


# generate_scene_files(2, 3, 0.4, 4, out)
SCENE_FILES_GOLDEN = "51a790461e88ec1a2b1d215ab3fe450163234f28916333d6b22c77cb9d0cb5d6"


def files_digest(paths) -> str:
    """sha256 over the names and bytes of the files."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def output_digest(config: ExperimentConfig) -> str:
    """sha256 over the names and bytes of the files ``export`` writes."""
    with tempfile.TemporaryDirectory() as out:
        return files_digest(export(run(config), out))


def all_digests(workers: int = 1) -> dict[str, str]:
    return {
        name: output_digest(replace(cfg, workers=workers)) for name, cfg in CONFIGS.items()
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_digests_pinned(workers):
    assert all_digests(workers) == GOLDEN


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("batch", [1, 10**6])
def test_batch_size_invisible(monkeypatch, batch, workers):
    # one unit per batch, and every unit in one batch (one per worker at two)
    monkeypatch.setattr(harness, "_BATCH_UNITS", batch)
    assert all_digests(workers) == GOLDEN


def test_scene_files_pinned(tmp_path):
    assert files_digest(generate_scene_files(2, 3, 0.4, 4, tmp_path)) == SCENE_FILES_GOLDEN


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_digests_pinned_under_hash_seed(hash_seed):
    src = str(Path(beliefplan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import test_golden; "
        "print(json.dumps(test_golden.all_digests()))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(Path(__file__).resolve().parent)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == GOLDEN
