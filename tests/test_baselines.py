"""The checked-in baseline records still reproduce byte for byte.

Each file under ``benchmarks/baselines/`` is a run record of one cell
of the ``odr-sim bench`` smoke matrix.  Re-running its config must give
the same ``run_id`` (identity) and ``metrics_digest`` (every metric and
series).  A change that alters simulated results fails here; under the
ROADMAP's byte-equality policy it must re-baseline these files.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.plan import CellSpec
from repro.obs.runmeta import build_record, metrics_digest
from repro.pipeline import CloudSystem, SystemConfig
from repro.regulators import make_regulator
from repro.workloads import PLATFORMS, Resolution

BASELINE_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
BASELINES = sorted(BASELINE_DIR.glob("*.json"))


def test_all_eight_baselines_are_present():
    assert len(BASELINES) == 8


@pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.stem)
def test_baseline_record_reproduces(path):
    baseline = json.loads(path.read_text(encoding="utf-8"))
    spec = CellSpec(seed=baseline["seed"], **baseline["config"])
    config = SystemConfig(
        benchmark=spec.benchmark,
        platform=PLATFORMS[spec.platform],
        resolution=Resolution(spec.resolution),
        seed=spec.seed,
        duration_ms=spec.duration_ms,
        warmup_ms=spec.warmup_ms,
    )
    result = CloudSystem(config, make_regulator(spec.regulator)).run()
    record = build_record(result, spec.config_payload(), git_rev="test")
    assert record["run_id"] == baseline["run_id"]
    assert metrics_digest(record) == metrics_digest(baseline)
