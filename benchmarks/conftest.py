"""Shared fixtures for the table/figure regeneration benches.

A single session-scoped :class:`~repro.experiments.runner.Runner` is
shared by every bench module.  Since the plan/execute split it sits on
the run_id-keyed :class:`~repro.experiments.store.ResultStore`, so
figures that share cells (most of them) re-use simulations instead of
re-running them, and the executor is configurable:

* ``ODR_BENCH_WORKERS=N`` — execute cells through the process-pool
  :class:`~repro.experiments.executor.ParallelExecutor` (bit-identical
  to serial; the default is serial);
* ``ODR_BENCH_RESUME=1`` — persist completed cells under
  ``.odr-runs/cells/`` and warm-start the next bench session from
  them.  Opt-in, because persisted cells outlive code changes: only
  use it to resume an interrupted sweep of *unchanged* code.

Benches render through the ``records`` fixture: it runs a plan on the
session runner and returns the plan's read-only records view
(:meth:`~repro.experiments.runner.Runner.records_for`), which is all a
renderer reads.

The runner also appends every executed cell's run record to the run
ledger under ``.odr-runs/`` at the repo root, so bench sessions feed
the regression sentinel (``odr-sim compare-runs``) for free.

Bench outputs (the regenerated tables/figures) are printed through
pytest's captured stdout; run with ``-s`` or ``-rA`` to see them, or
read ``benchmarks/results/*.txt`` which each bench also writes.  A
bench that passes ``data=`` to :func:`save_text` additionally writes
``benchmarks/results/*.json`` — the machine-readable twin of the text
artifact.
"""

import json
import os
import pathlib

import pytest

from repro.experiments.executor import make_executor
from repro.experiments.runner import Runner
from repro.experiments.store import ResultStore
from repro.obs import DEFAULT_LEDGER_DIR

#: Simulated milliseconds measured per cell.  Long enough for stable
#: FPS/latency statistics, short enough for the full matrix to run in
#: a few minutes.
BENCH_DURATION_MS = 15000.0
BENCH_WARMUP_MS = 2000.0

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
LEDGER_DIR = pathlib.Path(__file__).parent.parent / DEFAULT_LEDGER_DIR


@pytest.fixture(scope="session")
def runner():
    workers = int(os.environ.get("ODR_BENCH_WORKERS", "1"))
    resume = os.environ.get("ODR_BENCH_RESUME") == "1"
    store = ResultStore(LEDGER_DIR / "cells") if resume else ResultStore()
    return Runner(
        seed=1,
        duration_ms=BENCH_DURATION_MS,
        warmup_ms=BENCH_WARMUP_MS,
        ledger=str(LEDGER_DIR),
        executor=make_executor(workers),
        store=store,
    )


@pytest.fixture(scope="session")
def records(runner):
    """``records(plan)``: run ``plan`` on the session runner, return its view."""

    def _records(plan):
        runner.run_plan(plan)
        return runner.records_for(plan)

    return _records


@pytest.fixture(scope="session")
def save_text():
    """Persist a regenerated table/figure under benchmarks/results/.

    ``_save(name, text)`` writes ``results/<name>.txt``; passing
    ``data=`` (any JSON-serializable object) also writes
    ``results/<name>.json`` so downstream tooling never has to parse
    the human-readable tables.
    """

    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str, data=None) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        if data is not None:
            (RESULTS_DIR / f"{name}.json").write_text(
                json.dumps(data, sort_keys=True, indent=2, default=str) + "\n"
            )
        print()
        print(text)

    return _save
