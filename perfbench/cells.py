"""Cell-level helpers shared by the workloads.

* :func:`decompose_cell` runs one cell through the same public calls
  ``execute_cell`` makes, in the same order, with a span around each
  call: ``CloudSystem(...)``, ``.run()``, ``recovery_stats``,
  ``build_experiment_record``, ``build_record``, then ``ResultStore.put``
  and ``RunLedger.append`` as the serial executor does.  Callers compare
  its record with ``execute_cell``'s, so the decomposition is checked,
  not assumed.
* :func:`ledger_size_record` times ``RunLedger.append`` and a full
  ``RunLedger.records()`` scan at given row counts.
* :func:`records_digest` and :func:`table2_shape_errors` are the
  correctness gate every workload prints.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.plan import CellSpec
from repro.experiments.record import (
    ExperimentRecord,
    build_experiment_record,
    record_as_dict,
)
from repro.experiments.results import CellOutcome, exec_meta
from repro.experiments.store import ResultStore
from repro.metrics.recovery import recovery_stats
from repro.obs import Telemetry
from repro.obs.ledger import RunLedger
from repro.obs.runmeta import build_record
from repro.pipeline import CloudSystem, SystemConfig
from repro.regulators import make_regulator
from repro.workloads import PLATFORMS, Resolution

from tracing import Tracer, median

#: The paper's six benchmarks (Sec. 6.1).
BENCHMARKS = ("0AD", "D2", "IM", "ITP", "RE", "STK")
#: The 720p regulator slate of Table 2 / Fig. 10 the workloads draw from.
REGULATORS = ("NoReg", "Int60", "RVS60", "ODR60", "ODRMax")
#: ODR60 client FPS must land in this band (60 ± 20 %: short horizons
#: quantize FPS and leave the regulator little time to settle).
ODR60_FPS_BAND = (48.0, 72.0)


def _system(spec: CellSpec, telemetry: Optional[Telemetry]) -> Tuple[CloudSystem, Any]:
    regulator = make_regulator(spec.regulator)
    config = SystemConfig(
        benchmark=spec.benchmark,
        platform=PLATFORMS[spec.platform],
        resolution=Resolution(spec.resolution),
        seed=spec.seed,
        duration_ms=spec.duration_ms,
        warmup_ms=spec.warmup_ms,
    )
    system = CloudSystem(config, regulator, telemetry=telemetry, fault_plan=spec.fault_plan())
    return system, regulator


def decompose_cell(
    spec: CellSpec,
    tracer: Tracer,
    parent: Optional[int],
    trace: Optional[int],
    store: ResultStore,
    ledger: RunLedger,
    git_rev: str,
    bare_twin: bool = True,
) -> Tuple[ExperimentRecord, Dict[str, Any], int]:
    """Run one cell layer by layer; returns (record, ledger row, events).

    The cell runs with ``Telemetry(engine_probe=True)``, as every ledger
    path does.  With ``bare_twin`` the same cell is built and run again
    without telemetry, outside the cell span, giving ``pipeline.run``
    (telemetry off) and so the telemetry share of ``simcore.run``.
    """
    with tracer.span("cell", parent, trace, label=spec.label, run_id=spec.run_id) as cell:
        with tracer.span("pipeline.build", cell, trace):
            telemetry = Telemetry(engine_probe=True)
            system, regulator = _system(spec, telemetry)
        run_start = time.perf_counter()
        with tracer.span("simcore.run", cell, trace):
            result = system.run()
        wall_clock_s = time.perf_counter() - run_start
        probe = telemetry.probe
        events = int(probe.events_fired) if probe is not None else 0
        with tracer.span("runmeta.build_record", cell, trace):
            ledger_record = build_record(
                result,
                spec.config_payload(),
                label=spec.label,
                wall_clock_s=wall_clock_s,
                git_rev=git_rev,
            )
        recovery = None
        if system.faults is not None and system.faults.windows:
            with tracer.span("metrics.recovery", cell, trace):
                recovery = recovery_stats(
                    result, [(w.start_ms, w.end_ms) for w in system.faults.windows]
                )
        resolution = Resolution(spec.resolution)
        with tracer.span("record.build", cell, trace):
            record = build_experiment_record(
                result,
                benchmark=spec.benchmark,
                config_label=spec.experiment_config().label,
                platform=PLATFORMS[spec.platform].name,
                resolution=resolution.value,
                regulator_name=regulator.name,
                fps_target=regulator.fps_target,
                qos_target=float(resolution.default_fps_target),
                recovery=recovery,
            )
        outcome = CellOutcome(
            spec=spec,
            record=record,
            ledger_record=ledger_record,
            wall_clock_s=wall_clock_s,
            cached=False,
        )
        with tracer.span("store.put", cell, trace):
            store.put(spec.run_id, record, exec_meta=exec_meta(outcome))
        with tracer.span("ledger.append", cell, trace):
            ledger.append(ledger_record)
    if bare_twin:
        with tracer.span("probe.bare_twin", parent, trace):
            bare, _ = _system(spec, None)
            with tracer.span(
                "pipeline.run", parent, trace, events=events, telemetry_run_s=wall_clock_s
            ):
                bare.run()
    return record, ledger_record, events


def sim_layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer numbers of the simulation layers, from decomposed cells."""
    bare = tracer.by_name("pipeline.run")
    events = [float(s["attrs"]["events"]) for s in bare]
    bare_ms = [(s["end"] - s["start"]) * 1000.0 for s in bare]
    run_ms = [s["attrs"]["telemetry_run_s"] * 1000.0 for s in bare]
    # Simulation (build + run, telemetry on) per decomposed cell.
    sim_s: Dict[int, float] = {}
    for name in ("pipeline.build", "simcore.run"):
        for span in tracer.by_name(name):
            sim_s[span["parent"]] = sim_s.get(span["parent"], 0.0) + span["end"] - span["start"]
    out = {
        "trace.sim_frac": median(
            [
                sim_s[s["id"]] / (s["end"] - s["start"])
                for s in tracer.by_name("cell")
                if s["id"] in sim_s
            ]
        ),
        "simcore.events_per_cell": median(events),
        "simcore.host_us_per_event": median(
            [ms * 1000.0 / ev for ms, ev in zip(bare_ms, events) if ev > 0]
        ),
        "pipeline.build_ms": median(tracer.durations_ms("pipeline.build")),
        "pipeline.run_ms_p50": median(bare_ms),
        "obs.telemetry_frac": median(
            [(w - b) / w for w, b in zip(run_ms, bare_ms) if w > 0]
        ),
        "record.build_ms": median(tracer.durations_ms("record.build")),
        "metrics.recovery_ms": median(tracer.durations_ms("metrics.recovery")),
        "runmeta.build_record_ms": median(tracer.durations_ms("runmeta.build_record")),
        "store.put_ms": median(tracer.durations_ms("store.put")),
    }
    return out


def disk_get_spans(
    specs: Iterable[CellSpec],
    persist_dir: str,
    tracer: Tracer,
    parent: Optional[int] = None,
) -> None:
    """Time ``ResultStore.get`` of each cell from a fresh store (disk tier)."""
    store = ResultStore(persist_dir)
    for spec in specs:
        with tracer.span("store.get", parent, parent):
            store.get(spec.run_id)


def ledger_size_record(
    tracer: Tracer,
    work_dir: str,
    sizes: Sequence[Tuple[str, Optional[str]]],
    probe_row: Dict[str, Any],
    repeats: int = 5,
) -> Dict[str, float]:
    """``ledger.append_ms``/``ledger.scan_ms`` at each named ledger size.

    ``sizes`` pairs a label with a ``ledger.jsonl`` to start from (None =
    empty).  Each repeat copies the file into a fresh directory, scans it
    with ``records()`` and appends ``probe_row`` (a real row whose run_id
    the file does not hold, so the append writes).
    """
    out: Dict[str, float] = {}
    for label, source in sizes:
        rows = 0
        for index in range(repeats):
            root = os.path.join(work_dir, f"ledger-{label}-{index}")
            os.makedirs(root, exist_ok=True)
            ledger = RunLedger(root)
            if source is not None and os.path.exists(source):
                shutil.copyfile(source, ledger.path)
            with tracer.span("ledger.scan", size=label):
                rows = len(ledger.records())
            with tracer.span("ledger.append", size=label):
                ledger.append(probe_row)
            shutil.rmtree(root, ignore_errors=True)
        if label != "empty":
            out[f"ledger.rows_{label}"] = float(rows)
        for layer in ("scan", "append"):
            out[f"ledger.{layer}_ms_{label}"] = median(
                [
                    (s["end"] - s["start"]) * 1000.0
                    for s in tracer.by_name(f"ledger.{layer}")
                    if s.get("attrs", {}).get("size") == label
                ]
            )
    return out


def record_digest(record: ExperimentRecord) -> str:
    payload = json.dumps(record_as_dict(record), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def records_digest(records: Dict[str, ExperimentRecord]) -> str:
    """One digest over every (run_id, record) pair, order-independent."""
    lines = "\n".join(f"{run_id}:{record_digest(records[run_id])}" for run_id in sorted(records))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()[:16]


def table2_shape_errors(records: Iterable[ExperimentRecord], config_prefix: str) -> List[str]:
    """Table-2 shape: ODR's FPS gap under NoReg's, ODR60 near 60 FPS.

    Checked per benchmark over the records whose configuration label
    starts with ``config_prefix`` (e.g. ``Priv720p/``).
    """
    by_bench: Dict[str, Dict[str, ExperimentRecord]] = {}
    for record in records:
        if record.config_label.startswith(config_prefix) and record.recovery is None:
            regulator = record.config_label.split("/", 1)[1]
            by_bench.setdefault(record.benchmark, {})[regulator] = record
    errors = []
    for bench, regs in sorted(by_bench.items()):
        noreg = regs.get("NoReg")
        odr60 = regs.get("ODR60")
        odrmax = regs.get("ODRMax")
        if noreg is None or odr60 is None:
            continue
        for odr in (odr60, odrmax):
            if odr is not None and not odr.fps_gap_mean < noreg.fps_gap_mean:
                errors.append(
                    f"{bench}: {odr.config_label} FPS gap {odr.fps_gap_mean:.2f} "
                    f"not below NoReg's {noreg.fps_gap_mean:.2f}"
                )
        low, high = ODR60_FPS_BAND
        if not low <= odr60.client_fps <= high:
            errors.append(
                f"{bench}: ODR60 client FPS {odr60.client_fps:.2f} outside [{low}, {high}]"
            )
    if not by_bench:
        errors.append(f"no {config_prefix} NoReg/ODR60 records to check")
    return errors
