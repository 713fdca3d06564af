"""The workloads: sweep-cold and gateway-mixed.

Each workload has a set-up (repeated :data:`SETUP_REPEATS` times, the
median reported as ``setup_s``), an untraced run that yields the
end-to-end metrics, and a traced run that yields the per-layer metrics.
Every cell seed and plan derives from the workload seed.  Why each
workload exists and which layer dominates it is in ``RATIONALE.md``.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.chaos import chaos_demands
from repro.experiments.executor import SerialExecutor, execute_cell
from repro.experiments.plan import CellSpec, Plan, bench_demands
from repro.experiments.record import ExperimentRecord, record_from_dict
from repro.experiments.store import ResultStore
from repro.obs import sweep as sweepbus
from repro.obs.ledger import RunLedger
from repro.obs.runmeta import metrics_digest
from repro.obs.sweep import SweepEventBus

import gateway_load
from cells import (
    BENCHMARKS,
    REGULATORS,
    decompose_cell,
    disk_get_spans,
    ledger_size_record,
    record_digest,
    records_digest,
    sim_layer_metrics,
    table2_shape_errors,
)
from tracing import Tracer, median, pct

SETUP_REPEATS = 5

#: sweep-cold: the Priv720p regulator slate plus a chaos slice, at a
#: horizon long enough for the Table-2 shape to hold.
COLD_DURATION_MS = 2000.0
COLD_WARMUP_MS = 500.0
CHAOS_BENCHMARK = "IM"
CHAOS_REGULATORS = ("NoReg", "ODR60")
CHAOS_FAULTS = ("stall_storm", "net_outage", "gpu_preempt")

#: gateway-mixed: real ledger rows the gateway starts with, and the
#: seeded cells whose served records are checked against in-process runs.
HISTORY_ROWS = 200
SAMPLE_PER_CLIENT = 3



@dataclass
class Context:
    work: str
    seed: int
    seconds: float
    workers: int
    clients: int
    git_rev: str


@dataclass
class Outcome:
    """What one run measured, and whether its outputs were right."""

    #: Metric name → measured value; units live in BENCHMARK.json.
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    digest: str = ""
    notes: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def _derive(seed: int, name: str) -> int:
    return random.Random(f"{name}:{seed}").randrange(1, 10**6)


def _fresh_dir(ctx: Context, name: str) -> str:
    path = os.path.join(ctx.work, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class _CoreRotation:
    """Moves this (single-threaded) process to the next CPU on each call.

    On a shared host each core drifts between speed states for seconds to
    minutes, independently of the others.  A serial sweep that stays on
    one core reports that core's state; rotating job by job makes a run
    sample every core it may use.  The original affinity is restored by
    :meth:`restore`.
    """

    def __init__(self) -> None:
        self.original = os.sched_getaffinity(0)
        self.cpus = sorted(self.original)
        self.turn = 0

    def next(self) -> None:
        os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
        self.turn += 1

    def restore(self) -> None:
        os.sched_setaffinity(0, self.original)


def _setup(
    body: Callable[[int], Any], teardown: Optional[Callable[[Any], None]] = None
) -> Tuple[float, List[float], Any]:
    """Time ``body(rep)`` SETUP_REPEATS times; keep the last result.

    ``teardown`` undoes each earlier set-up before the next one starts,
    outside the timer, so every repetition times a set-up and nothing else.
    """
    times = []
    kept = None
    for rep in range(SETUP_REPEATS):
        if rep and teardown is not None:
            teardown(kept)
        started = time.perf_counter()
        kept = body(rep)
        times.append(time.perf_counter() - started)
    return median(times), times, kept


def _peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _e2e(
    out: Outcome,
    setup_s: float,
    cells: int,
    seconds: float,
    cell_ms: List[float],
    job_ms: List[float],
    rss_mb: float,
) -> None:
    out.metrics.update(
        {
            "setup_s": setup_s,
            "cells_per_s": cells / seconds,
            "cell_ms_p50": pct(cell_ms, 50.0),
            "cell_ms_p90": pct(cell_ms, 90.0),
            "job_ms_p50": pct(job_ms, 50.0),
            "job_ms_p90": pct(job_ms, 90.0),
            "peak_rss_mb": rss_mb,
        }
    )
    out.notes["samples"] = {"cells": len(cell_ms), "jobs": len(job_ms)}


def _probe_cells(
    ctx: Context,
    tracer: Tracer,
    specs: List[CellSpec],
    references: Dict[str, ExperimentRecord],
    out: Outcome,
    name: str,
) -> Dict[str, Dict[str, Any]]:
    """Decompose ``specs`` into a scratch store/ledger; check each record.

    A spec without a reference is checked against ``execute_cell``.
    Returns each cell's ledger row, by run_id.
    """
    root = _fresh_dir(ctx, name)
    store = ResultStore(os.path.join(root, "cells"))
    ledger = RunLedger(root)
    rows: Dict[str, Dict[str, Any]] = {}
    with tracer.span("probe", label=name) as probe:
        for spec in specs:
            record, row, _ = decompose_cell(spec, tracer, probe, probe, store, ledger, ctx.git_rev)
            rows[spec.run_id] = row
            reference = references.get(spec.run_id)
            if reference is None:
                outcome = execute_cell(spec, collect_ledger=True, git_rev=ctx.git_rev)
                reference = outcome.record
                expected = outcome.ledger_record
                if expected is None or metrics_digest(expected) != metrics_digest(row):
                    out.fail(f"{spec.label}: decomposed ledger row differs from execute_cell's")
            if record != reference:
                out.fail(f"{spec.label}: decomposed record differs from the reference")
        disk_get_spans(specs, os.path.join(root, "cells"), tracer, probe)
    return rows


def _fault_cell(seed: int, duration_ms: float, warmup_ms: float) -> CellSpec:
    plan = chaos_demands(
        [CHAOS_BENCHMARK],
        ["ODR60"],
        fault_classes=["stall_storm"],
        seeds=[seed],
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        include_baseline=False,
    )
    return plan.specs[0]


def _gateway_probe(ctx: Context, out: Outcome) -> Dict[str, float]:
    """pool/service layers for workloads that do not use the gateway:
    one client against a fresh gateway for a short closed loop."""
    harness = gateway_load.GatewayHarness(
        _fresh_dir(ctx, "gateway-probe"), ctx.workers, ctx.git_rev, history=None
    )
    try:
        harness.start()
        load = gateway_load.run_clients(harness, ctx.seed, 2.0, 1, 1)
        for error in load.errors:
            out.fail(f"gateway probe: {error}")
        return gateway_load.service_layer_metrics(load, harness)
    finally:
        harness.close()


def _cell_layer_cover(tracer: Tracer, untraced_ms: float) -> Dict[str, float]:
    """How much of a decomposed cell its layer spans cover, against the
    untraced passes' median cell.  Each cell counts with its fastest
    traced pass, as it does in the untraced passes."""
    traced: Dict[str, float] = {}
    covered: Dict[str, float] = {}
    for span in tracer.by_name("cell"):
        run_id = span["attrs"]["run_id"]
        ms = (span["end"] - span["start"]) * 1000.0
        if run_id not in traced or ms < traced[run_id]:
            traced[run_id] = ms
            covered[run_id] = sum(
                (c["end"] - c["start"]) * 1000.0 for c in tracer.children(span["id"])
            )
    return {
        "trace.span_sum_ms_p50": median(list(covered.values())),
        "trace.accounted_frac": median(list(covered.values())) / untraced_ms,
        "trace.overhead_frac": median(list(traced.values())) / untraced_ms - 1.0,
    }


def _union_ms(intervals: List[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to [low, high], in ms."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total * 1000.0


def _job_cell_cover(tracer: Tracer) -> Dict[str, float]:
    """How much of each client-timed job its cell spans cover.

    A gateway job's cell spans come from its event stream (worker start
    to the gateway's publish).  The time they leave uncovered is the
    service round trips, dispatch and the store and ledger passes, so
    ``trace.accounted_frac`` rises when those get cheaper.  Cached jobs
    have no cell spans and count with zero coverage.
    """
    cells: Dict[int, List[Tuple[float, float]]] = {}
    for span in tracer.by_name("cell"):
        cells.setdefault(span["trace"], []).append((span["start"], span["end"]))
    covered = total = 0.0
    executed: List[float] = []
    for job in tracer.by_name("job"):
        ms = _union_ms(cells.get(job["id"], []), job["start"], job["end"])
        covered += ms
        total += (job["end"] - job["start"]) * 1000.0
        if ms > 0:
            executed.append(ms)
    return {
        "trace.span_sum_ms_p50": median(executed) if executed else 0.0,
        "trace.accounted_frac": covered / total,
    }


# -- sweep-cold -------------------------------------------------------------


def _cold_jobs(seed: int) -> List[Tuple[str, Callable[[], Plan]]]:
    cell_seed = _derive(seed, "sweep-cold")
    horizon = {"duration_ms": COLD_DURATION_MS, "warmup_ms": COLD_WARMUP_MS}
    jobs: List[Tuple[str, Callable[[], Plan]]] = [
        (
            f"matrix-{bench}",
            lambda bench=bench: bench_demands([bench], REGULATORS, [cell_seed], **horizon),
        )
        for bench in BENCHMARKS
    ]
    jobs.append(
        (
            "chaos",
            lambda: chaos_demands(
                [CHAOS_BENCHMARK],
                list(CHAOS_REGULATORS),
                fault_classes=list(CHAOS_FAULTS),
                seeds=[cell_seed],
                include_baseline=False,
                **horizon,
            ),
        )
    )
    return jobs


def _cold_pass(
    ctx: Context,
    jobs: List[Tuple[str, Callable[[], Plan]]],
    index: int,
    out: Outcome,
    cores: _CoreRotation,
) -> Tuple[float, Dict[str, ExperimentRecord], Dict[str, float], Dict[str, float]]:
    """One serial sweep over every job, into a fresh store and ledger.

    Returns the pass's wall time, its records, and each job's and each
    cell's host ms, keyed by job label and run_id.
    """
    root = _fresh_dir(ctx, f"cold-pass-{index % 2}")
    store = ResultStore(os.path.join(root, "cells"))
    ledger = RunLedger(root)
    records: Dict[str, ExperimentRecord] = {}
    job_ms: Dict[str, float] = {}
    cell_ms: Dict[str, float] = {}
    wall = 0.0
    for label, build in jobs:
        cores.next()
        bus = SweepEventBus()
        started = time.perf_counter()
        plan = build()
        report = SerialExecutor().run(
            plan, store=store, ledger=ledger, git_rev=ctx.git_rev, bus=bus
        )
        elapsed = time.perf_counter() - started
        wall += elapsed
        job_ms[label] = elapsed * 1000.0
        out.attempted += len(plan)
        for failure in report.failures:
            out.fail(f"{failure.spec.label}: {failure.error}")
        for outcome in report.outcomes:
            records[outcome.spec.run_id] = outcome.record
        begun: Dict[str, float] = {}
        for event in bus.events:
            if event.kind == sweepbus.CELL_STARTED:
                begun[event.run_id] = event.t_s
            elif event.kind == sweepbus.CELL_FINISHED and event.run_id in begun:
                cell_ms[event.run_id] = (event.t_s - begun[event.run_id]) * 1000.0
    return wall, records, job_ms, cell_ms


def _cold_traced_pass(
    ctx: Context,
    jobs: List[Tuple[str, Callable[[], Plan]]],
    index: int,
    tracer: Tracer,
    reference: Dict[str, str],
    out: Outcome,
    cores: _CoreRotation,
) -> Tuple[List[CellSpec], str]:
    """The same sweep, each cell decomposed into layer spans."""
    root = _fresh_dir(ctx, f"cold-traced-{index % 2}")
    store = ResultStore(os.path.join(root, "cells"))
    ledger = RunLedger(root)
    specs: List[CellSpec] = []
    for label, build in jobs:
        cores.next()
        with tracer.span("job", label=label) as job:
            with tracer.span("plan.build", job, job):
                plan = build()
            specs.extend(plan)
            with tracer.span("store.pass", job, job):
                missing = [spec for spec in plan if store.get(spec.run_id) is None]
            for spec in missing:
                record, _, _ = decompose_cell(spec, tracer, job, job, store, ledger, ctx.git_rev)
                out.attempted += 1
                if record_digest(record) != reference.get(spec.run_id):
                    out.fail(f"{spec.label}: decomposed record differs from execute_cell's")
    return specs, root


def sweep_cold(ctx: Context, traced: bool) -> Outcome:
    out = Outcome()

    cores = _CoreRotation()

    def setup(rep: int) -> Any:
        jobs = _cold_jobs(ctx.seed)
        # Let lazy imports and first-call costs finish before timing: one
        # cell of each benchmark, each on the next core, as the passes run.
        warm = _fresh_dir(ctx, "cold-warm")
        store = ResultStore(os.path.join(warm, "cells"))
        ledger = RunLedger(warm)
        for _, build in jobs[: len(BENCHMARKS)]:
            cores.next()
            SerialExecutor().run(
                Plan([build().specs[0]]), store=store, ledger=ledger, git_rev=ctx.git_rev
            )
        return jobs

    setup_s, setup_times, jobs = _setup(setup)
    out.notes["setup_times_s"] = setup_times
    tracer = Tracer() if traced else None
    deadline = time.perf_counter() + ctx.seconds
    wall = 0.0
    # Host ms of each cell and each job, one entry per pass.
    cell_ms: Dict[str, List[float]] = {}
    job_ms: Dict[str, List[float]] = {}
    reference: Dict[str, str] = {}
    first_records: Dict[str, ExperimentRecord] = {}
    passes = traced_passes = cells = 0
    # Whole passes only, so every run measures the same cell mix.  A
    # traced run alternates untraced and traced passes, so both see the
    # same host conditions and their difference is the tracing cost.
    try:
        while passes == 0 or traced_passes < int(traced) or time.perf_counter() < deadline:
            if tracer is not None and traced_passes < passes:
                specs, root = _cold_traced_pass(
                    ctx, jobs, traced_passes, tracer, reference, out, cores
                )
                traced_passes += 1
                continue
            pass_wall, records, jobs_ms, cells_ms = _cold_pass(ctx, jobs, passes, out, cores)
            if passes == 0:
                first_records = records
                reference = {run_id: record_digest(r) for run_id, r in records.items()}
                for error in table2_shape_errors(records.values(), "Priv720p/"):
                    out.fail(f"Table-2 shape: {error}")
            else:
                for run_id, record in records.items():
                    if record_digest(record) != reference.get(run_id):
                        out.fail(f"cell {run_id}: repetition produced a different record")
            wall += pass_wall
            cells += len(records)
            for run_id, ms in cells_ms.items():
                cell_ms.setdefault(run_id, []).append(ms)
            for label, ms in jobs_ms.items():
                job_ms.setdefault(label, []).append(ms)
            passes += 1
    finally:
        cores.restore()
    out.notes["passes"] = passes
    out.digest = records_digest(first_records)
    # Every pass runs the same cells, so each cell and job is reported as
    # its best time over the passes (as ``timeit`` does), and the
    # percentiles are taken across cells (jobs).  The host's speed states
    # slow whole stretches of a run by up to 1.5x, and the share of a run
    # they cover differs from run to run; a cell's fastest pass is the
    # least touched by them (RATIONALE.md, "Host noise").
    cell_best = [min(values) for values in cell_ms.values()]
    job_best = [min(values) for values in job_ms.values()]
    if tracer is None:
        _e2e(out, setup_s, cells, wall, cell_best, job_best, _peak_rss_mb())
        # The percentiles are over distinct cells and jobs, each the best
        # of this many timings.
        out.notes["samples"]["timings_each"] = passes
        return out

    untraced_cell_ms = median(cell_best)
    probe_spec = _fault_cell(_derive(ctx.seed, "sweep-cold") + 1, COLD_DURATION_MS, COLD_WARMUP_MS)
    probe_row = _probe_cells(ctx, tracer, [probe_spec], {}, out, "cold-probe")[probe_spec.run_id]
    disk_get_spans(specs, os.path.join(root, "cells"), tracer)
    layers = sim_layer_metrics(tracer)
    layers["plan.build_ms"] = median(tracer.durations_ms("plan.build"))
    layers["store.get_ms"] = median(tracer.durations_ms("store.get"))
    layers.update(
        ledger_size_record(
            tracer,
            ctx.work,
            [("empty", None), ("history", None), ("end", RunLedger(root).path.as_posix())],
            probe_row,
        )
    )
    layers.update(_gateway_probe(ctx, out))
    # Every cold pass starts from an empty store, so every lookup misses.
    layers["store.hit_ratio"] = 0.0
    layers.update(_cell_layer_cover(tracer, untraced_cell_ms))
    out.notes["traced_passes"] = traced_passes
    out.notes["untraced_cell_ms_p50"] = untraced_cell_ms
    out.notes["tracer"] = tracer
    out.metrics.update(layers)
    return out


# -- gateway-mixed ----------------------------------------------------------


def _history(ctx: Context) -> str:
    """Real ledger rows for the gateway to start with (not timed)."""
    root = _fresh_dir(ctx, "history")
    rng = random.Random(f"gateway-mixed:{ctx.seed}:history")
    base = rng.randrange(10**5, 10**6) * 1000
    plan = Plan(
        gateway_load.gateway_cell(
            rng.choice(BENCHMARKS), rng.choice(REGULATORS), base + n
        )
        for n in range(HISTORY_ROWS)
    )
    SerialExecutor().run(plan, store=ResultStore(), ledger=RunLedger(root), git_rev=ctx.git_rev)
    return str(RunLedger(root).path)


def gateway_mixed(ctx: Context, traced: bool) -> Outcome:
    out = Outcome()
    started = time.perf_counter()
    history = _history(ctx)
    out.notes["history_s"] = time.perf_counter() - started
    harnesses: List[gateway_load.GatewayHarness] = []
    warm_s: List[float] = []

    def setup(rep: int) -> gateway_load.GatewayHarness:
        harness = gateway_load.GatewayHarness(
            _fresh_dir(ctx, f"gateway-{rep}"), ctx.workers, ctx.git_rev, history
        )
        harnesses.append(harness)
        harness.start()
        warm_s.append(harness.warm_s)
        return harness

    def teardown(harness: gateway_load.GatewayHarness) -> None:
        harnesses.remove(harness)
        harness.close()

    tracer = Tracer() if traced else None
    try:
        setup_s, setup_times, harness = _setup(setup, teardown)
        out.notes["setup_times_s"] = setup_times
        load = gateway_load.run_clients(
            harness, ctx.seed, ctx.seconds, ctx.clients, SAMPLE_PER_CLIENT, tracer
        )
        for error in load.errors:
            out.fail(error)
        out.attempted += len(load.jobs) + len(load.fetch_ms)
        jobs = load.jobs
        out.notes["jobs"] = {
            kind: sum(1 for j in jobs if j.kind == kind)
            for kind, _ in gateway_load.MIX
            if kind != "fetch"
        }
        out.notes["fetches"] = len(load.fetch_ms)
        # What the oversubscription guard assumes: the clients mostly
        # wait, and the benchmark process uses about one core.
        out.notes["client_cpu_frac"] = load.client_cpu_s / (load.wall_s * ctx.clients)
        out.notes["process_cpu_cores"] = load.process_cpu_s / load.wall_s
        # Served records against in-process ones, for the seeded sample.
        client = harness.client()
        served: Dict[str, ExperimentRecord] = {}
        served_digests: Dict[str, Optional[str]] = {}
        for spec in load.sample:
            response, torn = gateway_load.fetch(client, spec.run_id)
            load.torn_ledger_reads += torn
            served[spec.run_id] = record_from_dict(response["record"])
            served_digests[spec.run_id] = response.get("metrics_digest")
        out.attempted += len(load.sample)
        if not traced:
            for spec in load.sample:
                outcome = execute_cell(spec, collect_ledger=True, git_rev=ctx.git_rev)
                if outcome.record != served[spec.run_id]:
                    out.fail(f"{spec.label}: served record differs from execute_cell's")
                row = outcome.ledger_record
                if row is None or metrics_digest(row) != served_digests[spec.run_id]:
                    out.fail(f"{spec.label}: served ledger row differs from execute_cell's")
        out.digest = records_digest(served)
        out.notes["torn_ledger_reads"] = load.torn_ledger_reads
        dupes = gateway_load.duplicate_executions(jobs)
        if dupes:
            out.fail(f"{dupes} cell(s) executed more than once")
        if not traced:
            cells = sum(j.cells for j in jobs) + len(load.fetch_ms)
            rss = _peak_rss_mb() + gateway_load.worker_peak_rss_mb(jobs)
            job_ms = [j.job_ms for j in jobs]
            _e2e(out, setup_s, cells, load.wall_s, gateway_load.cell_ms(jobs), job_ms, rss)
            return out
        end_copy = os.path.join(ctx.work, "ledger-end.jsonl")
        shutil.copyfile(harness.ledger_path, end_copy)
        layers = gateway_load.service_layer_metrics(load, harness)
        layers["pool.warm_s"] = median(warm_s)
    finally:
        while harnesses:
            harnesses.pop().close()
    # Decomposed in-process runs of the sample, checked against the served
    # records and ledger digests, plus one fault cell for the recovery layer.
    fault = _fault_cell(
        _derive(ctx.seed, "gateway-mixed"), gateway_load.DURATION_MS, gateway_load.WARMUP_MS
    )
    rows = _probe_cells(ctx, tracer, list(load.sample) + [fault], served, out, "gateway-probe")
    for spec in load.sample:
        if metrics_digest(rows[spec.run_id]) != served_digests[spec.run_id]:
            out.fail(f"{spec.label}: served ledger row differs from the in-process one")
    probe_row = rows[fault.run_id]
    layers.update(sim_layer_metrics(tracer))
    layers["plan.build_ms"] = median(tracer.durations_ms("plan.build"))
    layers["store.get_ms"] = median(tracer.durations_ms("store.get"))
    layers.update(
        ledger_size_record(
            tracer, ctx.work, [("empty", None), ("history", history), ("end", end_copy)], probe_row
        )
    )
    layers.update(_job_cell_cover(tracer))
    layers["trace.overhead_frac"] = load.trace_s / load.wall_s
    out.notes["tracer"] = tracer
    out.metrics.update(layers)
    return out


WORKLOADS: Dict[str, Callable[[Context, bool], Outcome]] = {
    "sweep-cold": sweep_cold,
    "gateway-mixed": gateway_mixed,
}
