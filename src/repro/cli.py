"""Command-line interface: ``python -m repro`` / ``odr-sim``.

Subcommands::

    run         run one benchmark under one configuration and print metrics
    trace       run one configuration and write a Chrome/Perfetto trace
    figure      regenerate one of the paper's figures (1,3,4,5,6,7,9,...,13)
    table2      regenerate Table 2 (FPS gaps, all configurations)
    summary     regenerate the Sec. 6.6 overall summary
    userstudy   regenerate the Sec. 6.7 user study surrogate (Figs. 14-15)
    matrix      run the full 28-configuration matrix, export CSV

Sweep-shaped subcommands (``figure``, ``table2``, ``summary``,
``userstudy``, ``compare``, ``matrix``, ``bench``, ``chaos``) plan
their cells first and run them through one shared runner; renderers
then read the records of their executed plan.  ``compare`` plans both
regulators over seeds 1..N and reports bootstrap CIs of the paired
per-seed deltas.  ``figure``, ``table2``, ``summary``, ``matrix``,
``bench`` and ``chaos`` accept ``--workers N``
(process-pool execution, bit-identical to serial), ``--resume``
(persist completed cells under ``<ledger>/cells/`` and warm-start the
next invocation), ``--events`` (record sweep execution events to
``<ledger>/events.jsonl``), and ``--live`` (terminal dashboard while
the sweep runs); ``matrix`` additionally takes ``--benchmarks`` /
``--groups`` to run a reduced matrix.  Remaining subcommands::

    chaos       fault-injection chaos sweep: catalog fault classes ×
                regulator groups, scored into a resilience table
    compare     paired multi-seed comparison of two regulators
    consolidate multi-tenant sessions-per-server sweep
    breakdown   decompose MtP latency by pipeline component
    list        list benchmarks, platforms, and configuration labels
    analyze     static determinism analysis: clocks, entropy and set
                iteration in every file, call-graph purity, engine
                process and timestamp checks, cache-key/schema drift,
                fork safety (text/json/sarif output, baseline, cache)
    verify-determinism
                run one scenario twice under the same seed and compare
                schedule fingerprints
    profile     self-profile the engine: wall time per process, stage,
                and step callsite, plus queue depth and events/sec
    bench       run the smoke benchmark matrix into the run ledger (the
                rows CI's compare-runs gate diffs against the baselines)
    runs        list the records in the run ledger, plus quarantined
                corrupt cells and the last sweep's failures
    watch       follow a running sweep's event log with the live dashboard
    sweep-trace export a whole-sweep Chrome trace (cells on worker lanes)
    cost        attribute a sweep's wall clock (pool warmup / cell skew /
                serialization) from its event log
    baseline    show or pin the ledger's baseline record
    compare-runs
                regression sentinel: statistically diff two run records
                (Mann-Whitney U + bootstrap CIs), exit 1 on regression

Service verbs (the sweep gateway, see ``docs/SERVICE.md``)::

    serve       host the async sweep gateway: one warm worker pool,
                cross-job in-flight dedupe, streamed telemetry
    submit      plan a matrix/bench/chaos sweep from the local verb's
                flags and submit its cells to a running gateway
    status      list a gateway's jobs, or show one by id/prefix
    fetch       fetch one cell's record from a gateway by run_id

``watch --connect HOST:PORT`` follows a server-side job's event stream
with the same live dashboard it uses for local event logs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from repro.experiments.chaos import chaos_demands
from repro.experiments.config import (
    ExperimentConfig,
    PlatformRes,
    paper_configuration_matrix,
    platform_res_combos,
)
from repro.experiments.executor import ExecutionError, ExecutionReport, make_executor
from repro.experiments.plan import Plan, bench_demands, matrix_demands
from repro.experiments.runner import PlanRecords, Runner
from repro.experiments.store import ResultStore
from repro.faults.catalog import build_fault_plan, fault_class_names
from repro.obs.ledger import DEFAULT_LEDGER_DIR
from repro.pipeline import CloudSystem, SystemConfig
from repro.regulators import make_regulator
from repro.service.cli import add_connect_args, add_service_parsers
from repro.workloads import BENCHMARKS, PLATFORMS, Resolution

__all__ = ["main"]

#: Default locations for the analyzer's checked-in suppression baseline
#: and its (gitignored) per-file-hash facts cache.
DEFAULT_ANALYZE_BASELINE = ".odr-analyze-baseline.json"
DEFAULT_ANALYZE_CACHE = ".odr-analyze-cache.json"


def _add_exec_args(sub: argparse.ArgumentParser) -> None:
    """The plan-executor knobs shared by every sweep-shaped subcommand."""
    sub.add_argument(
        "--workers", type=int, default=1,
        help="execute the cell plan over N worker processes (default: serial)",
    )
    sub.add_argument(
        "--resume", action="store_true",
        help="persist completed cells under the ledger directory's cells/ "
             "store and reuse them across invocations (warm start)",
    )
    sub.add_argument(
        "--cell-timeout", type=float, default=None, metavar="S",
        help="fail any cell whose result takes longer than S seconds "
             "(parallel executor only)",
    )
    sub.add_argument(
        "--events", action="store_true",
        help="record sweep execution events (cell lifecycle, worker "
             "telemetry) to the ledger directory's events.jsonl",
    )
    sub.add_argument(
        "--live", action="store_true",
        help="show a live terminal dashboard while the sweep runs "
             "(implies --events persistence when a ledger is in play)",
    )


def _csv_items(values: List[str]) -> List[str]:
    """Flatten ``nargs`` tokens, splitting comma-separated ones.

    Lets list options take either form: ``--benchmarks STK IM`` or
    ``--benchmarks STK,IM``.
    """
    items: List[str] = []
    for value in values:
        items.extend(part for part in value.split(",") if part)
    return items


# The sweep verbs' plan flags and ``args → Plan`` builders.  The local
# verb and ``submit <verb>`` both register and call these, so the same
# command plans the same cells whether it runs here or on a gateway.
# A builder raises ``ValueError`` for input argparse cannot check.


def _add_matrix_plan_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--ablation", action="store_true",
                     help="include the ODRMax-noPri rows")
    sub.add_argument(
        "--benchmarks", nargs="+", choices=sorted(BENCHMARKS),
        help="restrict to these benchmarks (reduced matrix)",
    )
    sub.add_argument(
        "--groups", nargs="+",
        choices=[c.label for c in platform_res_combos()],
        help="restrict to these platform-resolution groups (reduced matrix)",
    )


def _matrix_plan(args: argparse.Namespace) -> Plan:
    return matrix_demands(
        benchmarks=sorted(args.benchmarks) if args.benchmarks else None,
        groups=args.groups,
        include_ablation=args.ablation,
        seeds=(args.seed,),
        duration_ms=args.duration,
        warmup_ms=args.warmup,
    )


def _add_bench_plan_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--seeds", type=int, nargs="+", default=[1, 2], help="seeds per cell"
    )
    sub.add_argument(
        "--benchmarks", nargs="+", choices=sorted(BENCHMARKS), default=["IM", "STK"]
    )
    sub.add_argument(
        "--regulators", nargs="+", default=["NoReg", "ODR60"],
        help="regulator specs per cell",
    )
    sub.add_argument("--platform", choices=sorted(PLATFORMS), default="private")
    sub.add_argument(
        "--resolution", choices=[r.value for r in Resolution], default="720p"
    )


def _bench_plan(args: argparse.Namespace) -> Plan:
    for spec in args.regulators:
        make_regulator(spec)  # raises ValueError on a bad spec
    return bench_demands(
        benchmarks=args.benchmarks,
        regulators=args.regulators,
        seeds=args.seeds,
        platform=args.platform,
        resolution=args.resolution,
        duration_ms=args.duration,
        warmup_ms=args.warmup,
    )


def _add_chaos_plan_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--benchmarks", nargs="+", default=["STK", "IM"],
        help="benchmarks to disturb (space- or comma-separated)",
    )
    sub.add_argument(
        "--groups", nargs="+", default=["NoReg", "Int60", "ODR60"],
        help="regulator specs to contrast (space- or comma-separated)",
    )
    sub.add_argument(
        "--faults", nargs="+", default=None, metavar="CLASS",
        help="fault classes to inject (default: the whole catalog: "
             + ", ".join(fault_class_names()) + ")",
    )
    sub.add_argument(
        "--seeds", type=int, nargs="+", default=[1], help="seeds per cell"
    )
    sub.add_argument("--platform", choices=sorted(PLATFORMS), default="private")
    sub.add_argument(
        "--resolution", choices=[r.value for r in Resolution], default="720p"
    )
    sub.add_argument(
        "--no-baseline", action="store_true",
        help="skip the fault-free contrast cells",
    )


def _chaos_plan(args: argparse.Namespace) -> Plan:
    benchmarks = _csv_items(args.benchmarks)
    unknown = sorted(set(benchmarks) - set(BENCHMARKS))
    if unknown:
        raise ValueError(f"unknown benchmark(s): {', '.join(unknown)}")
    fault_classes = _csv_items(args.faults) if args.faults else None
    if fault_classes:
        bad = sorted(set(fault_classes) - set(fault_class_names()))
        if bad:
            raise ValueError(f"unknown fault class(es): {', '.join(bad)}")
    regulators = _csv_items(args.groups)
    for spec in regulators:
        make_regulator(spec)  # raises ValueError on a bad spec
    return chaos_demands(
        benchmarks=benchmarks,
        regulators=regulators,
        fault_classes=fault_classes,
        seeds=args.seeds,
        platform=args.platform,
        resolution=args.resolution,
        duration_ms=args.duration,
        warmup_ms=args.warmup,
        include_baseline=not args.no_baseline,
    )


#: Verb → (plan-flag registrar, ``args → Plan`` builder) for every
#: sweep verb ``odr-sim submit`` can send to a gateway.
SWEEP_PLANS = {
    "matrix": (_add_matrix_plan_args, _matrix_plan),
    "bench": (_add_bench_plan_args, _bench_plan),
    "chaos": (_add_chaos_plan_args, _chaos_plan),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odr-sim",
        description="OnDemand Rendering (EuroSys'24) reproduction harness",
    )
    parser.add_argument("--seed", type=int, default=1, help="experiment seed")
    parser.add_argument(
        "--duration", type=float, default=20000.0, help="measured simulated time (ms)"
    )
    parser.add_argument(
        "--warmup", type=float, default=3000.0, help="warm-up simulated time (ms)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one benchmark under one configuration")
    run.add_argument("benchmark", choices=sorted(BENCHMARKS))
    run.add_argument("regulator", help="e.g. NoReg, Int60, RVSMax, ODR30, ODRMax-noPri")
    run.add_argument("--platform", choices=sorted(PLATFORMS), default="private")
    run.add_argument(
        "--resolution", choices=[r.value for r in Resolution], default="720p"
    )

    trace = sub.add_parser(
        "trace",
        help="run one configuration with telemetry and write a Chrome trace",
    )
    trace.add_argument("--benchmark", choices=sorted(BENCHMARKS), required=True)
    trace.add_argument(
        "--regulator", required=True, help="e.g. NoReg, Int60, RVSMax, ODR60, odr"
    )
    trace.add_argument("--platform", choices=sorted(PLATFORMS), default="private")
    trace.add_argument(
        "--resolution", choices=[r.value for r in Resolution], default="720p"
    )
    trace.add_argument(
        "-o", "--output", required=True,
        help="Chrome Trace Format output path (open in chrome://tracing or Perfetto)",
    )
    trace.add_argument(
        "--jsonl", help="also write a JSONL telemetry dump to this path"
    )
    trace.add_argument(
        "--no-probe", action="store_true",
        help="skip engine-level probing (events, heap depth, wall clock)",
    )

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument(
        "number",
        choices=["1", "3", "4", "5", "6", "7", "9", "10", "11", "12", "13"],
    )
    _add_exec_args(fig)

    table2_cmd = sub.add_parser("table2", help="regenerate Table 2 (FPS gaps)")
    _add_exec_args(table2_cmd)
    summary_cmd = sub.add_parser(
        "summary", help="regenerate the Sec. 6.6 overall summary"
    )
    _add_exec_args(summary_cmd)
    sub.add_parser("userstudy", help="regenerate the user study surrogate")
    sub.add_parser("list", help="list benchmarks, platforms, configurations")

    matrix = sub.add_parser(
        "matrix", help="run the full 28-configuration matrix and export CSV"
    )
    matrix.add_argument("output", help="destination CSV path")
    _add_matrix_plan_args(matrix)
    matrix.add_argument(
        "--telemetry-dir",
        help="also persist per-cell Chrome traces + JSONL telemetry here",
    )
    matrix.add_argument(
        "--ledger",
        help="append every cell's run record to this run-ledger directory",
    )
    _add_exec_args(matrix)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection chaos sweep: fault classes x regulators, "
             "scored into a resilience table",
    )
    _add_chaos_plan_args(chaos)
    chaos.add_argument("--ledger", default=DEFAULT_LEDGER_DIR,
                       help="run-ledger directory")
    chaos.add_argument(
        "-o", "--output", default="CHAOS_report.json",
        help="machine-readable resilience report path",
    )
    _add_exec_args(chaos)

    compare = sub.add_parser(
        "compare", help="paired multi-seed comparison of two regulators"
    )
    compare.add_argument("benchmark", choices=sorted(BENCHMARKS))
    compare.add_argument("regulator_a")
    compare.add_argument("regulator_b")
    compare.add_argument("--platform", choices=sorted(PLATFORMS), default="private")
    compare.add_argument(
        "--resolution", choices=[r.value for r in Resolution], default="720p"
    )
    compare.add_argument("--seeds", type=int, default=5, help="number of seeds")

    consolidate = sub.add_parser(
        "consolidate", help="multi-tenant consolidation sweep on one server"
    )
    consolidate.add_argument("regulator", help="per-session regulator spec")
    consolidate.add_argument("--max-sessions", type=int, default=4)
    consolidate.add_argument("--platform", choices=sorted(PLATFORMS), default="private")
    consolidate.add_argument(
        "--resolution", choices=[r.value for r in Resolution], default="720p"
    )

    breakdown = sub.add_parser(
        "breakdown", help="decompose MtP latency by pipeline component"
    )
    breakdown.add_argument("benchmark", choices=sorted(BENCHMARKS))
    breakdown.add_argument("regulator")
    breakdown.add_argument("--platform", choices=sorted(PLATFORMS), default="private")
    breakdown.add_argument(
        "--resolution", choices=[r.value for r in Resolution], default="720p"
    )

    analyze = sub.add_parser(
        "analyze",
        help="static determinism analysis: purity, simulation "
             "correctness, contract drift, fork safety",
    )
    analyze.add_argument(
        "paths", nargs="*", default=["src/repro", "tests"],
        help="files or directories to analyze (default: src/repro tests)",
    )
    analyze.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        dest="fmt", help="output format",
    )
    analyze.add_argument(
        "--select",
        help="comma-separated rule ids to run (e.g. P1,C1); default: all",
    )
    analyze.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    analyze.add_argument(
        "--explain", metavar="RULE",
        help="print the long-form explanation for one rule and exit",
    )
    analyze.add_argument(
        "--baseline", default=DEFAULT_ANALYZE_BASELINE,
        help="suppression baseline file (default: %(default)s); "
             "'none' disables",
    )
    analyze.add_argument(
        "--write-baseline", action="store_true",
        help="adopt every current finding into the baseline file and exit 0",
    )
    analyze.add_argument(
        "--cache", default=DEFAULT_ANALYZE_CACHE,
        help="per-file-hash facts cache (default: %(default)s); "
             "'none' disables",
    )
    analyze.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the facts cache",
    )
    analyze.add_argument(
        "--stats", action="store_true",
        help="print cache hit/miss and timing stats to stderr",
    )

    verify = sub.add_parser(
        "verify-determinism",
        help="run a scenario twice under one seed; fail if schedules diverge",
    )
    verify.add_argument("--benchmark", choices=sorted(BENCHMARKS), default="IM")
    verify.add_argument("--regulator", default="ODR60")
    verify.add_argument("--platform", choices=sorted(PLATFORMS), default="private")
    verify.add_argument(
        "--resolution", choices=[r.value for r in Resolution], default="720p"
    )
    verify.add_argument(
        "--fault-class", choices=fault_class_names(), default=None,
        help="inject this catalog fault class into both runs (the fault "
             "machinery must be deterministic too)",
    )

    profile = sub.add_parser(
        "profile",
        help="self-profile the engine: wall time per process/stage/callsite",
    )
    profile.add_argument("--benchmark", choices=sorted(BENCHMARKS), default="IM")
    profile.add_argument("--regulator", default="ODR60")
    profile.add_argument("--platform", choices=sorted(PLATFORMS), default="private")
    profile.add_argument(
        "--resolution", choices=[r.value for r in Resolution], default="720p"
    )
    profile.add_argument(
        "--top", type=int, default=10, help="callsites to show"
    )
    profile.add_argument(
        "--depth-sample", type=float, default=250.0,
        help="queue-depth sample bucket width (simulated ms)",
    )
    profile.add_argument(
        "--trace",
        help="also write a Chrome trace with the self-profiler overlay",
    )
    profile.add_argument(
        "--json", action="store_true", help="emit the profile summary as JSON"
    )

    bench = sub.add_parser(
        "bench",
        help="run the smoke benchmark matrix into the run ledger",
    )
    bench.add_argument("--ledger", default=DEFAULT_LEDGER_DIR,
                       help="run-ledger directory")
    _add_bench_plan_args(bench)
    _add_exec_args(bench)

    runs_cmd = sub.add_parser("runs", help="list the run ledger's records")
    runs_cmd.add_argument("--ledger", default=DEFAULT_LEDGER_DIR,
                          help="run-ledger directory")

    watch = sub.add_parser(
        "watch",
        help="follow a running sweep's event log with the live dashboard",
    )
    watch.add_argument("--ledger", default=DEFAULT_LEDGER_DIR,
                       help="run-ledger directory (reads its events.jsonl)")
    watch.add_argument(
        "--poll", type=float, default=0.25, metavar="S",
        help="tail poll interval in seconds",
    )
    watch.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="give up after S seconds with no new events (default: wait "
             "forever; press q or Ctrl-C to leave)",
    )
    watch.add_argument(
        "--job", default=None, metavar="ID",
        help="with --connect: job id or unique prefix to follow "
             "(default: the newest submission)",
    )
    add_connect_args(
        watch, default=None,
        connect_help="stream from a running sweep gateway instead of a "
                     "local event log",
    )

    sweep_trace = sub.add_parser(
        "sweep-trace",
        help="export a whole-sweep Chrome trace (cells as spans on "
             "worker lanes) from the sweep event log",
    )
    sweep_trace.add_argument("--ledger", default=DEFAULT_LEDGER_DIR,
                             help="run-ledger directory (reads its events.jsonl)")
    sweep_trace.add_argument(
        "--sweep", default=None, metavar="ID",
        help="sweep id (or unique prefix) to export (default: the latest)",
    )
    sweep_trace.add_argument(
        "-o", "--output", required=True,
        help="Chrome Trace Format output path (open in chrome://tracing "
             "or Perfetto)",
    )

    cost = sub.add_parser(
        "cost",
        help="attribute a sweep's wall clock: pool warmup vs cell skew "
             "vs serialization, with per-cell resource rows",
    )
    cost.add_argument("--ledger", default=DEFAULT_LEDGER_DIR,
                      help="run-ledger directory (reads its events.jsonl)")
    cost.add_argument(
        "--sweep", default=None, metavar="ID",
        help="sweep id (or unique prefix) to report on (default: the latest)",
    )
    cost.add_argument(
        "--top", type=int, default=10, help="slowest cells to list"
    )
    cost.add_argument(
        "-o", "--output", default=None,
        help="also write the full cost report as JSON to this path",
    )

    baseline = sub.add_parser(
        "baseline", help="show or pin the ledger's baseline record"
    )
    baseline.add_argument(
        "ref", nargs="?",
        help="run ref to promote (run-id prefix, latest, latest~N, or a "
             "record JSON path); omit to show the current baseline",
    )
    baseline.add_argument("--ledger", default=DEFAULT_LEDGER_DIR,
                          help="run-ledger directory")

    compare_runs = sub.add_parser(
        "compare-runs",
        help="regression sentinel: statistically diff two run records",
    )
    compare_runs.add_argument(
        "run_a",
        help="reference run: run-id prefix, 'latest', 'latest~N', "
             "'baseline', or a record JSON path",
    )
    compare_runs.add_argument(
        "run_b", nargs="?", default="latest",
        help="candidate run (default: latest)",
    )
    compare_runs.add_argument("--ledger", default=DEFAULT_LEDGER_DIR,
                              help="run-ledger directory")
    compare_runs.add_argument(
        "--format", choices=["text", "json"], default="text", dest="fmt",
        help="output format",
    )
    compare_runs.add_argument(
        "--alpha", type=float, default=0.01,
        help="Mann-Whitney significance level",
    )
    compare_runs.add_argument(
        "--tolerance", type=float, default=0.02,
        help="relative mean shift below which a significant change is ignored",
    )
    compare_runs.add_argument(
        "--resamples", type=int, default=2000, help="bootstrap resamples"
    )

    add_service_parsers(sub, SWEEP_PLANS)
    return parser


def _cmd_run(args: argparse.Namespace) -> str:
    config = SystemConfig(
        benchmark=args.benchmark,
        platform=PLATFORMS[args.platform],
        resolution=Resolution(args.resolution),
        seed=args.seed,
        duration_ms=args.duration,
        warmup_ms=args.warmup,
    )
    result = CloudSystem(config, make_regulator(args.regulator)).run()
    gap = result.fps_gap()
    lines = [
        f"benchmark={args.benchmark} platform={args.platform} "
        f"resolution={args.resolution} regulator={args.regulator}",
        f"  render FPS : {result.render_fps:8.1f}",
        f"  encode FPS : {result.encode_fps:8.1f}",
        f"  client FPS : {result.client_fps:8.1f}",
        f"  FPS gap    : {gap.mean_gap:8.1f} (max {gap.max_gap:.1f})",
        f"  bandwidth  : {result.bandwidth_mbps():8.1f} Mbps",
    ]
    samples = result.mtp_samples()
    if samples:
        box = result.mtp_box()
        lines.append(f"  MtP latency: {result.mean_mtp_ms():8.1f} ms (p99 {box.p99:.1f})")
    from repro.hardware import evaluate_hardware

    hw = evaluate_hardware(result)
    lines.append(
        f"  hardware   : miss {hw.dram.row_miss_rate*100:.1f}%  "
        f"read {hw.dram.read_access_ns:.1f} ns  IPC {hw.ipc:.2f}  "
        f"power {hw.power.total_w:.1f} W"
    )
    return "\n".join(lines)


def _cmd_trace(args: argparse.Namespace) -> str:
    from repro.obs import Telemetry, write_chrome_trace, write_jsonl

    telemetry = Telemetry(engine_probe=not args.no_probe)
    config = SystemConfig(
        benchmark=args.benchmark,
        platform=PLATFORMS[args.platform],
        resolution=Resolution(args.resolution),
        seed=args.seed,
        duration_ms=args.duration,
        warmup_ms=args.warmup,
    )
    regulator = make_regulator(args.regulator)
    CloudSystem(config, regulator, telemetry=telemetry).run()

    n_events = write_chrome_trace(telemetry, args.output)
    snapshot = telemetry.snapshot()
    displayed = snapshot.counter_value("frames_displayed_total")
    spans = telemetry.spans
    lines = [
        f"benchmark={args.benchmark} platform={args.platform} "
        f"resolution={args.resolution} regulator={regulator.name}",
        f"  spans      : {len(spans)} frames "
        f"({displayed:.0f} displayed, {len(spans.spans(dropped=True))} dropped)",
    ]
    for key, value in sorted(snapshot.counters.items(), key=lambda i: str(i[0])):
        if key.name == "frames_dropped_total":
            lines.append(f"  drops      : {key.label('reason')} x {value:.0f}")
    gate = snapshot.histogram_stats("gate_delay_ms")
    if gate.count:
        lines.append(
            f"  gate delay : mean {gate.mean:.2f} ms  p99 {gate.p99:.2f} ms"
        )
    if telemetry.probe is not None:
        probe = telemetry.probe.summary()
        wall = probe["wall_per_sim_second_mean"]
        lines.append(
            f"  engine     : {probe['events_fired']} events fired, "
            f"heap depth {probe['max_heap_depth']}, "
            f"{probe['processes_started']} processes"
            + (f", {wall * 1000:.2f} ms wall/sim-s" if wall is not None else "")
        )
    lines.append(f"  wrote {n_events} trace events to {args.output}")
    if args.jsonl:
        n_lines = write_jsonl(telemetry, args.jsonl)
        lines.append(f"  wrote {n_lines} JSONL records to {args.jsonl}")
    return "\n".join(lines)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.devtools.analyzer import RULES, analyze, explain, to_sarif
    from repro.devtools.analyzer.baseline import write_baseline_payload

    if args.list_rules:
        for rule, summary in sorted(RULES.items()):
            print(f"{rule}  {summary}")
        return 0
    if args.explain:
        text = explain(args.explain)
        if text is None:
            print(f"analyze: unknown rule {args.explain!r}", file=sys.stderr)
            return 2
        print(text)
        return 0
    select = args.select.split(",") if args.select else None
    baseline_path = None if args.baseline == "none" else args.baseline
    baseline_text = None
    if baseline_path is not None and not args.write_baseline:
        try:
            with open(baseline_path, "r", encoding="utf-8") as handle:
                baseline_text = handle.read()
        except FileNotFoundError:
            baseline_text = None
    cache_path = None if (args.no_cache or args.cache == "none") else args.cache
    try:
        report = analyze(
            args.paths,
            select=select,
            baseline_text=baseline_text,
            cache_path=cache_path,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        if baseline_path is None:
            print("analyze: --write-baseline needs a baseline path", file=sys.stderr)
            return 2
        with open(baseline_path, "w", encoding="utf-8") as handle:
            handle.write(write_baseline_payload(list(report.findings)))
        print(
            f"analyze: wrote {len(report.findings)} entr(y/ies) to {baseline_path}"
        )
        return 0
    if args.fmt == "json":
        print(report.to_json())
    elif args.fmt == "sarif":
        print(to_sarif(list(report.findings)))
    else:
        for finding in report.findings:
            print(finding.render())
        print(report.summary_line())
    if args.stats:
        print(
            f"analyze: {report.files_scanned} file(s) in "
            f"{report.elapsed_s:.2f}s (cache: {report.cache_hits} hit(s), "
            f"{report.cache_misses} miss(es))",
            file=sys.stderr,
        )
    return 0 if report.ok else 1


def _cmd_verify_determinism(args: argparse.Namespace) -> int:
    from repro.devtools.determinism import verify_determinism

    fault_plan = None
    if args.fault_class:
        fault_plan = build_fault_plan(args.fault_class, args.duration, args.warmup)
    report = verify_determinism(
        seed=args.seed,
        benchmark=args.benchmark,
        regulator=args.regulator,
        platform=args.platform,
        resolution=args.resolution,
        duration_ms=args.duration,
        warmup_ms=args.warmup,
        fault_plan=fault_plan,
    )
    if args.fault_class:
        print(f"fault class: {args.fault_class}")
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """The chaos sweep: catalog fault classes × regulator groups.

    Cells execute through the same runner as every other sweep —
    ``--resume`` warm-starts from ``<ledger>/cells/``,
    ``--workers``/``--cell-timeout`` harden the fan-out — and the
    aggregated resilience table lands on stdout plus a JSON report.
    Failed cells are enumerated on stderr and exit non-zero; a
    follow-up ``--resume`` run executes only what is missing.
    """
    import json

    from repro.experiments.chaos import (
        render_resilience,
        resilience_payload,
        resilience_rows,
    )

    try:
        plan = _chaos_plan(args)
    except ValueError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    runner = _experiment_runner(args)
    ledger = runner.attach_ledger(args.ledger)
    report = _run_sweep("chaos", runner, plan)

    rows = resilience_rows(report.outcomes)
    print(render_resilience(rows))
    print(f"chaos: {report.describe()}; ledger at {ledger.path}")

    payload = resilience_payload(rows)
    payload["git_rev"] = runner.git_rev
    payload["duration_ms"] = args.duration
    payload["warmup_ms"] = args.warmup
    payload["seeds"] = list(args.seeds)
    payload["failed_cells"] = [f.spec.run_id for f in report.failures]
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")
    print(f"chaos: wrote resilience report to {args.output}")
    return 0 if report.ok else 1


def _cmd_profile(args: argparse.Namespace) -> str:
    import json

    from repro.obs import SimProfiler, Telemetry, write_chrome_trace

    telemetry = Telemetry()
    profiler = SimProfiler(depth_sample_ms=args.depth_sample)
    telemetry.probe = profiler
    config = SystemConfig(
        benchmark=args.benchmark,
        platform=PLATFORMS[args.platform],
        resolution=Resolution(args.resolution),
        seed=args.seed,
        duration_ms=args.duration,
        warmup_ms=args.warmup,
    )
    system = CloudSystem(config, make_regulator(args.regulator), telemetry=telemetry)
    profiler.start()
    system.run()
    profiler.finish()

    if args.json:
        return json.dumps(profiler.summary(), sort_keys=True, indent=2)
    lines = [
        f"benchmark={args.benchmark} platform={args.platform} "
        f"resolution={args.resolution} regulator={args.regulator}",
        profiler.report(top_k=args.top),
    ]
    if args.trace:
        n_events = write_chrome_trace(telemetry, args.trace, profiler=profiler)
        lines.append(f"wrote {n_events} trace events (with overlay) to {args.trace}")
    return "\n".join(lines)


def _cmd_bench(args: argparse.Namespace) -> int:
    """The smoke benchmark matrix (benchmarks × regulators × seeds) into
    the run ledger, whose rows CI's ``compare-runs`` gate diffs against
    ``benchmarks/baselines/``.  Speed is measured by ``perfbench/``."""
    try:
        plan = _bench_plan(args)
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    runner = _experiment_runner(args)
    ledger = runner.attach_ledger(args.ledger)
    report = _run_sweep("bench", runner, plan)
    print(f"bench: {report.describe()}; ledger at {ledger.path}")
    return 0 if report.ok else 1


def _describe_record(record: dict) -> str:
    metrics = record.get("metrics", {})
    wall = record.get("wall_clock_s")
    return (
        f"{record.get('run_id', '?'):16s} seed={record.get('seed', '?'):<3} "
        f"{str(record.get('label', '')):24s} "
        f"client {metrics.get('client_fps', float('nan')):6.1f} FPS  "
        f"gap {metrics.get('fps_gap_mean', float('nan')):6.1f}"
        + (f"  {wall:6.2f} s" if isinstance(wall, (int, float)) else "")
        + (f"  @{record['git_rev']}" if record.get("git_rev") else "")
    )


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs import RunLedger

    ledger = RunLedger(args.ledger)
    records = ledger.records()
    if records:
        for record in records:
            print(_describe_record(record))
        baseline = ledger.baseline()
        print(f"{len(records)} record(s) in {ledger.path}")
        if baseline is not None:
            print(f"baseline: {baseline.get('run_id')} ({baseline.get('label', '')})")
    else:
        print(f"runs: ledger {ledger.path} is empty")

    # The parts an all-green listing would hide: corrupt cells the store
    # quarantined, and cells the last recorded sweep failed to execute.
    quarantined = ResultStore(os.path.join(args.ledger, "cells")).quarantined()
    if quarantined:
        print(f"quarantined corrupt cell(s) under {args.ledger}/cells/corrupt/:")
        for run_id in quarantined:
            print(f"  {run_id}  (will re-execute on the next resume)")
    failures = _last_sweep_failures(args.ledger)
    if failures:
        print("failed cell(s) in the last recorded sweep:")
        for line in failures:
            print(f"  {line}")
    return 0


def _last_sweep_failures(ledger_dir: str) -> List[str]:
    """Failure lines from the newest sweep in ``<ledger>/events.jsonl``."""
    from repro.obs import sweep as sweepbus
    from repro.obs.sweep import events_path_for, read_events

    try:
        events = read_events(events_path_for(ledger_dir))
    except OSError:
        return []
    lines: List[str] = []
    for event in events:
        if event.kind == sweepbus.CELL_FAILED:
            lines.append(
                f"{event.get('label', event.run_id)} [{event.run_id}]: "
                f"{event.get('error', '?')} "
                f"(after {event.get('attempts', '?')} attempt(s))"
            )
        elif event.kind == sweepbus.CELL_TIMED_OUT:
            lines.append(
                f"{event.get('label', event.run_id)} [{event.run_id}]: "
                f"timed out after {event.get('timeout_s')}s"
            )
    return lines


def _cmd_watch(args: argparse.Namespace) -> int:
    if args.connect:
        from repro.service.cli import watch_remote

        return watch_remote(args)
    from repro.obs.dashboard import SweepDashboard, follow_events
    from repro.obs.sweep import events_path_for

    path = events_path_for(args.ledger)
    print(f"watch: following {path} (q or Ctrl-C to leave)")
    dashboard = SweepDashboard()
    try:
        consumed = follow_events(
            path,
            dashboard,
            poll_s=args.poll,
            timeout_s=args.timeout,
        )
    except KeyboardInterrupt:
        print()
        return 0
    if consumed == 0:
        print(f"watch: no events at {path}")
        return 1
    return 0


def _cmd_sweep_trace(args: argparse.Namespace) -> int:
    from repro.obs.sweep import events_path_for, read_events
    from repro.obs.sweeptrace import write_sweep_trace

    path = events_path_for(args.ledger)
    try:
        events = read_events(path, sweep_id=args.sweep)
    except (OSError, ValueError) as exc:
        print(f"sweep-trace: {exc}", file=sys.stderr)
        return 2
    if not events:
        print(f"sweep-trace: no events in {path}", file=sys.stderr)
        return 2
    count = write_sweep_trace(events, args.output)
    print(
        f"wrote {count} trace event(s) for sweep {events[0].sweep_id} "
        f"to {args.output}"
    )
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    import json

    from repro.obs.cost import render_cost, sweep_cost
    from repro.obs.sweep import events_path_for, read_events

    path = events_path_for(args.ledger)
    try:
        events = read_events(path, sweep_id=args.sweep)
    except (OSError, ValueError) as exc:
        print(f"cost: {exc}", file=sys.stderr)
        return 2
    if not events:
        print(f"cost: no events in {path}", file=sys.stderr)
        return 2
    report = sweep_cost(events)
    print(render_cost(report, top=args.top))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"cost: wrote JSON report to {args.output}")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    from repro.obs import RunLedger, resolve_record

    ledger = RunLedger(args.ledger)
    if args.ref is None:
        baseline = ledger.baseline()
        if baseline is None:
            print(f"baseline: none pinned at {ledger.baseline_path}")
            return 1
        print(_describe_record(baseline))
        return 0
    try:
        record = resolve_record(args.ref, ledger)
    except (OSError, ValueError) as exc:
        print(f"baseline: {exc}", file=sys.stderr)
        return 2
    path = ledger.set_baseline(record)
    print(f"pinned {record.get('run_id')} ({record.get('label', '')}) at {path}")
    return 0


def _cmd_compare_runs(args: argparse.Namespace) -> int:
    from repro.obs import RunLedger, compare_records, resolve_record

    ledger = RunLedger(args.ledger)
    try:
        record_a = resolve_record(args.run_a, ledger)
        record_b = resolve_record(args.run_b, ledger)
    except (OSError, ValueError) as exc:
        print(f"compare-runs: {exc}", file=sys.stderr)
        return 2
    report = compare_records(
        record_a,
        record_b,
        alpha=args.alpha,
        tolerance=args.tolerance,
        resamples=args.resamples,
    )
    if args.fmt == "json":
        print(report.to_json())
    else:
        print(report.describe())
    return 0 if report.ok else 1


def _sweep_bus(args: argparse.Namespace):
    """Build the sweep event bus a subcommand asked for, or ``None``.

    ``--events`` persists execution events to the ledger directory's
    ``events.jsonl`` (the artifact ``watch`` / ``sweep-trace`` /
    ``cost`` read); ``--live`` additionally attaches the terminal
    dashboard.  Without either flag, executors run with no bus at all —
    the zero-overhead default.
    """
    wants_events = getattr(args, "events", False)
    wants_live = getattr(args, "live", False)
    if not (wants_events or wants_live):
        return None
    from repro.obs.sweep import SweepEventBus, events_path_for

    path = None
    if wants_events:
        ledger_dir = getattr(args, "ledger", None) or DEFAULT_LEDGER_DIR
        path = events_path_for(ledger_dir)
    bus = SweepEventBus(path=path)
    if wants_live:
        from repro.obs.dashboard import SweepDashboard

        SweepDashboard().attach(bus)
    return bus


def _experiment_runner(args: argparse.Namespace) -> Runner:
    """Build the Runner a subcommand asked for: executor + result store.

    ``--workers N`` swaps in the process-pool executor; ``--resume``
    persists completed cells under ``<ledger>/cells/`` so a later
    invocation warm-starts instead of re-simulating; ``--events`` /
    ``--live`` attach the sweep event bus.  Subcommands without those
    flags get the plain serial, memory-only, unobserved runner.
    """
    workers = getattr(args, "workers", 1) or 1
    store = None
    if getattr(args, "resume", False):
        ledger_dir = getattr(args, "ledger", None) or DEFAULT_LEDGER_DIR
        store = ResultStore(os.path.join(ledger_dir, "cells"))
    runner = Runner(
        seed=args.seed,
        duration_ms=args.duration,
        warmup_ms=args.warmup,
        executor=make_executor(
            workers, cell_timeout_s=getattr(args, "cell_timeout", None)
        ),
        store=store,
    )
    runner.bus = _sweep_bus(args)
    return runner


def _run_sweep(verb: str, runner: Runner, plan: Plan) -> ExecutionReport:
    """Run a sweep-shaped subcommand's plan through ``runner``.

    Failed cells do not stop the sweep: each is listed on stderr and
    the caller exits 1 unless ``report.ok``.  The sweep event bus is
    closed here, and its events file named on stdout.
    """
    bus = runner.bus
    try:
        report = runner.run_plan(plan, allow_failures=True)
    finally:
        if bus is not None:
            bus.close()
    if bus is not None and bus.path is not None:
        print(f"{verb}: sweep events at {bus.path} (sweep {bus.sweep_id})")
    for failure in report.failures:
        print(
            f"{verb}: FAILED {failure.spec.label} ({failure.spec.run_id}) "
            f"after {failure.attempts} attempt(s): {failure.error}",
            file=sys.stderr,
        )
    return report


def _cmd_figure(args: argparse.Namespace, records: PlanRecords) -> str:
    from repro.experiments import figures

    generators = {
        "1": lambda: figures.fig01_fps_gap(records),
        "3": lambda: figures.fig03_regulation_fps(records),
        "4": lambda: figures.fig04_time_variation(seed=args.seed),
        "5": lambda: figures.fig05_pipeline_schedules(seed=args.seed),
        "6": lambda: figures.fig06_mtp_latency(records),
        "7": lambda: figures.fig07_dram_efficiency(records),
        "9": lambda: figures.fig09_qos_averages(records),
        "10": lambda: figures.fig10_client_fps_detail(records),
        "11": lambda: figures.fig11_mtp_detail(records),
        "12": lambda: figures.fig12_memory_efficiency(records),
        "13": lambda: figures.fig13_power(records),
    }
    return generators[args.number]()["text"]


def _cmd_compare(args: argparse.Namespace, runner: Runner) -> int:
    """Pair two regulators seed by seed: a seed-axis plan, then CIs of ``b - a``.

    A metric is marked ``[+]``/``[-]`` when the bootstrap 95 % CI of
    its mean delta excludes 0 — only from 4 seeds on.  With n seeds the
    all-minimum resample has probability n**-n, above the 2.5 % tail
    for n <= 3, so there the CI is [min delta, max delta] and a verdict
    would merely say that every delta has the same sign.
    """
    from repro.metrics.stats import paired_delta_cis

    if args.seeds < 1:
        print(f"compare: --seeds must be at least 1, got {args.seeds}", file=sys.stderr)
        return 2
    seeds = range(1, args.seeds + 1)
    plan = bench_demands(
        [args.benchmark], [args.regulator_a, args.regulator_b], seeds=seeds,
        platform=args.platform, resolution=args.resolution,
        duration_ms=args.duration, warmup_ms=args.warmup,
    )
    if not _run_sweep("compare", runner, plan).ok:
        return 1
    records = runner.records_for(plan)
    combo = PlatformRes(PLATFORMS[args.platform], Resolution(args.resolution))

    def per_seed(spec: str) -> List[Dict[str, float]]:
        config = ExperimentConfig(combo, spec)
        return [records.get(args.benchmark, config, seed).headline() for seed in seeds]

    deltas = paired_delta_cis(per_seed(args.regulator_a), per_seed(args.regulator_b))
    verdicts = args.seeds >= 4
    note = "" if verdicts else "; no [+]/[-] below 4 seeds"
    print(
        f"{args.regulator_b} minus {args.regulator_a} on {args.benchmark} "
        f"({args.platform} {args.resolution}, {args.seeds} paired seeds, "
        f"bootstrap 95% CI{note}):"
    )
    for name, ci in deltas.items():
        marker = ""
        if verdicts and ci.low > 0:
            marker = "  [+]"
        elif verdicts and ci.high < 0:
            marker = "  [-]"
        print(f"  {name:16s} {ci.estimate:+10.3f}  [{ci.low:+.3f}, {ci.high:+.3f}]{marker}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _dispatch(argv)
    except ExecutionError as exc:
        # A sweep finished with failed cells: everything completed is
        # already persisted; report the casualties and exit non-zero.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # pragma: no cover - consumer closed the pipe
        # e.g. ``odr-sim runs | head``: point stdout at devnull so the
        # interpreter's exit-time flush does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _dispatch(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "verify-determinism":
        return _cmd_verify_determinism(args)
    if args.command == "profile":
        print(_cmd_profile(args))
        return 0
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "runs":
        return _cmd_runs(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "sweep-trace":
        return _cmd_sweep_trace(args)
    if args.command == "cost":
        return _cmd_cost(args)
    if args.command == "baseline":
        return _cmd_baseline(args)
    if args.command == "compare-runs":
        return _cmd_compare_runs(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command in ("serve", "submit", "status", "fetch"):
        from repro.service.cli import run_service_command

        return run_service_command(args)
    runner = _experiment_runner(args)

    if args.command == "run":
        print(_cmd_run(args))
    elif args.command == "trace":
        print(_cmd_trace(args))
    elif args.command == "figure":
        from repro.experiments import figures

        # Plan → execute → render: declare the figure's cells, run them
        # (possibly in parallel), then render from the plan's records.
        plan = figures.figure_demands(args.number, runner)
        runner.run_plan(plan)
        print(_cmd_figure(args, runner.records_for(plan)))
        if args.number == "5":
            from repro.experiments.timeline import run_timeline

            print()
            for spec in ("NoReg", "Int60", "ODR60"):
                config = SystemConfig(
                    "IM", PLATFORMS["private"], Resolution("720p"), seed=args.seed,
                    duration_ms=2000.0, warmup_ms=500.0,
                )
                result = CloudSystem(config, make_regulator(spec)).run()
                print(run_timeline(result, window_ms=250.0, title=f"-- {spec} --"))
                print()
    elif args.command == "table2":
        from repro.experiments.tables import table2, table2_demands

        plan = table2_demands(runner)
        runner.run_plan(plan)
        print(table2(runner.records_for(plan))["text"])
    elif args.command == "summary":
        from repro.experiments.figures import summary_demands, summary_overall

        plan = summary_demands(runner)
        runner.run_plan(plan)
        print(summary_overall(runner.records_for(plan))["text"])
    elif args.command == "userstudy":
        from repro.experiments.userstudy import UserStudy

        user_study = UserStudy(seed=args.seed)
        plan = user_study.demands(runner)
        runner.run_plan(plan)
        study = user_study.run(runner.records_for(plan))
        print(study["fig14_text"])
        print()
        print(study["fig15_text"])
    elif args.command == "matrix":
        from repro.experiments.export import records_to_csv

        runner.telemetry_dir = args.telemetry_dir
        if args.ledger:
            runner.attach_ledger(args.ledger)
        report = _run_sweep("matrix", runner, _matrix_plan(args))
        count = records_to_csv(report.records(), args.output)
        print(
            f"wrote {count} rows to {args.output} "
            f"(executed={report.executed} cached={report.cached})"
        )
        if not report.ok:
            return 1
    elif args.command == "compare":
        return _cmd_compare(args, runner)
    elif args.command == "consolidate":
        from repro.multitenant import SharedServer
        from repro.workloads import BENCHMARKS as benches

        names = sorted(benches)
        platform = PLATFORMS[args.platform]
        resolution = Resolution(args.resolution)
        target = float(resolution.default_fps_target)
        for n in range(1, args.max_sessions + 1):
            server = SharedServer(
                benchmarks=[names[i % len(names)] for i in range(n)],
                platform=platform,
                resolution=resolution,
                regulator_factory=lambda i: make_regulator(args.regulator),
                seed=args.seed,
                duration_ms=args.duration,
                warmup_ms=args.warmup,
            )
            results = server.run()
            ok = all(r.client_fps >= target - 1.0 for r in results)
            fps = ", ".join(f"{r.system.benchmark.name}:{r.client_fps:.0f}" for r in results)
            print(
                f"  {n} session(s): [{fps}]  GPU {server.gpu_utilization():4.0%}  "
                f"{server.server_power_w():6.1f} W  "
                f"{'MEETS TARGET' if ok else 'degraded'}"
            )
    elif args.command == "breakdown":
        from repro.analysis import latency_breakdown

        config = SystemConfig(
            args.benchmark, PLATFORMS[args.platform], Resolution(args.resolution),
            seed=args.seed, duration_ms=args.duration, warmup_ms=args.warmup,
        )
        result = CloudSystem(config, make_regulator(args.regulator)).run()
        breakdown = latency_breakdown(result)
        print(
            f"MtP latency breakdown: {args.benchmark} / {args.regulator} "
            f"({args.platform} {args.resolution})"
        )
        for name, value in breakdown.components.items():
            bar = "#" * max(1, int(round(40 * breakdown.fraction(name))))
            print(f"  {name:14s} {value:9.2f} ms  {bar}")
        print(f"  {'total':14s} {breakdown.total_ms:9.2f} ms  (n={breakdown.samples})")
    elif args.command == "list":
        print("benchmarks : " + ", ".join(sorted(BENCHMARKS)))
        print("platforms  : " + ", ".join(sorted(PLATFORMS)))
        print("configurations (paper matrix):")
        for config in paper_configuration_matrix(include_ablation=True):
            print(f"  {config.label}")
    if runner.bus is not None:
        runner.bus.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
