"""End-to-end run observability.

``repro.obs`` observes every layer of the simulator:

:class:`Telemetry`
    Spans and metrics read from a finished run — pass one to
    :class:`~repro.pipeline.system.CloudSystem` (or
    :class:`~repro.multitenant.server.SharedServer`, whose sessions are
    ``CloudSystem`` objects over one environment) and ``run()`` fills
    it once the engine stops.  The simulation itself never sees it.
:class:`FrameSpan` / :class:`SpanStore`
    Per-frame causal traces: enter/exit times of every pipeline stage
    plus regulator gate delays and drop events, queryable by frame id.
:class:`MetricsRegistry`
    Labeled counters/gauges/histograms with snapshot/delta semantics
    (``frames_dropped_total{reason=...}``, ``gate_delay_ms``,
    ``queue_depth{stage=...}``, ...).
:class:`EngineProbe`
    Opt-in introspection of the discrete-event engine: events
    scheduled/fired, heap depth, process counts, wall-clock per
    simulated second.
:func:`chrome_trace` / :func:`write_chrome_trace` / :func:`write_jsonl`
    Exporters: Chrome Trace Format (``chrome://tracing`` / Perfetto)
    and JSONL.
:class:`RunLedger` / :mod:`repro.obs.runmeta`
    Cross-run persistence: every instrumented run appends a
    self-describing, content-addressed record (config hash, git rev,
    seed, summary metrics, per-frame distributions) to an append-only
    JSONL ledger under ``.odr-runs/``.
:func:`compare_records` / :class:`SentinelReport`
    The regression sentinel: statistically-tested diffs between any
    two run records (Mann-Whitney U + bootstrap CIs), with
    ``ok`` / ``regressed`` / ``improved`` verdicts for CI gating.
:class:`SimProfiler`
    The sim-engine self-profiler: host wall time per simulated process,
    pipeline stage, and step callsite, plus event-queue depth over
    time and events/sec throughput.

See ``docs/OBSERVABILITY.md`` for worked examples.
"""

from repro.obs.exporters import (
    chrome_trace,
    jsonl_lines,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.ledger import DEFAULT_LEDGER_DIR, RunLedger, load_record, resolve_record
from repro.obs.probes import EngineProbe, host_epoch, host_wallclock
from repro.obs.profiler import SimProfiler, stage_for_process
from repro.obs.runmeta import (
    build_record,
    config_fingerprint,
    git_revision,
    metrics_digest,
    run_id_for,
)
from repro.obs.sentinel import MetricComparison, SentinelReport, compare_records
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    HistogramStats,
    MetricsRegistry,
    MetricsSnapshot,
    SeriesKey,
)
from repro.obs.spans import PIPELINE_STAGES, FrameSpan, SpanStore, StageInterval
from repro.obs.sweep import (
    EVENT_SCHEMA,
    CellResources,
    ResourceMeter,
    SweepEvent,
    SweepEventBus,
    events_path_for,
    read_events,
    validate_events,
    validate_events_file,
)
from repro.obs.telemetry import Telemetry

__all__ = [
    "DEFAULT_LEDGER_DIR",
    "EVENT_SCHEMA",
    "PIPELINE_STAGES",
    "CellResources",
    "Counter",
    "EngineProbe",
    "FrameSpan",
    "Gauge",
    "Histogram",
    "HistogramStats",
    "MetricComparison",
    "MetricsRegistry",
    "MetricsSnapshot",
    "ResourceMeter",
    "RunLedger",
    "SentinelReport",
    "SeriesKey",
    "SimProfiler",
    "SpanStore",
    "StageInterval",
    "SweepEvent",
    "SweepEventBus",
    "Telemetry",
    "build_record",
    "chrome_trace",
    "compare_records",
    "config_fingerprint",
    "events_path_for",
    "git_revision",
    "host_epoch",
    "host_wallclock",
    "jsonl_lines",
    "load_record",
    "metrics_digest",
    "read_events",
    "resolve_record",
    "run_id_for",
    "stage_for_process",
    "validate_events",
    "validate_events_file",
    "write_chrome_trace",
    "write_jsonl",
]
