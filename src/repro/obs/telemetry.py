"""Run telemetry: frame spans and labeled metrics read from a finished run.

One :class:`Telemetry` object bundles the observability stores —
per-frame spans (:mod:`repro.obs.spans`), the labeled metrics registry
(:mod:`repro.obs.registry`), injected-fault windows, and the optional
engine probe (:mod:`repro.obs.probes`).

**Read from the run, not hooked into it.**  A finished run already
keeps what a trace shows: every frame with its timestamps and drop time
(``app.frames``), the gate delay before each (``app.gate_delays``),
every stage's busy intervals (:class:`~repro.simcore.tracing.IntervalTrace`),
the fault windows (``system.faults``), the regulator's pacing sleeps and
the send queue.  :meth:`Telemetry.read_run` builds spans,
metric series and fault windows from those in one pass; a
:class:`~repro.pipeline.system.CloudSystem` constructed with a
telemetry object calls it once ``env.run`` returns.  The pipeline never
sees the telemetry object, so a traced run executes exactly the code of
a bare run.  Only the engine probe watches the run live: it is attached
when the environment is built and samples wall time as events fire.

A series exists only if the run produced something for it: queue
gauges never appear under ODR (which has no send queue), and the
``pacing_*`` series only if ODR paced.

**Multi-tenant labeling.**  :meth:`Telemetry.read_sessions` reads each
session of a :class:`~repro.multitenant.server.SharedServer` — a
``CloudSystem`` built over the server's environment — and stamps its
spans and series with a ``session="s<index>"`` label; the spans keep
the server-wide order in which the sessions opened frames.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

from repro.obs.probes import EngineProbe
from repro.obs.registry import Histogram, MetricsRegistry, MetricsSnapshot
from repro.obs.spans import PIPELINE_STAGES, FrameSpan, SpanStore, StageInterval

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.frames import Frame

__all__ = ["Telemetry"]


#: The :class:`~repro.pipeline.frames.Frame` timestamp set as a frame
#: leaves each stage but decode.
_STAGE_END = {
    "render": "t_render_end",
    "copy": "t_copy_end",
    "encode": "t_encode_end",
    "transmit": "t_send_end",
}


def _finished(frame: "Frame", stage: str) -> bool:
    """Whether ``frame`` finished ``stage``."""
    if stage in _STAGE_END:
        return getattr(frame, _STAGE_END[stage]) is not None
    # A decoded frame is displayed (perhaps past the horizon), or dropped
    # by the client's display model, which leaves ``Frame.dropped`` unset.
    return frame.t_displayed is not None or (
        frame.t_dropped is not None and frame.dropped is None
    )


def _observe(histogram: Histogram, values: Iterable[float]) -> None:
    """``histogram.observe`` each of ``values``, in one call."""
    histogram.values.extend(map(float, values))


class Telemetry:
    """Spans + metrics registry + engine probe behind one handle.

    Parameters
    ----------
    engine_probe:
        Attach an :class:`EngineProbe` so environments built with this
        telemetry also report engine-level statistics (events, heap
        depth, wall-clock per simulated second).
    """

    def __init__(self, engine_probe: bool = False):
        self.spans = SpanStore()
        self.registry = MetricsRegistry()
        self.probe: Optional[EngineProbe] = EngineProbe() if engine_probe else None
        #: Injected-fault windows (:mod:`repro.faults`), as plain dicts
        #: ``{kind, label, start_ms, end_ms, session}`` — exporters turn
        #: them into labeled trace regions.
        self.fault_windows: List[Dict[str, object]] = []

    # -- reading a finished run ------------------------------------------

    def read_run(self, system: Any) -> None:
        """Build spans, metric series and fault windows from a finished
        :class:`~repro.pipeline.system.CloudSystem`."""
        app = system.app
        spans = [self._open(frame, gate, "") for frame, gate in zip(app.frames, app.gate_delays)]
        self._read(system, "", spans)

    def read_sessions(self, sessions: Sequence[Any], open_order: Iterable[int]) -> None:
        """Read every session of a finished shared server, each a
        :class:`~repro.pipeline.system.CloudSystem` read as :meth:`read_run`
        reads one.

        ``open_order`` holds, for each frame the server opened, the index
        of the session that opened it, in server-wide order; spans are
        stored in that order.
        """
        pending = [iter(zip(s.app.frames, s.app.gate_delays)) for s in sessions]
        spans: List[List[FrameSpan]] = [[] for _ in sessions]
        for index in open_order:
            frame, gate = next(pending[index])
            spans[index].append(self._open(frame, gate, f"s{index}"))
        for index, session in enumerate(sessions):
            self._read(session, f"s{index}", spans[index])

    def _open(self, frame: "Frame", gate_delay_ms: float, session: str) -> FrameSpan:
        assert frame.t_created is not None
        return self.spans.open(
            frame.frame_id,
            frame.t_created,
            session=session,
            gate_delay_ms=gate_delay_ms,
            priority=frame.priority,
            input_triggered=frame.triggered_by_input,
        )

    def _read(self, system: Any, session: str, spans: List[FrameSpan]) -> None:
        """Fill one system's opened spans, one per frame in ``app.frames``
        order, and publish its series."""
        labels = {"session": session} if session else {}
        registry = self.registry
        frames = system.app.frames
        if frames:
            registry.counter("frames_created_total", **labels).inc(len(frames))
            _observe(registry.histogram("gate_delay_ms", **labels), system.app.gate_delays)

        # Every stage serves one frame at a time, in frame order, so its k-th
        # interval is that of the k-th frame to finish it.  Stage by stage,
        # each span lists its intervals in pipeline order, which is also the
        # order in which they ended.
        for stage in PIPELINE_STAGES:
            served = [span for frame, span in zip(frames, spans) if _finished(frame, stage)]
            intervals = list(system.trace.intervals(stage))
            if len(intervals) != len(served):
                raise RuntimeError(
                    f"{len(intervals)} {stage} intervals for {len(served)} frames"
                )
            durations = []
            for span, (start, end) in zip(served, intervals):
                span.intervals.append(StageInterval(stage, start, end))
                durations.append(end - start)
            if durations:
                registry.counter("stage_frames_total", stage=stage, **labels).inc(len(durations))
                _observe(registry.histogram("stage_ms", stage=stage, **labels), durations)

        # A display entry past the horizon never fired: that span stays open.
        horizon = system.env.now
        drops: Dict[str, int] = {}
        latencies = []
        for frame, span in zip(frames, spans):
            if frame.t_dropped is not None:
                # The client's display drops leave ``Frame.dropped`` unset.
                reason = frame.dropped.value if frame.dropped is not None else "display_drop"
                span.drop_reason = reason
                span.closed_at = frame.t_dropped
                drops[reason] = drops.get(reason, 0) + 1
            elif frame.t_displayed is not None and frame.t_displayed <= horizon:
                span.closed_at = frame.t_displayed
                latencies.append(frame.t_displayed - span.opened_at)
        for reason, count in drops.items():
            registry.counter("frames_dropped_total", reason=reason, **labels).inc(count)
        if latencies:
            registry.counter("frames_displayed_total", **labels).inc(len(latencies))
            _observe(registry.histogram("frame_pipeline_ms", **labels), latencies)

        regulator = system.regulator
        queue = regulator.send_queue
        if queue is not None and queue.admitted:
            registry.gauge("queue_depth", stage="send_queue", **labels).set(len(queue))
            registry.gauge("queue_bytes", stage="send_queue", **labels).set(queue.queued_bytes)
        if regulator.pacing_sleeps:
            registry.counter("pacing_sleeps_total", **labels).inc(len(regulator.pacing_sleeps))
            _observe(registry.histogram("pacing_sleep_ms", **labels), regulator.pacing_sleeps)
        if regulator.pacing_interrupts:
            registry.counter("pacing_interrupts_total", **labels).inc(regulator.pacing_interrupts)

        faults = system.faults
        if faults is not None and faults.windows:
            for window in faults.windows:
                self.fault_windows.append(
                    {
                        "kind": window.kind,
                        "label": window.label,
                        "start_ms": float(window.start_ms),
                        "end_ms": float(window.end_ms),
                        "session": session,
                    }
                )
                registry.counter("fault_windows_total", kind=window.kind, **labels).inc()
            registry.counter("faults_applied_total", **labels).inc(faults.applied)

    # -- reading ---------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Point-in-time copy of every metric series."""
        return self.registry.snapshot()
