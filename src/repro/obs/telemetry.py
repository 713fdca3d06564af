"""The telemetry facade the pipeline publishes into.

One :class:`Telemetry` object bundles the three observability stores —
per-frame spans (:mod:`repro.obs.spans`), the labeled metrics registry
(:mod:`repro.obs.registry`), and the optional engine probe
(:mod:`repro.obs.probes`) — behind the small set of hook methods the
pipeline calls.

**Zero overhead by default.**  Telemetry is opt-in: a
:class:`~repro.pipeline.system.CloudSystem` (or multi-tenant
:class:`~repro.multitenant.server.SharedServer`) constructed without a
telemetry object keeps ``system.telemetry is None`` and every call
site guards with a single ``is not None`` check, so disabled runs pay
no method calls, no allocations, and no dictionary lookups.

**Multi-tenant labeling.**  :meth:`Telemetry.for_session` returns a
lightweight view that shares the same stores but stamps every span and
metric series with a ``session`` label, so per-session time series of
a consolidated server stay separable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.obs.probes import EngineProbe
from repro.obs.registry import MetricsRegistry, MetricsSnapshot
from repro.obs.spans import SpanStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.frames import Frame

__all__ = ["Telemetry"]


def _label_items(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    """Hashable form of free-form labels, as the registry identifies them."""
    return tuple([(key, str(value)) for key, value in labels.items()]) if labels else ()


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
        #: Session namespace for spans and metric labels ("" = single run).
        self.session = ""
        #: Bound instrument handles, keyed by hook and varying label.
        self._handles: Dict[Hashable, Any] = {}

    def for_session(self, session: str) -> "Telemetry":
        """A view on the same stores labeled for one tenant session."""
        view = Telemetry.__new__(Telemetry)
        view.spans = self.spans
        view.registry = self.registry
        view.probe = self.probe
        view.fault_windows = self.fault_windows
        view.session = str(session)
        # The view's series carry its session label, so it binds its own.
        view._handles = {}
        return view

    def _labels(self, **labels: object) -> dict:
        if self.session:
            labels["session"] = self.session
        return labels

    def _handle(
        self, key: Hashable, instrument: Callable[..., Any], name: str, /, **labels: object
    ) -> Any:
        """The bound handle kept under ``key``; on first use it is resolved
        through the registry ``instrument`` (which creates the series)."""
        handle = self._handles.get(key)
        if handle is None:
            handle = self._handles[key] = instrument(name, **self._labels(**labels))
        return handle

    # -- span hooks (called by pipeline stages) --------------------------

    def frame_opened(self, frame: "Frame", at: float, gate_delay_ms: float = 0.0) -> None:
        """A frame was created after the regulator's gate released."""
        self.spans.open(
            frame.frame_id,
            at,
            session=self.session,
            gate_delay_ms=gate_delay_ms,
            priority=frame.priority,
            input_triggered=frame.triggered_by_input,
        )
        registry = self.registry
        self._handle("created", registry.counter, "frames_created_total").inc()
        self._handle("gate", registry.histogram, "gate_delay_ms").observe(gate_delay_ms)

    def stage_complete(self, frame: "Frame", stage: str, start: float, end: float) -> None:
        """One pipeline stage finished processing ``frame``."""
        self.spans.stage(frame.frame_id, stage, start, end, session=self.session)
        # The hottest hook (every stage of every frame): both series of a
        # stage are bound together under one lookup, inlined rather than
        # two ``_handle`` calls, which cost 0.25-0.8 us more per call on a
        # 2-vCPU x86 host.
        bound = self._handles.get(("stage", stage))
        if bound is None:
            labels = self._labels(stage=stage)
            bound = self._handles[("stage", stage)] = (
                self.registry.counter("stage_frames_total", **labels),
                self.registry.histogram("stage_ms", **labels),
            )
        bound[0].inc()
        bound[1].observe(end - start)

    def frame_dropped(self, frame: "Frame", at: float, reason: str) -> None:
        """``frame`` was discarded before reaching the screen."""
        self.spans.drop(frame.frame_id, at, reason, session=self.session)
        self._handle(
            ("dropped", reason), self.registry.counter, "frames_dropped_total", reason=reason
        ).inc()

    def frame_displayed(self, frame: "Frame", at: float) -> None:
        """``frame`` became photons at the client; its span closes."""
        self.spans.close(frame.frame_id, at, session=self.session)
        registry = self.registry
        self._handle("displayed", registry.counter, "frames_displayed_total").inc()
        span = self.spans.get(frame.frame_id, session=self.session)
        if span is not None:
            self._handle("latency", registry.histogram, "frame_pipeline_ms").observe(
                at - span.opened_at
            )

    def fault_window(
        self, kind: str, label: str, start_ms: float, end_ms: float
    ) -> None:
        """An injected fault is active over ``[start_ms, end_ms)``.

        Recorded when the fault plan is applied (windows are known up
        front), so traces show the fault region even if the run is cut
        short.
        """
        self.fault_windows.append(
            {
                "kind": kind,
                "label": label,
                "start_ms": float(start_ms),
                "end_ms": float(end_ms),
                "session": self.session,
            }
        )
        self._handle(
            ("fault", kind), self.registry.counter, "fault_windows_total", kind=kind
        ).inc()

    # -- metric hooks ----------------------------------------------------

    def queue_depth(self, stage: str, depth: int) -> None:
        """Publish the current depth of an inter-stage queue."""
        self._handle(("depth", stage), self.registry.gauge, "queue_depth", stage=stage).set(depth)

    def queue_bytes(self, stage: str, nbytes: int) -> None:
        """Publish the current byte occupancy of an inter-stage queue."""
        self._handle(("bytes", stage), self.registry.gauge, "queue_bytes", stage=stage).set(nbytes)

    def count(self, name: str, amount: float = 1.0, **labels: object) -> None:
        """Increment an arbitrary counter (session label auto-applied)."""
        key = ("count", name, _label_items(labels))
        self._handle(key, self.registry.counter, name, **labels).inc(amount)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record an arbitrary histogram observation."""
        key = ("observe", name, _label_items(labels))
        self._handle(key, self.registry.histogram, name, **labels).observe(value)

    # -- reading ---------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Point-in-time copy of every metric series."""
        return self.registry.snapshot()
