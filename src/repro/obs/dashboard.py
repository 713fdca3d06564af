"""Live sweep dashboard: a stdlib terminal view of the event bus.

:class:`SweepDashboard` subscribes to a :class:`~repro.obs.sweep.SweepEventBus`
(or is fed persisted events) and keeps one screenful of sweep state
current as cells execute:

* a progress line — done/total cells, executed vs cached split,
  throughput (cells/min) and a naive ETA (remaining cells at the mean
  executed-cell wall time, divided across workers);
* one lane per worker pid showing the cell it is executing right now
  and for how long — a lane stuck on one label is a hung or
  crash-looping cell;
* a failure tail (most recent failures/timeouts/retries/quarantines),
  because a sweep that is "96% done" with three dead cells is not done.

On a TTY the dashboard repaints in place with ANSI cursor movement; on
anything else (CI logs, pipes) it degrades to one plain line per
significant event, so ``--live`` is always safe to leave on.  Input
handling is the terminal's own (Ctrl-C interrupts; ``odr-sim watch``
additionally treats ``q`` as quit) — no curses, no threads, no
dependencies.

:func:`follow_events` tails a persisted ``events.jsonl`` and feeds a
dashboard, which is how ``odr-sim watch`` observes a sweep running in
a *different* process (the bus flushes per event precisely so this
works).
"""

from __future__ import annotations

import os
import sys
import time
from typing import IO, Callable, Dict, List, Optional, Tuple

from repro.obs import sweep as sweepbus
from repro.obs.jsonl import decode_row
from repro.obs.probes import host_epoch
from repro.obs.sweep import SweepEvent

__all__ = ["SweepDashboard", "follow_events"]

#: Lanes shown even when more workers exist (the rest are summarized).
_MAX_LANES = 16
#: Failures kept in the tail.
_MAX_FAILURES = 5


class SweepDashboard:
    """Terminal rendering of one sweep's live state.

    Feed it events via :meth:`handle` (subscribe it to a live bus, or
    replay a persisted log).  ``ansi=None`` auto-detects from the
    stream; tests pass ``ansi=False`` and a ``StringIO``.
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        ansi: Optional[bool] = None,
        now: Callable[[], float] = host_epoch,
    ) -> None:
        self.stream: IO[str] = stream if stream is not None else sys.stdout
        if ansi is None:
            ansi = bool(getattr(self.stream, "isatty", lambda: False)())
        self.ansi = ansi
        self._now = now
        self._painted_lines = 0
        # -- sweep state --
        self.total_cells = 0
        self.workers = 1
        self.executor: Optional[str] = None
        self.cached = 0
        self.deduped = 0
        self.scheduled = 0
        self.finished = 0
        self.failed = 0
        self.retries = 0
        self.quarantined = 0
        self.begun_epoch: Optional[float] = None
        self.ended = False
        self.end_summary: Optional[str] = None
        #: pid -> (run_id, label, started epoch) for in-flight cells.
        self.active: Dict[int, Tuple[str, str, float]] = {}
        #: Wall seconds of executed cells, for the ETA estimate.
        self.cell_walls: List[float] = []
        #: Recent failure descriptions, newest last.
        self.failures: List[str] = []

    # -- event intake ------------------------------------------------------

    def attach(self, bus: "sweepbus.SweepEventBus") -> None:
        """Subscribe to a live bus (convenience for ``--live``)."""
        bus.subscribe(self.handle)

    def handle(self, event: SweepEvent) -> None:
        """Consume one event and refresh the display."""
        self._apply(event)
        if self.ansi:
            self._repaint()
        else:
            line = self._plain_line(event)
            if line is not None:
                self.stream.write(line + "\n")
                self.stream.flush()

    def _apply(self, event: SweepEvent) -> None:
        kind = event.kind
        if kind == sweepbus.SWEEP_BEGIN:
            # A fresh sweep (watch mode may see several): reset counters.
            self.total_cells = int(event.get("cells", 0))
            self.workers = int(event.get("workers", 1))
            self.executor = event.get("executor")
            self.begun_epoch = event.epoch_s
            self.cached = 0
            self.deduped = 0
            self.scheduled = 0
            self.finished = 0
            self.failed = 0
            self.retries = 0
            self.quarantined = 0
            self.ended = False
            self.end_summary = None
            self.active.clear()
            self.cell_walls.clear()
            self.failures.clear()
        elif kind == sweepbus.SWEEP_END:
            self.ended = True
            self.active.clear()
            self.end_summary = (
                f"executed={event.get('executed')} cached={event.get('cached')} "
                f"failed={event.get('failed')} wall={float(event.get('wall_s', 0.0)):.2f}s"
            )
        elif kind == sweepbus.CELL_CACHED:
            self.cached += 1
        elif kind == sweepbus.CELL_DEDUPED:
            # Another job owned this cell's execution; this one joined
            # the in-flight result.  Counts toward done as a cache hit.
            self.cached += 1
            self.deduped += 1
        elif kind == sweepbus.CELL_SCHEDULED:
            self.scheduled += 1
        elif kind == sweepbus.CELL_STARTED:
            pid = int(event.get("pid", 0))
            self.active[pid] = (
                event.run_id,
                str(event.get("label", event.run_id)),
                event.epoch_s,
            )
        elif kind == sweepbus.CELL_FINISHED:
            self.finished += 1
            wall = float(event.get("wall_s", 0.0))
            if wall > 0.0:
                self.cell_walls.append(wall)
            self._clear_lane(event.run_id)
        elif kind in (sweepbus.CELL_FAILED, sweepbus.CELL_TIMED_OUT):
            self.failed += 1
            cause = (
                event.get("error", "")
                if kind == sweepbus.CELL_FAILED
                else f"timed out after {event.get('timeout_s')}s"
            )
            self._push_failure(f"{event.get('label', event.run_id)}: {cause}")
            self._clear_lane(event.run_id)
        elif kind == sweepbus.CELL_RETRIED:
            self.retries += 1
            self._push_failure(
                f"{event.get('label', event.run_id)}: retrying "
                f"(attempt {event.get('attempt')})"
            )
        elif kind == sweepbus.CELL_QUARANTINED:
            self.quarantined += 1
            self._push_failure(f"{event.run_id}: corrupt cell quarantined")
        elif kind == sweepbus.POOL_BROKEN:
            self._push_failure("worker pool broke; reopening")
            self.active.clear()
        elif kind == sweepbus.JOB_RECOVERED:
            self._push_failure(
                f"recovered {event.get('job_id')} from the job journal "
                f"({event.get('cells')} cell(s))"
            )
        elif kind == sweepbus.DEGRADED_SERIAL:
            self._push_failure(
                f"pool unavailable ({event.get('reason')}); finishing "
                f"{event.get('cells')} cell(s) serially in-process"
            )
            self.active.clear()
        elif kind == sweepbus.LOAD_SHED:
            self._push_failure(f"submit shed: {event.get('reason')}")

    def _clear_lane(self, run_id: str) -> None:
        for pid, (lane_run_id, _, _) in list(self.active.items()):
            if lane_run_id == run_id:
                del self.active[pid]
                return

    def _push_failure(self, text: str) -> None:
        self.failures.append(text)
        del self.failures[:-_MAX_FAILURES]

    # -- rendering ---------------------------------------------------------

    def eta_s(self) -> Optional[float]:
        """Naive remaining-time estimate, or ``None`` before any cell ran."""
        if not self.cell_walls or self.total_cells <= 0 or self.ended:
            return None
        done = self.finished + self.cached + self.failed
        remaining = max(0, self.total_cells - done)
        mean_wall = sum(self.cell_walls) / len(self.cell_walls)
        return remaining * mean_wall / max(1, self.workers)

    def throughput_cells_per_min(self) -> Optional[float]:
        if self.begun_epoch is None or self.finished == 0:
            return None
        elapsed = max(1e-9, self._now() - self.begun_epoch)
        return self.finished / elapsed * 60.0

    def render(self) -> str:
        """The full dashboard as text (what ANSI mode repaints)."""
        done = self.finished + self.cached + self.failed
        lines: List[str] = []
        title = f"sweep: {done}/{self.total_cells} cells"
        if self.executor:
            title += f"  [{self.executor} x{self.workers}]"
        lines.append(title)
        detail = (
            f"  executed={self.finished} cached={self.cached} failed={self.failed}"
        )
        if self.deduped:
            detail += f" deduped={self.deduped}"
        if self.retries:
            detail += f" retries={self.retries}"
        if self.quarantined:
            detail += f" quarantined={self.quarantined}"
        rate = self.throughput_cells_per_min()
        if rate is not None:
            detail += f"  {rate:.1f} cells/min"
        eta = self.eta_s()
        if eta is not None:
            detail += f"  eta {eta:.0f}s"
        lines.append(detail)
        if self.ended:
            lines.append(f"  done: {self.end_summary}")
        else:
            now = self._now()
            for pid in sorted(self.active)[:_MAX_LANES]:
                _, label, since = self.active[pid]
                lines.append(f"  pid {pid:>7}: {label}  ({now - since:.1f}s)")
            hidden = len(self.active) - _MAX_LANES
            if hidden > 0:
                lines.append(f"  ... and {hidden} more worker(s)")
        for failure in self.failures:
            lines.append(f"  ! {failure}")
        return "\n".join(lines)

    def _repaint(self) -> None:
        text = self.render()
        if self._painted_lines:
            # Cursor to the first painted line, then clear to screen end.
            self.stream.write(f"\x1b[{self._painted_lines}F\x1b[0J")
        self.stream.write(text + "\n")
        self.stream.flush()
        self._painted_lines = text.count("\n") + 1

    def _plain_line(self, event: SweepEvent) -> Optional[str]:
        """Non-TTY fallback: one line per significant event."""
        done = self.finished + self.cached + self.failed
        progress = f"[{done}/{self.total_cells}]"
        if event.kind == sweepbus.SWEEP_BEGIN:
            return (
                f"sweep begin: {self.total_cells} cell(s) via "
                f"{self.executor} x{self.workers}"
            )
        if event.kind == sweepbus.CELL_FINISHED:
            return (
                f"{progress} done {event.get('label', event.run_id)} "
                f"({float(event.get('wall_s', 0.0)):.2f}s)"
            )
        if event.kind in (sweepbus.CELL_FAILED, sweepbus.CELL_TIMED_OUT):
            return f"{progress} FAILED {event.get('label', event.run_id)}"
        if event.kind == sweepbus.CELL_RETRIED:
            return f"{progress} retry {event.get('label', event.run_id)}"
        if event.kind == sweepbus.CELL_DEDUPED:
            return f"{progress} deduped {event.get('label', event.run_id)}"
        if event.kind == sweepbus.CELL_QUARANTINED:
            return f"{progress} quarantined {event.run_id}"
        if event.kind == sweepbus.JOB_RECOVERED:
            return (
                f"recovered {event.get('job_id')} from the job journal "
                f"({event.get('cells')} cell(s))"
            )
        if event.kind == sweepbus.DEGRADED_SERIAL:
            return (
                f"pool unavailable; {event.get('cells')} cell(s) "
                f"falling back to serial in-process execution"
            )
        if event.kind == sweepbus.SWEEP_END:
            return f"sweep end: {self.end_summary}"
        return None


def _stdin_quit() -> bool:
    """True when an interactive user pressed ``q`` (POSIX TTY only)."""
    try:
        import select

        if not sys.stdin.isatty():
            return False
        ready, _, _ = select.select([sys.stdin], [], [], 0)
        if not ready:
            return False
        return sys.stdin.read(1).lower().startswith("q")
    except (OSError, ValueError, ImportError):
        return False


def follow_events(
    path: str,
    dashboard: SweepDashboard,
    poll_s: float = 0.25,
    until_end: bool = True,
    timeout_s: Optional[float] = None,
) -> int:
    """Tail ``events.jsonl`` into ``dashboard``; returns events consumed.

    Follows the newest sweep in the file: earlier sweeps' events are
    skipped, and the loop ends at that sweep's ``sweep_end`` (or on
    ``q``/EOF/timeout).  The file may not exist yet — the executor
    creates it lazily on the first event — so the loop waits for it.
    """
    consumed = 0
    waited = 0.0
    position = 0
    current_sweep: Optional[str] = None
    buffer = ""
    while True:
        if not os.path.exists(path):
            if timeout_s is not None and waited >= timeout_s:
                return consumed
            time.sleep(poll_s)
            waited += poll_s
            continue
        with open(path, "r", encoding="utf-8") as handle:
            handle.seek(position)
            chunk = handle.read()
            position = handle.tell()
        buffer += chunk
        progressed = False
        while "\n" in buffer:
            line, buffer = buffer.split("\n", 1)
            record = decode_row(line)
            if record is None:
                continue
            event = SweepEvent.from_dict(record)
            if current_sweep is None:
                current_sweep = event.sweep_id
            elif event.sweep_id != current_sweep:
                # A newer sweep started writing: switch to it.
                current_sweep = event.sweep_id
            dashboard.handle(event)
            consumed += 1
            progressed = True
            if until_end and event.kind == sweepbus.SWEEP_END:
                return consumed
        if _stdin_quit():
            return consumed
        if not progressed:
            if timeout_s is not None and waited >= timeout_s:
                return consumed
            time.sleep(poll_s)
            waited += poll_s
