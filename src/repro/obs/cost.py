"""Sweep cost attribution: where a parallel sweep's wall clock went.

A parallel sweep of short cells can run slower than a serial one;
this module turns the sweep event log (:mod:`repro.obs.sweep`) into
the numbers that make such a slowdown *attributable* instead of
mysterious.  :func:`sweep_cost` aggregates
per-cell resource telemetry into a budget for the sweep's wall clock:

``pool_warmup_s``
    Host seconds between each pool opening and the first cell actually
    starting in it — interpreter spawn + import cost, paid per pool
    (and again after every pool breakage).  On a sweep of short cells
    this alone can eat the parallel win.
``cell_skew_s``
    Busy-time imbalance across workers (max minus min per-worker busy
    seconds).  The sweep ends when the *slowest* lane does, so skew is
    wall time the other lanes spent idle at the tail.
``serialization_s``
    What remains of the sweep wall after warmup and the busiest lane:
    the parent's plan scan, result pickling/harvest, store writes, and
    ledger appends — the serial section of Amdahl's law.
``parallel_efficiency``
    Summed busy seconds over ``workers × sweep wall`` — 1.0 means every
    lane was saturated the whole sweep.

Per-cell rows (wall, CPU user/sys, peak RSS, events/sec, worker pid)
ride along so the skew term can be chased to the specific slow cells,
and the cached/executed split shows what resume actually saved.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs import sweep as sweepbus
from repro.obs.sweep import SweepEvent

__all__ = ["render_cost", "sweep_cost"]


def _cell_rows(events: Sequence[SweepEvent]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for event in events:
        if event.kind != sweepbus.CELL_FINISHED:
            continue
        row: Dict[str, Any] = {
            "run_id": event.run_id,
            "label": event.get("label", ""),
            "faults": bool(event.get("faults")),
            "wall_s": float(event.get("wall_s", 0.0)),
            "pid": None,
            "cpu_user_s": None,
            "cpu_sys_s": None,
            "max_rss_kb": None,
            "events_per_sec": None,
        }
        resources = event.get("resources")
        if isinstance(resources, dict):
            row["pid"] = resources.get("pid")
            row["cpu_user_s"] = resources.get("cpu_user_s")
            row["cpu_sys_s"] = resources.get("cpu_sys_s")
            row["max_rss_kb"] = resources.get("max_rss_kb")
            row["events_per_sec"] = resources.get("events_per_sec")
        rows.append(row)
    return rows


def _pool_warmup_s(events: Sequence[SweepEvent]) -> float:
    """Seconds from each pool opening to its first started cell."""
    total = 0.0
    pending_open: Optional[float] = None
    for event in events:
        if event.kind == sweepbus.POOL_OPENED:
            pending_open = event.epoch_s
        elif event.kind == sweepbus.CELL_STARTED and pending_open is not None:
            total += max(0.0, event.epoch_s - pending_open)
            pending_open = None
    return total


def sweep_cost(events: Sequence[SweepEvent]) -> Dict[str, Any]:
    """Aggregate one sweep's events into a cost-attribution report."""
    report: Dict[str, Any] = {
        "sweep_id": events[0].sweep_id if events else "",
        "cells": 0,
        "executor": None,
        "workers": 1,
        "executed": 0,
        "cached": 0,
        "failed": 0,
        "retries": 0,
        "quarantined": 0,
        "pools_opened": 0,
        "pools_broken": 0,
        "sweep_wall_s": None,
        "cache_hit_ratio": None,
        "cell_rows": [],
        "busy_s_by_pid": {},
        "busy_s_total": 0.0,
        "pool_warmup_s": 0.0,
        "cell_skew_s": 0.0,
        "serialization_s": None,
        "parallel_efficiency": None,
    }
    for event in events:
        if event.kind == sweepbus.SWEEP_BEGIN:
            report["cells"] = int(event.get("cells", 0))
            report["executor"] = event.get("executor")
            report["workers"] = int(event.get("workers", 1))
        elif event.kind == sweepbus.SWEEP_END:
            report["executed"] = int(event.get("executed", 0))
            report["cached"] = int(event.get("cached", 0))
            report["failed"] = int(event.get("failed", 0))
            report["sweep_wall_s"] = float(event.get("wall_s", 0.0))
        elif event.kind == sweepbus.CELL_RETRIED:
            report["retries"] = int(report["retries"]) + 1
        elif event.kind == sweepbus.CELL_QUARANTINED:
            report["quarantined"] = int(report["quarantined"]) + 1
        elif event.kind == sweepbus.POOL_OPENED:
            report["pools_opened"] = int(report["pools_opened"]) + 1
        elif event.kind == sweepbus.POOL_BROKEN:
            report["pools_broken"] = int(report["pools_broken"]) + 1

    rows = _cell_rows(events)
    rows.sort(key=lambda row: row["wall_s"], reverse=True)
    report["cell_rows"] = rows

    done = int(report["executed"]) + int(report["cached"])
    if done:
        report["cache_hit_ratio"] = int(report["cached"]) / done

    busy_by_pid: Dict[str, float] = {}
    for row in rows:
        lane = str(row["pid"]) if row["pid"] is not None else "parent"
        busy_by_pid[lane] = busy_by_pid.get(lane, 0.0) + float(row["wall_s"])
    report["busy_s_by_pid"] = dict(sorted(busy_by_pid.items()))
    report["busy_s_total"] = sum(busy_by_pid.values())
    if busy_by_pid:
        report["cell_skew_s"] = max(busy_by_pid.values()) - min(busy_by_pid.values())
    report["pool_warmup_s"] = _pool_warmup_s(events)

    wall = report["sweep_wall_s"]
    if wall is not None and busy_by_pid:
        busiest = max(busy_by_pid.values())
        report["serialization_s"] = max(
            0.0, float(wall) - float(report["pool_warmup_s"]) - busiest
        )
        workers = max(1, int(report["workers"]))
        if wall > 0.0:
            report["parallel_efficiency"] = float(report["busy_s_total"]) / (
                workers * float(wall)
            )
    return report


def _fmt_s(value: Optional[float]) -> str:
    return f"{value:.3f}s" if value is not None else "-"


def render_cost(report: Dict[str, Any], top: int = 10) -> str:
    """Human-readable cost report for ``odr-sim cost``."""
    lines: List[str] = []
    lines.append(
        f"sweep {report['sweep_id']}: {report['cells']} cell(s) via "
        f"{report['executor'] or '?'} x{report['workers']}"
    )
    ratio = report["cache_hit_ratio"]
    cache = f" cache_hit={ratio:.0%}" if ratio is not None else ""
    lines.append(
        f"  executed={report['executed']} cached={report['cached']} "
        f"failed={report['failed']} retries={report['retries']}{cache}"
    )
    lines.append(
        f"  wall={_fmt_s(report['sweep_wall_s'])} "
        f"busy={_fmt_s(report['busy_s_total'])} over "
        f"{len(report['busy_s_by_pid'])} lane(s)"
    )
    lines.append("  where the wall clock went:")
    lines.append(
        f"    pool_warmup   {_fmt_s(report['pool_warmup_s'])}"
        f"  ({report['pools_opened']} pool(s), {report['pools_broken']} broken)"
    )
    lines.append(f"    cell_skew     {_fmt_s(report['cell_skew_s'])}")
    lines.append(f"    serialization {_fmt_s(report['serialization_s'])}")
    if report["parallel_efficiency"] is not None:
        lines.append(f"    parallel_efficiency {report['parallel_efficiency']:.2f}")
    rows = report["cell_rows"]
    if rows:
        lines.append(f"  slowest cells (top {min(top, len(rows))} of {len(rows)}):")
        for row in rows[:top]:
            cpu = (
                f" cpu={row['cpu_user_s']:.3f}+{row['cpu_sys_s']:.3f}s"
                if row["cpu_user_s"] is not None and row["cpu_sys_s"] is not None
                else ""
            )
            rss = (
                f" rss={row['max_rss_kb']}KiB" if row["max_rss_kb"] is not None else ""
            )
            eps = (
                f" {row['events_per_sec']:.0f}ev/s"
                if row["events_per_sec"] is not None
                else ""
            )
            pid = f" pid={row['pid']}" if row["pid"] is not None else ""
            lines.append(
                f"    {row['wall_s']:8.3f}s  {row['label']}"
                f" [{row['run_id']}]{pid}{cpu}{rss}{eps}"
            )
    return "\n".join(lines)
