"""Self-describing run records: what ran, under what identity, what came out.

A *run record* is the unit the run ledger (:mod:`repro.obs.ledger`)
stores and the regression sentinel (:mod:`repro.obs.sentinel`)
compares: one flat JSON document per executed simulation carrying

* **identity** — a content hash over the canonical ``(config, seed)``
  payload (:func:`config_fingerprint`), so the same cell always maps to
  the same ``run_id`` and re-runs dedupe;
* **provenance** — git revision, schema version, RNG stream names, and
  the wall-clock cost of producing the record;
* **summary metrics** — FPS gap, client FPS, MtP, QoS, per-stage
  utilization, gate-delay statistics, drop counts;
* **per-frame distributions** — windowed client-FPS and FPS-gap series
  plus raw MtP samples, which the sentinel's Mann-Whitney test and
  bootstrap intervals need (a summary mean alone cannot support a
  significance test);
* **engine statistics** — events scheduled and fired, events/sec, peak
  heap depth, processes started, read from the environment's own
  counters (``system.env.stats()``), plus host seconds per simulated
  second (cell wall time over simulated time).

Nothing here needs telemetry or an engine probe: gate delays come from
the run itself (``system.app.gate_delays``), so a ledger cell runs the
bare engine.

Everything is plain ``dict``/``list``/scalar so records survive JSONL
round-trips bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from typing import Any, Dict, List, Mapping, Optional, TYPE_CHECKING

from repro.obs.registry import HistogramStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.system import RunResult

__all__ = [
    "RECORD_SCHEMA",
    "build_record",
    "config_fingerprint",
    "git_revision",
    "metrics_digest",
    "run_id_for",
]

#: Bumped whenever the record layout changes incompatibly.
RECORD_SCHEMA = 1


def _canonical_json(payload: Mapping[str, Any]) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_fingerprint(payload: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonical form of ``payload``."""
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


def run_id_for(config_payload: Mapping[str, Any], seed: int) -> str:
    """Content address of one (configuration, seed) cell.

    Sixteen hex characters (64 bits) of the SHA-256 over the canonical
    config payload plus the seed — short enough to type, long enough
    that collisions across a ledger are negligible.
    """
    identity = {"config": dict(config_payload), "seed": int(seed)}
    return config_fingerprint(identity)[:16]


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """Short git revision of the working tree, or ``None`` outside git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def _rng_stream_names(result: "RunResult") -> List[str]:
    """The named RNG streams this run drew from, for provenance."""
    system = result.system
    names = [system.rng.name]
    names.extend(f"stage/{stage}" for stage in sorted(system.samplers))
    names.append("frame_size")
    names.append("inputs")
    return names


def _gate_delay_stats(result: "RunResult") -> Optional[Dict[str, float]]:
    # The same values, in the same order, as telemetry's gate_delay_ms
    # histogram, so the summary is bit-identical to it.
    stats = HistogramStats.from_values(result.system.app.gate_delays)
    if not stats.count:
        return None
    return {
        "count": float(stats.count),
        "mean_ms": stats.mean,
        "p99_ms": stats.p99,
    }


def _drop_counts(result: "RunResult") -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for frame in result.dropped_frames():
        reason = frame.dropped.value if frame.dropped is not None else "unknown"
        counts[reason] = counts.get(reason, 0) + 1
    return dict(sorted(counts.items()))


def _engine_stats(result: "RunResult", wall_clock_s: Optional[float]) -> Dict[str, Any]:
    env = result.system.env
    counts = env.stats()
    events_fired = counts["events_fired"]
    sim_s = env.now / 1000.0
    stats: Dict[str, Any] = {
        "events_scheduled": counts["events_scheduled"],
        "events_fired": events_fired,
        "max_heap_depth": counts["max_heap_depth"],
        "processes_started": counts["processes_started"],
        # Host seconds per simulated second, over the whole cell.
        "wall_per_sim_second_mean": (
            wall_clock_s / sim_s if wall_clock_s is not None and sim_s > 0.0 else None
        ),
    }
    if wall_clock_s is not None and wall_clock_s > 0.0:
        stats["events_per_sec"] = events_fired / wall_clock_s
    return stats


def build_record(
    result: "RunResult",
    config_payload: Mapping[str, Any],
    label: str = "",
    wall_clock_s: Optional[float] = None,
    git_rev: Optional[str] = None,
    fps_window_ms: float = 1000.0,
) -> Dict[str, Any]:
    """Assemble the full run record for one completed simulation.

    ``config_payload`` must contain every knob that defines the cell
    (benchmark, platform, resolution, regulator spec, duration, warmup,
    ...) *except* the seed, which is read from the run itself — the
    pair is the record's content address.
    """
    system = result.system
    config = result.config
    seed = int(config.seed)
    payload = dict(config_payload)

    gap = result.fps_gap()
    mtp_samples = [float(s) for s in result.mtp_samples()]
    qos_target = float(system.resolution.default_fps_target)
    qos = result.qos(qos_target)

    client_series = result.fps_series("decode", fps_window_ms)
    render_series = result.fps_series("render", fps_window_ms)
    gap_series = [r - c for r, c in zip(render_series, client_series)]

    stage_utilization = {
        stage: result.stage_utilization(stage) for stage in sorted(system.samplers)
    }

    metrics: Dict[str, Any] = {
        "render_fps": result.render_fps,
        "encode_fps": result.encode_fps,
        "client_fps": result.client_fps,
        "fps_gap_mean": gap.mean_gap,
        "fps_gap_max": gap.max_gap,
        "mtp_mean_ms": (sum(mtp_samples) / len(mtp_samples)) if mtp_samples else None,
        "qos_target": qos_target,
        "qos_satisfaction": qos.satisfaction if qos.n_windows else 0.0,
        "bandwidth_mbps": result.bandwidth_mbps(),
        "frames_rendered": result.frames_rendered(),
        "frames_dropped": len(result.dropped_frames()),
        "stage_utilization": stage_utilization,
        "drop_counts": _drop_counts(result),
    }
    gate = _gate_delay_stats(result)
    if gate is not None:
        metrics["gate_delay"] = gate

    record: Dict[str, Any] = {
        "schema": RECORD_SCHEMA,
        "run_id": run_id_for(payload, seed),
        "label": label,
        "seed": seed,
        "config": payload,
        "config_fingerprint": config_fingerprint(payload),
        "git_rev": git_rev if git_rev is not None else git_revision(),
        "rng_streams": _rng_stream_names(result),
        "wall_clock_s": wall_clock_s,
        "metrics": metrics,
        "series": {
            "client_fps": client_series,
            "fps_gap": gap_series,
            "mtp_ms": mtp_samples,
        },
    }
    record["engine"] = _engine_stats(result, wall_clock_s)
    return record


def metrics_digest(record: Mapping[str, Any]) -> str:
    """Digest over a record's measured content (metrics + series).

    Two records of the same cell with equal digests are byte-equivalent
    evidence; the ledger uses this to dedupe identical re-runs.
    """
    payload = {
        "metrics": record.get("metrics"),
        "series": record.get("series"),
    }
    return config_fingerprint(payload)
