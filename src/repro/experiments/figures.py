"""Regeneration of every figure in the paper's analysis and evaluation.

Each ``figNN_*`` function returns a dict with structured ``data`` plus a
plain-text ``text`` rendering.  Analysis figures (1, 3-7) use InMind at
720p on the private cloud, exactly like Sec. 4; evaluation figures
(9-13) sweep the benchmark × configuration matrix of Sec. 6.

Matrix figures read their cells from a
:class:`~repro.experiments.runner.PlanRecords` view over the plan
:func:`figure_demands` (or :func:`summary_demands`) declares; they
never execute.  Figures 4 and 5 drive raw systems instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.config import (
    ExperimentConfig,
    PlatformRes,
    platform_res_combos,
    regulator_specs_for,
)
from repro.experiments.plan import CellSpec, Plan
from repro.experiments.record import ExperimentRecord
from repro.experiments.report import format_table
from repro.experiments.runner import PlanRecords, Runner
from repro.metrics.stats import mean, percentile
from repro.pipeline import CloudSystem, SystemConfig
from repro.regulators import make_regulator
from repro.workloads import BENCHMARKS, PRIVATE_CLOUD, Resolution

__all__ = [
    "fig01_fps_gap",
    "fig03_regulation_fps",
    "fig04_time_variation",
    "fig05_pipeline_schedules",
    "fig06_mtp_latency",
    "fig07_dram_efficiency",
    "fig09_qos_averages",
    "fig10_client_fps_detail",
    "fig11_mtp_detail",
    "fig12_memory_efficiency",
    "fig13_power",
    "figure_demands",
    "summary_demands",
    "summary_overall",
]

#: The five Sec. 4 analysis configurations, in figure order.
ANALYSIS_SPECS = ["NoReg", "Int60", "IntMax", "RVS60", "RVSMax"]

_PRIV720 = PlatformRes(PRIVATE_CLOUD, Resolution.R720P)


# ---------------------------------------------------------------------------
# Demand declarations (the planning layer's view of every figure).
# ---------------------------------------------------------------------------


def _specs(runner: Runner, combo: PlatformRes, specs, benchmarks) -> List[CellSpec]:
    return [
        runner.spec_for(bench, ExperimentConfig(combo, spec))
        for spec in specs
        for bench in benchmarks
    ]


def figure_demands(number: str, runner: Runner) -> Plan:
    """The cells figure ``number`` will read, as a deduplicated plan.

    Run this plan (``runner.run_plan``), then render from
    ``runner.records_for(plan)`` — that is how ``odr-sim figure N
    --workers M`` parallelizes a figure.  Figures 4 and 5 drive raw
    systems rather than matrix cells and return an empty plan.
    """
    plan = Plan()
    if number == "1":
        plan.extend(_specs(runner, _PRIV720, ["NoReg"], ["RE", "IM"]))
    elif number in ("3", "6", "7"):
        plan.extend(_specs(runner, _PRIV720, ANALYSIS_SPECS, ["IM"]))
    elif number == "9":
        for combo in platform_res_combos():
            plan.extend(_specs(runner, combo, regulator_specs_for(combo), BENCHMARKS))
    elif number in ("10", "11"):
        combos = platform_res_combos()
        for idx in _DETAIL_GROUPS:
            combo = combos[idx]
            plan.extend(_specs(runner, combo, regulator_specs_for(combo), BENCHMARKS))
    elif number in ("12", "13"):
        plan.extend(_specs(runner, _PRIV720, _EFFICIENCY_SPECS, BENCHMARKS))
    elif number not in ("4", "5"):
        raise ValueError(f"unknown figure {number!r}")
    return plan


def summary_demands(runner: Runner) -> Plan:
    """Every cell :func:`summary_overall` aggregates (Sec. 6.6)."""
    plan = Plan()
    for combo in platform_res_combos():
        plan.extend(_specs(runner, combo, regulator_specs_for(combo), BENCHMARKS))
    # The 720p-private efficiency block only adds cells already demanded
    # above; extend anyway so the plan stays correct if specs diverge.
    plan.extend(_specs(runner, _PRIV720, ["NoReg", "ODRMax", "ODR60"], BENCHMARKS))
    return plan


def _analysis_cell(records: PlanRecords, spec: str, benchmark: str = "IM") -> ExperimentRecord:
    return records.get(benchmark, ExperimentConfig(_PRIV720, spec))


# ---------------------------------------------------------------------------
# Figure 1 — excessive rendering causes large FPS gaps (RE and IM, NoReg).
# ---------------------------------------------------------------------------


def fig01_fps_gap(records: PlanRecords) -> Dict[str, object]:
    """Cloud (render) vs client (decode) FPS for Red Eclipse and InMind."""
    data = {}
    for bench in ("RE", "IM"):
        record = records.get(bench, ExperimentConfig(_PRIV720, "NoReg"))
        data[bench] = {
            "cloud_fps": record.render_fps,
            "client_fps": record.client_fps,
            "gap": record.render_fps - record.client_fps,
        }
    text = format_table(
        ["benchmark", "cloud FPS", "client FPS", "FPS gap"],
        [[b, d["cloud_fps"], d["client_fps"], d["gap"]] for b, d in data.items()],
        title="Figure 1: Excessive frame rendering causes large FPS gaps (NoReg, 720p private)",
    )
    return {"data": data, "text": text}


# ---------------------------------------------------------------------------
# Figure 3 — InMind per-stage FPS under the five analysis configurations.
# ---------------------------------------------------------------------------


def fig03_regulation_fps(records: PlanRecords) -> Dict[str, object]:
    """InMind render/encode/decode FPS under NoReg and four regulators."""
    data = {}
    for spec in ANALYSIS_SPECS:
        record = _analysis_cell(records, spec)
        data[spec] = {
            "render_fps": record.render_fps,
            "encode_fps": record.encode_fps,
            "decode_fps": record.client_fps,
        }
    text = format_table(
        ["config", "render FPS", "encode FPS", "decode FPS"],
        [[s, d["render_fps"], d["encode_fps"], d["decode_fps"]] for s, d in data.items()],
        title="Figure 3: InMind FPS per stage under different FPS regulations",
    )
    return {"data": data, "text": text}


# ---------------------------------------------------------------------------
# Figure 4 — processing-time variation: CDFs and a 100-frame trace.
# ---------------------------------------------------------------------------


def fig04_time_variation(seed: int = 1, n_trace: int = 100) -> Dict[str, object]:
    """InMind render/encode/transmit time distributions under NoReg."""
    config = SystemConfig("IM", PRIVATE_CLOUD, Resolution.R720P, seed=seed, duration_ms=20000)
    result = CloudSystem(config, make_regulator("NoReg")).run()
    stages = ("render", "encode", "transmit")
    durations = {
        stage: [
            r.duration
            for r in result.trace.records(stage)
            if result.t_start <= r.start < result.t_end
        ]
        for stage in stages
    }
    cdf = {}
    for stage, values in durations.items():
        pts = sorted(values)
        cdf[stage] = {
            "p50": percentile(pts, 50),
            "p80": percentile(pts, 80),
            "p90": percentile(pts, 90),
            "p99": percentile(pts, 99),
            "max": max(pts),
            "below_16_6ms": sum(1 for v in pts if v <= 16.6) / len(pts),
        }
    trace = {stage: durations[stage][:n_trace] for stage in stages}
    text = format_table(
        ["stage", "p50 ms", "p80 ms", "p90 ms", "p99 ms", "max ms", "<=16.6ms"],
        [
            [s, c["p50"], c["p80"], c["p90"], c["p99"], c["max"], c["below_16_6ms"]]
            for s, c in cdf.items()
        ],
        title="Figure 4: InMind processing-time variation (CDF summary + trace data)",
    )
    return {"data": {"cdf": cdf, "trace": trace}, "text": text}


# ---------------------------------------------------------------------------
# Figure 5 — pipeline schedules under Int60 / RVS60 / ODR60.
# ---------------------------------------------------------------------------


def fig05_pipeline_schedules(seed: int = 1, n_frames: int = 8) -> Dict[str, object]:
    """Per-frame stage intervals for the first frames of each regulator.

    Returns, per configuration, a list of ``(stage, start, end)``
    busy intervals covering the first ``n_frames`` encoded frames —
    the data behind the paper's Fig. 5 schedule sketches.
    """
    schedules = {}
    for spec in ("Int60", "RVS60", "ODR60"):
        config = SystemConfig(
            "IM", PRIVATE_CLOUD, Resolution.R720P, seed=seed, duration_ms=2000, warmup_ms=0
        )
        result = CloudSystem(config, make_regulator(spec)).run()
        intervals = [
            (r.stage, r.start, r.end)
            for r in result.trace.records()
            if r.stage in ("render", "encode")
        ]
        intervals.sort(key=lambda t: t[1])
        # Keep intervals up to the n-th encode completion.
        encode_ends = sorted(r.end for r in result.trace.records("encode"))
        horizon = encode_ends[n_frames - 1] if len(encode_ends) >= n_frames else float("inf")
        schedules[spec] = [iv for iv in intervals if iv[1] <= horizon]
    lines = ["Figure 5: pipeline schedules (first frames; stage, start ms, end ms)"]
    for spec, intervals in schedules.items():
        lines.append(f"-- {spec} --")
        for stage, start, end in intervals[:16]:
            lines.append(f"  {stage:8s} {start:8.2f} -> {end:8.2f}")
    return {"data": schedules, "text": "\n".join(lines)}


# ---------------------------------------------------------------------------
# Figure 6 — InMind MtP latency under the five analysis configurations.
# ---------------------------------------------------------------------------


def fig06_mtp_latency(records: PlanRecords) -> Dict[str, object]:
    data = {}
    for spec in ANALYSIS_SPECS:
        record = _analysis_cell(records, spec)
        data[spec] = record.mtp_mean_ms
    text = format_table(
        ["config", "MtP latency (ms)"],
        [[s, v] for s, v in data.items()],
        title="Figure 6: InMind MtP latency under different FPS regulations",
    )
    return {"data": data, "text": text}


# ---------------------------------------------------------------------------
# Figure 7 — InMind DRAM efficiency under the five analysis configurations.
# ---------------------------------------------------------------------------


def fig07_dram_efficiency(records: PlanRecords) -> Dict[str, object]:
    data = {}
    for spec in ANALYSIS_SPECS:
        record = _analysis_cell(records, spec)
        data[spec] = {
            "row_miss_rate": record.row_miss_rate,
            "read_access_ns": record.read_access_ns,
            "ipc": record.ipc,
        }
    text = format_table(
        ["config", "miss rate", "read ns", "IPC"],
        [[s, d["row_miss_rate"], d["read_access_ns"], d["ipc"]] for s, d in data.items()],
        title="Figure 7: FPS regulation and DRAM efficiency (InMind, 720p private)",
    )
    return {"data": data, "text": text}


# ---------------------------------------------------------------------------
# Figure 9 — average client FPS and MtP latency across all 28 configurations.
# ---------------------------------------------------------------------------


def fig09_qos_averages(records: PlanRecords) -> Dict[str, object]:
    """Per platform-resolution group: benchmark-averaged FPS and MtP."""
    groups = {}
    for combo in platform_res_combos():
        specs = regulator_specs_for(combo)
        per_spec = {}
        for spec in specs:
            cells = [
                records.get(bench, ExperimentConfig(combo, spec)) for bench in BENCHMARKS
            ]
            fps = mean([r.client_fps for r in cells])
            lat_values = [r.mtp_mean_ms for r in cells if r.mtp_mean_ms is not None]
            per_spec[spec] = {
                "client_fps": fps,
                "mtp_ms": mean(lat_values) if lat_values else None,
            }
        groups[combo.label] = per_spec

    # Overall averages per regulator family/goal (the rightmost bars).
    overall: Dict[str, Dict[str, List[float]]] = {}
    for per_spec in groups.values():
        for spec, vals in per_spec.items():
            family = _normalize_spec(spec)
            slot = overall.setdefault(family, {"fps": [], "mtp": []})
            slot["fps"].append(vals["client_fps"])
            if vals["mtp_ms"] is not None:
                slot["mtp"].append(vals["mtp_ms"])
    overall_avg = {
        family: {
            "client_fps": mean(v["fps"]),
            "mtp_ms": mean(v["mtp"]) if v["mtp"] else None,
        }
        for family, v in overall.items()
    }

    rows = []
    for label, per_spec in groups.items():
        for spec, vals in per_spec.items():
            rows.append([label, spec, vals["client_fps"], vals["mtp_ms"]])
    for family, vals in overall_avg.items():
        rows.append(["OverallAvg", family, vals["client_fps"], vals["mtp_ms"]])
    text = format_table(
        ["group", "config", "client FPS", "MtP ms"],
        rows,
        title="Figure 9: Average QoS results over six benchmarks, all configurations",
    )
    return {"data": {"groups": groups, "overall": overall_avg}, "text": text}


def _normalize_spec(spec: str) -> str:
    """Fold Int30/Int60 → IntFix etc. for overall averaging."""
    for family in ("Int", "RVS", "ODR"):
        if spec.startswith(family) and spec[len(family):].isdigit():
            return f"{family}Fix"
    return spec


# ---------------------------------------------------------------------------
# Figures 10/11 — per-benchmark client FPS / MtP box statistics.
# ---------------------------------------------------------------------------

#: The three groups detailed in Figs. 10 and 11.
_DETAIL_GROUPS = [0, 1, 3]  # indices into platform_res_combos()


def _detail(records: PlanRecords, metric: str, title: str) -> Dict[str, object]:
    combos = platform_res_combos()
    data: Dict[str, Dict[str, Dict[str, object]]] = {}
    rows = []
    for idx in _DETAIL_GROUPS:
        combo = combos[idx]
        group: Dict[str, Dict[str, object]] = {}
        for bench in BENCHMARKS:
            per_spec = {}
            for spec in regulator_specs_for(combo):
                record = records.get(bench, ExperimentConfig(combo, spec))
                box = record.client_fps_box if metric == "fps" else record.mtp_box
                value = record.client_fps if metric == "fps" else record.mtp_mean_ms
                per_spec[spec] = {"mean": value, "box": box}
                rows.append([combo.label, bench, spec, value,
                             box.p1 if box else None, box.p99 if box else None])
            group[bench] = per_spec
        data[combo.label] = group
    text = format_table(
        ["group", "bench", "config", "mean", "p1", "p99"], rows, title=title
    )
    return {"data": data, "text": text}


def fig10_client_fps_detail(records: PlanRecords) -> Dict[str, object]:
    """Per-benchmark client FPS with tails (box plots of Fig. 10)."""
    return _detail(records, "fps", "Figure 10: Detailed client FPS results")


def fig11_mtp_detail(records: PlanRecords) -> Dict[str, object]:
    """Per-benchmark MtP latency with tails (box plots of Fig. 11)."""
    return _detail(records, "mtp", "Figure 11: Detailed MtP latency results")


# ---------------------------------------------------------------------------
# Figures 12/13 — memory efficiency and power (720p private, all benchmarks).
# ---------------------------------------------------------------------------

#: Fig. 12/13 configuration order.
_EFFICIENCY_SPECS = ["NoReg", "IntMax", "RVSMax", "ODRMax", "Int60", "RVS60", "ODR60"]


def fig12_memory_efficiency(records: PlanRecords) -> Dict[str, object]:
    data: Dict[str, Dict[str, Dict[str, float]]] = {}
    rows = []
    for bench in BENCHMARKS:
        per_spec = {}
        for spec in _EFFICIENCY_SPECS:
            record = records.get(bench, ExperimentConfig(_PRIV720, spec))
            per_spec[spec] = {
                "ipc": record.ipc,
                "row_miss_rate": record.row_miss_rate,
                "read_access_ns": record.read_access_ns,
            }
            rows.append([bench, spec, record.ipc, record.row_miss_rate,
                         record.read_access_ns])
        data[bench] = per_spec
    # Benchmark-averaged columns (the paper's AVG bars).
    avg = {}
    for spec in _EFFICIENCY_SPECS:
        avg[spec] = {
            key: mean([data[b][spec][key] for b in data])
            for key in ("ipc", "row_miss_rate", "read_access_ns")
        }
        rows.append(["AVG", spec, avg[spec]["ipc"], avg[spec]["row_miss_rate"],
                     avg[spec]["read_access_ns"]])
    text = format_table(
        ["bench", "config", "IPC", "miss rate", "read ns"],
        rows,
        title="Figure 12: Memory efficiency (720p private cloud)",
    )
    return {"data": {"per_benchmark": data, "avg": avg}, "text": text}


def fig13_power(records: PlanRecords) -> Dict[str, object]:
    data: Dict[str, Dict[str, float]] = {}
    rows = []
    for bench in BENCHMARKS:
        per_spec = {}
        for spec in _EFFICIENCY_SPECS:
            record = records.get(bench, ExperimentConfig(_PRIV720, spec))
            per_spec[spec] = record.power_w
            rows.append([bench, spec, record.power_w])
        data[bench] = per_spec
    avg = {spec: mean([data[b][spec] for b in data]) for spec in _EFFICIENCY_SPECS}
    for spec, value in avg.items():
        rows.append(["AVG", spec, value])
    text = format_table(
        ["bench", "config", "power W"],
        rows,
        title="Figure 13: Power usages (720p private cloud)",
    )
    return {"data": {"per_benchmark": data, "avg": avg}, "text": text}


# ---------------------------------------------------------------------------
# Sec. 6.6 — overall evaluation summary.
# ---------------------------------------------------------------------------


def summary_overall(records: PlanRecords) -> Dict[str, object]:
    """The headline Sec. 6.6 aggregates: gaps, FPS, MtP, efficiency."""
    # QoS aggregates across all four groups.
    fps_by_family: Dict[str, List[float]] = {}
    mtp_by_family: Dict[str, List[float]] = {}
    gap_by_family: Dict[str, List[float]] = {}
    for combo in platform_res_combos():
        for spec in regulator_specs_for(combo):
            family = _normalize_spec(spec)
            for bench in BENCHMARKS:
                record = records.get(bench, ExperimentConfig(combo, spec))
                fps_by_family.setdefault(family, []).append(record.client_fps)
                gap_by_family.setdefault(family, []).append(record.fps_gap_mean)
                if record.mtp_mean_ms is not None:
                    mtp_by_family.setdefault(family, []).append(record.mtp_mean_ms)

    def avg(d: Dict[str, List[float]], key: str) -> Optional[float]:
        values = d.get(key)
        return mean(values) if values else None

    odr_gap = mean(gap_by_family["ODRMax"] + gap_by_family["ODRFix"])
    noreg_gap = mean(gap_by_family["NoReg"])

    odr_all_fps = mean(fps_by_family["ODRMax"] + fps_by_family["ODRFix"])
    int_all_fps = mean(fps_by_family["IntMax"] + fps_by_family["IntFix"])
    rvs_all_fps = mean(fps_by_family["RVSMax"] + fps_by_family["RVSFix"])

    odr_all_mtp = mean(mtp_by_family["ODRMax"] + mtp_by_family["ODRFix"])
    int_all_mtp = mean(mtp_by_family["IntMax"] + mtp_by_family["IntFix"])
    rvs_all_mtp = mean(mtp_by_family["RVSMax"] + mtp_by_family["RVSFix"])
    noreg_mtp = avg(mtp_by_family, "NoReg")

    # Efficiency aggregates over the 720p private group (as in Sec. 6.6).
    eff: Dict[str, Dict[str, float]] = {}
    for spec in ("NoReg", "ODRMax", "ODR60"):
        cells = [
            records.get(bench, ExperimentConfig(_PRIV720, spec)) for bench in BENCHMARKS
        ]
        eff[spec] = {
            "ipc": mean([r.ipc for r in cells]),
            "row_miss_rate": mean([r.row_miss_rate for r in cells]),
            "read_access_ns": mean([r.read_access_ns for r in cells]),
            "power_w": mean([r.power_w for r in cells]),
            "bandwidth_mbps": mean([r.bandwidth_mbps for r in cells]),
        }
    odr_eff = {
        key: (eff["ODRMax"][key] + eff["ODR60"][key]) / 2.0
        for key in eff["NoReg"]
    }

    data = {
        "fps_gap": {"NoReg": noreg_gap, "ODR": odr_gap},
        "client_fps": {
            "ODRMax": avg(fps_by_family, "ODRMax"),
            "NoReg": avg(fps_by_family, "NoReg"),
            "ODR_vs_Int_pct": 100.0 * (odr_all_fps / int_all_fps - 1.0),
            "ODR_vs_RVS_pct": 100.0 * (odr_all_fps / rvs_all_fps - 1.0),
        },
        "mtp": {
            "NoReg": noreg_mtp,
            "ODR": odr_all_mtp,
            "ODR_vs_NoReg_pct": 100.0 * (1.0 - odr_all_mtp / noreg_mtp),
            "ODR_vs_Int_pct": 100.0 * (1.0 - odr_all_mtp / int_all_mtp),
            "ODR_vs_RVS_pct": 100.0 * (1.0 - odr_all_mtp / rvs_all_mtp),
        },
        "efficiency_720p_private": {
            "ipc_improvement_pct": 100.0 * (odr_eff["ipc"] / eff["NoReg"]["ipc"] - 1.0),
            "miss_rate_reduction_pct": 100.0
            * (1.0 - odr_eff["row_miss_rate"] / eff["NoReg"]["row_miss_rate"]),
            "read_time_reduction_pct": 100.0
            * (1.0 - odr_eff["read_access_ns"] / eff["NoReg"]["read_access_ns"]),
            "power_reduction_pct": 100.0
            * (1.0 - odr_eff["power_w"] / eff["NoReg"]["power_w"]),
        },
        "bandwidth_mbps": {spec: eff[spec]["bandwidth_mbps"] for spec in eff},
    }

    lines = ["Section 6.6 overall summary (paper's headline claims)"]
    lines.append(f"  avg FPS gap: NoReg {noreg_gap:.1f} -> ODR {odr_gap:.1f} frames")
    lines.append(
        f"  client FPS: ODR vs Int {data['client_fps']['ODR_vs_Int_pct']:+.1f}%, "
        f"vs RVS {data['client_fps']['ODR_vs_RVS_pct']:+.1f}%"
    )
    lines.append(
        f"  MtP: ODR vs NoReg {data['mtp']['ODR_vs_NoReg_pct']:.1f}% faster, "
        f"vs Int {data['mtp']['ODR_vs_Int_pct']:.1f}%, vs RVS {data['mtp']['ODR_vs_RVS_pct']:.1f}%"
    )
    e = data["efficiency_720p_private"]
    lines.append(
        f"  720p private: IPC {e['ipc_improvement_pct']:+.1f}%, "
        f"miss {e['miss_rate_reduction_pct']:.1f}% lower, "
        f"DRAM read {e['read_time_reduction_pct']:.1f}% lower, "
        f"power {e['power_reduction_pct']:.1f}% lower"
    )
    return {"data": data, "text": "\n".join(lines)}
