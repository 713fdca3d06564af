"""Table 2 — average/max FPS gaps for every configuration.

The paper's Table 2 reports, for each of three platform-resolution
groups (720p private, 720p GCE, 1080p GCE) and each regulation
configuration, the FPS gap averaged over the six benchmarks and the
largest per-benchmark gap, with the worst benchmark named.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.config import ExperimentConfig, PlatformRes, platform_res_combos
from repro.experiments.plan import Plan
from repro.experiments.report import format_table
from repro.experiments.runner import PlanRecords, Runner
from repro.workloads import BENCHMARKS

__all__ = ["Table2Row", "table2", "table2_demands"]

#: Table 2's row order.  Fixed-target rows use the group's native target.
_ROW_SPECS = [
    "NoReg",
    "IntMax",
    "RVSMax",
    "ODRMax-noPri",
    "ODRMax",
    "Int{t}",
    "RVS{t}",
    "ODR{t}",
]


@dataclass(frozen=True)
class Table2Row:
    """One (group, configuration) cell of Table 2."""

    group: str
    spec: str
    avg_gap: float
    max_gap: float
    worst_benchmark: str


def _table2_groups() -> List[PlatformRes]:
    """The three groups the paper tabulates (720p private, 720p/1080p GCE)."""
    combos = platform_res_combos()
    return [combos[0], combos[1], combos[3]]


def table2_demands(runner: Runner) -> Plan:
    """Every cell Table 2 reads: 3 groups × 8 rows × 6 benchmarks."""
    plan = Plan()
    for combo in _table2_groups():
        target = combo.fixed_target
        for spec_template in _ROW_SPECS:
            spec = spec_template.format(t=target)
            for bench in BENCHMARKS:
                plan.add(runner.spec_for(bench, ExperimentConfig(combo, spec)))
    return plan


def table2(records: PlanRecords) -> Dict[str, object]:
    """Regenerate Table 2; returns rows plus an ASCII rendering."""
    rows: List[Table2Row] = []
    for combo in _table2_groups():
        target = combo.fixed_target
        for spec_template in _ROW_SPECS:
            spec = spec_template.format(t=target)
            per_bench = {}
            for bench in BENCHMARKS:
                record = records.get(bench, ExperimentConfig(combo, spec))
                per_bench[bench] = record
            avg_gap = sum(r.fps_gap_mean for r in per_bench.values()) / len(per_bench)
            worst = max(per_bench, key=lambda b: per_bench[b].fps_gap_mean)
            max_gap = per_bench[worst].fps_gap_max
            rows.append(
                Table2Row(
                    group=combo.label,
                    spec=spec,
                    avg_gap=avg_gap,
                    max_gap=max_gap,
                    worst_benchmark=worst,
                )
            )
    rendering = format_table(
        ["group", "config", "avg gap", "max gap", "worst"],
        [[r.group, r.spec, r.avg_gap, r.max_gap, r.worst_benchmark] for r in rows],
        title="Table 2: Average/Max FPS gaps per configuration",
    )
    return {"rows": rows, "text": rendering}
