"""Ablation — ODR's three components isolated.

Not a paper table, but implied by its component analysis: multi-
buffering alone (ODRMax-noPri) eliminates the gap; PriorityFrame buys
latency at a small gap cost; acceleration (vs a delay-only clock) is
what holds the windowed QoS target under spikes.
"""

from repro.experiments.config import ExperimentConfig, PlatformRes
from repro.experiments.plan import group_demands
from repro.experiments.report import format_table
from repro.workloads import BENCHMARKS, PRIVATE_CLOUD, Resolution

PRIV720 = PlatformRes(PRIVATE_CLOUD, Resolution.R720P)

SPECS = ["NoReg", "ODRMax", "ODRMax-noPri", "ODR60", "ODR60-noAccel", "ODR60-noPri"]


def run_ablation(runner, records):
    view = records(group_demands(
        PRIV720, SPECS, seeds=(runner.seed,),
        duration_ms=runner.duration_ms, warmup_ms=runner.warmup_ms,
    ))
    rows = {}
    for spec in SPECS:
        records = [view.get(bench, ExperimentConfig(PRIV720, spec)) for bench in BENCHMARKS]
        rows[spec] = {
            "client_fps": sum(r.client_fps for r in records) / len(records),
            "gap": sum(r.fps_gap_mean for r in records) / len(records),
            "mtp_ms": sum(r.mtp_mean_ms for r in records) / len(records),
            "qos": sum(r.qos_satisfaction for r in records) / len(records),
        }
    return rows


def test_ablation_components(benchmark, runner, records, save_text):
    rows = benchmark.pedantic(lambda: run_ablation(runner, records), rounds=1, iterations=1)
    text = format_table(
        ["config", "client FPS", "gap", "MtP ms", "QoS windows"],
        [[s, v["client_fps"], v["gap"], v["mtp_ms"], v["qos"]] for s, v in rows.items()],
        title="Ablation: ODR components (720p private, averaged over benchmarks)",
    )
    save_text("ablation_components", text)

    # multi-buffering alone removes the gap entirely
    assert rows["ODRMax-noPri"]["gap"] < 1.0
    assert rows["NoReg"]["gap"] > 40

    # PriorityFrame trades a small gap for a large latency cut
    assert rows["ODRMax"]["gap"] - rows["ODRMax-noPri"]["gap"] < 3.0
    assert rows["ODRMax"]["mtp_ms"] < rows["ODRMax-noPri"]["mtp_ms"]
    assert rows["ODR60"]["mtp_ms"] < rows["ODR60-noPri"]["mtp_ms"]

    # acceleration defends the windowed QoS target
    assert rows["ODR60"]["qos"] >= rows["ODR60-noAccel"]["qos"]
    assert rows["ODR60"]["client_fps"] >= rows["ODR60-noAccel"]["client_fps"]

    benchmark.extra_info["priority_latency_cut_ms"] = round(
        rows["ODRMax-noPri"]["mtp_ms"] - rows["ODRMax"]["mtp_ms"], 1
    )
