"""Figure 7 — FPS regulation and DRAM efficiency (InMind).

Paper anchors: NoReg ≈ 70 % row-miss / 68 ns read; Int60 cuts the miss
rate by ~9 points, read time to ~47 ns, and gains ~10 % IPC.
"""

from repro.experiments.figures import fig07_dram_efficiency, figure_demands


def test_fig07_dram_efficiency(benchmark, runner, records, save_text):
    result = benchmark.pedantic(
        lambda: fig07_dram_efficiency(records(figure_demands("7", runner))), rounds=1, iterations=1
    )
    save_text("fig07_dram_efficiency", result["text"])
    data = result["data"]

    noreg = data["NoReg"]
    assert 0.66 <= noreg["row_miss_rate"] <= 0.73     # paper: ~0.70
    assert 60 <= noreg["read_access_ns"] <= 72        # paper: ~68

    int60 = data["Int60"]
    assert noreg["row_miss_rate"] - int60["row_miss_rate"] >= 0.05
    assert int60["read_access_ns"] <= 52              # paper: ~47
    assert int60["ipc"] >= 1.05 * noreg["ipc"]        # paper: +10%

    # all regulated configurations improve on NoReg
    for spec in ("Int60", "IntMax", "RVS60", "RVSMax"):
        assert data[spec]["ipc"] > noreg["ipc"]
        benchmark.extra_info[f"{spec}_ipc"] = round(data[spec]["ipc"], 3)
