"""Figure 12 — memory efficiency per benchmark (720p private cloud).

Paper anchors: averaged over the six benchmarks, ODRMax improves IPC by
~7.6 % and ODR60 by ~21 % over NoReg; ODR cuts row-miss rates ~10 pts
and DRAM read time 13-25 %; NoReg's average IPC is ~0.66.
"""

from repro.experiments.figures import fig12_memory_efficiency, figure_demands
from repro.workloads import BENCHMARKS


def test_fig12_memory_efficiency(benchmark, runner, records, save_text):
    result = benchmark.pedantic(
        lambda: fig12_memory_efficiency(records(figure_demands("12", runner))),
        rounds=1,
        iterations=1,
    )
    save_text("fig12_memory_efficiency", result["text"])
    per_bench = result["data"]["per_benchmark"]
    avg = result["data"]["avg"]

    # NoReg average IPC lands near the paper's 0.66
    assert 0.55 <= avg["NoReg"]["ipc"] <= 0.80

    # ODR improves IPC over NoReg, ODR60 more than ODRMax
    gain_max = avg["ODRMax"]["ipc"] / avg["NoReg"]["ipc"] - 1
    gain_60 = avg["ODR60"]["ipc"] / avg["NoReg"]["ipc"] - 1
    assert 0.02 <= gain_max <= 0.20          # paper: +7.6%
    assert 0.08 <= gain_60 <= 0.35           # paper: +21.2%
    assert gain_60 > gain_max

    # miss-rate and read-time reductions
    assert avg["NoReg"]["row_miss_rate"] - avg["ODR60"]["row_miss_rate"] >= 0.03
    assert avg["ODR60"]["read_access_ns"] <= 0.87 * avg["NoReg"]["read_access_ns"]

    # per-benchmark: ODRMax never hurts IPC
    for bench in BENCHMARKS:
        assert per_bench[bench]["ODRMax"]["ipc"] >= per_bench[bench]["NoReg"]["ipc"]

    benchmark.extra_info["ipc_gain_odr60_pct"] = round(gain_60 * 100, 1)
    benchmark.extra_info["noreg_avg_ipc"] = round(avg["NoReg"]["ipc"], 3)
