"""Figure 13 — server power per benchmark (720p private cloud).

Paper anchors: NoReg averages ≈ 198.7 W; ODRMax saves ≈ 7.9 % and
ODR60 ≈ 22 %; IMHOTEP is both the biggest consumer under NoReg and the
biggest saver under ODR; Int/RVS burn slightly less than ODR only
because they deliver less QoS.
"""

from repro.experiments.figures import fig13_power, figure_demands
from repro.workloads import BENCHMARKS


def test_fig13_power(benchmark, runner, records, save_text):
    result = benchmark.pedantic(
        lambda: fig13_power(records(figure_demands("13", runner))), rounds=1, iterations=1
    )
    save_text("fig13_power", result["text"])
    per_bench = result["data"]["per_benchmark"]
    avg = result["data"]["avg"]

    # average NoReg power near the paper's 198.7 W
    assert 180 <= avg["NoReg"] <= 215

    # savings ordering and magnitudes
    save_max = 1 - avg["ODRMax"] / avg["NoReg"]
    save_60 = 1 - avg["ODR60"] / avg["NoReg"]
    assert 0.03 <= save_max <= 0.15          # paper: 7.9%
    assert 0.12 <= save_60 <= 0.32           # paper: 22%
    assert save_60 > save_max

    # IMHOTEP is the worst NoReg consumer and a top saver
    noreg_by_bench = {b: per_bench[b]["NoReg"] for b in BENCHMARKS}
    assert max(noreg_by_bench, key=noreg_by_bench.get) == "ITP"
    itp_saving = 1 - per_bench["ITP"]["ODR60"] / per_bench["ITP"]["NoReg"]
    assert itp_saving >= save_60  # ITP saves at least the average

    # every benchmark saves power under both ODR modes
    for bench in BENCHMARKS:
        assert per_bench[bench]["ODRMax"] < per_bench[bench]["NoReg"]
        assert per_bench[bench]["ODR60"] < per_bench[bench]["NoReg"]

    benchmark.extra_info["noreg_avg_w"] = round(avg["NoReg"], 1)
    benchmark.extra_info["odr60_saving_pct"] = round(save_60 * 100, 1)
