"""Figure 11 — per-benchmark MtP latency with tails (box statistics).

Paper: ODR's mean and tail latency beat NoReg/Int/RVS for most
configurations; ODR stays below ~92 ms on 720p GCE and ~150 ms on
1080p GCE for every benchmark — the public-cloud feasibility claim.
"""

from repro.experiments.figures import fig11_mtp_detail, figure_demands
from repro.workloads import BENCHMARKS


def test_fig11_mtp_detail(benchmark, runner, records, save_text):
    result = benchmark.pedantic(
        lambda: fig11_mtp_detail(records(figure_demands("11", runner))), rounds=1, iterations=1
    )
    save_text("fig11_mtp_detail", result["text"])
    data = result["data"]

    priv = data["Priv720p"]
    odr_wins_int = sum(
        1 for b in BENCHMARKS if priv[b]["ODR60"]["mean"] < priv[b]["Int60"]["mean"]
    )
    odr_wins_rvs = sum(
        1 for b in BENCHMARKS if priv[b]["ODR60"]["mean"] < priv[b]["RVS60"]["mean"]
    )
    assert odr_wins_int >= 5 and odr_wins_rvs >= 5

    # GCE public-cloud feasibility, per benchmark
    for bench in BENCHMARKS:
        assert data["GCE720p"][bench]["ODRMax"]["mean"] < 110
        assert data["GCE720p"][bench]["ODR60"]["mean"] < 110
        assert data["GCE1080p"][bench]["ODR30"]["mean"] < 170
        # NoReg's congestion blow-up per benchmark on GCE
        assert data["GCE720p"][bench]["NoReg"]["mean"] > 300

    # tails: ODR's p99 stays interactive on GCE 720p
    for bench in BENCHMARKS:
        box = data["GCE720p"][bench]["ODR60"]["box"]
        assert box.p99 < 200

    benchmark.extra_info["odr_vs_int_wins"] = odr_wins_int
