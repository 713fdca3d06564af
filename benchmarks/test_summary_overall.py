"""Section 6.6 — the paper's overall evaluation summary.

Paper anchors: ODR's overall average FPS gap 2.6 frames (NoReg ≥ 60);
ODR client FPS +62 %/+35 % over Int/RVS; ODR MtP 92-95 % below NoReg
and 27-31 % below Int/RVS; 720p-private efficiency: IPC +14.4 %, DRAM
read time −19 %, row misses −11 %, power −16 %; bandwidth 15-60 Mbps.
"""

from repro.experiments.figures import summary_demands, summary_overall


def test_summary_overall(benchmark, runner, records, save_text):
    result = benchmark.pedantic(
        lambda: summary_overall(records(summary_demands(runner))), rounds=1, iterations=1
    )
    save_text("summary_overall", result["text"])
    data = result["data"]

    # FPS gap: NoReg enormous, ODR single digits
    assert data["fps_gap"]["NoReg"] > 50
    assert data["fps_gap"]["ODR"] < 6          # paper: 2.6

    # client FPS superiority over the baselines
    assert data["client_fps"]["ODR_vs_Int_pct"] > 20    # paper: +62%
    assert data["client_fps"]["ODR_vs_RVS_pct"] > 10    # paper: +35%

    # MtP latency: the 92%+ overall reduction vs NoReg
    assert data["mtp"]["ODR_vs_NoReg_pct"] > 80          # paper: 92-95%
    assert data["mtp"]["ODR_vs_Int_pct"] > 10            # paper: ~31%
    assert data["mtp"]["ODR_vs_RVS_pct"] > 10            # paper: ~27%

    # efficiency aggregates (720p private)
    eff = data["efficiency_720p_private"]
    assert 5 <= eff["ipc_improvement_pct"] <= 30         # paper: 14.4%
    assert 5 <= eff["read_time_reduction_pct"] <= 35     # paper: 19%
    assert 3 <= eff["miss_rate_reduction_pct"] <= 20     # paper: 11%
    assert 8 <= eff["power_reduction_pct"] <= 28         # paper: 16%

    # bandwidth usage in the paper's 15-60 Mbps envelope
    for spec, bw in data["bandwidth_mbps"].items():
        assert 10 <= bw <= 70, f"{spec}: {bw} Mbps"

    benchmark.extra_info.update(
        {
            "odr_gap": round(data["fps_gap"]["ODR"], 2),
            "mtp_cut_vs_noreg_pct": round(data["mtp"]["ODR_vs_NoReg_pct"], 1),
            "power_cut_pct": round(eff["power_reduction_pct"], 1),
            "ipc_gain_pct": round(eff["ipc_improvement_pct"], 1),
        }
    )
