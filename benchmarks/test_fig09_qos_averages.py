"""Figure 9 — average client FPS and MtP latency, all 28 configurations.

Paper anchors: ODRMax's average client FPS beats NoReg's (+5.5 %
overall) and crushes IntMax (+62 %) and RVSMax (+33 %); ODR30/60 hit
their targets while Int/RVS miss them; NoReg's GCE latency reaches
seconds while ODR stays around 60-120 ms everywhere.
"""

from repro.experiments.figures import fig09_qos_averages, figure_demands


def test_fig09_qos_averages(benchmark, runner, records, save_text):
    result = benchmark.pedantic(
        lambda: fig09_qos_averages(records(figure_demands("9", runner))), rounds=1, iterations=1
    )
    save_text("fig09_qos_averages", result["text"])
    groups = result["data"]["groups"]
    overall = result["data"]["overall"]

    # --- client FPS ---------------------------------------------------
    priv720 = groups["Priv720p"]
    assert priv720["ODRMax"]["client_fps"] > priv720["NoReg"]["client_fps"]
    assert priv720["ODRMax"]["client_fps"] > 1.3 * priv720["IntMax"]["client_fps"]
    assert priv720["ODRMax"]["client_fps"] > 1.1 * priv720["RVSMax"]["client_fps"]
    assert priv720["ODR60"]["client_fps"] >= 60.0
    assert priv720["Int60"]["client_fps"] < 60.0
    assert priv720["RVS60"]["client_fps"] < 60.0

    gce1080 = groups["GCE1080p"]
    assert gce1080["ODR30"]["client_fps"] >= 30.0
    assert gce1080["Int30"]["client_fps"] < 30.5

    # --- MtP latency -----------------------------------------------------
    assert groups["GCE720p"]["NoReg"]["mtp_ms"] > 500      # seconds-scale
    assert groups["GCE720p"]["ODRMax"]["mtp_ms"] < 100     # paper: <77ms
    assert groups["GCE720p"]["ODR60"]["mtp_ms"] < 100
    assert groups["GCE1080p"]["ODR30"]["mtp_ms"] < 160     # paper: <120ms
    assert priv720["ODRMax"]["mtp_ms"] < priv720["NoReg"]["mtp_ms"]
    assert priv720["ODR60"]["mtp_ms"] < priv720["Int60"]["mtp_ms"]
    assert priv720["ODR60"]["mtp_ms"] < priv720["RVS60"]["mtp_ms"]

    # --- overall bars -----------------------------------------------------
    assert overall["ODRMax"]["client_fps"] > overall["IntMax"]["client_fps"]
    assert overall["ODRMax"]["mtp_ms"] < overall["NoReg"]["mtp_ms"] * 0.25

    benchmark.extra_info["odrmax_overall_fps"] = round(overall["ODRMax"]["client_fps"], 1)
    benchmark.extra_info["noreg_overall_mtp_ms"] = round(overall["NoReg"]["mtp_ms"], 0)
