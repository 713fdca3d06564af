"""Figure 3 — InMind per-stage FPS under five regulation configurations.

Paper anchors (InMind, 720p private): NoReg ≈ 189/93/93 (render/encode/
decode), Int60 ≈ 55/53, IntMax ≈ 46, RVS60 ≈ 54, RVSMax ≈ 76.
"""

from repro.experiments.figures import fig03_regulation_fps, figure_demands


def test_fig03_regulation_fps(benchmark, runner, records, save_text):
    result = benchmark.pedantic(
        lambda: fig03_regulation_fps(records(figure_demands("3", runner))), rounds=1, iterations=1
    )
    save_text("fig03_regulation_fps", result["text"])
    data = result["data"]

    noreg = data["NoReg"]
    assert 170 <= noreg["render_fps"] <= 210
    assert 80 <= noreg["encode_fps"] <= 100

    assert 50 <= data["Int60"]["decode_fps"] < 60
    assert data["IntMax"]["decode_fps"] < 0.9 * noreg["decode_fps"]
    assert 48 <= data["RVS60"]["decode_fps"] < 60
    assert 65 <= data["RVSMax"]["decode_fps"] <= 88   # paper: 76

    # every regulator removes the render-vs-decode gap
    for spec in ("Int60", "IntMax", "RVS60", "RVSMax"):
        assert data[spec]["render_fps"] - data[spec]["decode_fps"] < 5

    for spec, values in data.items():
        benchmark.extra_info[spec] = round(values["decode_fps"], 1)
