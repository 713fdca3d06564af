"""Figure 1 — excessive rendering causes large FPS gaps (RE and IM).

Paper: Red Eclipse and InMind both show cloud rendering FPS far above
client FPS under NoReg (gaps of roughly 60-100 frames at 720p).
"""

from repro.experiments.figures import fig01_fps_gap, figure_demands


def test_fig01_fps_gap(benchmark, runner, records, save_text):
    result = benchmark.pedantic(
        lambda: fig01_fps_gap(records(figure_demands("1", runner))), rounds=1, iterations=1
    )
    save_text("fig01_fps_gap", result["text"], data=result["data"])
    data = result["data"]
    for bench in ("RE", "IM"):
        assert data[bench]["gap"] > 50, f"{bench} gap collapsed"
        assert data[bench]["cloud_fps"] > data[bench]["client_fps"]
    # InMind's gap is ~96 frames in the paper
    assert 70 <= data["IM"]["gap"] <= 130
    benchmark.extra_info["IM_gap"] = data["IM"]["gap"]
    benchmark.extra_info["RE_gap"] = data["RE"]["gap"]
