"""Table 2 — average/max FPS gaps for every configuration.

Paper anchors: NoReg averages 60.7 (720p private), 154.7 (720p GCE),
140.6 (1080p GCE) frames of gap with IMHOTEP the worst offender;
every regulated configuration sits in single digits; ODRMax-noPri is
always below one frame; PriorityFrame adds only ~1-2 frames.
"""

from repro.experiments.tables import table2, table2_demands


def test_table2_fps_gaps(benchmark, runner, records, save_text):
    result = benchmark.pedantic(
        lambda: table2(records(table2_demands(runner))), rounds=1, iterations=1
    )
    save_text(
        "table2_fps_gaps",
        result["text"],
        data=[
            {
                "group": r.group,
                "spec": r.spec,
                "avg_gap": r.avg_gap,
                "max_gap": r.max_gap,
                "worst_benchmark": r.worst_benchmark,
            }
            for r in result["rows"]
        ],
    )
    rows = {(r.group, r.spec): r for r in result["rows"]}

    # NoReg gaps are enormous on every platform
    assert rows[("Priv720p", "NoReg")].avg_gap > 40
    assert rows[("GCE720p", "NoReg")].avg_gap > 100
    assert rows[("GCE1080p", "NoReg")].avg_gap > 40

    # IMHOTEP is the worst NoReg offender everywhere
    for group in ("Priv720p", "GCE720p", "GCE1080p"):
        assert rows[(group, "NoReg")].worst_benchmark == "ITP"

    # every regulated configuration collapses the gap to single digits
    for (group, spec), row in rows.items():
        if spec != "NoReg":
            assert row.avg_gap < 8, f"{group}/{spec} avg gap {row.avg_gap}"

    # the ODRMax-noPri ablation stays below one frame (multi-buffering
    # alone nearly eliminates the gap)
    for group in ("Priv720p", "GCE720p", "GCE1080p"):
        assert rows[(group, "ODRMax-noPri")].avg_gap < 1.0

    # PriorityFrame costs only a couple of frames of gap
    for group in ("Priv720p", "GCE720p", "GCE1080p"):
        delta = rows[(group, "ODRMax")].avg_gap - rows[(group, "ODRMax-noPri")].avg_gap
        assert delta < 6.0

    benchmark.extra_info["noreg_priv720_avg_gap"] = round(
        rows[("Priv720p", "NoReg")].avg_gap, 1
    )
    benchmark.extra_info["odrmax_priv720_avg_gap"] = round(
        rows[("Priv720p", "ODRMax")].avg_gap, 2
    )
