"""Figures 14-15 — the user experience study (surrogate QoE model).

Paper anchors: ODRMax rates ≈ 8.0, statistically indistinguishable from
local execution (8.03); NoReg rates ≈ 3.1 (unacceptable); ODR ahead of
Int and RVS at both QoS goals; far fewer participants report lag,
stutter, or tearing under ODR than under NoReg.
"""

from repro.experiments.userstudy import UserStudy


def run_study(runner, records):
    study = UserStudy(seed=7)
    return study.run(records(study.demands(runner)))


def test_fig14_15_userstudy(benchmark, runner, records, save_text):
    study = benchmark.pedantic(lambda: run_study(runner, records), rounds=1, iterations=1)
    save_text("fig14_user_ratings", study["fig14_text"])
    save_text("fig15_user_reports", study["fig15_text"])
    ratings = study["ratings"]
    reports = study["reports"]

    # Fig. 14 shape
    assert ratings["NoReg"] < 4.0                      # paper: 3.1
    assert ratings["ODRMax"] > 7.0                     # paper: 8.0
    assert abs(ratings["ODRMax"] - ratings["NonCloud"]) < 1.2
    assert ratings["ODRMax"] >= ratings["IntMax"]
    assert ratings["ODRMax"] >= ratings["RVSMax"]
    assert ratings["ODR30"] >= ratings["Int30"]
    assert ratings["ODR30"] >= ratings["RVS30"]

    # Fig. 15 shape: tearing and lag dominate NoReg, not ODR
    def no_count(spec, question):
        return reports[spec][question]["no"]

    assert no_count("NoReg", "lag") < 10
    assert no_count("ODRMax", "lag") >= 14   # paper: 18 of 30
    assert no_count("NoReg", "tearing") < no_count("ODRMax", "tearing")
    assert no_count("NonCloud", "tearing") >= 25
    assert no_count("ODRMax", "stutter") > 20

    # totals always sum to the participant count
    for spec, questions in reports.items():
        for question, counts in questions.items():
            assert sum(counts.values()) == 30

    benchmark.extra_info["rating_ODRMax"] = round(ratings["ODRMax"], 2)
    benchmark.extra_info["rating_NoReg"] = round(ratings["NoReg"], 2)
    benchmark.extra_info["rating_NonCloud"] = round(ratings["NonCloud"], 2)
