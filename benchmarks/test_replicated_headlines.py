"""Replicated headline claims — multi-seed confidence intervals.

Every other bench runs seed 1; this one replicates the paper's three
headline comparisons across five seeds with common random numbers and
requires the bootstrap 95 % confidence interval of each paired delta to
exclude zero — the claims hold as *effects*, not lucky draws:

1. ODRMax raises client FPS over NoReg (paper: +5.5 % overall);
2. ODRMax collapses the FPS gap (paper: ~100 → ~2 frames on InMind);
3. ODR cuts MtP latency on the congested GCE path (paper: >92 %).

Each comparison is one seed-axis plan run through the session runner,
summarised like ``odr-sim compare`` by
:func:`~repro.metrics.stats.paired_delta_cis`.
"""

from repro.experiments import ExperimentConfig, PlatformRes, bench_demands
from repro.experiments.report import format_table
from repro.metrics.stats import paired_delta_cis
from repro.workloads import GCE, PRIVATE_CLOUD, Resolution

SEEDS = range(1, 6)
DURATION_MS = 10000.0
WARMUP_MS = 2000.0

#: (comparison, platform, baseline regulator, treated regulator)
COMPARISONS = [
    ("private", PRIVATE_CLOUD, "NoReg", "ODRMax"),
    ("gce", GCE, "NoReg", "ODR60"),
]


def headline_metrics(record):
    return {
        "client_fps": record.client_fps,
        "fps_gap": record.fps_gap_mean,
        "mtp_ms": record.mtp_mean_ms,
    }


def run_replication(records):
    deltas = {}
    for comparison, platform, base, treated in COMPARISONS:
        view = records(bench_demands(
            ["IM"], [base, treated], seeds=SEEDS, platform=platform.name,
            resolution="720p", duration_ms=DURATION_MS, warmup_ms=WARMUP_MS,
        ))
        combo = PlatformRes(platform, Resolution.R720P)

        def per_seed(spec):
            config = ExperimentConfig(combo, spec)
            return [headline_metrics(view.get("IM", config, seed)) for seed in SEEDS]

        deltas[comparison] = paired_delta_cis(per_seed(base), per_seed(treated))
    return deltas


def test_replicated_headlines(benchmark, records, save_text):
    deltas = benchmark.pedantic(lambda: run_replication(records), rounds=1, iterations=1)
    rows = []
    for comparison, cis in deltas.items():
        for name, ci in cis.items():
            rows.append([comparison, name, ci.estimate, ci.low, ci.high, len(SEEDS)])
    text = format_table(
        ["comparison", "metric (ODR - NoReg)", "mean delta", "95% CI low", "95% CI high", "n"],
        rows,
        title="Replicated headline claims (paired common-random-number seeds, bootstrap CI)",
    )
    save_text(
        "replicated_headlines",
        text,
        data=[
            {
                "comparison": comparison,
                "metric": metric,
                "mean_delta": mean,
                "ci95_low": low,
                "ci95_high": high,
                "n": n,
            }
            for comparison, metric, mean, low, high, n in rows
        ],
    )

    private, gce = deltas["private"], deltas["gce"]
    # 1. client FPS gain, significant across seeds
    assert private["client_fps"].low > 0
    # 2. gap collapse, significant and huge
    assert private["fps_gap"].high < 0
    assert private["fps_gap"].estimate < -80
    # 3. GCE latency collapse, significant and order-of-magnitude
    assert gce["mtp_ms"].high < 0
    assert gce["mtp_ms"].estimate < -500

    ci = private["client_fps"]
    benchmark.extra_info["fps_gain_ci"] = f"{ci.estimate:+.1f} [{ci.low:+.1f}, {ci.high:+.1f}]"
    ci = gce["mtp_ms"]
    benchmark.extra_info["gce_mtp_cut_ci"] = (
        f"{ci.estimate:+.0f} [{ci.low:+.0f}, {ci.high:+.0f}] ms"
    )
