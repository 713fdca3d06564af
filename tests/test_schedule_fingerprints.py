"""Cross-commit schedule pins: the exact event calendar of 17 runs.

``verify-determinism`` compares two runs of one commit; these cases pin
the schedule fingerprint of :func:`~repro.devtools.determinism.fingerprint_run`
across commits.  Each digest folds every scheduled entry's time,
priority and heap depth, every fired entry, every process start and
every frame span, so an engine or pipeline refactor that claims "same
schedule" must leave all of them untouched.  A change that moves the
schedule on purpose (a model change, a merged hand-off hop) updates the
pins in the same commit and says why.

The cells cover every regulator family on two benchmarks (the interval
grid and RVS acks put the most entries at one simulated time, ODR's
PriorityFrame cuts its pacing sleep short on an input), the GCE path
(largest jitter and frames; under RVS60 its feedback deadline, not an
ack, ends some windows), and the two fault classes CI's determinism job
runs.
"""

import pytest

from repro.devtools.determinism import fingerprint_run
from repro.faults.catalog import build_fault_plan
from repro.obs import Telemetry
from repro.obs.runmeta import build_record, metrics_digest
from repro.pipeline import CloudSystem, SystemConfig
from repro.pipeline.system import RunResult
from repro.regulators import make_regulator
from repro.workloads import PLATFORMS, Resolution

#: Seed 7, 6 s measured after 0.5 s warm-up, IM/STK on the private
#: 720p platform unless the name says otherwise.
CELLS = {
    "IM-NoReg": dict(benchmark="IM", regulator="NoReg"),
    "IM-Int60": dict(benchmark="IM", regulator="Int60"),
    "IM-IntMax": dict(benchmark="IM", regulator="IntMax"),
    "IM-RVS60": dict(benchmark="IM", regulator="RVS60"),
    "IM-ODR60": dict(benchmark="IM", regulator="ODR60"),
    "IM-ODRMax": dict(benchmark="IM", regulator="ODRMax"),
    "STK-NoReg": dict(benchmark="STK", regulator="NoReg"),
    "STK-Int60": dict(benchmark="STK", regulator="Int60"),
    "STK-IntMax": dict(benchmark="STK", regulator="IntMax"),
    "STK-RVS60": dict(benchmark="STK", regulator="RVS60"),
    "STK-ODR60": dict(benchmark="STK", regulator="ODR60"),
    "STK-ODRMax": dict(benchmark="STK", regulator="ODRMax"),
    "IM-GCE1080p-NoReg": dict(
        benchmark="IM", regulator="NoReg", platform="gce", resolution="1080p"
    ),
    "IM-GCE1080p-ODR60": dict(
        benchmark="IM", regulator="ODR60", platform="gce", resolution="1080p"
    ),
    "IM-GCE1080p-RVS60": dict(
        benchmark="IM", regulator="RVS60", platform="gce", resolution="1080p"
    ),
}

#: The CI determinism job's fault runs: IM ODR60, 2 s after 0.5 s warm-up.
FAULT_RUNS = {
    "IM-ODR60-packet_loss": (1, "packet_loss"),
    "IM-ODR60-stall_storm": (3, "stall_storm"),
}

#: name -> (digest, events_scheduled, events_fired, processes_started)
PINNED = {
    "IM-NoReg": (
        "8340cf02449f0de8a238c4caa45e1040c0650076a05a124c0e6933f4d9129cbe", 7135, 7130, 6
    ),
    "IM-Int60": (
        "7a869c7cfd4f7422516bd61e33819ba00926f21c7a61f715d355d6ccda3fa837", 4305, 4302, 6
    ),
    "IM-IntMax": (
        "8d351ba846049206dfeee0781dfc1d5922bea145a1ee107352c212855a4829d6", 5722, 5718, 6
    ),
    "IM-RVS60": (
        "c7b0c9456c776c131d4faaa7773a858e97419316880a675c6788c4785c450135", 5036, 5029, 6
    ),
    "IM-ODR60": (
        "cef3d29d49ec33afbb1e0664b69d8c843db0819b7930a767ae9c97d58f864365", 4063, 4059, 6
    ),
    "IM-ODRMax": (
        "a2fd16deccf15b335e13f4df3cefd8467cdfcd1c520098b18e1f03a29dcf8ddf", 6306, 6301, 6
    ),
    "STK-NoReg": (
        "aa08e55a39d40608adad34a6f590029c3a3c682b72a77cefd2bef5f235d993fb", 6621, 6616, 6
    ),
    "STK-Int60": (
        "c3035bf0773c7578da7a94cd659a716594466fcbaac3176eb5fabc63094e3788", 4261, 4257, 6
    ),
    "STK-IntMax": (
        "670f7b6e8691772d1c01b7b6c8f76ed958bfb22ea5e9e4728b31d68c15d6e0e7", 5634, 5629, 6
    ),
    "STK-RVS60": (
        "090e727f014aba7b62b717ff447d9c8c84e8d1cb6df6f3cf3d7fc4efd303a8f0", 4953, 4946, 6
    ),
    "STK-ODR60": (
        "42bf7dea2f58bd6062d602673815f564cb18606a047d9f3245c9b8b9d189049f", 4195, 4191, 6
    ),
    "STK-ODRMax": (
        "5c5ab63b503e056bbc03b3f83b9ce52d8c23e22e03e7903fdfa44dacf8849305", 6360, 6356, 6
    ),
    "IM-GCE1080p-NoReg": (
        "2a05926f0e15872618a150080437ec8dd1ecbaa085ee93f4709935ebd0d1e5b7", 4136, 4132, 6
    ),
    "IM-GCE1080p-ODR60": (
        "d413894028420ded30190c07bf861c54dd2a9a8d39cdaa5b50b70121fc0f2222", 2384, 2381, 6
    ),
    "IM-GCE1080p-RVS60": (
        "93fb1c5fb51b85ac6294730a9af8d32de7b052ed08ab4f9c6258e6e7fdbb6b13", 2216, 2211, 6
    ),
    "IM-ODR60-packet_loss": (
        "307179cca7d9ce87c438848152d2fa8dd9ed9e8a7b2e1a74fd74d3710ff54f6e", 1574, 1569, 6
    ),
    "IM-ODR60-stall_storm": (
        "24581de0d6f45b4475e110fdde85578c7f51c127a469eade42cee88ebcefe631", 1553, 1550, 6
    ),
}


def _observed(fp):
    return (fp.digest, fp.events_scheduled, fp.events_fired, fp.processes_started)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_schedule_is_pinned(name):
    fp = fingerprint_run(7, duration_ms=6000.0, warmup_ms=500.0, **CELLS[name])
    assert _observed(fp) == PINNED[name]


@pytest.mark.parametrize("name", sorted(FAULT_RUNS))
def test_fault_run_schedule_is_pinned(name):
    seed, fault_class = FAULT_RUNS[name]
    plan = build_fault_plan(fault_class, 2000.0, 500.0)
    fp = fingerprint_run(seed, duration_ms=2000.0, warmup_ms=500.0, fault_plan=plan)
    assert _observed(fp) == PINNED[name]


def test_every_pin_is_exercised():
    assert set(PINNED) == set(CELLS) | set(FAULT_RUNS)


def _drive(cell, seed, duration_ms, fault_class, mode):
    """Run one cell bare through ``Environment.run``'s inline loop
    (``"bare"``), with an engine probe (``"probe"``), or bare one
    ``Environment.step()`` at a time (``"step"``); return its engine
    statistics and record digest."""
    config = SystemConfig(
        benchmark=cell.get("benchmark", "IM"),
        platform=PLATFORMS[cell.get("platform", "private")],
        resolution=Resolution(cell.get("resolution", "720p")),
        seed=seed,
        duration_ms=duration_ms,
        warmup_ms=500.0,
    )
    plan = build_fault_plan(fault_class, duration_ms, 500.0) if fault_class else None
    telemetry = Telemetry(engine_probe=True) if mode == "probe" else None
    system = CloudSystem(
        config, make_regulator(cell.get("regulator", "ODR60")),
        telemetry=telemetry, fault_plan=plan,
    )
    if mode == "step":
        env, end = system.env, config.warmup_ms + config.duration_ms
        while env.peek() <= end:
            env.step()
        env.run(until=end)  # nothing left to fire: only advances the clock
        result = RunResult(system=system)
    else:
        result = system.run()
    record = build_record(result, {"cell": "pinned"}, git_rev="-")
    return system.env.stats(), metrics_digest(record)


_PINNED_RUNS = {
    **{name: (cell, 7, 6000.0, None) for name, cell in CELLS.items()},
    **{
        name: ({"regulator": "ODR60"}, seed, 2000.0, fault_class)
        for name, (seed, fault_class) in FAULT_RUNS.items()
    },
}


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_inline_loop_fires_the_probed_calendar(name):
    # The pins above run through a probe; a bare run takes run()'s
    # probe-free branch, and a step()-driven run the single-step path.
    bare = _drive(*_PINNED_RUNS[name], mode="bare")
    assert _drive(*_PINNED_RUNS[name], mode="probe") == bare
    assert _drive(*_PINNED_RUNS[name], mode="step") == bare
    assert bare[0]["events_scheduled"] == PINNED[name][1]
