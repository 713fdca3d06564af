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

Each pin also holds a digest of the run's telemetry: its Chrome trace and
its JSONL dump without the ``engine_probe`` line (whose wall samples vary
from run to run).  Five more telemetry pins cover what the 17 cells
never reach: a VSync client (display drops, and displays scheduled past
the horizon) and consolidated ``SharedServer`` runs, whose sessions open
frames at the same simulated time.  The consolidated runs also pin their
schedule fingerprint, each session's headline metrics and the server's
GPU utilization and power, bit for bit.
"""

import hashlib
import json

import pytest

from repro.devtools.determinism import ScheduleRecorder, fingerprint_run
from repro.faults.catalog import build_fault_plan
from repro.multitenant import SharedServer
from repro.obs import Telemetry, chrome_trace, jsonl_lines
from repro.obs.runmeta import build_record, metrics_digest
from repro.pipeline import CloudSystem, SystemConfig
from repro.pipeline.display import VsyncDisplay
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

#: name -> (digest, events_scheduled, events_fired, processes_started,
#: telemetry digest)
PINNED = {
    "IM-NoReg": (
        "8340cf02449f0de8a238c4caa45e1040c0650076a05a124c0e6933f4d9129cbe", 7135, 7130, 6,
        "d1cb3311f53327701a16d8a5893bc801829a08b05b1392162fa646ded99364b4",
    ),
    "IM-Int60": (
        "7a869c7cfd4f7422516bd61e33819ba00926f21c7a61f715d355d6ccda3fa837", 4305, 4302, 6,
        "24650aa67048acd750a4518acfeae9460a6bb54d1cc215f053dc8c39e16e8bf0",
    ),
    "IM-IntMax": (
        "8d351ba846049206dfeee0781dfc1d5922bea145a1ee107352c212855a4829d6", 5722, 5718, 6,
        "2339470faa879ee25b7926d385a98eb61b7bb9a298fc088cd3099909b567129d",
    ),
    "IM-RVS60": (
        "c7b0c9456c776c131d4faaa7773a858e97419316880a675c6788c4785c450135", 5036, 5029, 6,
        "71464f6ffa1160c31cec6bb978e95060e4b0211f62aaf8ba5be5b4135451ecd1",
    ),
    "IM-ODR60": (
        "cef3d29d49ec33afbb1e0664b69d8c843db0819b7930a767ae9c97d58f864365", 4063, 4059, 6,
        "25a97665de25b6da7d7c9901616cc389084b905284a93449764a475ea1470b79",
    ),
    "IM-ODRMax": (
        "a2fd16deccf15b335e13f4df3cefd8467cdfcd1c520098b18e1f03a29dcf8ddf", 6306, 6301, 6,
        "099f80144c33cd870a3a9425c6e643a33e4e58f9845e5b660c5967b99190e2d7",
    ),
    "STK-NoReg": (
        "aa08e55a39d40608adad34a6f590029c3a3c682b72a77cefd2bef5f235d993fb", 6621, 6616, 6,
        "0cda5f2951cd504f1bd79580ba94e8a4d3389ef547be958184bc9d499c206d56",
    ),
    "STK-Int60": (
        "c3035bf0773c7578da7a94cd659a716594466fcbaac3176eb5fabc63094e3788", 4261, 4257, 6,
        "8f306187bf8219857f91fc44cedf096f222c9d681723a379a789783e26997a8c",
    ),
    "STK-IntMax": (
        "670f7b6e8691772d1c01b7b6c8f76ed958bfb22ea5e9e4728b31d68c15d6e0e7", 5634, 5629, 6,
        "17fa428214801013e411606b17a0e319ddaf8dcd99be0c45e7bebc23cfe668e9",
    ),
    "STK-RVS60": (
        "090e727f014aba7b62b717ff447d9c8c84e8d1cb6df6f3cf3d7fc4efd303a8f0", 4953, 4946, 6,
        "e9f6f6e2bf577be4b27798de4365af8e0d95cb4f03131fc6c8db218a01208bc6",
    ),
    "STK-ODR60": (
        "42bf7dea2f58bd6062d602673815f564cb18606a047d9f3245c9b8b9d189049f", 4195, 4191, 6,
        "320d851a7cc98ef7fc7a3b92652358c4a3dec890de531055f6ecf33ebeec255c",
    ),
    "STK-ODRMax": (
        "5c5ab63b503e056bbc03b3f83b9ce52d8c23e22e03e7903fdfa44dacf8849305", 6360, 6356, 6,
        "37e4e11bbfb0bad200b61749394099280b538e3f60ea9ce84249d17bc7b7bd5a",
    ),
    "IM-GCE1080p-NoReg": (
        "2a05926f0e15872618a150080437ec8dd1ecbaa085ee93f4709935ebd0d1e5b7", 4136, 4132, 6,
        "39ddff865e2bef5db78d0bb81700f0ff4a3b04087756c526536747d15dc76c94",
    ),
    "IM-GCE1080p-ODR60": (
        "d413894028420ded30190c07bf861c54dd2a9a8d39cdaa5b50b70121fc0f2222", 2384, 2381, 6,
        "d50d0bc377451ed7632781cae1d0046881c1adbfe7e809b1444597da45b11501",
    ),
    "IM-GCE1080p-RVS60": (
        "93fb1c5fb51b85ac6294730a9af8d32de7b052ed08ab4f9c6258e6e7fdbb6b13", 2216, 2211, 6,
        "53dd8a241141cc94441912b1d4b57ef04061ffc413f0721e09fde1da9a232c84",
    ),
    "IM-ODR60-packet_loss": (
        "307179cca7d9ce87c438848152d2fa8dd9ed9e8a7b2e1a74fd74d3710ff54f6e", 1574, 1569, 6,
        "d43c4bbb265678164f680df2cd1bec4b2049c3b603e9f8423fcb759251c6e445",
    ),
    "IM-ODR60-stall_storm": (
        "24581de0d6f45b4475e110fdde85578c7f51c127a469eade42cee88ebcefe631", 1553, 1550, 6,
        "2a18ff91987d9293d70009a53db06e5b89717d5b24b272b103931c8d713639bd",
    ),
}


def _observed(fp):
    return (fp.digest, fp.events_scheduled, fp.events_fired, fp.processes_started)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_schedule_is_pinned(name):
    fp = fingerprint_run(7, duration_ms=6000.0, warmup_ms=500.0, **CELLS[name])
    assert _observed(fp) == PINNED[name][:4]


@pytest.mark.parametrize("name", sorted(FAULT_RUNS))
def test_fault_run_schedule_is_pinned(name):
    seed, fault_class = FAULT_RUNS[name]
    plan = build_fault_plan(fault_class, 2000.0, 500.0)
    fp = fingerprint_run(seed, duration_ms=2000.0, warmup_ms=500.0, fault_plan=plan)
    assert _observed(fp) == PINNED[name][:4]


def test_every_pin_is_exercised():
    assert set(PINNED) == set(CELLS) | set(FAULT_RUNS)


def _system(cell, seed, duration_ms, fault_class, **kwargs):
    """One pinned cell, built and not yet run."""
    config = SystemConfig(
        benchmark=cell.get("benchmark", "IM"),
        platform=PLATFORMS[cell.get("platform", "private")],
        resolution=Resolution(cell.get("resolution", "720p")),
        seed=seed,
        duration_ms=duration_ms,
        warmup_ms=500.0,
    )
    plan = build_fault_plan(fault_class, duration_ms, 500.0) if fault_class else None
    return CloudSystem(
        config, make_regulator(cell.get("regulator", "ODR60")), fault_plan=plan, **kwargs
    )


def _drive(cell, seed, duration_ms, fault_class, mode):
    """Run one cell bare through ``Environment.run``'s inline loop
    (``"bare"``), with an engine probe (``"probe"``), or bare one
    ``Environment.step()`` at a time (``"step"``); return its engine
    statistics and record digest."""
    telemetry = Telemetry(engine_probe=True) if mode == "probe" else None
    system = _system(cell, seed, duration_ms, fault_class, telemetry=telemetry)
    config = system.config
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


def telemetry_digest(telemetry):
    """SHA-256 over a run's Chrome trace and its JSONL dump, without the
    ``engine_probe`` line: the bytes the exporters write, key order included."""
    trace = json.dumps(chrome_trace(telemetry))  # analyzer: allow=P5 -- pins the exporter's bytes as written, key order included
    digest = hashlib.sha256(trace.encode("utf-8"))
    for line in jsonl_lines(telemetry):
        if json.loads(line)["type"] != "engine_probe":
            digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


def _traced(cell, seed, duration_ms, fault_class, **kwargs):
    telemetry = Telemetry()
    system = _system(cell, seed, duration_ms, fault_class, telemetry=telemetry, **kwargs)
    system.run()
    return system, telemetry


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_cell_telemetry_is_pinned(name):
    _, telemetry = _traced(*_PINNED_RUNS[name])
    assert telemetry_digest(telemetry) == PINNED[name][4]


#: IM NoReg behind a 60 Hz VSync client, seed 7, 3 s after 0.5 s warm-up.
VSYNC_TELEMETRY = (
    "61e392d98829beed682757a266f4520614b76e8937af657afa81b1c2fa96b2e6"
)


def test_vsync_cell_telemetry_is_pinned():
    system, telemetry = _traced(
        {"regulator": "NoReg"}, 7, 3000.0, None, display_model=VsyncDisplay(refresh_hz=60)
    )
    spans = {span.frame_id: span for span in telemetry.spans}
    # The client's display drops close spans; Frame.dropped stays unset.
    display_drops = [s for s in spans.values() if s.drop_reason == "display_drop"]
    assert display_drops
    assert all(system.app.frames[s.frame_id - 1].dropped is None for s in display_drops)
    # A frame whose display entry lies past the horizon keeps its span open.
    late = [f for f in system.app.frames if f.t_displayed is not None and f.t_displayed > 3500.0]
    assert late and all(spans[f.frame_id].open for f in late)
    assert telemetry_digest(telemetry) == VSYNC_TELEMETRY


#: IM and STK (and IM again) consolidated on one private 720p server, seed
#: 2, 2 s after 0.5 s warm-up: name -> (sessions, regulator, digest).
CONSOLIDATED = {
    "2-NoReg": (
        2, "NoReg",
        "f7a9ab1381f5437dd60c9e39c0f96db208dbad116311caff8bf077e404fdd7fa",
    ),
    "2-ODR60": (
        2, "ODR60",
        "4b5a2190edbc7b733ddfc96bf16b4c97b0c50f3b75e7dcae9c96cc2c11b09350",
    ),
    "3-NoReg": (
        3, "NoReg",
        "bb862410d3acdf9d6526c95bfaed28610971cd8a6b37096122e91de8207bf034",
    ),
    "3-ODR60": (
        3, "ODR60",
        "a79d8df57a57271b111df6842904f9dcb91311e9222f8bf316cc341267dc7008",
    ),
}


#: The same four runs' schedule fingerprints, probed by a
#: ``ScheduleRecorder`` with every span folded in: name -> (digest, events
#: scheduled, events fired, processes started, per-session ``float.hex`` of
#: (render FPS, client FPS, mean FPS gap, mean MtP, QoS satisfaction at
#: 60 FPS), and the server's GPU utilization and wall power).
CONSOLIDATED_SCHEDULES = {
    "2-NoReg": (
        "15d7e4a0a9416a078131cf87a4177cc0da4d5a86f58fcb02573b287b8c4554d6", 4688, 4680, 12,
        [
            ("0x1.5a00000000000p+6", "0x1.f400000000000p+5", "0x1.8000000000000p+4",
             "0x1.9aa343f9cfffap+5", "0x1.ccccccccccccdp-1"),
            ("0x1.5c00000000000p+6", "0x1.1600000000000p+6", "0x1.1800000000000p+4",
             "0x1.69282a580f8d7p+5", "0x1.0000000000000p+0"),
        ],
        "0x1.f67733b20a47dp-1", "0x1.93bbf5b7afabcp+7",
    ),
    "2-ODR60": (
        "c1f89b52b87d305fb48472dda214d6e36bffa926aff3381e00eabdd7602f09d0", 3988, 3980, 12,
        [
            ("0x1.f800000000000p+5", "0x1.e000000000000p+5", "0x1.8000000000000p+1",
             "0x1.385111f33a552p+5", "0x1.ccccccccccccdp-1"),
            ("0x1.0200000000000p+6", "0x1.e800000000000p+5", "0x1.c000000000000p+1",
             "0x1.33f95991b6545p+5", "0x1.ccccccccccccdp-1"),
        ],
        "0x1.4922a90ed116dp-1", "0x1.6ae4ce48528a7p+7",
    ),
    "3-NoReg": (
        "fc1e5bdf7a88581c804b719794c9bcb184f1c0185e32674b847c19dff4a99c53", 5173, 5163, 18,
        [
            ("0x1.c400000000000p+5", "0x1.8c00000000000p+5", "0x1.c000000000000p+2",
             "0x1.bed9a2e67f5c0p+5", "0x1.999999999999ap-2"),
            ("0x1.c000000000000p+5", "0x1.b000000000000p+5", "0x1.0000000000000p+1",
             "0x1.d0e222d0a4f32p+5", "0x1.3333333333333p-1"),
            ("0x1.c400000000000p+5", "0x1.7000000000000p+5", "0x1.5000000000000p+3",
             "0x1.8e5338d5bd223p+5", "0x1.999999999999ap-2"),
        ],
        "0x1.fe9d0cabd3793p-1", "0x1.a196bd7199a14p+7",
    ),
    "3-ODR60": (
        "2767ad0123329091abc52ffbacecfe833dc66b1ed97fcd56a0e06b5d88926555", 5002, 4993, 18,
        [
            ("0x1.9c00000000000p+5", "0x1.9800000000000p+5", "0x1.0000000000000p-1",
             "0x1.da5c21f2cf72ap+5", "0x1.999999999999ap-2"),
            ("0x1.c400000000000p+5", "0x1.c000000000000p+5", "0x1.0000000000000p+0",
             "0x1.b6f6b4c8edcddp+5", "0x1.3333333333333p-1"),
            ("0x1.8400000000000p+5", "0x1.8000000000000p+5", "0x1.0000000000000p+0",
             "0x1.853f6c1029328p+5", "0x1.999999999999ap-2"),
        ],
        "0x1.d41c67b117ca2p-1", "0x1.9bd0523abd7c3p+7",
    ),
}


def _traced_server(sessions, regulator, probe=None):
    """Run one consolidated server with telemetry (and ``probe`` as its
    engine probe); return the server, its results and the telemetry."""
    telemetry = Telemetry()
    telemetry.probe = probe
    server = SharedServer(
        benchmarks=["IM", "STK", "IM"][:sessions],
        platform=PLATFORMS["private"],
        resolution=Resolution("720p"),
        regulator_factory=lambda index: make_regulator(regulator),
        seed=2,
        duration_ms=2000.0,
        warmup_ms=500.0,
        telemetry=telemetry,
    )
    return server, server.run(), telemetry


@pytest.mark.parametrize("name", sorted(CONSOLIDATED))
def test_consolidated_telemetry_is_pinned(name):
    sessions, regulator, digest = CONSOLIDATED[name]
    _, _, telemetry = _traced_server(sessions, regulator)
    assert telemetry.spans.sessions() == [f"s{i}" for i in range(sessions)]
    assert telemetry_digest(telemetry) == digest


def _session_metrics(result):
    return tuple(
        value.hex()
        for value in (
            result.render_fps,
            result.client_fps,
            result.fps_gap().mean_gap,
            result.mean_mtp_ms(),
            result.qos(60.0).satisfaction,
        )
    )


@pytest.mark.parametrize("name", sorted(CONSOLIDATED))
def test_consolidated_schedule_and_metrics_are_pinned(name):
    sessions, regulator, _ = CONSOLIDATED[name]
    recorder = ScheduleRecorder()
    server, results, telemetry = _traced_server(sessions, regulator, probe=recorder)
    recorder.fold_spans(telemetry)
    observed = (
        recorder.hexdigest(),
        recorder.events_scheduled,
        recorder.events_fired,
        recorder.processes_started,
        [_session_metrics(result) for result in results],
        server.gpu_utilization().hex(),
        server.server_power_w().hex(),
    )
    assert observed == CONSOLIDATED_SCHEDULES[name]


@pytest.mark.parametrize("sessions", [2, 3])
def test_consolidated_pins_hold_unsorted_cross_session_ties(sessions):
    # Sessions open frames at one simulated time in calendar order, which
    # no (time, session, frame id) sort reproduces: the pins must hold
    # such a tie for the span order to be pinned at all.
    _, _, telemetry = _traced_server(sessions, "ODR60")
    keys = [(s.opened_at, s.session, s.frame_id) for s in telemetry.spans]
    assert keys != sorted(keys)
