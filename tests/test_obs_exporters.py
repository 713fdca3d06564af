"""Exporters and end-to-end telemetry integration.

Uses short real runs (a few simulated seconds) so the exported traces
contain genuine pipeline schedules, drops, and regulator gate delays.
"""

import json

import pytest

from repro.cli import main
from repro.obs import Telemetry, chrome_trace, jsonl_lines, write_chrome_trace, write_jsonl
from repro.pipeline import CloudSystem, SystemConfig
from repro.regulators import make_regulator
from repro.workloads import PLATFORMS, Resolution

STAGES = {"render", "copy", "encode", "transmit", "decode"}


def short_run(spec="ODR60", benchmark="IM", platform="private", probe=False, **kwargs):
    telemetry = Telemetry(engine_probe=probe)
    config = SystemConfig(
        benchmark=benchmark,
        platform=PLATFORMS[platform],
        resolution=Resolution("720p"),
        seed=1,
        duration_ms=kwargs.pop("duration_ms", 3000.0),
        warmup_ms=kwargs.pop("warmup_ms", 500.0),
    )
    result = CloudSystem(config, make_regulator(spec), telemetry=telemetry).run()
    return result, telemetry


@pytest.fixture(scope="module")
def odr_run():
    return short_run("ODR60", probe=True)


class TestChromeTrace:
    def test_trace_is_valid_chrome_trace_format(self, odr_run):
        _, telemetry = odr_run
        trace = chrome_trace(telemetry)
        # JSON-serializable object form with a traceEvents array.
        blob = json.loads(json.dumps(trace))
        events = blob["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert {"ph", "name", "pid", "tid"} <= set(event)
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert "ts" in event
            if event["ph"] == "i":
                assert "ts" in event

    def test_all_five_pipeline_stages_present(self, odr_run):
        _, telemetry = odr_run
        events = chrome_trace(telemetry)["traceEvents"]
        slice_names = {e["name"] for e in events if e["ph"] == "X"}
        assert STAGES <= slice_names

    def test_gate_delay_slices_present_for_paced_regulator(self, odr_run):
        _, telemetry = odr_run
        events = chrome_trace(telemetry)["traceEvents"]
        gates = [e for e in events if e["ph"] == "X" and e["name"] == "gate"]
        assert gates, "ODR60 must show regulator gate delays"
        assert all(e["dur"] > 0 for e in gates)

    def test_timestamps_are_microseconds(self, odr_run):
        _, telemetry = odr_run
        span = next(iter(telemetry.spans))
        render = next(iv for iv in span.intervals if iv.stage == "render")
        events = chrome_trace(telemetry)["traceEvents"]
        slice0 = next(
            e
            for e in events
            if e["ph"] == "X"
            and e["name"] == "render"
            and e["args"]["frame_id"] == span.frame_id
        )
        assert slice0["ts"] == pytest.approx(render.start * 1000.0)

    def test_drops_exported_as_instant_events(self):
        # NoReg on the slow GCE path overwrites plenty of mailbox frames.
        _, telemetry = short_run("NoReg", platform="gce")
        events = chrome_trace(telemetry)["traceEvents"]
        drops = [e for e in events if e["ph"] == "i"]
        assert drops
        assert any(e["name"] == "drop:mailbox_overwrite" for e in drops)

    def test_write_chrome_trace_loadable_file(self, odr_run, tmp_path):
        _, telemetry = odr_run
        path = tmp_path / "trace.json"
        count = write_chrome_trace(telemetry, str(path))
        blob = json.loads(path.read_text())
        assert len(blob["traceEvents"]) == count
        assert blob["displayTimeUnit"] == "ms"


class TestJsonl:
    def test_every_line_is_json(self, odr_run):
        _, telemetry = odr_run
        lines = list(jsonl_lines(telemetry))
        records = [json.loads(line) for line in lines]
        types = {r["type"] for r in records}
        assert types == {"frame_span", "metrics_snapshot", "engine_probe"}

    def test_span_records_match_store(self, odr_run, tmp_path):
        _, telemetry = odr_run
        path = tmp_path / "telemetry.jsonl"
        count = write_jsonl(telemetry, str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == count
        spans = [r for r in records if r["type"] == "frame_span"]
        assert len(spans) == len(telemetry.spans)
        assert {s["stages"][0]["stage"] for s in spans if s["stages"]} == {"render"}


class TestRunResultIntegration:
    def test_run_result_exposes_telemetry(self, odr_run):
        # run() reads one span per frame the app opened.
        result, telemetry = odr_run
        assert len(telemetry.spans) == len(result.system.app.frames) > 0
        snapshot = telemetry.snapshot()
        assert snapshot.counter_value("frames_created_total") == len(telemetry.spans)
        assert snapshot.histogram_stats("gate_delay_ms").count > 0

    def test_span_counts_consistent_with_run_result(self, odr_run):
        result, telemetry = odr_run
        displayed = telemetry.spans.spans(dropped=False)
        closed = [s for s in displayed if not s.open]
        # every closed non-dropped span is a displayed frame
        assert len(closed) == len(result.system.client.displayed)

    def test_dropped_frames_have_matching_spans(self):
        _, telemetry = short_run("NoReg", platform="gce")
        dropped = telemetry.spans.spans(dropped=True)
        assert dropped
        assert all(s.drop_reason == "mailbox_overwrite" for s in dropped)
        snap = telemetry.snapshot()
        assert snap.counter_value(
            "frames_dropped_total", reason="mailbox_overwrite"
        ) == len(dropped)


class TestMultitenantTelemetry:
    def test_sessions_labeled_in_spans_and_metrics(self):
        from repro.multitenant import SharedServer

        telemetry = Telemetry()
        server = SharedServer(
            benchmarks=["IM", "STK"],
            platform=PLATFORMS["private"],
            resolution=Resolution("720p"),
            regulator_factory=lambda i: make_regulator("ODR30"),
            seed=1,
            duration_ms=1500.0,
            warmup_ms=300.0,
            telemetry=telemetry,
        )
        server.run()
        assert telemetry.spans.sessions() == ["s0", "s1"]
        snap = telemetry.snapshot()
        for session in ("s0", "s1"):
            assert snap.counter_value("frames_created_total", session=session) > 0
        # Chrome export keeps sessions as separate trace processes.
        events = chrome_trace(telemetry)["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert len(pids) == 2


class TestTraceCli:
    def test_trace_subcommand_writes_perfetto_loadable_file(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "telemetry.jsonl"
        code = main(
            [
                "--duration", "1500", "--warmup", "300",
                "trace", "--benchmark", "IM", "--regulator", "odr",
                "-o", str(out), "--jsonl", str(jsonl),
            ]
        )
        assert code == 0
        blob = json.loads(out.read_text())
        slice_names = {e["name"] for e in blob["traceEvents"] if e["ph"] == "X"}
        assert STAGES <= slice_names
        assert jsonl.exists()
        printed = capsys.readouterr().out
        assert "spans" in printed and "engine" in printed


class TestRunnerPersistence:
    def test_runner_persists_telemetry_alongside_records(self, tmp_path):
        from repro.experiments.config import ExperimentConfig, PlatformRes
        from repro.experiments.runner import Runner
        from tests.records import planned_record

        runner = Runner(
            seed=1, duration_ms=1500.0, warmup_ms=300.0, telemetry_dir=str(tmp_path)
        )
        combo = PlatformRes(PLATFORMS["private"], Resolution("720p"))
        record = planned_record(runner, "IM", ExperimentConfig(combo, "ODR60"))
        assert record.client_fps > 0
        traces = list(tmp_path.glob("*.trace.json"))
        jsonls = list(tmp_path.glob("*.jsonl"))
        assert len(traces) == 1 and len(jsonls) == 1
        blob = json.loads(traces[0].read_text())
        assert {e["name"] for e in blob["traceEvents"] if e["ph"] == "X"} >= STAGES
