"""Run records (runmeta) and the append-only run ledger."""

import copy
import json
import os
import threading

import pytest

from repro.experiments.config import ExperimentConfig, PlatformRes
from repro.obs import (
    RunLedger,
    Telemetry,
    build_record,
    config_fingerprint,
    load_record,
    metrics_digest,
    resolve_record,
    run_id_for,
)
from repro.pipeline import CloudSystem, SystemConfig
from repro.regulators import make_regulator
from repro.workloads import PLATFORMS, Resolution

PAYLOAD = {
    "benchmark": "IM",
    "platform": "private",
    "resolution": "720p",
    "regulator": "ODR60",
    "duration_ms": 4000.0,
    "warmup_ms": 1000.0,
}


def run_once(seed=1, regulator="ODR60", probe=True):
    config = SystemConfig(
        benchmark="IM",
        platform=PLATFORMS["private"],
        resolution=Resolution("720p"),
        seed=seed,
        duration_ms=4000.0,
        warmup_ms=1000.0,
    )
    telemetry = Telemetry(engine_probe=probe)
    return CloudSystem(config, make_regulator(regulator), telemetry=telemetry).run()


@pytest.fixture(scope="module")
def record():
    return build_record(
        run_once(), PAYLOAD, label="IM/ODR60", wall_clock_s=0.25, git_rev="abc1234"
    )


class TestRunIdentity:
    def test_run_id_is_16_hex(self):
        run_id = run_id_for(PAYLOAD, 1)
        assert len(run_id) == 16
        int(run_id, 16)

    def test_run_id_stable_and_order_independent(self):
        shuffled = dict(reversed(list(PAYLOAD.items())))
        assert run_id_for(PAYLOAD, 1) == run_id_for(shuffled, 1)

    def test_run_id_depends_on_seed_and_config(self):
        assert run_id_for(PAYLOAD, 1) != run_id_for(PAYLOAD, 2)
        other = dict(PAYLOAD, regulator="NoReg")
        assert run_id_for(PAYLOAD, 1) != run_id_for(other, 1)

    def test_fingerprint_is_sha256_hex(self):
        assert len(config_fingerprint(PAYLOAD)) == 64


class TestBuildRecord:
    def test_identity_fields(self, record):
        assert record["run_id"] == run_id_for(PAYLOAD, 1)
        assert record["seed"] == 1
        assert record["config"] == PAYLOAD
        assert record["label"] == "IM/ODR60"
        assert record["git_rev"] == "abc1234"
        assert record["wall_clock_s"] == 0.25
        assert record["schema"] == 1

    def test_summary_metrics(self, record):
        metrics = record["metrics"]
        assert metrics["client_fps"] > 0
        assert metrics["render_fps"] >= metrics["client_fps"] - 1.0
        assert metrics["qos_target"] == 60.0
        assert metrics["mtp_mean_ms"] > 0
        assert metrics["frames_rendered"] > 0
        assert set(metrics["stage_utilization"]) >= {"render", "encode"}
        # telemetry was attached, so gate-delay stats made it in
        assert metrics["gate_delay"]["count"] > 0

    def test_distribution_series(self, record):
        series = record["series"]
        assert len(series["client_fps"]) >= 3
        assert len(series["fps_gap"]) == len(series["client_fps"])
        assert len(series["mtp_ms"]) > 0

    def test_engine_stats_with_probe(self, record):
        engine = record["engine"]
        assert engine["events_fired"] > 0
        assert engine["events_per_sec"] == engine["events_fired"] / 0.25

    def test_rng_stream_provenance(self, record):
        assert any(s.startswith("stage/") for s in record["rng_streams"])

    def test_record_round_trips_through_json(self, record):
        assert json.loads(json.dumps(record)) == record

    def test_same_seed_rerun_has_equal_metrics_digest(self, record):
        again = build_record(
            run_once(), PAYLOAD, label="IM/ODR60", wall_clock_s=9.9, git_rev="zzz"
        )
        # wall clock and provenance differ; the measured content must not
        assert metrics_digest(again) == metrics_digest(record)
        assert again["run_id"] == record["run_id"]


def append_rows(ledger, rows, half_written, half_read):
    """Append ``rows`` to ``ledger``, the first one in two writes.

    The first row lands as a large row or a slow disk splits one, with
    a read in between (``half_written`` → ``half_read``); the rest go
    through ``append()`` while the reader keeps reading.
    """
    line = json.dumps(rows[0], sort_keys=True, separators=(",", ":"))
    with open(ledger.path, "a", encoding="utf-8") as handle:
        handle.write(line[: len(line) // 2])
        handle.flush()
        half_written.set()
        half_read.wait(10.0)
        handle.write(line[len(line) // 2 :] + "\n")
    for row in rows[1:]:
        ledger.append(row)


class TestRunLedger:
    def test_append_and_get(self, tmp_path, record):
        ledger = RunLedger(tmp_path / "runs")
        assert ledger.append(record) == record["run_id"]
        assert len(ledger) == 1
        assert ledger.get(record["run_id"][:6]) == record
        assert ledger.latest() == record

    def test_identical_rerun_dedupes(self, tmp_path, record):
        ledger = RunLedger(tmp_path / "runs")
        ledger.append(record)
        ledger.append(dict(record))
        assert len(ledger) == 1

    def test_changed_content_appends_new_version(self, tmp_path, record):
        ledger = RunLedger(tmp_path / "runs")
        ledger.append(record)
        changed = json.loads(json.dumps(record))
        changed["metrics"]["client_fps"] += 1.0
        ledger.append(changed)
        assert len(ledger) == 2
        # lookups return the latest version of the id
        assert ledger.get(record["run_id"]) == changed

    def test_record_without_id_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RunLedger(tmp_path / "runs").append({"metrics": {}})

    def test_fragment_at_tail_keeps_earlier_rows(self, tmp_path, record):
        ledger = RunLedger(tmp_path / "runs")
        ledger.append(record)
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "dead')  # a writer died mid-row
        assert ledger.records() == [record]
        assert ledger.get(record["run_id"]) == record

    def test_append_after_fragment_keeps_both_rows(self, tmp_path, record):
        ledger = RunLedger(tmp_path / "runs")
        ledger.append(record)
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record)[:40])
        changed = json.loads(json.dumps(record))
        changed["metrics"]["client_fps"] += 1.0
        ledger.append(changed)
        assert ledger.records() == [record, changed]
        assert ledger.path.read_text(encoding="utf-8").endswith("\n")

    def test_reader_during_appends_never_raises(self, tmp_path, record):
        ledger = RunLedger(tmp_path / "runs")
        ledger.append(record)
        rows = []
        for index in range(20):
            row = json.loads(json.dumps(record))
            row["run_id"] = f"{index:016x}"
            rows.append(row)
        half_written = threading.Event()
        half_read = threading.Event()
        writer = threading.Thread(
            target=append_rows, args=(ledger, rows, half_written, half_read)
        )
        writer.start()
        try:
            assert half_written.wait(10.0)
            assert ledger.records() == [record]
            half_read.set()
            while writer.is_alive():
                ledger.records()
        finally:
            half_read.set()
            writer.join()
        assert ledger.records() == [record] + rows

    def test_baseline_pin_and_read(self, tmp_path, record):
        ledger = RunLedger(tmp_path / "runs")
        assert ledger.baseline() is None
        path = ledger.set_baseline(record)
        assert ledger.baseline() == record
        assert load_record(path) == record

    def test_failed_set_baseline_keeps_the_previous_pin(self, tmp_path, record):
        ledger = RunLedger(tmp_path / "runs")
        ledger.set_baseline(record)
        # Serialising this record fails part-way through its fields.
        broken = dict(record, zz_unserialisable=object())
        with pytest.raises(TypeError):
            ledger.set_baseline(broken)
        assert ledger.baseline() == record


def renamed(record, run_id):
    return dict(copy.deepcopy(record), run_id=run_id)


def rerun_with_new_content(record):
    row = copy.deepcopy(record)
    row["metrics"]["client_fps"] += 1.0
    return row


class TestLedgerIndex:
    """The in-memory run_id index agrees with the file, which stays the truth."""

    def test_dedupe_compares_the_exact_run_id(self, tmp_path, record):
        ledger = RunLedger(tmp_path / "runs")
        ledger.append(renamed(record, "abc"))
        # Same measured content, but "ab" is another id: it must land,
        # although "abc" is the latest row whose id starts with "ab".
        assert ledger.append(renamed(record, "ab")) == "ab"
        assert [row["run_id"] for row in ledger.records()] == ["abc", "ab"]
        ledger.append(renamed(record, "ab"))
        ledger.append(renamed(record, "abc"))
        assert len(ledger) == 2

    def test_get_is_latest_prefix_match(self, tmp_path, record):
        ledger = RunLedger(tmp_path / "runs")
        ledger.append(renamed(record, "ab"))
        ledger.append(renamed(record, "abc"))
        assert ledger.get("ab")["run_id"] == "abc"
        assert ledger.get("abc")["run_id"] == "abc"
        assert ledger.get("abd") is None
        assert "ab" in ledger and "a" not in ledger

    def test_digest_of_the_latest_version(self, tmp_path, record):
        ledger = RunLedger(tmp_path / "runs")
        assert ledger.digest(record["run_id"]) is None
        ledger.append(record)
        assert ledger.digest(record["run_id"]) == metrics_digest(record)
        changed = rerun_with_new_content(record)
        ledger.append(changed)
        assert ledger.digest(record["run_id"]) == metrics_digest(changed)
        assert RunLedger(ledger.root).digest(record["run_id"]) == (
            metrics_digest(changed)
        )

    def test_another_instance_appends_show_up(self, tmp_path, record):
        first = RunLedger(tmp_path / "runs")
        first.append(record)
        assert first.get("feed") is None  # index warm
        second = RunLedger(tmp_path / "runs")
        row = renamed(record, "feedfacefeedface")
        second.append(row)
        assert "feedfacefeedface" in first
        assert first.get("feed") == row
        first.append(row)  # deduped against the other instance's row
        assert len(first) == 2

    def test_last_line_dropped_in_place(self, tmp_path, record):
        ledger = RunLedger(tmp_path / "runs")
        row = renamed(record, "feedfacefeedface")
        ledger.append(record)
        ledger.append(row)
        assert ledger.get("feed") == row
        lines = ledger.path.read_bytes().splitlines(keepends=True)
        with open(ledger.path, "r+b") as handle:  # same inode, shorter
            handle.truncate(len(lines[0]))
        assert ledger.get("feed") is None
        assert "feedfacefeedface" not in ledger
        ledger.append(row)
        assert ledger.records() == [record, row]

    def test_last_line_rewritten_in_place_same_size(self, tmp_path, record):
        ledger = RunLedger(tmp_path / "runs")
        first = renamed(record, "feedfacefeedface")
        ledger.append(first)
        assert ledger.get("feed") == first
        text = ledger.path.read_bytes().replace(b"feedface", b"deadbeef")
        with open(ledger.path, "r+b") as handle:
            handle.write(text)
        assert ledger.get("feed") is None
        assert ledger.get("dead")["run_id"] == "deadbeefdeadbeef"

    def test_file_replaced(self, tmp_path, record):
        ledger = RunLedger(tmp_path / "runs")
        row = renamed(record, "feedfacefeedface")
        ledger.append(record)
        ledger.append(row)
        assert ledger.get("feed") == row
        lines = ledger.path.read_bytes().splitlines(keepends=True)
        swap = tmp_path / "swap.jsonl"
        swap.write_bytes(lines[0])
        os.replace(swap, ledger.path)
        assert ledger.get("feed") is None
        ledger.append(row)
        assert ledger.records() == [record, row]

    def test_file_replaced_with_the_same_last_row(self, tmp_path, record):
        ledger = RunLedger(tmp_path / "runs")
        row = renamed(record, "feedfacefeedface")
        ledger.append(record)
        ledger.append(row)
        assert record["run_id"] in ledger
        # Same size and same last row; only the inode tells it apart.
        other = renamed(record, "deadbeefdeadbeef")
        lines = ledger.path.read_bytes().splitlines(keepends=True)
        swap = tmp_path / "swap.jsonl"
        swap.write_bytes(lines[0].replace(record["run_id"].encode(), b"deadbeef" * 2) + lines[1])
        os.replace(swap, ledger.path)
        assert record["run_id"] not in ledger
        assert ledger.get("dead") == other
        assert ledger.get("feed") == row

    def test_file_removed(self, tmp_path, record):
        ledger = RunLedger(tmp_path / "runs")
        ledger.append(record)
        ledger.path.unlink()
        assert record["run_id"] not in ledger
        ledger.append(record)
        assert ledger.records() == [record]

    def test_append_output_is_unchanged(self, tmp_path, record):
        ledger = RunLedger(tmp_path / "runs")
        changed = rerun_with_new_content(record)
        ab = renamed(record, "ab")
        for row in (record, record, changed, changed, ab, record, ab):
            ledger.append(row)
        expected = [record, changed, ab, record]
        assert ledger.path.read_text(encoding="utf-8") == "".join(
            json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
            for row in expected
        )

    def test_warm_index_parses_only_new_rows(self, tmp_path, record, monkeypatch):
        ledger = RunLedger(tmp_path / "runs")
        other = RunLedger(tmp_path / "runs")
        rows = [renamed(record, f"{index:016x}") for index in range(14)]
        for row in rows[:10]:
            ledger.append(row)
        assert rows[0]["run_id"] in ledger and rows[0]["run_id"] in other
        parsed = []
        loads = json.loads

        def counting_loads(text, *args, **kwargs):
            parsed.append(json.JSONDecoder().decode(text.decode("utf-8")))
            return loads(text, *args, **kwargs)

        monkeypatch.setattr("repro.obs.ledger.json.loads", counting_loads)
        other.append(rows[10])
        assert parsed == []  # no row was added before it
        other.append(rows[11])
        assert parsed == [rows[10]]  # the one row added since its last call
        parsed.clear()
        assert rows[11]["run_id"] in ledger
        assert parsed == rows[10:12]
        parsed.clear()
        ledger.append(rows[12])
        assert parsed == []
        assert rows[12]["run_id"] in ledger and rows[0]["run_id"] in ledger
        assert parsed == [rows[12]]
        parsed.clear()
        assert ledger.get(rows[0]["run_id"]) == rows[0]
        assert parsed == [rows[0]]  # the row it returns, nothing else
        parsed.clear()
        ledger.append(rows[10])  # deduped: reads the one row it compares
        assert parsed == [rows[10]]
        assert ledger.digest(rows[10]["run_id"]) == metrics_digest(rows[10])
        assert parsed == [rows[10]]  # memoized
        other.append(rows[13])
        parsed.clear()
        assert ledger.get(rows[13]["run_id"][:8]) == rows[13]
        assert parsed == [rows[13], rows[13]]  # indexed, then returned


class TestResolveRecord:
    def test_all_reference_forms(self, tmp_path, record):
        ledger = RunLedger(tmp_path / "runs")
        ledger.append(record)
        older = json.loads(json.dumps(record))
        older["run_id"] = "feedfacefeedface"
        ledger.append(older)
        ledger.set_baseline(record)
        standalone = tmp_path / "one.json"
        standalone.write_text(json.dumps(record))

        assert resolve_record("latest", ledger) == older
        assert resolve_record("latest~1", ledger) == record
        assert resolve_record("baseline", ledger) == record
        assert resolve_record(str(standalone), ledger) == record
        assert resolve_record("feedface", ledger) == older

    def test_unresolvable_reference_raises(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        for ref in ("latest", "latest~2", "baseline", "nope123"):
            with pytest.raises(ValueError):
                resolve_record(ref, ledger)


class TestRunnerIntegration:
    def test_runner_appends_one_record_per_executed_cell(self, tmp_path):
        from repro.experiments.runner import Runner
        from tests.records import planned_record

        runner = Runner(
            seed=1, duration_ms=3000.0, warmup_ms=500.0,
            ledger=str(tmp_path / "runs"),
        )
        combo = PlatformRes(PLATFORMS["private"], Resolution("720p"))
        config = ExperimentConfig(combo, "ODR60")
        planned_record(runner, "IM", config)
        assert len(runner.ledger) == 1
        record = runner.ledger.latest()
        assert record["label"] == "IM/" + config.label
        assert record["config"]["benchmark"] == "IM"
        assert record["config"]["regulator"] == "ODR60"
        assert record["wall_clock_s"] > 0
        assert record["engine"]["events_per_sec"] > 0
        # memoized recall must not execute (or append) again
        planned_record(runner, "IM", config)
        assert len(runner.ledger) == 1

    def test_runner_without_ledger_stays_ledger_free(self):
        from repro.experiments.runner import Runner

        assert Runner(seed=1).ledger is None
