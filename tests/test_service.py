"""Tests for the sweep gateway: dedupe, streaming, restart, identity.

The service's non-negotiable invariant, end to end: two clients with
overlapping sweeps get every unique cell executed exactly once, one
ledger row per ``run_id``, and bits identical to an offline serial run
of the union plan.  The stall chaos hook keeps the first job's overlap
cell in flight long enough for the second client to join it.
"""

import asyncio
import dataclasses
import gc
import socket
import threading
import time
import weakref

import pytest

from repro.cli import SWEEP_PLANS, _build_parser, main
from repro.experiments import CellSpec, Plan, ResultStore, SerialExecutor
from repro.experiments.record import ExperimentRecord
from repro.obs import sweep as sweepbus
from repro.obs.ledger import RunLedger
from repro.obs.runmeta import metrics_digest
from repro.service import ProtocolError, ServiceClient, ServiceGateway, SweepScheduler
from repro.service.scheduler import Subscription
from repro.service.protocol import (
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    plan_payload,
)

DURATION_MS = 2000.0
WARMUP_MS = 500.0


def spec(benchmark="IM", regulator="ODR60", seed=1) -> CellSpec:
    return CellSpec(
        benchmark=benchmark,
        platform="private",
        resolution="720p",
        regulator=regulator,
        seed=seed,
        duration_ms=DURATION_MS,
        warmup_ms=WARMUP_MS,
    )


class GatewayHarness:
    """One scheduler + gateway served from a background thread."""

    def __init__(self, tmp_path, workers=2):
        self.ledger = RunLedger(tmp_path / "ledger")
        self.store = ResultStore(tmp_path / "ledger" / "cells")
        self.scheduler = SweepScheduler(
            self.store, ledger=self.ledger, workers=workers
        )
        self.gateway = ServiceGateway(self.scheduler, port=0)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        asyncio.run(self._main())

    async def _main(self):
        await self.gateway.start()
        self._ready.set()
        await self.gateway.serve_until_shutdown()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=30), "gateway did not come up"
        return self

    def client(self) -> ServiceClient:
        return ServiceClient(port=self.gateway.port)

    def __exit__(self, *exc):
        try:
            self.client().shutdown()
            self._thread.join(timeout=30)
        finally:
            self.scheduler.close()


def _job_bus(scheduler, job_id):
    job = scheduler.get(job_id)
    assert job is not None
    return job.bus


def _wait_for_started(scheduler, job_id, run_id, timeout_s=30.0):
    """Block until the job's bus shows ``run_id`` executing."""
    bus = _job_bus(scheduler, job_id)
    for _ in range(int(timeout_s / 0.05)):
        for event in bus.events:
            if (
                event.kind == sweepbus.CELL_STARTED
                and event.fields.get("run_id") == run_id
            ):
                return
        time.sleep(0.05)
    raise AssertionError(f"{run_id} never started in job {job_id}")


class TestCrossJobDedupe:
    def test_overlapping_clients_execute_each_cell_once(
        self, tmp_path, monkeypatch
    ):
        x, y, z = spec("IM"), spec("STK", "NoReg"), spec("RE", "Int60")
        # Keep the overlap cell in flight while the second client joins.
        monkeypatch.setenv("ODR_EXECUTOR_SIMULATED_STALL", f"{y.run_id}:2.0")
        with GatewayHarness(tmp_path) as harness:
            client_a, client_b = harness.client(), harness.client()
            job_a = client_a.submit(plan_payload(Plan([x, y])), label="a")
            _wait_for_started(harness.scheduler, job_a["job_id"], y.run_id)
            job_b = client_b.submit(plan_payload(Plan([y, z])), label="b")
            done_a = client_a.wait(job_a["job_id"])
            done_b = client_b.wait(job_b["job_id"])
            assert done_a["state"] == "done" and done_b["state"] == "done"
            assert done_a["executed"] == 2 and done_a["deduped"] == 0

            # The joiner saw the overlap cell as deduped, not re-executed.
            assert done_b["executed"] == 1
            assert done_b["deduped"] == 1
            cells_b = {
                c["run_id"]: c
                for c in client_b.result(job_b["job_id"])["cells"]
            }
            assert cells_b[y.run_id]["deduped"] is True
            assert cells_b[z.run_id]["deduped"] is False

            # Exactly one execution per unique run_id, across both jobs.
            started = [
                e.fields["run_id"]
                for job in (job_a, job_b)
                for e in _job_bus(harness.scheduler, job["job_id"]).events
                if e.kind == sweepbus.CELL_STARTED
            ]
            assert sorted(started) == sorted([x.run_id, y.run_id, z.run_id])

            # The joiner's stream carries the dedupe event.
            kinds_b = [
                e.kind
                for e in _job_bus(harness.scheduler, job_b["job_id"]).events
            ]
            assert sweepbus.CELL_DEDUPED in kinds_b

            # One ledger row per unique run_id.
            rows = harness.ledger.records()
            assert sorted(r["run_id"] for r in rows) == sorted(
                [x.run_id, y.run_id, z.run_id]
            )

            # Bit-identity: the service's persisted bits match an offline
            # serial run of the union plan.
            monkeypatch.delenv("ODR_EXECUTOR_SIMULATED_STALL")
            offline_ledger = RunLedger(tmp_path / "offline")
            offline = SerialExecutor().run(
                Plan([x, y, z]), store=ResultStore(), ledger=offline_ledger
            )
            by_run = {r["run_id"]: r for r in rows}
            for outcome in offline.outcomes:
                run_id = outcome.spec.run_id
                served = client_a.fetch(run_id)
                assert served["metrics_digest"] == metrics_digest(
                    by_run[run_id]
                )
                assert served["metrics_digest"] == metrics_digest(
                    outcome.ledger_record
                )
                # Ledger rows match bit-for-bit modulo host timing
                # (wall clock and events/sec are real elapsed time,
                # outside the digest).
                def _deterministic(row):
                    row = dict(row)
                    row.pop("wall_clock_s", None)
                    engine = dict(row.get("engine", {}))
                    engine.pop("events_per_sec", None)
                    engine.pop("wall_per_sim_second_mean", None)
                    row["engine"] = engine
                    return row

                assert _deterministic(served["ledger_record"]) == (
                    _deterministic(outcome.ledger_record)
                )


class TestWatchStream:
    def test_disconnect_mid_stream_leaves_job_running(
        self, tmp_path, monkeypatch
    ):
        slow = spec("STK", "NoReg")
        monkeypatch.setenv(
            "ODR_EXECUTOR_SIMULATED_STALL", f"{slow.run_id}:2.0"
        )
        with GatewayHarness(tmp_path) as harness:
            client = harness.client()
            job = client.submit(plan_payload(Plan([spec("IM"), slow])))

            # Hand-rolled watcher: read the header and one event, then
            # drop the connection mid-stream.
            with socket.create_connection(
                ("127.0.0.1", harness.gateway.port), timeout=30
            ) as sock:
                stream = sock.makefile("rwb")
                stream.write(
                    encode_frame({"op": "watch", "job_id": job["job_id"]})
                )
                stream.flush()
                header = decode_frame(stream.readline())
                assert header["ok"]
                assert decode_frame(stream.readline())["event"]

            # The job finishes and the server keeps answering.
            done = client.wait(job["job_id"])
            assert done["state"] == "done" and done["executed"] == 2

            # A late watcher still gets the whole history, exactly once.
            events = list(client.watch(job["job_id"]))
            kinds = [e.kind for e in events]
            assert kinds[0] == sweepbus.SWEEP_BEGIN
            assert kinds[-1] == sweepbus.SWEEP_END
            assert kinds.count(sweepbus.CELL_FINISHED) == 2
            seqs = [e.seq for e in events]
            assert seqs == sorted(set(seqs))


    def test_closed_subscription_leaves_the_bus(self):
        bus = sweepbus.SweepEventBus()
        seen = []

        def deliver(event):
            seen.append(event.kind)

        subscription = Subscription(deliver).start(bus)
        bus.emit(sweepbus.POOL_BROKEN)
        subscription.close()
        bus.emit(sweepbus.POOL_BROKEN)
        assert seen == ["pool_broken"]
        ref = weakref.ref(deliver)
        del deliver, subscription
        gc.collect()
        assert ref() is None

    def test_finished_job_keeps_no_ledger_rows(self, tmp_path):
        plan = Plan([spec("IM"), spec("STK", "NoReg")])
        with GatewayHarness(tmp_path) as harness:
            client = harness.client()
            job = client.submit(plan_payload(plan))
            assert client.wait(job["job_id"])["executed"] == 2
            report = harness.scheduler.get(job["job_id"]).report
            assert len(report.outcomes) == 2
            assert all(getattr(o, "ledger_record", None) is None for o in report.outcomes)
            # ``result`` still serves each cell's digest, from the ledger.
            rows = {r["run_id"]: r for r in harness.ledger.records()}
            cells = client.result(job["job_id"])["cells"]
            assert {c["run_id"]: c["metrics_digest"] for c in cells} == {
                run_id: metrics_digest(row) for run_id, row in rows.items()
            }

    def test_finished_job_holds_no_record(self, tmp_path):
        plan = Plan([spec("IM"), spec("STK", "NoReg")])
        with GatewayHarness(tmp_path) as harness:
            client = harness.client()
            job = client.submit(plan_payload(plan))
            assert client.wait(job["job_id"])["executed"] == 2
            report = harness.scheduler.get(job["job_id"]).report

            def values(obj):
                """Every value reachable through dataclass fields and tuples."""
                yield obj
                children = (
                    [getattr(obj, f.name) for f in dataclasses.fields(obj)]
                    if dataclasses.is_dataclass(obj)
                    else obj if isinstance(obj, tuple) else ()
                )
                for child in children:
                    yield from values(child)

            assert not any(isinstance(v, (ExperimentRecord, dict)) for v in values(report))
            # The ``result`` frame serves exactly what it served before.
            rows = {r["run_id"]: r for r in harness.ledger.records()}
            cells = client.result(job["job_id"])["cells"]
            assert [c["run_id"] for c in cells] == [s.run_id for s in plan]
            for cell, cell_spec in zip(cells, plan):
                assert set(cell) == {
                    "run_id", "label", "ok", "cached", "deduped", "wall_clock_s",
                    "metrics_digest",
                }
                assert cell["label"] == cell_spec.label
                assert cell["ok"] is True
                assert cell["cached"] is False and cell["deduped"] is False
                assert cell["wall_clock_s"] > 0
                assert cell["metrics_digest"] == metrics_digest(rows[cell["run_id"]])


class TestRestartResume:
    def test_restart_serves_cells_from_persistent_store(self, tmp_path):
        plan = Plan([spec("IM"), spec("STK", "NoReg")])
        with GatewayHarness(tmp_path) as harness:
            client = harness.client()
            job = client.submit(plan_payload(plan))
            done = client.wait(job["job_id"])
            assert done["executed"] == 2
            first_rows = harness.ledger.records()

        # "Restart": a brand-new scheduler/gateway over the same dirs.
        with GatewayHarness(tmp_path) as harness:
            client = harness.client()
            job = client.submit(plan_payload(plan))
            done = client.wait(job["job_id"])
            assert done["state"] == "done"
            assert done["executed"] == 0 and done["cached"] == 2
            # Cache hits append nothing new to the ledger.
            assert harness.ledger.records() == first_rows


class TestProtocolEdges:
    def test_bad_frames_and_unknown_ops(self, tmp_path):
        with GatewayHarness(tmp_path) as harness:
            with socket.create_connection(
                ("127.0.0.1", harness.gateway.port), timeout=30
            ) as sock:
                stream = sock.makefile("rwb")
                stream.write(b"this is not json\n")
                stream.write(encode_frame({"op": "frobnicate"}))
                stream.write(encode_frame({"op": "ping"}))
                stream.flush()
                bad = decode_frame(stream.readline())
                unknown = decode_frame(stream.readline())
                pong = decode_frame(stream.readline())
            assert not bad["ok"] and "bad frame" in bad["error"]
            assert not unknown["ok"] and "unknown op" in unknown["error"]
            assert pong["ok"] and pong["protocol"] == PROTOCOL_VERSION

            client = harness.client()
            with pytest.raises(Exception) as excinfo:
                client.fetch("deadbeef00000000")
            assert "not in store or ledger" in str(excinfo.value)
            # Only cells plans: naming a demand builder is a protocol error.
            with pytest.raises(ProtocolError, match="unknown plan kind"):
                client.submit({"kind": "matrix", "benchmarks": ["IM"]})
            assert harness.scheduler.jobs() == []


HORIZON = ["--duration", str(DURATION_MS), "--warmup", str(WARMUP_MS)]


class TestSubmitVerb:
    """``submit <verb> ARGS`` runs exactly the cells of local ``<verb> ARGS``."""

    @pytest.mark.parametrize(
        "verb, local_only, plan_args",
        [
            ("bench", [], []),
            ("matrix", ["out.csv"], ["--benchmarks", "IM", "--groups", "Priv720p"]),
            (
                "chaos",
                [],
                ["--benchmarks", "IM", "--groups", "NoReg", "--faults", "encode_stall"],
            ),
        ],
    )
    def test_submitted_plan_matches_the_local_verb(
        self, tmp_path, verb, local_only, plan_args
    ):
        local_args = _build_parser().parse_args(HORIZON + [verb] + local_only + plan_args)
        local = SWEEP_PLANS[verb][1](local_args)
        with GatewayHarness(tmp_path, workers=1) as harness:
            address = f"127.0.0.1:{harness.gateway.port}"
            code = main(
                HORIZON + ["submit", verb] + plan_args + ["--connect", address, "--wait"]
            )
            assert code == 0
            (job,) = harness.scheduler.jobs()
            assert job.state.value == "done" and job.label == verb
            assert [s.run_id for s in job.plan] == [s.run_id for s in local]

    @pytest.mark.parametrize(
        "argv",
        [
            ["matrix", "--groups", "Bogus"],
            ["chaos", "--faults", "meteor"],
            ["bench", "--regulators", "Bogus"],
            ["chaos", "--groups", "Bogus"],
        ],
    )
    def test_bad_plan_flags_exit_2_without_dialing(self, argv):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            listener.setblocking(False)
            address = f"127.0.0.1:{listener.getsockname()[1]}"
            try:
                code = main(["submit"] + argv + ["--connect", address, "--wait"])
            except SystemExit as exc:  # argparse rejects the choice
                code = exc.code
            assert code == 2
            with pytest.raises(BlockingIOError):
                listener.accept()
