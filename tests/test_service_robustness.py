"""Tests for the gateway's self-protection and typed failure surface.

Framing edges (oversized line, invalid UTF-8, half-closed socket
mid-frame, unknown op) must come back as *structured* error frames with
taxonomy codes while the server keeps serving everyone else; admission
control must shed load explicitly (BUSY + retry-after + a ``load_shed``
event); a broken worker pool must degrade to serial in-process
execution, not a failed job; and the client must absorb the
server-startup race and resume watch streams from the last seen seq.
"""

import asyncio
import contextlib
import socket
import threading
import time

import pytest

from repro.experiments import CellSpec, Plan, ResultStore, SerialExecutor
from repro.experiments.pool import PoolUnavailableError, WorkerPool
from repro.obs import sweep as sweepbus
from repro.obs.ledger import RunLedger
from repro.obs.runmeta import metrics_digest
from repro.service import (
    JobLost,
    JobSpec,
    ProtocolError,
    RetryPolicy,
    ServerBusy,
    ServiceClient,
    ServiceError,
    ServiceGateway,
    SweepScheduler,
    TransportError,
    error_for_code,
)
from repro.service.protocol import MAX_FRAME_BYTES, decode_frame, encode_frame, plan_payload

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

    def __init__(self, tmp_path, workers=2, **scheduler_kwargs):
        self.ledger = RunLedger(tmp_path / "ledger")
        self.store = ResultStore(tmp_path / "ledger" / "cells")
        self.scheduler = SweepScheduler(
            self.store, ledger=self.ledger, workers=workers, **scheduler_kwargs
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

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient(port=self.gateway.port, **kwargs)

    def __exit__(self, *exc):
        try:
            self.client().shutdown()
            self._thread.join(timeout=30)
        finally:
            self.scheduler.close()


class TestErrorTaxonomy:
    def test_retryability_policy(self):
        assert TransportError("x").retryable
        assert ServerBusy("x").retryable
        assert not ProtocolError("x").retryable
        assert not JobLost("x").retryable
        assert not ServiceError("x").retryable

    def test_everything_is_still_a_runtime_error(self):
        # The pre-taxonomy contract: except RuntimeError catches all.
        for exc in (TransportError("x"), ProtocolError("x"), ServerBusy("x"), JobLost("x")):
            assert isinstance(exc, ServiceError)
            assert isinstance(exc, RuntimeError)

    def test_error_for_code_round_trips_the_taxonomy(self):
        for cls in (TransportError, ProtocolError, JobLost):
            rebuilt = error_for_code(cls.code, "m")
            assert type(rebuilt) is cls
        busy = error_for_code("busy", "m", retry_after_s=2.5)
        assert isinstance(busy, ServerBusy) and busy.retry_after_s == 2.5

    def test_unknown_code_degrades_to_base(self):
        exc = error_for_code("from-the-future", "m")
        assert type(exc) is ServiceError and not exc.retryable
        assert type(error_for_code(None, "m")) is ServiceError


class TestRetryPolicy:
    def test_delays_are_pure_functions_of_seed_and_attempt(self):
        a = RetryPolicy(seed=42)
        b = RetryPolicy(seed=42)
        assert [a.delay_for(i) for i in range(6)] == [
            b.delay_for(i) for i in range(6)
        ]
        c = RetryPolicy(seed=43)
        assert [a.delay_for(i) for i in range(6)] != [
            c.delay_for(i) for i in range(6)
        ]

    def test_delays_grow_and_stay_bounded(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=1.0, seed=7)
        for attempt in range(10):
            delay = policy.delay_for(attempt)
            ceiling = min(1.0, 0.1 * 2**attempt)
            assert 0.5 * ceiling <= delay <= ceiling

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=2.0, max_delay_s=1.0)


class TestFramingEdges:
    def _dial(self, harness):
        return socket.create_connection(
            ("127.0.0.1", harness.gateway.port), timeout=30
        )

    def test_invalid_utf8_gets_structured_error_and_connection_survives(
        self, tmp_path
    ):
        with GatewayHarness(tmp_path) as harness:
            with self._dial(harness) as sock:
                stream = sock.makefile("rwb")
                stream.write(b"\xff\xfe not utf8 \xff\n")
                stream.write(encode_frame({"op": "ping"}))
                stream.flush()
                bad = decode_frame(stream.readline())
                pong = decode_frame(stream.readline())
            assert not bad["ok"] and bad["code"] == "protocol"
            assert pong["ok"]

    def test_unknown_op_is_a_protocol_error(self, tmp_path):
        with GatewayHarness(tmp_path) as harness:
            with self._dial(harness) as sock:
                stream = sock.makefile("rwb")
                stream.write(encode_frame({"op": "frobnicate"}))
                stream.flush()
                frame = decode_frame(stream.readline())
            assert not frame["ok"] and frame["code"] == "protocol"

    def test_oversized_line_answered_then_dropped_server_keeps_serving(
        self, tmp_path
    ):
        with GatewayHarness(tmp_path) as harness:
            with self._dial(harness) as sock:
                # The server may answer-and-close before the line ends.
                with contextlib.suppress(BrokenPipeError, ConnectionResetError):
                    sock.sendall(b"x" * (MAX_FRAME_BYTES + 65536))
                    sock.sendall(b"\n")
                stream = sock.makefile("rb")
                frame = decode_frame(stream.readline())
                assert not frame["ok"] and frame["code"] == "protocol"
                assert "exceeds" in frame["error"]
                # The stream cannot be re-framed: server closes it.
                assert stream.readline() == b""
            # Other connections never noticed.
            assert harness.client().ping()["ok"]

    def test_half_closed_socket_mid_frame(self, tmp_path):
        with GatewayHarness(tmp_path) as harness:
            with self._dial(harness) as sock:
                sock.sendall(b'{"op": "ping"')  # no newline: mid-frame
                sock.shutdown(socket.SHUT_WR)
                stream = sock.makefile("rb")
                frame = decode_frame(stream.readline())
            assert not frame["ok"] and frame["code"] == "protocol"
            assert "half-closed" in frame["error"]
            assert harness.client().ping()["ok"]


class TestAdmissionControl:
    def test_submit_beyond_bound_is_shed_with_retry_after(
        self, tmp_path, monkeypatch
    ):
        stuck = spec("STK", "NoReg")
        monkeypatch.setenv(
            "ODR_EXECUTOR_SIMULATED_STALL", f"{stuck.run_id}:3.0"
        )
        with GatewayHarness(tmp_path, max_queued_jobs=1) as harness:
            client = harness.client(retry=RetryPolicy(attempts=1))
            job = client.submit(plan_payload(Plan([stuck])))
            with pytest.raises(ServerBusy) as excinfo:
                client.submit(plan_payload(Plan([spec("IM")])))
            assert excinfo.value.retry_after_s is not None
            shed = [
                e
                for e in harness.scheduler.server_bus.events
                if e.kind == sweepbus.LOAD_SHED
            ]
            assert shed and "max_queued_jobs" in shed[0].fields["reason"]
            # Once the running job drains, admission reopens.
            assert client.wait(job["job_id"])["state"] == "done"
            retried = client.submit(plan_payload(Plan([spec("IM")])))
            assert client.wait(retried["job_id"])["state"] == "done"

    def test_duplicate_token_joins_existing_job(self, tmp_path):
        with GatewayHarness(tmp_path) as harness:
            client = harness.client()
            payload = plan_payload(Plan([spec("IM")]))
            first = client.submit(payload, token="tok-fixed")
            second = client.submit(payload, token="tok-fixed")
            assert first["job_id"] == second["job_id"]
            retries = [
                e
                for e in harness.scheduler.server_bus.events
                if e.kind == sweepbus.CLIENT_RETRY
            ]
            assert retries and retries[0].fields["op"] == "submit"
            assert retries[0].fields["job_id"] == first["job_id"]
            # Distinct tokens still fork distinct jobs.
            third = client.submit(payload, token="tok-other")
            assert third["job_id"] != first["job_id"]


def _bare_scheduler(**kwargs):
    """A scheduler whose pool is closed, so its cells run in-process."""
    pool = WorkerPool(1)
    pool.close()
    return SweepScheduler(ResultStore(), pool=pool, **kwargs)


def _wait_terminal(job):
    for _ in range(1200):
        if job.state.terminal:
            return job
        time.sleep(0.01)
    raise AssertionError(f"{job.job_id} never finished")


class TestAdmissionCount:
    def test_bound_sheds_while_many_finished_jobs_are_held(self, monkeypatch):
        scheduler = _bare_scheduler(max_queued_jobs=2)
        params = {"cells": [spec("IM").to_dict()]}
        try:
            for _ in range(40):
                _wait_terminal(scheduler.submit(JobSpec(params=params)))
            release = threading.Event()
            run = scheduler.loop.run

            def held_run(plan, **kwargs):
                assert release.wait(30)
                return run(plan, **kwargs)

            monkeypatch.setattr(scheduler.loop, "run", held_run)
            held = [scheduler.submit(JobSpec(params=params)) for _ in range(2)]
            with pytest.raises(ServerBusy):
                scheduler.submit(JobSpec(params=params))
            release.set()
            for job in held:
                assert _wait_terminal(job).state.value == "done"
            _wait_terminal(scheduler.submit(JobSpec(params=params)))
            assert len(scheduler.jobs()) == 43
        finally:
            scheduler.close()

    def test_count_returns_to_zero_after_done_and_failed_jobs(self, monkeypatch):
        scheduler = _bare_scheduler(max_queued_jobs=1)
        run = scheduler.loop.run

        def failing_run(plan, **kwargs):
            if plan.specs[0].benchmark == "STK":
                raise RuntimeError("injected infrastructure failure")
            return run(plan, **kwargs)

        monkeypatch.setattr(scheduler.loop, "run", failing_run)
        try:
            states = []
            for benchmark in ("IM", "STK", "IM", "STK"):
                params = {"cells": [spec(benchmark).to_dict()]}
                states.append(
                    _wait_terminal(scheduler.submit(JobSpec(params=params))).state.value
                )
            assert states == ["done", "failed", "done", "failed"]
            assert scheduler._active == 0
        finally:
            scheduler.close()


class TestDegradedSerial:
    def test_broken_pool_falls_back_to_serial_in_process(self, tmp_path):
        pool = WorkerPool(1, events=False)
        pool.close()  # every submit now raises PoolUnavailableError
        with pytest.raises(PoolUnavailableError):
            pool.submit(print)
        ledger = RunLedger(tmp_path / "ledger")
        store = ResultStore(tmp_path / "ledger" / "cells")
        scheduler = SweepScheduler(store, ledger=ledger, pool=pool)
        try:
            cells = [spec("IM"), spec("STK", "NoReg")]
            job = scheduler.submit(
                JobSpec(params={"cells": [c.to_dict() for c in cells]})
            )
            for _ in range(1200):
                if job.state.terminal:
                    break
                time.sleep(0.05)
            assert job.state.value == "done"
            assert job.report is not None and not job.report.failures
            kinds = [e.kind for e in job.bus.events]
            assert sweepbus.DEGRADED_SERIAL in kinds
            assert kinds.count(sweepbus.CELL_FINISHED) == 2

            # Degraded execution is bit-identical to an offline run.
            offline = SerialExecutor().run(
                Plan(cells),
                store=ResultStore(),
                ledger=RunLedger(tmp_path / "offline"),
            )
            by_run = {r["run_id"]: r for r in ledger.records()}
            assert sorted(by_run) == sorted(c.run_id for c in cells)
            for outcome in offline.outcomes:
                assert metrics_digest(by_run[outcome.spec.run_id]) == (
                    metrics_digest(outcome.ledger_record)
                )
        finally:
            scheduler.close()


def _start_gateway_late(gateway, ready, delay_s):
    """Bind ``gateway`` only after ``delay_s`` — the startup race."""

    async def _main():
        await gateway.start()
        ready.set()
        await gateway.serve_until_shutdown()

    time.sleep(delay_s)
    asyncio.run(_main())


class TestConnectWait:
    def _free_port(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def test_client_waits_for_late_server(self, tmp_path):
        port = self._free_port()
        ledger = RunLedger(tmp_path / "ledger")
        store = ResultStore(tmp_path / "ledger" / "cells")
        scheduler = SweepScheduler(store, ledger=ledger, workers=1)
        gateway = ServiceGateway(scheduler, port=port)
        ready = threading.Event()
        thread = threading.Thread(
            target=_start_gateway_late, args=(gateway, ready, 0.5), daemon=True
        )
        thread.start()
        try:
            client = ServiceClient(port=port, connect_wait_s=15.0)
            assert client.ping()["ok"]  # dialed while nothing listened
        finally:
            ready.wait(timeout=30)
            ServiceClient(port=port).shutdown()
            thread.join(timeout=30)
            scheduler.close()

    def test_connect_wait_is_bounded(self, tmp_path):
        port = self._free_port()
        client = ServiceClient(
            port=port, connect_wait_s=0.2, retry=RetryPolicy(attempts=1)
        )
        with pytest.raises(TransportError):
            client.ping()


class TestWatchResume:
    def test_since_seq_resumes_without_gaps_or_duplicates(self, tmp_path):
        with GatewayHarness(tmp_path) as harness:
            client = harness.client()
            job = client.submit(
                plan_payload(Plan([spec("IM"), spec("STK", "NoReg")]))
            )
            assert client.wait(job["job_id"])["state"] == "done"
            events = list(client.watch(job["job_id"]))
            assert [e.kind for e in events][0] == sweepbus.SWEEP_BEGIN
            assert [e.kind for e in events][-1] == sweepbus.SWEEP_END

            # Resume from the middle: exactly the tail, once each.
            mid = events[len(events) // 2].seq
            resumed = list(client.watch(job["job_id"], since_seq=mid))
            assert [e.seq for e in resumed] == [
                e.seq for e in events if e.seq > mid
            ]

            # Resume past the end: the stream closes cleanly, no hang.
            assert list(
                client.watch(job["job_id"], since_seq=events[-1].seq)
            ) == []

    def test_watch_unknown_job_is_job_lost(self, tmp_path):
        with GatewayHarness(tmp_path) as harness:
            client = harness.client(retry=RetryPolicy(attempts=1))
            with pytest.raises(JobLost):
                list(client.watch("job-nonexistent"))
