"""The async gateway: many clients, one scheduler, NDJSON over TCP.

:class:`ServiceGateway` is the network face of
:class:`~repro.service.scheduler.SweepScheduler`: a stdlib-asyncio TCP
server speaking the frame protocol of :mod:`repro.service.protocol`.
Every connection is one lightweight coroutine reading request lines
and answering response lines; nothing about simulation runs on the
event loop — jobs execute on the scheduler's threads and cells in the
shared worker pool, so a thousand idle ``watch`` connections cost a
thousand coroutines, not a thousand threads.

The one stateful op is ``watch``: the handler subscribes to the job's
event bus, and the subscription's delivery callback — invoked on
whatever thread emits the event — hops the thread/loop boundary with
``loop.call_soon_threadsafe`` into a per-watcher ``asyncio.Queue`` the
coroutine drains into the socket.  History replays first (the bus
keeps its events in memory; a reconnecting watcher passes
``since_seq`` to skip what it already saw), so a client attaching
mid-sweep sees the full story; the stream ends at the job's
``sweep_end`` frame.  A client that disconnects mid-stream just
cancels its own coroutine — the subscription closes, the job never
notices.

The gateway protects itself from hostile or broken peers:

* every read carries a deadline (``read_timeout_s``) — a slow-loris
  connection is answered with a structured error and closed, never
  parked forever;
* framing violations (oversized line, invalid UTF-8, junk JSON, a
  half-closed socket mid-frame, unknown ops) are answered with typed
  error frames (:mod:`repro.service.errors` codes) where the
  connection is still coherent, and the connection alone is dropped —
  other clients never notice;
* scheduler admission rejections
  (:class:`~repro.service.errors.ServerBusy`) ride back as ``busy``
  frames with a ``retry_after_s`` hint;
* :meth:`ServiceGateway.begin_shutdown` (wired to SIGTERM by
  ``odr-sim serve``) drains gracefully: stop accepting, finish the
  scheduler's running jobs, journal everything — the kill -9 story is
  the journal's job instead.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

from repro.experiments.record import record_as_dict
from repro.obs import sweep as sweepbus
from repro.obs.runmeta import metrics_digest
from repro.service.errors import JobLost, ProtocolError, ServerBusy, ServiceError
from repro.service.jobs import JobSpec
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    error_frame,
)
from repro.service.scheduler import SweepScheduler

__all__ = ["ServiceGateway"]


class ServiceGateway:
    """NDJSON-over-TCP front end for a :class:`SweepScheduler`."""

    def __init__(
        self,
        scheduler: SweepScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        read_timeout_s: Optional[float] = 30.0,
    ) -> None:
        self.scheduler = scheduler
        self.host = host
        #: Requested port (0 → ephemeral); :meth:`start` sets the bound one.
        self.port = port
        #: Per-read deadline for request lines (None → wait forever).
        #: ``watch`` writers are exempt — a watch holds its connection
        #: open by design; it is *reads* a slow loris can starve.
        self.read_timeout_s = read_timeout_s
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown: Optional[asyncio.Event] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` becomes the real port."""
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_FRAME_BYTES
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request (or task cancellation)."""
        if self._server is None:
            await self.start()
        assert self._shutdown is not None
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        """Stop accepting and close the listening socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def begin_shutdown(self) -> None:
        """Request a graceful drain (idempotent; signal-handler safe).

        Wakes :meth:`serve_until_shutdown`, which stops accepting new
        connections; the caller then closes the scheduler, which waits
        for running jobs and journals their terminal states — so a
        SIGTERM loses nothing, and anything harder than SIGTERM is the
        journal's recovery problem.
        """
        if self._shutdown is not None:
            self._shutdown.set()

    # -- connection handling ----------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=self.read_timeout_s
                    )
                except asyncio.TimeoutError:
                    # Slow-loris defence: a peer that cannot produce a
                    # request line within the deadline is told why and
                    # disconnected; everyone else keeps being served.
                    await self._send(
                        writer,
                        error_frame(
                            f"read timed out after {self.read_timeout_s:g}s",
                            code="transport",
                        ),
                    )
                    break
                except ValueError:
                    # Over-long line: the stream can no longer be
                    # re-framed — answer structurally, then drop it.
                    await self._send(
                        writer,
                        error_frame(
                            f"frame exceeds {MAX_FRAME_BYTES} bytes",
                            code="protocol",
                        ),
                    )
                    break
                except ConnectionResetError:
                    break
                if not line:
                    break
                if not line.endswith(b"\n"):
                    # EOF mid-line: the peer half-closed inside a frame.
                    await self._send(
                        writer,
                        error_frame(
                            "connection half-closed mid-frame",
                            code="protocol",
                        ),
                    )
                    break
                if not line.strip():
                    continue
                try:
                    request = decode_frame(line)
                except ValueError as exc:
                    # Junk JSON / invalid UTF-8 on an intact framing
                    # boundary: answer and keep the connection.
                    await self._send(
                        writer,
                        error_frame(f"bad frame: {exc}", code="protocol"),
                    )
                    continue
                op = str(request.get("op", ""))
                if op == "watch":
                    await self._watch(request, writer)
                else:
                    await self._send(writer, self._dispatch(op, request))
                    if op == "shutdown":
                        break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, payload: Dict[str, Any]) -> None:
        writer.write(encode_frame(payload))
        await writer.drain()

    # -- request dispatch --------------------------------------------------

    def _dispatch(self, op: str, request: Dict[str, Any]) -> Dict[str, Any]:
        try:
            if op == "ping":
                return self._ping()
            if op == "submit":
                return self._submit(request)
            if op == "status":
                return self._status(request)
            if op == "result":
                return self._result(request)
            if op == "fetch":
                return self._fetch(request)
            if op == "shutdown":
                assert self._shutdown is not None
                self._shutdown.set()
                return {"ok": True, "op": "shutdown"}
            return error_frame(f"unknown op {op!r}", code="protocol")
        except ServerBusy as exc:
            return error_frame(
                str(exc), code=exc.code, retry_after_s=exc.retry_after_s
            )
        except ServiceError as exc:
            return error_frame(str(exc), code=exc.code)
        except (KeyError, ValueError, TypeError) as exc:
            # A structurally broken request (bad params, missing keys)
            # is the client's bug, not infrastructure weather.
            return error_frame(
                f"{type(exc).__name__}: {exc}", code=ProtocolError.code
            )
        except Exception as exc:
            return error_frame(f"{type(exc).__name__}: {exc}")

    def _ping(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "op": "ping",
            "protocol": PROTOCOL_VERSION,
            "workers": self.scheduler.pool.workers,
            "jobs": len(self.scheduler.jobs()),
        }

    def _submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        plan = request.get("plan")
        if not isinstance(plan, dict):
            return error_frame("submit needs a 'plan' object", code="protocol")
        kind = plan.get("kind")
        if kind != "cells":
            return error_frame(f"unknown plan kind {kind!r}", code="protocol")
        spec = JobSpec(
            params={key: value for key, value in plan.items() if key != "kind"},
            label=str(request.get("label", "")),
            token=str(request.get("token", "")),
        )
        job = self.scheduler.submit(spec)
        return {
            "ok": True,
            "op": "submit",
            "protocol": PROTOCOL_VERSION,
            "job": job.summary(),
        }

    def _status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job_id = request.get("job_id")
        if job_id is not None:
            job = self.scheduler.get(str(job_id))
            if job is None:
                return error_frame(
                    f"no such job {job_id!r}", code=JobLost.code
                )
            return {"ok": True, "op": "status", "job": job.summary()}
        return {
            "ok": True,
            "op": "status",
            "jobs": [job.summary() for job in self.scheduler.jobs()],
        }

    def _result(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job = self.scheduler.get(str(request.get("job_id", "")))
        if job is None:
            return error_frame(
                f"no such job {request.get('job_id')!r}", code=JobLost.code
            )
        if job.report is None:
            return {
                "ok": True,
                "op": "result",
                "job": job.summary(),
                "cells": None,
            }
        ledger = self.scheduler.ledger
        cells = []
        for outcome in job.report.outcomes:
            run_id = outcome.spec.run_id
            cells.append(
                {
                    "run_id": run_id,
                    "label": outcome.spec.label,
                    "ok": True,
                    "cached": outcome.cached,
                    "deduped": outcome.deduped,
                    "wall_clock_s": outcome.wall_clock_s,
                    "metrics_digest": (
                        ledger.digest(run_id) if ledger is not None else None
                    ),
                }
            )
        for failure in job.report.failures:
            cells.append(
                {
                    "run_id": failure.spec.run_id,
                    "label": failure.spec.label,
                    "ok": False,
                    "error": failure.error,
                    "attempts": failure.attempts,
                }
            )
        return {"ok": True, "op": "result", "job": job.summary(), "cells": cells}

    def _fetch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        run_id = str(request.get("run_id", ""))
        if not run_id:
            return error_frame("fetch needs a 'run_id'", code="protocol")
        record = self.scheduler.store.get(run_id)
        ledger = self.scheduler.ledger
        ledger_record = ledger.get(run_id) if ledger is not None else None
        if record is None and ledger_record is None:
            return error_frame(f"run {run_id!r} not in store or ledger")
        return {
            "ok": True,
            "op": "fetch",
            "run_id": run_id,
            "record": record_as_dict(record) if record is not None else None,
            "ledger_record": ledger_record,
            "metrics_digest": (
                metrics_digest(ledger_record) if ledger_record is not None else None
            ),
        }

    # -- streaming ---------------------------------------------------------

    async def _watch(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        job = self.scheduler.get(str(request.get("job_id", "")))
        if job is None:
            await self._send(
                writer,
                error_frame(
                    f"no such job {request.get('job_id')!r}",
                    code=JobLost.code,
                ),
            )
            return
        try:
            since_seq = int(request.get("since_seq", -1))
        except (TypeError, ValueError):
            await self._send(
                writer,
                error_frame("since_seq must be an integer", code="protocol"),
            )
            return
        loop = asyncio.get_running_loop()
        queue: "asyncio.Queue[sweepbus.SweepEvent]" = asyncio.Queue()

        def deliver(event: sweepbus.SweepEvent) -> None:
            # Runs on the emitting thread (job thread / pool drain);
            # after loop shutdown the hop fails — the watcher is gone.
            try:
                loop.call_soon_threadsafe(queue.put_nowait, event)
            except RuntimeError:
                pass

        subscription = self.scheduler.subscribe(
            job.job_id, deliver, since_seq=since_seq
        )
        try:
            await self._send(
                writer, {"ok": True, "op": "watch", "job": job.summary()}
            )
            if job.state.terminal:
                # A reconnecting watcher may already hold the whole
                # stream (it lost only the final done frame): nothing
                # left to replay means answer done now, not never.
                events = job.bus.events
                if not events or events[-1].seq <= since_seq:
                    await self._send(
                        writer,
                        {"ok": True, "done": True, "job": job.summary()},
                    )
                    return
            while True:
                event = await queue.get()
                await self._send(writer, {"event": event.to_dict()})
                if event.kind == sweepbus.SWEEP_END:
                    break
            await self._send(writer, {"ok": True, "done": True, "job": job.summary()})
        finally:
            subscription.close()
