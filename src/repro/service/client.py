"""A resilient synchronous client for the sweep gateway.

:class:`ServiceClient` speaks the NDJSON protocol over a plain socket
— one connection per request (the server is cheap to dial), except
:meth:`watch`, which holds its connection open and yields sweep events
as they stream.  Used by the ``odr-sim submit/status/fetch`` verbs,
``odr-sim watch --connect``, and the service tests; being stdlib-only
and synchronous, it is also the reference third-party client: the
whole protocol fits in this file.

The client assumes the network is weather, not fate:

* every failure surfaces as a typed
  :class:`~repro.service.errors.ServiceError` — transport trouble is
  retryable, protocol nonsense is not, and the retry loop consults
  exactly that distinction;
* retries back off exponentially with **seeded** jitter
  (:class:`RetryPolicy`): delays are a pure function of
  ``(policy seed, attempt)``, so a chaos run's retry schedule is
  replayable, not a flake;
* :meth:`submit` is idempotent under retry: each logical submit call
  carries a token (fingerprint of plan + label + a per-call nonce), so
  a resubmit whose first acknowledgement was lost *joins* the job the
  server already accepted instead of forking a duplicate sweep;
* :meth:`watch` reconnects on stream drops and resumes from the last
  event ``seq`` it saw — the event log continues gap-free;
* connecting waits (bounded) for the server to start listening, fixing
  the classic test/CI race where the client dials a gateway that is
  one scheduler-warmup behind it.

Transports are pluggable: the default is a plain TCP connect
(:class:`~repro.faults.service.TcpTransport`); tests hand in a seeded
:class:`~repro.faults.service.ChaosTransport` and the client's
behavior under drops, truncations, and slow reads becomes a
deterministic fixture.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Protocol, Tuple

from repro.faults.service import TcpTransport
from repro.obs.probes import host_epoch, host_wallclock
from repro.obs.runmeta import config_fingerprint
from repro.obs.sweep import SweepEvent
from repro.service.errors import (
    ProtocolError,
    ServerBusy,
    ServiceError,
    TransportError,
    error_for_code,
)
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
)
from repro.simcore.rng import SeededRng, derive_seed

__all__ = [
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "parse_address",
]


class _SocketLike(Protocol):
    """What a transport's connection must provide (duck-typed so both
    real sockets and :class:`~repro.faults.service.ChaosSocket` fit)."""

    def sendall(self, data: bytes) -> None: ...

    def recv(self, bufsize: int) -> bytes: ...

    def settimeout(self, timeout_s: Optional[float]) -> None: ...

    def close(self) -> None: ...


class _Transport(Protocol):
    """What the client needs from a transport: dial one connection."""

    def open(
        self, host: str, port: int, timeout_s: Optional[float] = None
    ) -> _SocketLike: ...


def parse_address(address: str, default_port: int = 7433) -> Tuple[str, int]:
    """``"host:port"`` (or bare ``"host"``) → ``(host, port)``."""
    host, _, port = address.rpartition(":")
    if not host:
        return address, default_port
    return host, int(port)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with seeded jitter.

    :meth:`delay_for` is a pure function of ``(seed, attempt)`` — two
    clients with the same policy retry on the same schedule, which is
    what makes chaos tests assert *deterministic* retry behavior
    instead of sleeping and hoping.
    """

    #: Total tries per request (first attempt included).
    attempts: int = 5
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ValueError("need 0 <= base_delay_s <= max_delay_s")

    def delay_for(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (0-based) — pure.

        Exponential growth capped at ``max_delay_s``, scaled by a
        seeded jitter factor in ``[0.5, 1.0)`` so synchronized clients
        desynchronize identically on every replay.
        """
        ceiling = min(self.max_delay_s, self.base_delay_s * (2.0**attempt))
        rng = SeededRng(derive_seed(self.seed, "client-retry", attempt))
        return ceiling * (0.5 + 0.5 * rng.random())


class _FrameStream:
    """Buffered NDJSON framing over one connection.

    Replaces ``socket.makefile`` so the same code path serves real
    sockets and chaos sockets, and so framing violations surface as
    :class:`ProtocolError` instead of leaking stdlib exceptions.
    """

    def __init__(self, sock: _SocketLike) -> None:
        self._sock = sock
        self._buffer = b""

    def send(self, payload: Dict[str, Any]) -> None:
        self._sock.sendall(encode_frame(payload))

    def readline(self) -> bytes:
        """One frame line (with newline), or ``b""`` at clean EOF.

        EOF with a partial line buffered is a *mid-frame* close — the
        torn-frame case — and raises :class:`TransportError` so the
        retry loop treats it as transport weather.
        """
        while b"\n" not in self._buffer:
            if len(self._buffer) > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame exceeds {MAX_FRAME_BYTES} bytes"
                )
            chunk = self._sock.recv(65536)
            if not chunk:
                if self._buffer:
                    raise TransportError("connection closed mid-frame")
                return b""
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line + b"\n"


class ServiceClient:
    """Blocking, retrying NDJSON client for one gateway address."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7433,
        timeout_s: float = 60.0,
        transport: Optional[_Transport] = None,
        retry: Optional[RetryPolicy] = None,
        connect_wait_s: float = 5.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.transport: _Transport = (
            transport if transport is not None else TcpTransport()
        )
        self.retry = retry if retry is not None else RetryPolicy()
        #: How long :meth:`_connect` waits for a listener to appear.
        self.connect_wait_s = connect_wait_s
        self._submit_nonce = 0

    # -- plumbing ----------------------------------------------------------

    def _connect(self, timeout_s: Optional[float]) -> _SocketLike:
        """Dial the gateway, waiting (bounded) for it to be listening.

        A refused connection inside the ``connect_wait_s`` window means
        the server is still starting (the classic CI race) — keep
        knocking; past the window it becomes a
        :class:`TransportError` like any other.
        """
        deadline = host_wallclock() + self.connect_wait_s
        while True:
            try:
                return self.transport.open(
                    self.host, self.port, timeout_s=timeout_s
                )
            except ConnectionRefusedError as exc:
                if host_wallclock() >= deadline:
                    raise TransportError(
                        f"{self.host}:{self.port} refused connections for "
                        f"{self.connect_wait_s:g}s: {exc}"
                    ) from exc
                time.sleep(0.05)
            except OSError as exc:
                raise TransportError(f"connect failed: {exc}") from exc

    def _request_once(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request, one response, one connection — typed failures."""
        sock = self._connect(self.timeout_s)
        try:
            sock.settimeout(self.timeout_s)
            stream = _FrameStream(sock)
            try:
                stream.send(payload)
                line = stream.readline()
            except ServiceError:
                raise
            except OSError as exc:
                raise TransportError(f"request failed: {exc}") from exc
        finally:
            sock.close()
        if not line:
            raise TransportError("server closed the connection without answering")
        try:
            response = decode_frame(line)
        except ValueError as exc:
            raise ProtocolError(f"unparseable response frame: {exc}") from exc
        if not response.get("ok", False):
            raise self._error_from(response)
        return response

    @staticmethod
    def _error_from(response: Dict[str, Any]) -> ServiceError:
        retry_after = response.get("retry_after_s")
        return error_for_code(
            str(response.get("code", "")) or None,
            str(response.get("error", "request failed")),
            retry_after_s=(
                float(retry_after) if retry_after is not None else None
            ),
        )

    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Request with bounded retry on retryable failures."""
        last: Optional[ServiceError] = None
        for attempt in range(self.retry.attempts):
            try:
                return self._request_once(payload)
            except ServiceError as exc:
                if not exc.retryable or attempt + 1 >= self.retry.attempts:
                    raise
                last = exc
                delay = self.retry.delay_for(attempt)
                if isinstance(exc, ServerBusy) and exc.retry_after_s:
                    delay = max(delay, exc.retry_after_s)
                time.sleep(delay)
        raise last if last is not None else ServiceError("request failed")

    # -- the verbs ---------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self._request({"op": "ping"})

    def _new_token(self, plan: Dict[str, Any], label: str) -> str:
        """Idempotency token for one logical submit call.

        Keyed by the plan payload's digest plus a per-call nonce: the
        retry loop reuses it (a lost acknowledgement joins the accepted
        job), while a *deliberate* second submission of the same plan
        gets a fresh token and a fresh job.
        """
        self._submit_nonce += 1
        return "tok-" + config_fingerprint(
            {
                "plan": plan,
                "label": label,
                "nonce": self._submit_nonce,
                "pid": os.getpid(),
                "epoch": host_epoch(),
            }
        )[:16]

    def submit(
        self,
        plan: Dict[str, Any],
        label: str = "",
        token: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit a ``cells`` plan payload (:func:`plan_payload`); returns the job.

        Safe under retry: the whole retry loop shares one idempotency
        ``token``, so the server runs at most one job for this call no
        matter how many resubmits the weather forces.
        """
        token = token if token is not None else self._new_token(plan, label)
        response = self._request(
            {"op": "submit", "plan": plan, "label": label, "token": token}
        )
        job = response["job"]
        assert isinstance(job, dict)
        return job

    def status(self, job_id: Optional[str] = None) -> Dict[str, Any]:
        request: Dict[str, Any] = {"op": "status"}
        if job_id is not None:
            request["job_id"] = job_id
        return self._request(request)

    def jobs(self) -> List[Dict[str, Any]]:
        jobs = self.status()["jobs"]
        assert isinstance(jobs, list)
        return jobs

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._request({"op": "result", "job_id": job_id})

    def fetch(self, run_id: str) -> Dict[str, Any]:
        return self._request({"op": "fetch", "run_id": run_id})

    def shutdown(self) -> None:
        self._request({"op": "shutdown"})

    def wait(self, job_id: str, poll_s: float = 0.2) -> Dict[str, Any]:
        """Poll ``status`` until the job reaches a terminal state."""
        while True:
            job = self.status(job_id)["job"]
            assert isinstance(job, dict)
            if job.get("state") in ("done", "failed"):
                return job
            time.sleep(poll_s)

    # -- streaming ---------------------------------------------------------

    def _watch_once(
        self,
        job_id: str,
        since_seq: int,
        timeout_s: Optional[float],
    ) -> Iterator[SweepEvent]:
        """One watch connection: opening frame, then events until done."""
        sock = self._connect(self.timeout_s)
        try:
            sock.settimeout(timeout_s)
            stream = _FrameStream(sock)
            try:
                stream.send(
                    {"op": "watch", "job_id": job_id, "since_seq": since_seq}
                )
                header = stream.readline()
            except OSError as exc:
                raise TransportError(f"watch failed: {exc}") from exc
            if not header:
                raise TransportError("server closed the watch stream")
            opening = decode_frame(header)
            if not opening.get("ok", False):
                raise self._error_from(opening)
            while True:
                try:
                    line = stream.readline()
                except OSError as exc:
                    raise TransportError(f"watch read failed: {exc}") from exc
                if not line:
                    raise TransportError("watch stream ended mid-sweep")
                try:
                    frame = decode_frame(line)
                except ValueError as exc:
                    raise ProtocolError(
                        f"unparseable watch frame: {exc}"
                    ) from exc
                if frame.get("done"):
                    return
                event = frame.get("event")
                if isinstance(event, dict):
                    yield SweepEvent.from_dict(event)
        finally:
            sock.close()

    def watch(
        self,
        job_id: str,
        timeout_s: Optional[float] = None,
        since_seq: int = -1,
    ) -> Iterator[SweepEvent]:
        """Stream one job's sweep events until its ``sweep_end``.

        History replays first (from ``since_seq`` onward), so watching
        a finished job yields its whole log and returns.  A dropped
        connection mid-stream reconnects (bounded by the retry policy,
        with the attempt budget refreshed by progress) and resumes from
        the last event ``seq`` delivered — the yielded sequence stays
        gap-free and duplicate-free across drops.
        """
        last_seq = since_seq
        attempt = 0
        while True:
            progressed = False
            try:
                for event in self._watch_once(job_id, last_seq, timeout_s):
                    last_seq = max(last_seq, event.seq)
                    progressed = True
                    yield event
                return
            except ServiceError as exc:
                if progressed:
                    attempt = 0  # the stream moved; reset the budget
                if not exc.retryable or attempt + 1 >= self.retry.attempts:
                    raise
                time.sleep(self.retry.delay_for(attempt))
                attempt += 1
