"""The in-process sweep gateway and its closed-loop client threads.

:class:`GatewayHarness` starts a ``SweepScheduler`` (over a warm
``WorkerPool``) behind a ``ServiceGateway`` on loopback, served from a
background thread, exactly as ``odr-sim serve --resume`` wires it.
:func:`run_clients` drives it with closed-loop clients: each client
submits its next request only after the previous one reached a terminal
state.  A job is timed from just before ``submit`` to the ``watch``
stream's done frame, so job timing resolves to socket latency, never to
``ServiceClient.wait``'s 0.2 s poll.

Cell-level and dispatch numbers come from each job's own sweep-event
stream (the events ``watch`` delivers) and ``obs.cost.sweep_cost``; the
benchmark adds no spans inside the program.
"""

from __future__ import annotations

import asyncio
import os
import random
import resource
import shutil
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.plan import CellSpec, Plan
from repro.experiments.pool import WorkerPool
from repro.experiments.store import ResultStore
from repro.obs import sweep as sweepbus
from repro.obs.cost import sweep_cost
from repro.obs.ledger import RunLedger
from repro.service.client import ServiceClient
from repro.service.errors import ProtocolError
from repro.service.gateway import ServiceGateway
from repro.service.protocol import build_plan, plan_payload
from repro.service.scheduler import SweepScheduler

from cells import BENCHMARKS, REGULATORS
from tracing import Tracer, median

#: Horizon of every gateway cell: short, so a cold job of 1-4 cells
#: costs about as much as the dispatch and persistence around it.
DURATION_MS = 1000.0
WARMUP_MS = 250.0
#: Job mix (weights): fresh cold plan, repeat of a finished plan,
#: plan overlapping the other client's in-flight cells, fetch of a cell.
#: An assumption: the program keeps no record of real request traffic.
#: The weights make fresh cells the commonest request, so the ledger
#: grows through a run, and give every kind enough samples per run for
#: its per-layer median (see RATIONALE.md).
MIX = (("fresh", 0.35), ("repeat", 0.30), ("overlap", 0.15), ("fetch", 0.20))


def _torn_ledger_read(message: str) -> bool:
    """Whether a gateway error is a torn read of the run ledger.

    ``RunLedger.records()`` reads without the append lock, so a read
    that overlaps another job's ledger append can see a partial last
    line: a ``fetch`` then answers a JSONDecodeError frame, and a job's
    store pass fails the whole job.  The benchmark retries such a
    request once and counts it (``torn_ledger_reads`` in the notes).
    """
    return "JSONDecodeError" in message


def fetch(client: ServiceClient, run_id: str) -> Tuple[Dict[str, Any], int]:
    """``client.fetch`` retried once on a torn ledger read; (response, retries)."""
    try:
        return client.fetch(run_id), 0
    except ProtocolError as exc:
        if not _torn_ledger_read(str(exc)):
            raise
    return client.fetch(run_id), 1


def gateway_cell(benchmark: str, regulator: str, seed: int) -> CellSpec:
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
    """One scheduler + gateway on loopback, with a warm worker pool."""

    def __init__(self, root: str, workers: int, git_rev: str, history: Optional[str]) -> None:
        self.root = root
        self.workers = workers
        self.git_rev = git_rev
        self.history = history
        self.warm_s = 0.0
        self.scheduler: Optional[SweepScheduler] = None
        self.gateway: Optional[ServiceGateway] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    @property
    def ledger_path(self) -> str:
        return os.path.join(self.root, "ledger.jsonl")

    def start(self) -> None:
        os.makedirs(self.root, exist_ok=True)
        if self.history is not None:
            shutil.copyfile(self.history, self.ledger_path)
        store = ResultStore(os.path.join(self.root, "cells"))
        self.scheduler = SweepScheduler(
            store,
            ledger=RunLedger(self.root),
            pool=WorkerPool(self.workers, events=True),
            git_rev=self.git_rev,
        )
        self.gateway = ServiceGateway(self.scheduler, port=0)
        self._thread = threading.Thread(target=self._serve, name="gateway", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("gateway did not come up")
        started = time.perf_counter()
        self.scheduler.warm()
        self.warm_s = time.perf_counter() - started
        self.client().ping()

    def _serve(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        assert self.gateway is not None
        await self.gateway.start()
        self._ready.set()
        await self.gateway.serve_until_shutdown()

    def client(self) -> ServiceClient:
        assert self.gateway is not None
        return ServiceClient(port=self.gateway.port, timeout_s=60.0)

    def close(self) -> None:
        """Stop the gateway, drain jobs, and join every worker process."""
        try:
            if self._thread is not None and self._thread.is_alive():
                self.client().shutdown()
                self._thread.join(timeout=30.0)
        finally:
            if self.scheduler is not None:
                self.scheduler.close()
                self.scheduler = None


@dataclass
class JobSample:
    kind: str
    cells: int
    job_ms: float
    submit_ms: float
    executed: int
    cached: int
    deduped: int
    failed: int
    events: List[sweepbus.SweepEvent]


@dataclass
class LoadResult:
    jobs: List[JobSample] = field(default_factory=list)
    fetch_ms: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    #: First fresh cells of each client, in generation order (seeded).
    sample: List[CellSpec] = field(default_factory=list)
    trace_s: float = 0.0
    torn_ledger_reads: int = 0
    #: CPU seconds of the client threads, and of the whole benchmark process.
    client_cpu_s: float = 0.0
    process_cpu_s: float = 0.0


class _Shared:
    """State the client threads share: who has which cells in flight."""

    def __init__(self, clients: int) -> None:
        self.lock = threading.Lock()
        self.inflight: Dict[int, List[CellSpec]] = {i: [] for i in range(clients)}


def _client_loop(
    index: int,
    harness: GatewayHarness,
    seed: int,
    deadline: float,
    shared: _Shared,
    out: LoadResult,
    sample_size: int,
    tracer: Optional[Tracer],
) -> None:
    rng = random.Random(f"gateway-mixed:{seed}:client:{index}")
    # Cells come from their own stream, so the n-th fresh cell of a
    # client is the same on every run even when the mix (which reacts to
    # the other client's timing) differs.
    cell_rng = random.Random(f"gateway-mixed:{seed}:client:{index}:cells")
    cell_base = random.Random(f"gateway-mixed:{seed}:cells").randrange(10**6, 10**7) * 100
    client = harness.client()
    fresh_count = 0
    finished_plans: List[Plan] = []
    finished_cells: List[str] = []
    others = [i for i in shared.inflight if i != index]
    kinds = [kind for kind, _ in MIX]
    weights = [weight for _, weight in MIX]

    def new_cell() -> CellSpec:
        nonlocal fresh_count
        cell_seed = cell_base + index * 100000 + fresh_count
        spec = gateway_cell(cell_rng.choice(BENCHMARKS), cell_rng.choice(REGULATORS), cell_seed)
        fresh_count += 1
        if fresh_count <= sample_size:
            with shared.lock:
                out.sample.append(spec)
        return spec

    while time.perf_counter() < deadline:
        kind = rng.choices(kinds, weights)[0] if finished_plans else "fresh"
        if kind == "fetch":
            run_id = rng.choice(finished_cells)
            started = time.perf_counter()
            response, torn = fetch(client, run_id)
            fetch_ms = (time.perf_counter() - started) * 1000.0
            with shared.lock:
                out.torn_ledger_reads += torn
                out.fetch_ms.append(fetch_ms)
                if response.get("record") is None or response.get("ledger_record") is None:
                    out.errors.append(f"fetch {run_id}: record or ledger row missing")
            continue
        theirs: List[CellSpec] = []
        if kind == "overlap":
            with shared.lock:
                theirs = [spec for other in others for spec in shared.inflight[other]]
            if not theirs:
                kind = "fresh"
        if kind == "repeat":
            plan = rng.choice(finished_plans)
        elif kind == "overlap":
            plan = Plan(theirs + [new_cell()])
        else:
            plan = Plan(new_cell() for _ in range(rng.randint(1, 4)))
        if kind != "repeat":
            with shared.lock:
                shared.inflight[index] = list(plan)
        plan_started = time.perf_counter()
        payload = plan_payload(plan)
        build_plan("cells", payload)
        started = time.perf_counter()
        job = client.submit(payload, label=f"{kind}-{index}")
        submitted = time.perf_counter()
        events = list(client.watch(job["job_id"]))
        torn = 0
        if _job_broke(client, job["job_id"], events, len(plan)):
            torn = 1
            job = client.submit(payload, label=f"{kind}-{index}")
            events = list(client.watch(job["job_id"]))
        ended = time.perf_counter()
        with shared.lock:
            shared.inflight[index] = []
        end = events[-1] if events else None
        if end is None or end.kind != sweepbus.SWEEP_END:
            with shared.lock:
                out.errors.append(f"job {job['job_id']}: stream ended without sweep_end")
            continue
        sample = JobSample(
            kind=kind,
            cells=len(plan),
            job_ms=(ended - started) * 1000.0,
            submit_ms=(submitted - started) * 1000.0,
            executed=int(end.get("executed", 0)),
            cached=int(end.get("cached", 0)),
            deduped=sum(1 for e in events if e.kind == sweepbus.CELL_DEDUPED),
            failed=int(end.get("failed", 0)),
            events=events,
        )
        problems = []
        if sample.failed:
            problems.append(f"{sample.failed} cell(s) failed")
        if sample.executed + sample.cached != sample.cells:
            problems.append(f"delivered {sample.executed + sample.cached} of {sample.cells}")
        if kind == "repeat" and sample.executed:
            problems.append(f"repeat of a finished plan executed {sample.executed} cell(s)")
        trace_started = time.perf_counter()
        if tracer is not None:
            _trace_job(tracer, sample, plan_started, started, submitted, ended)
        trace_s = time.perf_counter() - trace_started
        with shared.lock:
            out.jobs.append(sample)
            out.trace_s += trace_s
            out.torn_ledger_reads += torn
            out.errors.extend(f"job {job['job_id']} ({kind}): {p}" for p in problems)
        if not problems:
            finished_plans.append(plan)
            finished_cells.extend(plan.run_ids)
    with shared.lock:
        out.client_cpu_s += time.thread_time()


def _job_broke(
    client: ServiceClient, job_id: str, events: List[sweepbus.SweepEvent], cells: int
) -> bool:
    """Whether the job failed on a torn ledger read (see above)."""
    end = events[-1] if events else None
    if end is not None and int(end.get("executed", 0)) + int(end.get("cached", 0)) == cells:
        return False
    summary = client.status(job_id)["job"]
    return summary.get("state") == "failed" and _torn_ledger_read(str(summary.get("error", "")))


def _trace_job(
    tracer: Tracer,
    sample: JobSample,
    plan_started: float,
    started: float,
    submitted: float,
    ended: float,
) -> None:
    """plan.build, then job → (service.submit, service.watch → cell)."""
    job = tracer.add("job", started, ended, kind=sample.kind, cells=sample.cells)
    tracer.add("plan.build", plan_started, started, None, job)
    tracer.add("service.submit", started, submitted, job, job)
    watch = tracer.add("service.watch", submitted, ended, job, job)
    # Event epochs are host epoch seconds; map them onto the
    # perf_counter timeline through this moment's offset.
    offset = time.perf_counter() - time.time()
    for event in sample.events:
        if event.kind != sweepbus.CELL_FINISHED:
            continue
        resources = event.get("resources") or {}
        begin = resources.get("started_epoch_s")
        if begin is None:
            continue
        tracer.add(
            "cell",
            float(begin) + offset,
            event.epoch_s + offset,
            watch,
            job,
            run_id=event.run_id,
        )


def _process_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_clients(
    harness: GatewayHarness,
    seed: int,
    seconds: float,
    clients: int,
    sample_size: int,
    tracer: Optional[Tracer] = None,
) -> LoadResult:
    """Drive ``clients`` closed-loop client threads for ``seconds``."""
    out = LoadResult()
    shared = _Shared(clients)
    cpu_started = _process_cpu_s()
    started = time.perf_counter()
    deadline = started + seconds
    errors: List[Exception] = []

    def body(index: int) -> None:
        try:
            _client_loop(index, harness, seed, deadline, shared, out, sample_size, tracer)
        except Exception as exc:  # re-raised below, after every thread ended
            errors.append(exc)

    threads = [
        threading.Thread(target=body, args=(i,), name=f"client-{i}") for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120.0)
    out.wall_s = time.perf_counter() - started
    out.process_cpu_s = _process_cpu_s() - cpu_started
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("client thread did not finish")
    if errors:
        raise errors[0]
    # Sample order must not depend on thread interleaving.
    out.sample.sort(key=lambda spec: spec.seed)
    return out


def cell_ms(jobs: Sequence[JobSample]) -> List[float]:
    """Host ms per executed cell: worker start → parent publish."""
    values = []
    for job in jobs:
        for event in job.events:
            if event.kind == sweepbus.CELL_FINISHED:
                begin = (event.get("resources") or {}).get("started_epoch_s")
                if begin is not None:
                    values.append((event.epoch_s - float(begin)) * 1000.0)
    return values


def worker_peak_rss_mb(jobs: Sequence[JobSample]) -> float:
    peak = 0
    for job in jobs:
        for event in job.events:
            if event.kind == sweepbus.CELL_FINISHED:
                peak = max(peak, int((event.get("resources") or {}).get("max_rss_kb", 0)))
    return peak / 1024.0


def duplicate_executions(jobs: Sequence[JobSample]) -> int:
    """run_ids started or finished more than once across all jobs."""
    started: Counter = Counter()
    finished: Counter = Counter()
    for job in jobs:
        for event in job.events:
            if event.kind == sweepbus.CELL_STARTED:
                started[event.run_id] += 1
            elif event.kind == sweepbus.CELL_FINISHED:
                finished[event.run_id] += 1
    return sum(
        1
        for run_id in set(started) | set(finished)
        if max(started[run_id], finished[run_id]) > 1
    )


def service_layer_metrics(load: LoadResult, harness: GatewayHarness) -> Dict[str, float]:
    """pool.* and service.* per-layer numbers from the job event streams."""
    jobs = load.jobs
    waits = []
    serialization = []
    efficiency = []
    retries = 0
    for job in jobs:
        scheduled = {
            e.run_id: e.epoch_s for e in job.events if e.kind == sweepbus.CELL_SCHEDULED
        }
        for event in job.events:
            if event.kind == sweepbus.CELL_FINISHED and event.run_id in scheduled:
                begin = (event.get("resources") or {}).get("started_epoch_s")
                if begin is not None:
                    waits.append((float(begin) - scheduled[event.run_id]) * 1000.0)
        cost = sweep_cost(job.events)
        retries += int(cost["retries"])
        if job.executed:
            if cost["serialization_s"] is not None:
                serialization.append(float(cost["serialization_s"]))
            if cost["parallel_efficiency"] is not None:
                efficiency.append(float(cost["parallel_efficiency"]))
    cells = sum(job.cells for job in jobs)
    cached = sum(job.cached - job.deduped for job in jobs)
    deduped = sum(job.deduped for job in jobs)
    executed = sum(job.executed for job in jobs)
    by_kind = {kind: [j.job_ms for j in jobs if j.kind == kind] for kind, _ in MIX}
    store = harness.scheduler.store if harness.scheduler is not None else None
    lookups = (store.hits + store.misses) if store is not None else 0
    return {
        "pool.warm_s": harness.warm_s,
        "pool.queue_wait_ms_p50": median(waits) if waits else 0.0,
        "pool.serialization_s": median(serialization) if serialization else 0.0,
        "pool.parallel_efficiency": median(efficiency) if efficiency else 0.0,
        "pool.retries": float(retries),
        "service.submit_ms_p50": median([j.submit_ms for j in jobs]),
        "service.cached_job_ms_p50": median(by_kind["repeat"]) if by_kind["repeat"] else 0.0,
        "service.cold_job_ms_p50": median(by_kind["fresh"]) if by_kind["fresh"] else 0.0,
        "service.fetch_ms_p50": median(load.fetch_ms) if load.fetch_ms else 0.0,
        "service.cache_hit_ratio": cached / cells if cells else 0.0,
        "service.dedupe_ratio": deduped / (deduped + executed) if deduped + executed else 0.0,
        "service.duplicate_executions": float(duplicate_executions(jobs)),
        "store.hit_ratio": store.hits / lookups if lookups else 0.0,
    }

