"""The service verbs: ``odr-sim serve / submit / status / fetch``.

``serve`` hosts the gateway in the foreground: one warm worker pool,
one result store (``--resume`` persists it under the ledger's
``cells/`` so a restarted server warm-starts from disk), one run
ledger, one asyncio accept loop.  The client verbs are thin wrappers
over :class:`~repro.service.client.ServiceClient`.  ``submit <verb>``
(``matrix`` / ``bench`` / ``chaos``) takes the local verb's plan
flags, builds the plan on the client with the local verb's own code,
and sends it as a ``cells`` payload, so the same command plans the
same cells here or on a gateway.  It can stay attached (``--watch``
streams the job's events into the live dashboard, ``--wait`` polls to
completion).  ``status`` lists jobs or shows one, and ``fetch`` pulls
a single cell's record by ``run_id``.

The parsers plug into the main ``odr-sim`` parser via
:func:`add_service_parsers`; dispatch routes back through
:func:`run_service_command`.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Tuple

from repro.obs.ledger import DEFAULT_LEDGER_DIR

if TYPE_CHECKING:
    from repro.experiments.plan import Plan

__all__ = ["add_connect_args", "add_service_parsers", "run_service_command"]

DEFAULT_PORT = 7433

#: Commands :func:`run_service_command` handles.
SERVICE_COMMANDS = ("serve", "submit", "status", "fetch")

#: A sweep verb's plan-flag registrar and its ``args → Plan`` builder.
SweepPlan = Tuple[
    Callable[[argparse.ArgumentParser], None],
    Callable[[argparse.Namespace], "Plan"],
]


def add_connect_args(
    sub: argparse.ArgumentParser,
    default: Optional[str] = f"127.0.0.1:{DEFAULT_PORT}",
    connect_help: str = "gateway address (default: %(default)s)",
) -> None:
    """The gateway address and dialing flags of every client verb."""
    sub.add_argument(
        "--connect", default=default, metavar="HOST:PORT", help=connect_help
    )
    sub.add_argument(
        "--connect-wait", type=float, default=5.0, metavar="S",
        help="keep dialing a not-yet-listening gateway for S seconds "
             "(default: %(default)s)",
    )
    sub.add_argument(
        "--retries", type=int, default=5, metavar="N",
        help="attempts per request, and stream reconnections, on "
             "retryable failures (default: %(default)s)",
    )


def add_service_parsers(
    sub: "argparse._SubParsersAction[Any]",
    sweep_plans: Mapping[str, SweepPlan],
) -> None:
    """Register the four service subcommands on the main parser.

    ``sweep_plans`` maps each sweep verb ``submit`` offers to the local
    verb's plan-flag registrar and ``args → Plan`` builder.
    """
    serve = sub.add_parser(
        "serve",
        help="host the sweep gateway: accept submit/status/fetch/watch "
             "from many clients over one warm worker pool",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help="bind port (0 picks an ephemeral one; default: %(default)s)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker processes in the shared pool (default: %(default)s)",
    )
    serve.add_argument(
        "--ledger", default=DEFAULT_LEDGER_DIR, help="run-ledger directory"
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="persist completed cells under the ledger directory's cells/ "
             "store and warm-start from whatever is already there",
    )
    serve.add_argument(
        "--events", action="store_true",
        help="also persist every job's sweep events to the ledger "
             "directory's events.jsonl",
    )
    serve.add_argument(
        "--cell-timeout", type=float, default=None, metavar="S",
        help="fail any cell whose result takes longer than S seconds",
    )
    serve.add_argument(
        "--max-jobs", type=int, default=4,
        help="jobs allowed to make progress concurrently (default: %(default)s)",
    )
    serve.add_argument(
        "--no-warm", action="store_true",
        help="skip the startup pool warmup (first job pays it instead)",
    )
    serve.add_argument(
        "--max-queued", type=int, default=64, metavar="N",
        help="admission bound: reject submits (BUSY, retry-after) beyond "
             "N non-terminal jobs (default: %(default)s)",
    )
    serve.add_argument(
        "--read-timeout", type=float, default=30.0, metavar="S",
        help="per-connection request-read deadline in seconds "
             "(default: %(default)s)",
    )

    submit = sub.add_parser(
        "submit",
        help="plan a sweep verb's cells and submit them to a running gateway",
    )
    verbs = submit.add_subparsers(dest="verb", required=True, metavar="VERB")
    for verb, (add_plan_args, plan_for) in sweep_plans.items():
        verb_parser = verbs.add_parser(
            verb, help=f"submit the cells `odr-sim {verb}` would run"
        )
        add_plan_args(verb_parser)
        add_connect_args(verb_parser)
        verb_parser.add_argument(
            "--label", default="", help="free-form job label (default: the verb)"
        )
        verb_parser.add_argument(
            "--wait", action="store_true",
            help="poll until the job finishes; exit non-zero if it failed",
        )
        verb_parser.add_argument(
            "--watch", action="store_true",
            help="stay attached and stream the job's events into the live "
                 "dashboard until its sweep ends (implies --wait)",
        )
        verb_parser.set_defaults(plan_for=plan_for)

    status = sub.add_parser(
        "status", help="list a gateway's jobs, or show one by id/prefix"
    )
    add_connect_args(status)
    status.add_argument(
        "job_id", nargs="?", default=None,
        help="job id or unique prefix (default: list all jobs)",
    )

    fetch = sub.add_parser(
        "fetch", help="fetch one cell's record from a gateway by run_id"
    )
    add_connect_args(fetch)
    fetch.add_argument("run_id", help="content-addressed cell run_id")
    fetch.add_argument(
        "-o", "--output", default=None,
        help="write the fetched JSON here (default: stdout)",
    )


def run_service_command(args: argparse.Namespace) -> int:
    """Dispatch one of :data:`SERVICE_COMMANDS`."""
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args)
    assert args.command == "fetch"
    return _cmd_fetch(args)


# -- serve -----------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    import contextlib
    import os
    import signal

    from repro.experiments.store import ResultStore
    from repro.obs.ledger import RunLedger
    from repro.obs.runmeta import git_revision
    from repro.obs.sweep import events_path_for
    from repro.service.gateway import ServiceGateway
    from repro.service.journal import JobJournal, journal_path_for
    from repro.service.scheduler import SweepScheduler

    ledger = RunLedger(args.ledger)
    persist_dir = None
    if args.resume:
        persist_dir = os.path.join(args.ledger, "cells")
    store = ResultStore(persist_dir)
    warm_cells = 0
    if persist_dir is not None and os.path.isdir(persist_dir):
        warm_cells = sum(
            1 for name in os.listdir(persist_dir) if name.endswith(".json")
        )
    scheduler = SweepScheduler(
        store,
        ledger=ledger,
        workers=args.workers,
        max_parallel_jobs=args.max_jobs,
        cell_timeout_s=args.cell_timeout,
        git_rev=git_revision(),
        events_path=events_path_for(args.ledger) if args.events else None,
        max_queued_jobs=args.max_queued,
        journal=JobJournal(journal_path_for(args.ledger)),
    )
    gateway = ServiceGateway(
        scheduler,
        host=args.host,
        port=args.port,
        read_timeout_s=args.read_timeout,
    )

    async def _serve() -> None:
        await gateway.start()
        loop = asyncio.get_running_loop()
        with contextlib.suppress(NotImplementedError, RuntimeError):
            # Graceful drain on SIGTERM: stop accepting, let running
            # jobs finish and journal their terminal states.
            loop.add_signal_handler(signal.SIGTERM, gateway.begin_shutdown)
        print(
            f"serve: listening on {gateway.host}:{gateway.port} "
            f"({args.workers} worker(s), {warm_cells} warm cell(s), "
            f"ledger at {ledger.path})",
            flush=True,
        )
        if args.resume:
            recovered = await loop.run_in_executor(
                None,
                scheduler.recover,
                lambda job_id, error: print(
                    f"serve: cannot recover {job_id}: {error}", flush=True
                ),
            )
            if recovered:
                print(
                    "serve: recovered "
                    + ", ".join(job.job_id for job in recovered)
                    + " from the job journal",
                    flush=True,
                )
        if not args.no_warm:
            # Warm off the event loop so the listener is live immediately.
            await loop.run_in_executor(None, scheduler.warm)
            print("serve: worker pool warm", flush=True)
        await gateway.serve_until_shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("serve: interrupted", flush=True)
    finally:
        scheduler.close()
    print("serve: shut down", flush=True)
    return 0


# -- client verbs ----------------------------------------------------------


def _client(args: argparse.Namespace) -> "Any":
    from repro.service.client import RetryPolicy, ServiceClient, parse_address

    host, port = parse_address(args.connect, default_port=DEFAULT_PORT)
    return ServiceClient(
        host=host,
        port=port,
        retry=RetryPolicy(attempts=max(1, args.retries)),
        connect_wait_s=args.connect_wait,
    )


def _describe_job(job: Dict[str, Any]) -> str:
    line = (
        f"{job.get('job_id', '?'):16s} {job.get('state', '?'):8s} "
        f"{job.get('label') or '-':10s} cells={job.get('cells', '?')}"
    )
    if "executed" in job:
        line += (
            f" executed={job['executed']} cached={job['cached']}"
            f" deduped={job.get('deduped', 0)} failed={job.get('failed', 0)}"
        )
    if job.get("error"):
        line += f"  error: {job['error']}"
    return line


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError
    from repro.service.protocol import plan_payload

    try:
        plan = args.plan_for(args)
    except ValueError as exc:
        print(f"submit {args.verb}: {exc}", file=sys.stderr)
        return 2
    client = _client(args)
    try:
        job = client.submit(plan_payload(plan), label=args.label or args.verb)
    except (OSError, ServiceError) as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 2
    job_id = str(job["job_id"])
    print(f"submitted {job_id}: {job.get('cells', '?')} cell(s) at {args.connect}")
    if args.watch:
        code = _stream_job(client, job_id)
        if code != 0:
            return code
    if args.watch or args.wait:
        job = client.wait(job_id)
        print(_describe_job(job))
        return 0 if job.get("state") == "done" else 1
    return 0


def _stream_job(client: "Any", job_id: str) -> int:
    """Stream one job's events into the live dashboard (used by
    ``submit --watch`` and ``watch --connect``)."""
    from repro.obs.dashboard import SweepDashboard
    from repro.service.client import ServiceError

    dashboard = SweepDashboard()
    try:
        for event in client.watch(job_id):
            dashboard.handle(event)
    except KeyboardInterrupt:
        print()
        return 0
    except (OSError, ServiceError) as exc:
        print(f"watch: {exc}", file=sys.stderr)
        return 2
    return 0


def watch_remote(args: argparse.Namespace) -> int:
    """``odr-sim watch --connect``: follow a server-side job's stream."""
    from repro.service.client import ServiceError

    client = _client(args)
    job_id = args.job
    try:
        if job_id is None:
            jobs = client.jobs()
            if not jobs:
                print(f"watch: no jobs at {args.connect}", file=sys.stderr)
                return 1
            job_id = str(jobs[-1]["job_id"])  # newest submission
    except (OSError, ServiceError) as exc:
        print(f"watch: {exc}", file=sys.stderr)
        return 2
    print(f"watch: streaming job {job_id} from {args.connect}")
    return _stream_job(client, job_id)


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    client = _client(args)
    try:
        if args.job_id is not None:
            job = client.status(args.job_id)["job"]
            print(_describe_job(job))
            return 0
        jobs = client.jobs()
    except (OSError, ServiceError) as exc:
        print(f"status: {exc}", file=sys.stderr)
        return 2
    if not jobs:
        print(f"status: no jobs at {args.connect}")
        return 0
    for job in jobs:
        print(_describe_job(job))
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    client = _client(args)
    try:
        payload = client.fetch(args.run_id)
    except (OSError, ServiceError) as exc:
        print(f"fetch: {exc}", file=sys.stderr)
        return 2
    body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(body)
        print(
            f"fetch: wrote {args.run_id} "
            f"(digest {payload.get('metrics_digest')}) to {args.output}"
        )
    else:
        sys.stdout.write(body)
    return 0
