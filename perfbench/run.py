"""Layered, repeatable benchmark of the odr-sim reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that reports the per-layer metrics and writes its spans as
a Chrome trace under ``.perfbench_out/``.  Human-readable lines (host
fingerprint, every metric with its unit, ``failed_frac``, the records
digest) come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is pure Python and runs from ``src/``; without it the
benchmark exits non-zero and prints no result.  See ``RATIONALE.md``.
"""

from __future__ import annotations

import argparse
import faulthandler
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Closed-loop client threads of gateway-mixed.
CLIENTS = 2
#: A run that has not finished by then dumps its stacks and exits non-zero.
WATCHDOG_S = 170.0


def host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def source_digest() -> str:
    """SHA-256 over the program's sources: identifies the measured code
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for folder, dirs, files in os.walk(package):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, package).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def parse_args(argv: List[str], workload_names: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    # Metric names and units are declared once, in BENCHMARK.json.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declaration = json.load(handle)
    args = parse_args(argv, [w["name"] for w in declaration["workloads"]])
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    sys.path.insert(0, SRC)
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)

    import workloads
    from repro.obs.runmeta import git_revision

    cpus = host_cpus()
    # Untraced sweep-cold starts no gateway; its traced run and
    # gateway-mixed do.  The CPU-bound parties are then the workers and
    # this process, which hosts the gateway's event loop, the scheduler's
    # job threads and the client threads.  The clients block on the
    # socket for nearly all of a job (``client_cpu_frac`` in the notes),
    # so they share this process's core.
    gateway = args.workload == "gateway-mixed" or traced
    workers = max(1, cpus - 1) if gateway else 0
    clients = CLIENTS if args.workload == "gateway-mixed" else int(gateway)
    if gateway and workers + 1 > cpus:
        print(
            f"perfbench: refused: {workers} worker(s) plus the benchmark process and its "
            f"{clients} client thread(s) oversubscribe {cpus} CPU(s); timings would "
            "measure contention",
            file=sys.stderr,
        )
        return 3
    git_rev = git_revision(ROOT) or "none"
    print(
        "host: "
        + json.dumps(
            {
                "nproc": cpus,
                "python": platform.python_version(),
                "platform": platform.platform(),
                "git_rev": git_rev,
                "source_digest": source_digest(),
                "workers": workers,
                "client_threads": clients,
            },
            sort_keys=True,
        )
    )
    scratch = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(scratch, str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    # The worker pool's multiprocessing manager makes a socket directory
    # under the temp dir; keep it in the checkout too, unless the socket
    # path ("<dir>/pymp-XXXXXXXX/listener-XXXXXXXX") would pass the
    # 108-byte AF_UNIX limit.
    if len(scratch) + 40 < 100:
        tempfile.tempdir = scratch
    ctx = workloads.Context(
        work=work,
        seed=args.seed,
        seconds=args.seconds,
        workers=workers,
        clients=clients,
        git_rev=git_rev,
    )
    started = time.perf_counter()
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # still in use, by this run's manager directory or another run
    elapsed = time.perf_counter() - started

    declared = declaration["per_layer" if traced else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in outcome.metrics]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 4
    metrics: Dict[str, Dict[str, object]] = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = outcome.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric {args.workload} {name} = {value:.6g} {unit}")
    attempted = max(1, outcome.attempted)
    print(f"metric {args.workload} failed_frac = {outcome.failed / attempted:.6g} ratio")
    print(f"records_digest {args.workload} seed={args.seed} {outcome.digest}")
    tracer = outcome.notes.pop("tracer", None)
    if tracer is not None:
        path = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-seed{args.seed}.trace.json")
        tracer.write_chrome(path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    print("notes: " + json.dumps(outcome.notes, sort_keys=True, default=str))
    for error in outcome.errors[:20]:
        print(f"check failed: {error}")
    print(f"elapsed_s: {elapsed:.1f}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    faulthandler.cancel_dump_traceback_later()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
