"""Simulation-as-a-service: the async sweep gateway.

The repo's plan → execute → store core, served: a long-lived process
(``odr-sim serve``) owns one warm worker pool, one result store, and
one run ledger, and accepts sweep requests from many concurrent
clients over a newline-delimited-JSON TCP protocol.  Overlapping
submissions are deduplicated *in flight* by content-addressed
``run_id`` — each unique cell executes exactly once, every requester
sees the identical bits — and each job's sweep events stream to any
number of watchers (``odr-sim watch --connect``).

Layering (network-facing down to the shared experiment core):

* :mod:`repro.service.gateway` — asyncio TCP server, NDJSON frames,
  read deadlines, structured error frames, graceful SIGTERM drain;
* :mod:`repro.service.client` — the synchronous reference client:
  seeded retry with backoff, idempotent resubmit, reconnecting watch;
* :mod:`repro.service.protocol` — frames, plan payloads, versioning;
* :mod:`repro.service.errors` — the typed failure taxonomy
  (:class:`TransportError` / :class:`ProtocolError` /
  :class:`ServerBusy` / :class:`JobLost`) shared by both ends;
* :mod:`repro.service.scheduler` — jobs → the sweep loop the CLI
  shares (:mod:`repro.experiments.scheduling`), admission control, and
  journaled recovery;
* :mod:`repro.service.journal` — the append-only job journal behind
  ``serve --resume`` crash recovery;
* :mod:`repro.service.jobs` — the job layer over
  :class:`~repro.experiments.plan.Plan`.

Service-plane chaos (the seeded transport that makes this layer's own
wire misbehave deterministically) lives in :mod:`repro.faults.service`.

See ``docs/SERVICE.md`` for the protocol and lifecycle reference and
``docs/ROBUSTNESS.md`` for the failure-mode matrix.
"""

from repro.service.client import (
    RetryPolicy,
    ServiceClient,
    ServiceError,
    parse_address,
)
from repro.service.errors import (
    JobLost,
    ProtocolError,
    ServerBusy,
    TransportError,
    error_for_code,
)
from repro.service.gateway import ServiceGateway
from repro.service.jobs import Job, JobSpec, JobState
from repro.service.journal import JobJournal, journal_path_for
from repro.service.protocol import PROTOCOL_VERSION, build_plan, plan_payload
from repro.service.scheduler import Subscription, SweepScheduler

__all__ = [
    "Job",
    "JobJournal",
    "JobLost",
    "JobSpec",
    "JobState",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RetryPolicy",
    "ServerBusy",
    "ServiceClient",
    "ServiceError",
    "ServiceGateway",
    "Subscription",
    "SweepScheduler",
    "TransportError",
    "build_plan",
    "error_for_code",
    "journal_path_for",
    "parse_address",
    "plan_payload",
]
