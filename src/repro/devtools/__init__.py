"""Developer tooling guarding the repository's reproducibility contract.

Two complementary halves:

:mod:`repro.devtools.analyzer`
    Static analysis — the whole-program analyzer: raw clocks and
    entropy, set iteration, module state, timestamp equality,
    cache-key and schema drift, fork safety.

:mod:`repro.devtools.determinism`
    Runtime verification — run a small scenario twice under the same
    seed, SHA-256 the full event schedule + frame spans, and fail on
    divergence.

Both are wired into the CLI (``odr-sim analyze``,
``odr-sim verify-determinism``) and CI; see docs/STATIC_ANALYSIS.md.
"""

from repro.devtools.determinism import (
    DeterminismReport,
    RunFingerprint,
    ScheduleRecorder,
    fingerprint_run,
    verify_determinism,
)

__all__ = [
    "DeterminismReport",
    "RunFingerprint",
    "ScheduleRecorder",
    "fingerprint_run",
    "verify_determinism",
]
