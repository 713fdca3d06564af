"""User-experience study surrogate (paper Sec. 6.7, Figs. 14-15).

The paper's 30-participant IRB study cannot be reproduced without
humans; this module substitutes a **QoE rating model** in the spirit of
published cloud-gaming QoE models (the paper itself cites Slivar et
al. and Zadtootaghaj et al. for FPS/bitrate-driven QoE): each simulated
participant plays one randomly-assigned benchmark at 1080p on GCE under
every configuration (plus a local NonCloud execution) and produces

* a 1-10 **rating** driven by client FPS, MtP latency, stutter
  (windowed FPS drops), and tearing (unregulated frame delivery), with
  per-participant sensitivity noise; and
* yes/maybe/no **reports** for lag, stutter, and tearing, thresholded
  against per-participant tolerances.

The model's coefficients are chosen so the *shape* of Figs. 14-15 holds
(ODRMax ≈ NonCloud ≫ NoReg; ODR ahead of Int/RVS at both QoS goals);
absolute ratings are surrogate values, not human data.

Like the figures, the study plans its cells first
(:meth:`UserStudy.demands`) and reads them back from the executed
plan's :class:`~repro.experiments.runner.PlanRecords` view
(:meth:`UserStudy.run`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.config import ExperimentConfig, PlatformRes
from repro.experiments.plan import Plan
from repro.experiments.report import format_table
from repro.experiments.record import ExperimentRecord
from repro.experiments.runner import PlanRecords, Runner
from repro.metrics.stats import mean
from repro.simcore import SeededRng
from repro.workloads import BENCHMARKS, GCE, Resolution
from repro.workloads.platforms import LOCAL_MACHINE

__all__ = ["UserStudy", "SessionFeatures"]

#: Study configurations in Fig. 14's order.  NonCloud is synthesized on
#: the LOCAL_MACHINE platform under NoReg (local free-running rendering
#: with a 60 Hz display).
STUDY_SPECS = [
    "NonCloud",
    "NoReg",
    "IntMax",
    "RVSMax",
    "ODRMax",
    "Int30",
    "RVS30",
    "ODR30",
]


@dataclass(frozen=True)
class SessionFeatures:
    """QoE-relevant features extracted from one simulated session."""

    client_fps: float
    mtp_ms: float
    #: Fraction of 200 ms windows whose FPS fell below 2/3 of the mean.
    stutter_frac: float
    #: Tearing proxy: unregulated delivery ratio (cloud frames arriving
    #: faster than the display can coherently present them).
    tear_score: float


def extract_features(
    record: ExperimentRecord,
    refresh_hz: float = 60.0,
    display_synced: bool = False,
) -> SessionFeatures:
    """Compute the QoE feature vector from an experiment record.

    ``display_synced`` marks a locally-composited session (the NonCloud
    baseline): the compositor caps the visible rate at the refresh rate
    and eliminates tearing.
    """
    box = record.client_fps_box
    fps = record.client_fps
    # Stutter: how far the 25th-percentile window falls below the mean
    # delivery rate (sustained dips, not single-window noise).
    stutter = max(0.0, 1.0 - (box.p25 / fps)) if fps > 0 else 1.0
    if display_synced:
        # A locally-composited session: the compositor caps the visible
        # rate at the refresh rate and eliminates tearing.
        return SessionFeatures(
            client_fps=min(fps, refresh_hz),
            mtp_ms=record.mtp_mean_ms if record.mtp_mean_ms is not None else 0.0,
            stutter_frac=stutter,
            tear_score=0.0,
        )
    # Tearing artifacts scale with how much the cloud over-delivers
    # relative to what the client can coherently present: an unsynced
    # client draw always tears occasionally (the 0.12 floor), and the
    # excess-rendering gap multiplies the exposure.
    tear = min(1.0, 0.12 + max(0.0, record.fps_gap_mean - 3.0) / 72.0)
    return SessionFeatures(
        client_fps=fps,
        mtp_ms=record.mtp_mean_ms if record.mtp_mean_ms is not None else 0.0,
        stutter_frac=stutter,
        tear_score=tear,
    )


@dataclass
class Participant:
    """One simulated study participant with personal tolerances."""

    pid: int
    benchmark: str
    #: Latency above which the participant starts perceiving lag (ms).
    lag_threshold_ms: float
    #: Stutter fraction above which stutter is perceived.
    stutter_threshold: float
    #: Tearing score above which tearing is perceived.
    tear_threshold: float
    #: Personal rating offset.
    bias: float


class UserStudy:
    """The 30-participant study surrogate."""

    N_PARTICIPANTS = 30

    #: Rating model coefficients (see module docstring).
    BASE_RATING = 8.8
    LATENCY_KNEE_MS = 100.0
    LATENCY_PENALTY_PER_100MS = 1.15
    FPS_KNEE = 40.0
    FPS_PENALTY_PER_10FPS = 0.8
    STUTTER_PENALTY = 3.0
    TEAR_PENALTY = 2.2

    def __init__(self, seed: int = 7):
        self.rng = SeededRng(seed, name="userstudy")
        self.combo = PlatformRes(GCE, Resolution.R1080P)
        self.local_combo = PlatformRes(LOCAL_MACHINE, Resolution.R1080P)
        self.participants = [self._make_participant(i) for i in range(self.N_PARTICIPANTS)]

    def _make_participant(self, pid: int) -> Participant:
        rng = self.rng.child("participant", pid)
        return Participant(
            pid=pid,
            benchmark=str(rng.choice(sorted(BENCHMARKS))),
            lag_threshold_ms=rng.lognormal_mean_cv(200.0, 0.35),
            stutter_threshold=rng.lognormal_mean_cv(0.25, 0.4),
            tear_threshold=rng.lognormal_mean_cv(0.35, 0.4),
            bias=rng.normal(0.0, 0.55),
        )

    # -- session cells ----------------------------------------------------------

    def _config(self, spec: str) -> ExperimentConfig:
        if spec == "NonCloud":
            return ExperimentConfig(self.local_combo, "NoReg")
        return ExperimentConfig(self.combo, spec)

    def demands(self, runner: Runner) -> Plan:
        """Every cell :meth:`run` reads: participants' benchmarks × ``STUDY_SPECS``."""
        return Plan(
            runner.spec_for(participant.benchmark, self._config(spec))
            for participant in self.participants
            for spec in STUDY_SPECS
        )

    def rate(
        self, participant: Participant, spec_index: int, features: SessionFeatures
    ) -> float:
        """The participant's 1-10 rating for their session under
        ``STUDY_SPECS[spec_index]``.

        The rating noise is keyed by participant and session, so a
        session rates the same however often, and in whatever order,
        the study runs.
        """
        rating = self.BASE_RATING + participant.bias
        # Latency annoyance saturates: going from 1 s to 2 s is bad, but
        # not as bad as going from 60 ms to 1 s (log-scale penalty).
        lat_over = max(0.0, features.mtp_ms - self.LATENCY_KNEE_MS)
        rating -= self.LATENCY_PENALTY_PER_100MS * math.log2(1.0 + lat_over / 100.0)
        fps_short = max(0.0, self.FPS_KNEE - features.client_fps)
        rating -= self.FPS_PENALTY_PER_10FPS * fps_short / 10.0
        rating -= self.STUTTER_PENALTY * features.stutter_frac
        rating -= self.TEAR_PENALTY * features.tear_score
        session = participant.pid * len(STUDY_SPECS) + spec_index + 1
        noise = self.rng.child("noise", participant.pid, session).normal(0.0, 0.3)
        return max(1.0, min(10.0, rating + noise))

    def reports(self, participant: Participant, features: SessionFeatures) -> Dict[str, str]:
        """Yes / Maybe / No answers for lag, stutter, and tearing."""

        def verdict(value: float, threshold: float) -> str:
            if value > threshold:
                return "yes"
            if value > 0.6 * threshold:
                return "maybe"
            return "no"

        return {
            "lag": verdict(features.mtp_ms, participant.lag_threshold_ms),
            "stutter": verdict(features.stutter_frac, participant.stutter_threshold),
            "tearing": verdict(features.tear_score, participant.tear_threshold),
        }

    # -- study-level results ----------------------------------------------------

    def run(self, records: PlanRecords) -> Dict[str, object]:
        """Run the full study over the records of :meth:`demands`.

        Returns Fig. 14 + Fig. 15 data and text.
        """
        ratings: Dict[str, List[float]] = {spec: [] for spec in STUDY_SPECS}
        counts: Dict[str, Dict[str, Dict[str, int]]] = {
            spec: {q: {"yes": 0, "maybe": 0, "no": 0} for q in ("lag", "stutter", "tearing")}
            for spec in STUDY_SPECS
        }
        for participant in self.participants:
            for spec_index, spec in enumerate(STUDY_SPECS):
                record = records.get(participant.benchmark, self._config(spec))
                features = extract_features(record, display_synced=(spec == "NonCloud"))
                ratings[spec].append(self.rate(participant, spec_index, features))
                for question, answer in self.reports(participant, features).items():
                    counts[spec][question][answer] += 1

        avg_ratings = {spec: mean(values) for spec, values in ratings.items()}
        fig14_text = format_table(
            ["config", "avg rating (1-10)"],
            [[spec, avg_ratings[spec]] for spec in STUDY_SPECS],
            title="Figure 14: Average user ratings (surrogate QoE model)",
        )
        rows = []
        for spec in STUDY_SPECS:
            for question in ("lag", "stutter", "tearing"):
                c = counts[spec][question]
                rows.append([spec, question, c["yes"], c["maybe"], c["no"]])
        fig15_text = format_table(
            ["config", "question", "yes", "maybe", "no"],
            rows,
            title="Figure 15: Participants reporting lag/stutter/tearing",
        )
        return {
            "ratings": avg_ratings,
            "rating_samples": ratings,
            "reports": counts,
            "fig14_text": fig14_text,
            "fig15_text": fig15_text,
        }
