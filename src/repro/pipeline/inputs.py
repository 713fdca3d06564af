"""User-input generation and the client→cloud input path.

The paper's PriorityFrame rests on an input-sparsity observation: a
normal user produces fewer than 250 actions per minute, so there are at
most ~5 *discrete* input-triggered frames per second (Sec. 5.3).  Mice
and VR headsets additionally *poll* position/posture at very high rates,
but all the paper's benchmarks combine pending polling events so only
the latest pose is rendered — so polling events are neither prioritized
nor part of MtP measurement.

:class:`InputGenerator` produces a Poisson stream of discrete actions
(and, optionally, a deterministic polling stream for realism tests),
registers actions with the MtP tracker, and delivers each event to the
server after the platform's uplink latency.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.metrics import MtpLatencyTracker
from repro.simcore import Actor, Environment, SeededRng

__all__ = ["InputEvent", "InputGenerator", "InputKind"]


class InputKind(enum.Enum):
    """Discrete actions vs high-frequency position polling."""

    ACTION = "action"
    POLL = "poll"


@dataclass(frozen=True)
class InputEvent:
    """One user input as issued at the client."""

    input_id: int
    kind: InputKind
    t_issued: float

    @property
    def is_action(self) -> bool:
        return self.kind is InputKind.ACTION


class InputGenerator:
    """Client-side input source feeding the cloud over the uplink.

    Parameters
    ----------
    env, rng:
        Simulation environment and a dedicated random stream.
    actions_per_second:
        Mean rate of the Poisson action process.
    uplink_ms:
        One-way client→cloud latency applied to every event.
    deliver:
        Called at the *server* side when an event arrives (the server
        proxy forwarding the input to the 3D app — paper step 2).
    tracker:
        MtP tracker; discrete actions are registered at issue time.
    poll_hz:
        Optional high-frequency polling stream (0 disables it; the
        benchmarks' input combining makes polling irrelevant to both
        FPS and MtP, so the default keeps the event count down).
    """

    def __init__(
        self,
        env: Environment,
        rng: SeededRng,
        actions_per_second: float,
        uplink_ms: float,
        deliver: Callable[[InputEvent], None],
        tracker: Optional[MtpLatencyTracker] = None,
        poll_hz: float = 0.0,
    ):
        if actions_per_second < 0 or poll_hz < 0:
            raise ValueError("rates must be non-negative")
        if uplink_ms < 0:
            raise ValueError("uplink latency must be non-negative")
        self.env = env
        self.actions_per_second = actions_per_second
        self.uplink_ms = uplink_ms
        self._deliver = deliver
        self._tracker = tracker
        self.poll_hz = poll_hz
        self._ids = itertools.count(1)
        self.issued_actions = 0
        if actions_per_second > 0:
            gaps = rng.poisson_interarrivals(actions_per_second / 1000.0)
            _InputStream(self, InputKind.ACTION, gaps, "input-actions")
        if poll_hz > 0:
            _InputStream(self, InputKind.POLL, itertools.repeat(1000.0 / poll_hz), "input-polling")

    def _issue(self, kind: InputKind) -> None:
        event = InputEvent(next(self._ids), kind, self.env.now)
        if event.is_action:
            self.issued_actions += 1
            if self._tracker is not None:
                self._tracker.input_issued(event.input_id, event.t_issued)
        # Arrives at the server proxy one uplink later (paper steps 1-2).
        self.env.call_at(self.env.now + self.uplink_ms, lambda e=event: self._deliver(e))


class _InputStream(Actor):
    """One input stream: waits its next gap, issues an input, repeats.

    Each gap is drawn from ``gaps`` in the step that waits it.
    """

    def __init__(
        self, source: InputGenerator, kind: InputKind, gaps: Iterator[float], name: str
    ) -> None:
        self.env = source.env
        self.name = name
        self._source = source
        self._kind = kind
        self._gaps = gaps
        self.env.start(self, self._wait)

    def _wait(self) -> None:
        self.env.call_later(next(self._gaps), self._issue)

    def _issue(self) -> None:
        self._source._issue(self._kind)
        self._wait()
