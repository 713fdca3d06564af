"""Engine probe-branch guard: a run without a probe must stay within 5%.

Telemetry is read from the finished run, so the only observability code
on the simulation's path is the engine's probe branches.  Two
complementary checks:

* a pytest-benchmark case timing the standard 20 s run with telemetry
  disabled (the configuration every experiment uses by default), kept
  for ``--benchmark-compare`` workflows across revisions;
* a self-contained A/B guard comparing the current engine (probe hooks
  compiled in, ``probe=None``) against a baseline environment whose
  ``schedule``/``call_later``/``step``/``run``/``process``/``start``
  replicate the engine's bodies — its own statistics, both entry kinds
  (events and plain entries) and ``run``'s inline pop-and-dispatch loop
  included — with no probe branch at all.  This is the acceptance gate:
  the probe branches on the disabled path must cost <5%, judged on the
  median of many interleaved A/B pairs so one slow stretch of a shared
  host cannot decide it.
"""

import heapq
import time

from repro.pipeline import CloudSystem, SystemConfig
from repro.regulators import make_regulator
from repro.simcore import Actor, Environment
from repro.simcore.engine import NORMAL, URGENT
from repro.workloads import PLATFORMS, Resolution

OVERHEAD_LIMIT = 1.05


def standard_config(duration_ms=20_000.0):
    return SystemConfig(
        benchmark="IM",
        platform=PLATFORMS["private"],
        resolution=Resolution("720p"),
        seed=7,
        duration_ms=duration_ms,
        warmup_ms=2_000.0,
    )


def run_disabled():
    return CloudSystem(standard_config(), make_regulator("ODR60")).run()


class BaselineEnvironment(Environment):
    """The engine's hot path without probe branches: call_later/step/
    run/start keep the environment's own statistics but never test for
    a probe."""

    def call_later(self, delay, func, priority=NORMAL):
        if not delay >= 0:
            raise ValueError(f"invalid delay {delay!r}")
        self._eid += 1
        queue = self._queue
        heapq.heappush(queue, (self.now + delay, priority, self._eid, func))
        depth = len(queue)
        if depth > self._peak_depth:
            self._peak_depth = depth

    def step(self):
        queue = self._queue
        if not queue:
            raise RuntimeError("no more events")
        self.now, _, _, entry = heapq.heappop(queue)
        entry()

    def run(self, until=None):
        # Environment.run's inline loop.
        horizon = float("inf") if until is None else float(until)
        queue = self._queue
        pop = heapq.heappop
        while queue and queue[0][0] <= horizon:
            now, _, _, entry = pop(queue)
            self.now = now
            entry()
        if until is not None:
            self.now = horizon

    def start(self, actor, first):
        self.call_later(0.0, first, URGENT)
        names = self._process_names
        names[actor.name] = names.get(actor.name, 0) + 1


class Ticker(Actor):
    """One entry per step, every 0.25 time units, ``events`` times."""

    name = "ticker"

    def __init__(self, env, events):
        self.env = env
        self.left = events
        env.start(self, self.tick)

    def tick(self):
        if self.left:
            self.left -= 1
            self.env.call_later(0.25, self.tick)


def drive(env_cls, events=20_000):
    # Two interleaved actors, so the calendar holds more than one entry.
    env = env_cls()
    Ticker(env, events // 2)
    Ticker(env, events // 2)
    start = time.perf_counter()  # analyzer: allow=P1 -- benchmark harness times the host run on purpose
    env.run()
    return time.perf_counter() - start  # analyzer: allow=P1 -- benchmark harness times the host run on purpose


def paired_ratios(baseline_fn, current_fn, pairs=61):
    """``current / baseline`` for each of ``pairs`` back-to-back A/B pairs.

    The side that runs first alternates from pair to pair, so neither
    side always runs in the other's wake, and a host speed change hits
    one pair instead of a whole block of one side's runs.
    """
    ratios = []
    for index in range(pairs):
        if index % 2:
            current = current_fn()
            baseline = baseline_fn()
        else:
            baseline = baseline_fn()
            current = current_fn()
        ratios.append(current / baseline)
    return ratios


def test_standard_run_benchmark_telemetry_disabled(benchmark):
    result = benchmark.pedantic(run_disabled, rounds=3, warmup_rounds=1)
    assert result.client_fps > 0


def test_disabled_probe_overhead_under_five_percent():
    # Paired timings on an event-churn microbenchmark, which maximizes
    # the relative weight of the schedule/run hot path (a full pipeline
    # run would only dilute any regression).  The gate is the median
    # paired ratio: a noisy pair moves it by one rank at most.
    drive(Environment, events=5_000)  # warm both paths
    drive(BaselineEnvironment, events=5_000)
    ratios = sorted(paired_ratios(lambda: drive(BaselineEnvironment), lambda: drive(Environment)))
    ratio = ratios[len(ratios) // 2]
    assert ratio < OVERHEAD_LIMIT, (
        f"disabled-telemetry engine is {ratio:.3f}x the pre-telemetry "
        f"baseline (median of {len(ratios)} pairs, limit {OVERHEAD_LIMIT}x); "
        f"pair ratios {[round(r, 3) for r in ratios]}"
    )


def test_disabled_pipeline_run_matches_baseline_results():
    # Telemetry-off runs must be numerically identical to the seed
    # behaviour.
    a = run_disabled()
    b = CloudSystem(standard_config(), make_regulator("ODR60")).run()
    assert a.client_fps == b.client_fps
    assert a.render_fps == b.render_fps
