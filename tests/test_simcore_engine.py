"""Unit tests for the discrete-event engine."""

import pytest

from repro.simcore import Actor, Environment, SimulationError
from repro.simcore.engine import URGENT


@pytest.fixture
def env():
    return Environment()


class _Worker(Actor):
    """Two one-unit steps after its start, under a given name."""

    def __init__(self, env, name):
        self.env = env
        self.name = name
        self.steps = 0
        env.start(self, self._step)

    def _step(self):
        if self.steps < 2:
            self.steps += 1
            self.env.call_later(1, self._step)


class TestClockAndTimeout:
    def test_initial_time_is_zero(self, env):
        assert env.now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_timeout_advances_clock(self, env):
        seen = []
        env.call_later(10.0, lambda: seen.append(env.now))
        env.run()
        assert seen == [10.0]
        assert env.now == 10.0

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(ValueError):
            env.call_later(-1.0, lambda: None)

    def test_nan_timeout_rejected(self, env):
        # A NaN delay passes ``delay < 0``; on the calendar it would fire
        # out of order and drag the clock through NaN.
        for delay in (5, 1, 3, 2, 4):
            env.call_later(delay, lambda: None)
        with pytest.raises(ValueError):
            env.call_later(float("nan"), lambda: None)
        times = []
        while env.peek() != float("inf"):
            env.step()
            times.append(env.now)
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_run_until_number_advances_clock_exactly(self, env):
        env.run(until=42.5)
        assert env.now == 42.5

    def test_run_until_past_raises(self, env):
        env.run(until=10)
        with pytest.raises(ValueError):
            env.run(until=5)
        with pytest.raises(ValueError):
            env.run(until=float("nan"))
        assert env.now == 10.0

    def test_zero_delay_events_fire_in_fifo_order(self, env):
        order = []
        for tag in ("a", "b", "c"):
            env.call_later(0, lambda tag=tag: order.append(tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_ordered_by_schedule_time(self, env):
        order = []
        env.call_later(2, lambda: env.call_later(3, lambda: order.append("late")))
        env.call_later(5, lambda: order.append("early"))
        env.call_at(5, lambda: order.append("later"))
        env.run()
        assert order == ["early", "later", "late"]


class TestEvents:
    def test_unhandled_failure_surfaces_from_run(self, env):
        def fail():
            raise ValueError("lost")

        after = []
        env.call_later(1, fail)
        env.call_later(2, lambda: after.append(env.now))
        with pytest.raises(ValueError, match="lost"):
            env.run()
        # The failing entry left the calendar; the clock stopped at it.
        assert env.now == 1.0
        assert after == []
        assert env.stats()["events_fired"] == 1


class TestProcesses:
    def test_exception_in_process_propagates(self, env):
        class Failing(Actor):
            def __init__(self):
                env.start(self, self.wait)

            def wait(self):
                env.call_later(1, self.fail)

            def fail(self):
                raise KeyError("inner")

        Failing()
        env.step()  # the first step schedules the failing one
        with pytest.raises(KeyError):
            env.step()
        assert env.now == 1.0


class TestCallAt:
    def test_call_at_runs_function(self, env):
        seen = []
        env.call_at(7.0, lambda: seen.append(env.now))
        env.run()
        assert seen == [7.0]

    def test_call_at_past_raises(self, env):
        env.run(until=10)
        with pytest.raises(ValueError):
            env.call_at(5.0, lambda: None)

    def test_call_at_nan_raises(self, env):
        # Queued behind another entry, a NaN entry would be skipped by
        # ``run(until=...)`` without ever running its function.
        env.call_later(2.0, lambda: None)
        with pytest.raises(ValueError):
            env.call_at(float("nan"), lambda: None)


class TestPlainEntries:
    def test_call_later_runs_after_delay(self, env):
        seen = []
        env.call_later(2.5, lambda: seen.append(env.now))
        env.run()
        assert seen == [2.5]

    @pytest.mark.parametrize("delay", [float("nan"), -1.0])
    def test_call_later_rejects_bad_delay(self, env, delay):
        with pytest.raises(ValueError):
            env.call_later(delay, lambda: None)
        assert env.stats()["events_scheduled"] == 0

    def test_entry_time_is_now_plus_delay(self):
        # now + delay, not call_at(now + delay): the two round differently.
        env = Environment(initial_time=0.1)
        fired = []
        env.call_later(0.2, lambda: fired.append(env.now))
        env.run()
        assert fired == [0.1 + 0.2]

    def test_urgent_entries_fire_first_then_fifo(self, env):
        order = []
        env.call_later(1.0, lambda: order.append("normal-1"))
        env.call_later(1.0, lambda: order.append("normal-2"))
        env.call_later(1.0, lambda: order.append("urgent-1"), URGENT)
        env.call_later(1.0, lambda: order.append("normal-3"))
        env.call_later(1.0, lambda: order.append("urgent-2"), URGENT)
        env.run()
        assert order == ["urgent-1", "urgent-2", "normal-1", "normal-2", "normal-3"]

    def test_start_counts_an_actor_as_a_process(self, env):
        class Ticker(Actor):
            name = "ticker"

            def __init__(self):
                self.ticks = []
                env.start(self, self.tick)

            def tick(self):
                self.ticks.append(env.now)
                if len(self.ticks) < 3:
                    env.call_later(1.0, self.tick)

        seen_by_earlier_entry = []
        env.call_later(0.0, lambda: seen_by_earlier_entry.append(len(ticker.ticks)))
        ticker = Ticker()
        env.run()
        assert ticker.ticks == [0.0, 1.0, 2.0]
        # The first step is urgent: it runs before a normal entry
        # scheduled ahead of it.
        assert seen_by_earlier_entry == [1]
        stats = env.stats()
        assert stats["process_names"] == {"ticker": 1}
        assert stats["events_scheduled"] == stats["events_fired"] == 4


class TestRunSemantics:
    def test_step_empty_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")


class TestStats:
    def test_counts_schedules_fires_depth_and_processes(self, env):
        _Worker(env, "w")
        _Worker(env, "w")
        _Worker(env, "other")
        env.call_later(10, lambda: None)
        env.run(until=5)
        stats = env.stats()
        # 3 first steps + 6 one-unit steps + 1 pending.
        assert stats["events_scheduled"] == 10
        assert stats["events_fired"] == 9
        # All three first steps plus the lone far entry were queued at once.
        assert stats["max_heap_depth"] == 4
        assert stats["processes_started"] == 3
        assert stats["process_names"] == {"other": 1, "w": 2}
