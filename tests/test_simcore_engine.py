"""Unit tests for the discrete-event engine."""

import pytest

from repro.simcore import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
)
from repro.simcore.engine import URGENT


@pytest.fixture
def env():
    return Environment()


class TestClockAndTimeout:
    def test_initial_time_is_zero(self, env):
        assert env.now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_timeout_advances_clock(self, env):
        def proc():
            yield env.timeout(10.0)
            return env.now

        p = env.process(proc())
        assert env.run(p) == 10.0

    def test_timeout_value_passthrough(self, env):
        def proc():
            got = yield env.timeout(1.0, value="payload")
            return got

        assert env.run(env.process(proc())) == "payload"

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_nan_timeout_rejected(self, env):
        # A NaN delay passes ``delay < 0``; on the calendar it would fire
        # out of order and drag the clock through NaN.
        for delay in (5, 1, 3, 2, 4):
            env.timeout(delay)
        with pytest.raises(ValueError):
            env.timeout(float("nan"))
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

        def proc(tag):
            yield env.timeout(0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_ordered_by_schedule_time(self, env):
        order = []

        def late():
            yield env.timeout(5)
            order.append("late")

        def early():
            yield env.timeout(5)
            order.append("early")

        env.process(early())
        env.process(late())
        env.run()
        assert order == ["early", "late"]


class TestEvents:
    def test_succeed_delivers_value(self, env):
        ev = env.event()

        def proc():
            value = yield ev
            return value

        p = env.process(proc())
        ev.succeed(99)
        assert env.run(p) == 99

    def test_double_succeed_raises(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_raises_inside_process(self, env):
        ev = env.event()

        def proc():
            try:
                yield ev
            except RuntimeError as exc:
                return f"caught {exc}"

        p = env.process(proc())
        ev.fail(RuntimeError("boom"))
        assert env.run(p) == "caught boom"

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_unhandled_failure_surfaces_from_run(self, env):
        ev = env.event()
        ev.fail(ValueError("lost"))
        with pytest.raises(ValueError, match="lost"):
            env.run()

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_yield_non_event_fails_process(self, env):
        def proc():
            yield 42

        p = env.process(proc())
        with pytest.raises(SimulationError):
            env.run(p)


class TestProcesses:
    def test_process_return_value(self, env):
        def proc():
            yield env.timeout(1)
            return "done"

        assert env.run(env.process(proc())) == "done"

    def test_process_joins_process(self, env):
        def child():
            yield env.timeout(3)
            return "child-result"

        def parent():
            result = yield env.process(child())
            return (env.now, result)

        assert env.run(env.process(parent())) == (3.0, "child-result")

    def test_is_alive_lifecycle(self, env):
        def proc():
            yield env.timeout(1)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_interrupt_wakes_waiting_process(self, env):
        def victim():
            try:
                yield env.timeout(100)
                return "finished"
            except Interrupt as intr:
                return ("interrupted", intr.cause, env.now)

        def attacker(target):
            yield env.timeout(10)
            target.interrupt("wake-up")

        v = env.process(victim())
        env.process(attacker(v))
        assert env.run(v) == ("interrupted", "wake-up", 10.0)

    def test_interrupt_finished_process_raises(self, env):
        def proc():
            yield env.timeout(1)

        p = env.process(proc())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_interrupted_process_can_continue(self, env):
        log = []

        def victim():
            while True:
                try:
                    yield env.timeout(100)
                    log.append("slept")
                    return
                except Interrupt:
                    log.append(f"intr@{env.now}")

        def attacker(target):
            yield env.timeout(5)
            target.interrupt()
            yield env.timeout(5)
            target.interrupt()

        v = env.process(victim())
        env.process(attacker(v))
        env.run()
        assert log == ["intr@5.0", "intr@10.0", "slept"]
        assert env.now == 110.0

    def test_exception_in_process_propagates(self, env):
        def proc():
            yield env.timeout(1)
            raise KeyError("inner")

        p = env.process(proc())
        with pytest.raises(KeyError):
            env.run(p)

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        def proc():
            t1 = env.timeout(5, value="a")
            t2 = env.timeout(10, value="b")
            yield AllOf(env, [t1, t2])
            return env.now

        assert env.run(env.process(proc())) == 10.0

    def test_any_of_fires_on_first(self, env):
        def proc():
            t1 = env.timeout(5, value="fast")
            t2 = env.timeout(10, value="slow")
            result = yield AnyOf(env, [t1, t2])
            return (env.now, t1 in result)

        assert env.run(env.process(proc())) == (5.0, True)

    def test_all_of_helper(self, env):
        def proc():
            yield env.all_of([env.timeout(1), env.timeout(2)])
            return env.now

        assert env.run(env.process(proc())) == 2.0

    def test_any_of_helper(self, env):
        def proc():
            yield env.any_of([env.timeout(1), env.timeout(2)])
            return env.now

        assert env.run(env.process(proc())) == 1.0

    def test_condition_value_mapping(self, env):
        def proc():
            t1 = env.timeout(1, value="x")
            t2 = env.timeout(1, value="y")
            result = yield env.all_of([t1, t2])
            return (result[t1], result[t2])

        assert env.run(env.process(proc())) == ("x", "y")


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
        # Queued behind a timeout, a NaN entry would be skipped by
        # ``run(until=...)`` without ever running its function.
        env.timeout(2.0)
        with pytest.raises(ValueError):
            env.call_at(float("nan"), lambda: None)


class TestPlainEntries:
    def test_call_later_runs_after_delay(self, env):
        seen = []
        env.call_later(2.5, lambda: seen.append(env.now))
        env.run()
        assert seen == [2.5]

    @pytest.mark.parametrize("delay", [float("nan"), -1.0])
    def test_call_later_rejects_bad_delay_as_timeout_does(self, env, delay):
        with pytest.raises(ValueError):
            env.timeout(delay)
        with pytest.raises(ValueError):
            env.call_later(delay, lambda: None)
        assert env.stats()["events_scheduled"] == 0

    def test_entry_time_matches_a_timeout_bit_for_bit(self):
        # now + delay, not call_at(now + delay): the two round differently.
        env = Environment(initial_time=0.1)
        fired = []
        env.call_later(0.2, lambda: fired.append(env.now))
        env.timeout(0.2).callbacks.append(lambda _event: fired.append(env.now))
        env.run()
        assert fired == [0.1 + 0.2, 0.1 + 0.2]

    def test_plain_entries_and_events_share_the_fifo_tie_break(self, env):
        order = []
        env.call_later(1.0, lambda: order.append("plain-1"))
        env.timeout(1.0).callbacks.append(lambda _event: order.append("event"))
        env.call_later(1.0, lambda: order.append("plain-2"))
        env.call_later(1.0, lambda: order.append("urgent"), URGENT)
        env.run()
        assert order == ["urgent", "plain-1", "event", "plain-2"]

    def test_start_counts_an_actor_as_a_process(self, env):
        from repro.simcore import Actor

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
        # The first step is urgent, as a process's first resume is: it
        # runs before a normal entry scheduled ahead of it.
        assert seen_by_earlier_entry == [1]
        stats = env.stats()
        assert stats["process_names"] == {"ticker": 1}
        assert stats["events_scheduled"] == stats["events_fired"] == 4


class TestRunSemantics:
    def test_run_until_event(self, env):
        ev = env.event()

        def proc():
            yield env.timeout(4)
            ev.succeed("sig")
            yield env.timeout(100)

        env.process(proc())
        assert env.run(until=ev) == "sig"
        assert env.now == 4.0

    def test_run_until_never_triggered_raises(self, env):
        ev = env.event()

        def proc():
            yield env.timeout(1)

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run(until=ev)

    def test_step_empty_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")


class TestStats:
    def test_counts_schedules_fires_depth_and_processes(self, env):
        def worker():
            yield env.timeout(1)
            yield env.timeout(1)

        env.process(worker(), name="w")
        env.process(worker(), name="w")
        env.process(worker(), name="other")
        env.timeout(10)
        env.run(until=5)
        stats = env.stats()
        # 3 Initialize + 6 worker timeouts + 3 process exits + 1 pending.
        assert stats["events_scheduled"] == 13
        assert stats["events_fired"] == 12
        # All three Initialize events plus the lone timeout were queued at once.
        assert stats["max_heap_depth"] == 4
        assert stats["processes_started"] == 3
        assert stats["process_names"] == {"other": 1, "w": 2}
