"""Edge-case tests for simcore paths not covered by the basic suites."""

import pytest

from repro.simcore import (
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
)
from repro.simcore.engine import ConditionValue


@pytest.fixture
def env():
    return Environment()


class TestConditionEdges:
    def test_any_of_empty_fires_immediately(self, env):
        def proc():
            yield AnyOf(env, [])
            return env.now

        assert env.run(env.process(proc())) == 0.0

    def test_all_of_empty_fires_immediately(self, env):
        def proc():
            yield env.all_of([])
            return env.now

        assert env.run(env.process(proc())) == 0.0

    def test_condition_with_already_processed_event(self, env):
        ev = env.timeout(1, value="early")

        def proc():
            yield env.timeout(5)  # let ev process first
            result = yield env.all_of([ev])
            return result[ev]

        assert env.run(env.process(proc())) == "early"

    def test_condition_fails_when_member_fails(self, env):
        bad = env.event()

        def proc():
            try:
                yield env.all_of([env.timeout(10), bad])
            except RuntimeError as exc:
                return f"caught {exc}"

        p = env.process(proc())
        bad.fail(RuntimeError("member"))
        assert env.run(p) == "caught member"

    def test_condition_value_mapping_api(self, env):
        t1 = env.timeout(1, value="a")
        value = ConditionValue([t1])
        env.run(until=2)
        assert t1 in value
        assert value[t1] == "a"
        assert value.todict() == {t1: "a"}

    def test_condition_value_untriggered_keyerror(self, env):
        pending = env.event()
        value = ConditionValue([pending])
        with pytest.raises(KeyError):
            _ = value[pending]

    def test_cross_environment_events_rejected(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            AnyOf(env, [env.timeout(1), other.timeout(1)])


class TestEventEdges:
    def test_ok_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            _ = env.event().ok

    def test_repr_states(self, env):
        ev = env.event()
        assert "pending" in repr(ev)
        ev.succeed()
        assert "triggered" in repr(ev)


class TestProcessEdges:
    def test_interrupt_cause_none(self, env):
        def victim():
            try:
                yield env.timeout(100)
            except Interrupt as intr:
                return intr.cause

        def attacker(target):
            yield env.timeout(1)
            target.interrupt()

        v = env.process(victim())
        env.process(attacker(v))
        assert env.run(v) is None

    def test_interrupt_before_first_yield_rejected(self, env):
        def proc():
            yield env.timeout(1)

        p = env.process(proc())
        # the process has not started executing yet (no target)
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_process_name_defaults(self, env):
        def my_loop():
            yield env.timeout(1)

        p = env.process(my_loop())
        assert p.name == "my_loop"
        q = env.process(my_loop(), name="custom")
        assert q.name == "custom"

    def test_process_joining_failed_process_sees_exception(self, env):
        def child():
            yield env.timeout(1)
            raise ValueError("child failed")

        def parent():
            try:
                yield env.process(child())
            except ValueError as exc:
                return f"caught {exc}"

        assert env.run(env.process(parent())) == "caught child failed"

    def test_immediate_return_process(self, env):
        def proc():
            return "done"
            yield  # pragma: no cover

        assert env.run(env.process(proc())) == "done"


class TestRunEdges:
    def test_run_until_event_already_processed(self, env):
        ev = env.timeout(1, value="v")
        env.run(until=5)
        assert env.run(until=ev) == "v"

    def test_run_until_failing_event_raises(self, env):
        ev = env.event()

        def proc():
            yield env.timeout(1)
            ev.fail(KeyError("boom"))

        env.process(proc())
        with pytest.raises(KeyError):
            env.run(until=ev)

    def test_clock_does_not_regress_on_empty_queue(self, env):
        env.run(until=100)
        env.run(until=200)
        assert env.now == 200
