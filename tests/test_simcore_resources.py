"""Unit tests for Store / Resource / Gate.

Waiters are callbacks, run from a calendar entry once their wait is
served.
"""

import pytest

from repro.simcore import Environment, Gate, Resource, SimulationError, Store


@pytest.fixture
def env():
    return Environment()


class TestStore:
    def test_put_then_get_fifo(self, env):
        store = Store(env)
        results = []
        for item in ["a", "b", "c"]:
            store.put(item)

        def consume(item):
            results.append(item)
            if len(results) < 3:
                store.get(consume)

        store.get(consume)
        env.run()
        assert results == ["a", "b", "c"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        times = []
        store.get(lambda item: times.append((env.now, item)))

        env.call_later(8, lambda: store.put("late"))
        env.run()
        assert times == [(8.0, "late")]

    def test_put_serves_a_waiting_getter(self, env):
        store = Store(env)
        got = []
        store.get(lambda item: got.extend([item, env.now]))
        env.run()
        store.put("x")
        assert env.peek() == 0.0  # one zero-delay entry hands it over
        env.run()
        assert got == ["x", 0.0]
        assert len(store) == 0

    def test_put_schedules_no_entry_of_its_own(self, env):
        store = Store(env)
        store.put("x")
        assert env.peek() == float("inf")
        assert store.items == ["x"]


class TestResource:
    def test_exclusive_access(self, env):
        res = Resource(env, capacity=1)
        log = []

        def worker(name, hold):
            def holding():
                log.append((name, "in", env.now))
                env.call_later(hold, done)

            def done():
                res.release(request)
                log.append((name, "out", env.now))

            request = res.request(holding)

        worker("a", 10)
        worker("b", 5)
        env.run()
        assert log == [
            ("a", "in", 0.0),
            ("a", "out", 10.0),
            ("b", "in", 10.0),
            ("b", "out", 15.0),
        ]

    def test_capacity_two_allows_concurrency(self, env):
        res = Resource(env, capacity=2)
        entries = []

        def worker(name):
            def holding():
                entries.append((name, env.now))
                env.call_later(5, lambda: res.release(request))

            request = res.request(holding)

        for name in ("a", "b", "c"):
            worker(name)
        env.run()
        assert entries == [("a", 0.0), ("b", 0.0), ("c", 5.0)]

    def test_release_unknown_raises(self, env):
        res = Resource(env)
        other = Resource(env)
        req = other.request(lambda: None)

        with pytest.raises(SimulationError):
            res.release(req)

    def test_cancel_queued_request(self, env):
        res = Resource(env, capacity=1)
        held = res.request(lambda: None)  # granted immediately
        queued = res.request(lambda: None)
        res.release(queued)  # cancel while still queued
        assert len(res.users) == 1
        res.release(held)
        assert len(res.users) == 0

    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)


class TestGate:
    def test_wait_on_open_gate_is_immediate(self, env):
        gate = Gate(env, is_open=True)
        woken = []
        gate.wait(lambda: woken.append(env.now))
        env.run()
        assert woken == [0.0]

    def test_wait_blocks_until_open(self, env):
        gate = Gate(env)
        woken = []
        gate.wait(lambda: woken.append(env.now))

        env.call_later(12, gate.open)
        env.run()
        assert woken == [12.0]

    def test_open_is_broadcast(self, env):
        gate = Gate(env)
        woken = []

        for tag in range(3):
            gate.wait(lambda tag=tag: woken.append(tag))

        env.call_later(1, gate.open)
        env.run()
        assert woken == [0, 1, 2]

    def test_close_reblocks(self, env):
        gate = Gate(env, is_open=True)
        log = []

        def first():
            log.append(env.now)
            gate.close()
            gate.wait(lambda: log.append(env.now))

        gate.wait(first)

        env.call_later(20, gate.open)
        env.run()
        assert log == [0.0, 20.0]
