"""Unit tests for Store / Resource / Gate."""

import pytest

from repro.simcore import Environment, Gate, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestStore:
    def test_put_then_get_fifo(self, env):
        store = Store(env)
        results = []

        def producer():
            for item in ("a", "b", "c"):
                yield store.put(item)

        def consumer():
            for _ in range(3):
                item = yield store.get()
                results.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert results == ["a", "b", "c"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        times = []

        def consumer():
            item = yield store.get()
            times.append((env.now, item))

        def producer():
            yield env.timeout(8)
            yield store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert times == [(8.0, "late")]

    def test_put_blocks_when_full(self, env):
        store = Store(env, capacity=1)
        log = []

        def producer():
            yield store.put(1)
            log.append(("p1", env.now))
            yield store.put(2)
            log.append(("p2", env.now))

        def consumer():
            yield env.timeout(5)
            yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert log == [("p1", 0.0), ("p2", 5.0)]

    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_try_put_serves_a_waiting_getter(self, env):
        store = Store(env)
        got = []

        def consumer():
            got.append((yield store.get()))
            got.append(env.now)

        env.process(consumer())
        env.run()
        assert store.try_put("x") is True
        env.run()
        assert got == ["x", 0.0]
        assert len(store) == 0

    def test_try_put_schedules_no_event_of_its_own(self, env):
        store = Store(env)
        assert store.try_put("x") is True
        assert env.peek() == float("inf")
        assert store.items == ["x"]

    def test_try_put_refuses_when_full(self, env):
        store = Store(env, capacity=1)
        assert store.try_put(1) is True
        assert store.try_put(2) is False
        assert store.items == [1]

    def test_try_put_refuses_when_putters_are_queued_ahead(self, env):
        store = Store(env, capacity=1)
        store.put(1)
        blocked = store.put(2)
        # Room appears without a dispatch: the blocked putter is still
        # first in line, so try_put may not overtake it.
        store.capacity = 2
        assert store.try_put(3) is False
        assert store.items == [1]
        assert not blocked.triggered


class TestResource:
    def test_exclusive_access(self, env):
        res = Resource(env, capacity=1)
        log = []

        def worker(name, hold):
            req = res.request()
            yield req
            log.append((name, "in", env.now))
            yield env.timeout(hold)
            res.release(req)
            log.append((name, "out", env.now))

        env.process(worker("a", 10))
        env.process(worker("b", 5))
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
            req = res.request()
            yield req
            entries.append((name, env.now))
            yield env.timeout(5)
            res.release(req)

        for name in ("a", "b", "c"):
            env.process(worker(name))
        env.run()
        assert entries == [("a", 0.0), ("b", 0.0), ("c", 5.0)]

    def test_release_unknown_raises(self, env):
        res = Resource(env)
        other = Resource(env)
        req = other.request()
        from repro.simcore import SimulationError

        with pytest.raises(SimulationError):
            res.release(req)

    def test_cancel_queued_request(self, env):
        res = Resource(env, capacity=1)
        held = res.request()  # granted immediately
        queued = res.request()
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

        def proc():
            yield gate.wait()
            return env.now

        assert env.run(env.process(proc())) == 0.0

    def test_wait_blocks_until_open(self, env):
        gate = Gate(env)

        def waiter():
            yield gate.wait()
            return env.now

        def opener():
            yield env.timeout(12)
            gate.open()

        p = env.process(waiter())
        env.process(opener())
        assert env.run(p) == 12.0

    def test_open_is_broadcast(self, env):
        gate = Gate(env)
        woken = []

        def waiter(tag):
            yield gate.wait()
            woken.append(tag)

        for tag in range(3):
            env.process(waiter(tag))

        def opener():
            yield env.timeout(1)
            gate.open()

        env.process(opener())
        env.run()
        assert woken == [0, 1, 2]

    def test_close_reblocks(self, env):
        gate = Gate(env, is_open=True)
        log = []

        def waiter():
            yield gate.wait()
            log.append(env.now)
            gate.close()
            yield gate.wait()
            log.append(env.now)

        def opener():
            yield env.timeout(20)
            gate.open()

        env.process(waiter())
        env.process(opener())
        env.run()
        assert log == [0.0, 20.0]
