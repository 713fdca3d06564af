"""Unit tests for the three inter-stage buffer disciplines."""

import pytest

from repro.pipeline.buffers import ByteBudgetQueue, Mailbox, MultiBuffer
from repro.pipeline.frames import DropReason, Frame
from repro.simcore import Environment


@pytest.fixture
def env():
    return Environment()


def frame(fid, size=0, inputs=()):
    f = Frame(frame_id=fid, input_ids=set(inputs))
    f.size_bytes = size
    return f


class TestMailbox:
    def test_offer_then_get(self, env):
        box = Mailbox(env)
        box.offer(frame(1))

        def consumer():
            got = yield box.get()
            return got.frame_id

        assert env.run(env.process(consumer())) == 1

    def test_get_blocks_until_offer(self, env):
        box = Mailbox(env)

        def consumer():
            got = yield box.get()
            return (got.frame_id, env.now)

        def producer():
            yield env.timeout(5)
            box.offer(frame(7))

        p = env.process(consumer())
        env.process(producer())
        assert env.run(p) == (7, 5.0)

    def test_overwrite_drops_older_frame(self, env):
        box = Mailbox(env)
        old, new = frame(1), frame(2)
        dropped = box.offer(old)
        assert dropped is None
        dropped = box.offer(new)
        assert dropped is old
        assert old.dropped is DropReason.MAILBOX_OVERWRITE
        assert box.drop_count == 1

    def test_overwrite_inherits_input_ids(self, env):
        box = Mailbox(env)
        old = frame(1, inputs=(10, 11))
        new = frame(2, inputs=(12,))
        box.offer(old)
        box.offer(new)
        assert new.input_ids == {10, 11, 12}

    def test_direct_handoff_to_waiting_getter_never_drops(self, env):
        box = Mailbox(env)
        results = []

        def consumer():
            for _ in range(2):
                got = yield box.get()
                results.append(got.frame_id)

        env.process(consumer())

        def producer():
            yield env.timeout(1)
            box.offer(frame(1))
            yield env.timeout(1)
            box.offer(frame(2))

        env.process(producer())
        env.run()
        assert results == [1, 2]
        assert box.drop_count == 0

    def test_drop_callback_invoked(self, env):
        seen = []
        box = Mailbox(env, on_drop=lambda f: seen.append(f.frame_id))
        box.offer(frame(1))
        box.offer(frame(2))
        assert seen == [1]

    def test_occupied_flag(self, env):
        box = Mailbox(env)
        assert not box.occupied
        box.offer(frame(1))
        assert box.occupied


class TestMultiBuffer:
    def test_producer_consumer_handshake(self, env):
        buf = MultiBuffer(env)
        consumed = []

        def producer():
            for fid in range(1, 4):
                yield from buf.put_when_free(frame(fid))
                yield env.timeout(1)

        def consumer():
            for _ in range(3):
                yield from buf.swap_when_ready()
                got = buf.take_front()
                consumed.append(got.frame_id)
                yield env.timeout(5)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert consumed == [1, 2, 3]
        assert buf.swap_count == 3

    def test_producer_blocks_while_back_full(self, env):
        buf = MultiBuffer(env)
        times = []

        def producer():
            yield from buf.put_when_free(frame(1))
            times.append(env.now)
            yield from buf.put_when_free(frame(2))
            times.append(env.now)

        def consumer():
            yield env.timeout(10)
            yield from buf.swap_when_ready()
            buf.take_front()

        env.process(producer())
        env.process(consumer())
        env.run()
        # second put had to wait for the consumer's swap at t=10
        assert times == [0.0, 10.0]

    def test_consumer_blocks_until_back_full(self, env):
        buf = MultiBuffer(env)

        def consumer():
            yield from buf.swap_when_ready()
            return env.now

        def producer():
            yield env.timeout(4)
            yield from buf.put_when_free(frame(1))

        p = env.process(consumer())
        env.process(producer())
        assert env.run(p) == 4.0

    def test_swap_requires_full_back(self, env):
        buf = MultiBuffer(env)
        with pytest.raises(RuntimeError):
            buf.swap()

    def test_swap_over_unconsumed_front_rejected(self, env):
        buf = MultiBuffer(env)

        def run():
            yield from buf.put_when_free(frame(1))
            buf.swap()
            yield from buf.put_when_free(frame(2))
            buf.swap()  # front still holds frame 1

        p = env.process(run())
        with pytest.raises(RuntimeError):
            env.run(p)

    def test_double_put_rejected(self, env):
        buf = MultiBuffer(env)

        def run():
            yield from buf.put_when_free(frame(1))
            buf.put_back(frame(2))

        p = env.process(run())
        with pytest.raises(RuntimeError):
            env.run(p)

    def test_take_front_empty_rejected(self, env):
        buf = MultiBuffer(env)
        with pytest.raises(RuntimeError):
            buf.take_front()

    def test_flush_back_drops_and_unblocks_producer(self, env):
        buf = MultiBuffer(env)
        log = []

        def producer():
            yield from buf.put_when_free(frame(1, inputs=(5,)))
            yield from buf.put_when_free(frame(2))
            log.append(("second-put", env.now))

        env.process(producer())

        def flusher():
            yield env.timeout(3)
            dropped = buf.flush_back()
            log.append(("flushed", dropped.frame_id, dropped.input_ids))

        env.process(flusher())
        env.run()
        assert ("flushed", 1, {5}) in log
        assert ("second-put", 3.0) in log
        assert buf.flush_count == 1

    def test_flush_empty_back_is_noop(self, env):
        buf = MultiBuffer(env)
        assert buf.flush_back() is None
        assert buf.flush_count == 0

    def test_swap_when_ready_survives_flush_race(self, env):
        """A flush between the gate firing and the consumer running must
        re-block the consumer instead of swapping an empty buffer."""
        buf = MultiBuffer(env)
        consumed = []

        def consumer():
            yield from buf.swap_when_ready()
            consumed.append(buf.take_front().frame_id)

        env.process(consumer())

        def producer():
            yield env.timeout(1)
            yield from buf.put_when_free(frame(1))
            # flush at the same timestamp the gate opened
            buf.flush_back()
            yield env.timeout(1)
            yield from buf.put_when_free(frame(2))

        env.process(producer())
        env.run()
        assert consumed == [2]


class TestByteBudgetQueue:
    def test_put_get_fifo(self, env):
        q = ByteBudgetQueue(env, budget_bytes=10**6)
        order = []

        def producer():
            for fid in (1, 2, 3):
                yield q.put(frame(fid, size=100))

        def consumer():
            for _ in range(3):
                got = yield q.get()
                order.append(got.frame_id)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert order == [1, 2, 3]

    def test_put_blocks_when_budget_exceeded(self, env):
        q = ByteBudgetQueue(env, budget_bytes=250)
        times = []

        def producer():
            for fid in range(4):
                yield q.put(frame(fid, size=100))
                times.append(env.now)

        def consumer():
            yield env.timeout(10)
            yield q.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        # 2 frames fit; the third waits for the consumer at t=10; the
        # fourth still blocks forever (only one get happened)
        assert times[:3] == [0.0, 0.0, 10.0]
        assert len(times) == 3

    def test_oversized_frame_admitted_alone(self, env):
        q = ByteBudgetQueue(env, budget_bytes=100)

        def producer():
            yield q.put(frame(1, size=500))
            return env.now

        assert env.run(env.process(producer())) == 0.0
        assert q.queued_bytes == 500

    def test_queued_bytes_accounting(self, env):
        q = ByteBudgetQueue(env, budget_bytes=10**6)

        def run():
            yield q.put(frame(1, size=100))
            yield q.put(frame(2, size=250))
            assert q.queued_bytes == 350
            yield q.get()
            assert q.queued_bytes == 250

        env.run(env.process(run()))

    def test_put_requires_size(self, env):
        q = ByteBudgetQueue(env, budget_bytes=100)
        with pytest.raises(ValueError):
            q.put(frame(1, size=0))

    def test_bad_budget_rejected(self, env):
        with pytest.raises(ValueError):
            ByteBudgetQueue(env, budget_bytes=0)

    def test_congestion_backpressure_throttles_producer(self, env):
        """The GCE NoReg mechanism: a slow drainer bounds producer rate."""
        q = ByteBudgetQueue(env, budget_bytes=1000)
        put_times = []

        def producer():
            for fid in range(20):
                yield q.put(frame(fid, size=500))
                put_times.append(env.now)

        def consumer():
            while True:
                yield q.get()
                yield env.timeout(10)  # slow drain

        env.process(producer())
        env.process(consumer())
        env.run(until=200)
        # steady state: one put per 10ms drain period
        steady = [b - a for a, b in zip(put_times[3:], put_times[4:])]
        assert all(abs(gap - 10) < 1e-6 for gap in steady)
