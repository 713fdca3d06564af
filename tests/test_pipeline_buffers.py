"""Unit tests for the three inter-stage buffer disciplines.

Consumers and producers wait the way the pipeline's actors do: with a
callback that the buffer runs from a calendar entry once the wait is
served.  Generator processes only drive the clock.
"""

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
        got = []
        box.get(lambda f: got.append(f.frame_id))
        env.run()
        assert got == [1]

    def test_get_blocks_until_offer(self, env):
        box = Mailbox(env)
        got = []
        box.get(lambda f: got.append((f.frame_id, env.now)))

        env.call_later(5, lambda: box.offer(frame(7)))
        env.run()
        assert got == [(7, 5.0)]

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

        def consume(got):
            results.append(got.frame_id)
            if len(results) < 2:
                box.get(consume)

        box.get(consume)

        env.call_later(1, lambda: box.offer(frame(1)))
        env.call_later(2, lambda: box.offer(frame(2)))
        env.run()
        assert results == [1, 2]
        assert box.drop_count == 0

    def test_overwrite_stamps_drop_time(self, env):
        first, second = frame(1), frame(2)
        box = Mailbox(env)
        box.offer(first)
        env.call_later(3.0, lambda: box.offer(second))
        env.run()
        assert (first.dropped, first.t_dropped) == (DropReason.MAILBOX_OVERWRITE, 3.0)
        assert (second.dropped, second.t_dropped) == (None, None)

    def test_occupied_flag(self, env):
        box = Mailbox(env)
        assert not box.occupied
        box.offer(frame(1))
        assert box.occupied


class Producer:
    """Deposits ``frames`` into a MultiBuffer, ``gap`` ms after each other,
    the way an actor does: a step that retries itself while the back
    buffer is full."""

    def __init__(self, buf, frames, gap=0.0):
        self.buf = buf
        self.frames = list(frames)
        self.gap = gap
        self.put_times = []

    def put(self):
        if not self.buf.put_when_free(self.frames[0], self.put):
            return
        self.frames.pop(0)
        self.put_times.append(self.buf.env.now)
        if self.frames:
            self.buf.env.call_later(self.gap, self.put)


class TestMultiBuffer:
    def test_producer_consumer_handshake(self, env):
        buf = MultiBuffer(env)
        consumed = []
        producer = Producer(buf, [frame(fid) for fid in range(1, 4)], gap=1)

        def consume():
            if not buf.swap_when_ready(consume):
                return
            consumed.append(buf.take_front().frame_id)
            if len(consumed) < 3:
                env.call_later(5, consume)

        producer.put()
        consume()
        env.run()
        assert consumed == [1, 2, 3]
        assert buf.swap_count == 3

    def test_producer_blocks_while_back_full(self, env):
        buf = MultiBuffer(env)
        producer = Producer(buf, [frame(1), frame(2)])

        def consume():
            if not buf.swap_when_ready(consume):
                return
            buf.take_front()

        producer.put()
        env.call_later(10, consume)
        env.run()
        # second put had to wait for the consumer's swap at t=10
        assert producer.put_times == [0.0, 10.0]

    def test_consumer_blocks_until_back_full(self, env):
        buf = MultiBuffer(env)
        swapped = []

        def consume():
            if not buf.swap_when_ready(consume):
                return
            swapped.append(env.now)

        consume()
        env.call_later(4, Producer(buf, [frame(1)]).put)
        env.run()
        assert swapped == [4.0]

    def test_swap_requires_full_back(self, env):
        buf = MultiBuffer(env)
        with pytest.raises(RuntimeError):
            buf.swap()

    def test_swap_over_unconsumed_front_rejected(self, env):
        buf = MultiBuffer(env)
        assert buf.put_when_free(frame(1), lambda: None)
        buf.swap()
        assert buf.put_when_free(frame(2), lambda: None)
        with pytest.raises(RuntimeError):
            buf.swap()  # front still holds frame 1

    def test_double_put_rejected(self, env):
        buf = MultiBuffer(env)
        assert buf.put_when_free(frame(1), lambda: None)
        with pytest.raises(RuntimeError):
            buf.put_back(frame(2))

    def test_take_front_empty_rejected(self, env):
        buf = MultiBuffer(env)
        with pytest.raises(RuntimeError):
            buf.take_front()

    def test_flush_back_drops_and_unblocks_producer(self, env):
        buf = MultiBuffer(env)
        log = []
        producer = Producer(buf, [frame(1, inputs=(5,)), frame(2)])
        producer.put()

        def flush():
            dropped = buf.flush_back()
            log.append(("flushed", dropped.frame_id, dropped.input_ids))

        env.call_later(3, flush)
        env.run()
        assert log == [("flushed", 1, {5})]
        # the second put went through when the flush freed the buffer
        assert producer.put_times == [0.0, 3.0]
        assert buf.flush_count == 1

    def test_flush_empty_back_is_noop(self, env):
        buf = MultiBuffer(env)
        assert buf.flush_back() is None
        assert buf.flush_count == 0

    def test_swap_when_ready_survives_flush_race(self, env):
        """A flush between the gate opening and the consumer running must
        re-block the consumer instead of swapping an empty buffer."""
        buf = MultiBuffer(env)
        consumed = []

        def consume():
            if not buf.swap_when_ready(consume):
                return
            consumed.append(buf.take_front().frame_id)

        consume()

        def put_then_flush():
            assert buf.put_when_free(frame(1), lambda: None)
            # flush at the same timestamp the gate opened
            buf.flush_back()
            env.call_later(1, put_again)

        def put_again():
            assert buf.put_when_free(frame(2), lambda: None)

        env.call_later(1, put_then_flush)
        env.run()
        assert consumed == [2]


class TestByteBudgetQueue:
    def test_put_get_fifo(self, env):
        q = ByteBudgetQueue(env, budget_bytes=10**6)
        order = []
        pending = [frame(fid, size=100) for fid in (1, 2, 3)]

        def produce():
            if pending:
                q.put(pending.pop(0), produce)

        def consume(got):
            order.append(got.frame_id)
            if len(order) < 3:
                q.get(consume)

        produce()
        q.get(consume)
        env.run()
        assert order == [1, 2, 3]

    def test_put_blocks_when_budget_exceeded(self, env):
        q = ByteBudgetQueue(env, budget_bytes=250)
        times = []
        pending = [frame(fid, size=100) for fid in range(4)]

        def produce():
            q.put(pending.pop(0), queued)

        def queued():
            times.append(env.now)
            if pending:
                produce()

        produce()
        env.call_later(10, lambda: q.get(lambda _frame: None))
        env.run()
        # 2 frames fit; the third waits for the consumer at t=10; the
        # fourth still blocks forever (only one get happened)
        assert times[:3] == [0.0, 0.0, 10.0]
        assert len(times) == 3

    def test_oversized_frame_admitted_alone(self, env):
        q = ByteBudgetQueue(env, budget_bytes=100)
        admitted = []
        q.put(frame(1, size=500), lambda: admitted.append(env.now))
        env.run()
        assert admitted == [0.0]
        assert q.queued_bytes == 500

    def test_queued_bytes_accounting(self, env):
        q = ByteBudgetQueue(env, budget_bytes=10**6)
        seen = []

        def first_queued():
            q.put(frame(2, size=250), second_queued)

        def second_queued():
            seen.append(q.queued_bytes)
            q.get(got)

        def got(_frame):
            seen.append(q.queued_bytes)

        q.put(frame(1, size=100), first_queued)
        env.run()
        assert seen == [350, 250]

    def test_put_requires_size(self, env):
        q = ByteBudgetQueue(env, budget_bytes=100)
        with pytest.raises(ValueError):
            q.put(frame(1, size=0), lambda: None)

    def test_bad_budget_rejected(self, env):
        with pytest.raises(ValueError):
            ByteBudgetQueue(env, budget_bytes=0)

    def test_congestion_backpressure_throttles_producer(self, env):
        """The GCE NoReg mechanism: a slow drainer bounds producer rate."""
        q = ByteBudgetQueue(env, budget_bytes=1000)
        put_times = []
        pending = [frame(fid, size=500) for fid in range(20)]

        def produce():
            q.put(pending.pop(0), queued)

        def queued():
            put_times.append(env.now)
            if pending:
                produce()

        def drain():
            q.get(lambda _frame: env.call_later(10, drain))  # slow drain

        produce()
        drain()
        env.run(until=200)
        # steady state: one put per 10ms drain period
        steady = [b - a for a, b in zip(put_times[3:], put_times[4:])]
        assert all(abs(gap - 10) < 1e-6 for gap in steady)
