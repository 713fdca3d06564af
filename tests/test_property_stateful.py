"""Model-based (stateful hypothesis) tests for the buffer disciplines.

Each rule machine drives the real implementation and a trivial Python
model side by side through random operation sequences, checking they
never diverge.  These catch ordering/bookkeeping bugs that example-based
tests miss.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.pipeline.buffers import ByteBudgetQueue, Mailbox, MultiBuffer
from repro.pipeline.frames import Frame
from repro.simcore import Environment


def frame(fid, size=100):
    f = Frame(frame_id=fid)
    f.size_bytes = size
    return f


class MailboxMachine(RuleBasedStateMachine):
    """Mailbox vs a one-slot model: latest-wins, handoff to waiters."""

    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.box = Mailbox(self.env)
        self.model_slot = None
        self.model_drops = 0
        self.received = []
        self.expected = []
        self.next_id = 1
        self.waiting = 0

    @rule()
    def offer(self):
        fid = self.next_id
        self.next_id += 1
        self.box.offer(frame(fid))
        if self.waiting:
            # direct hand-off to the oldest waiting getter; the engine
            # delivers the callback at the current instant
            while self.env.peek() <= self.env.now:
                self.env.step()
            self.waiting -= 1
            self.expected.append(fid)
        elif self.model_slot is not None:
            self.model_drops += 1
            self.model_slot = fid
        else:
            self.model_slot = fid

    @rule()
    def get(self):
        # Served at once (from a hand-off entry at the current instant)
        # exactly when the model holds a frame and nobody waits ahead.
        immediate = self.model_slot is not None and not self.waiting
        self.box.get(lambda got: self.received.append(got.frame_id))
        if not immediate:
            self.waiting += 1
            return
        self.env.run(until=self.env.now)  # deliver the hand-off entry
        # model: immediate get consumed the slot
        self.expected.append(self.model_slot)
        self.model_slot = None

    @invariant()
    def histories_match(self):
        assert self.received == self.expected
        assert self.box.drop_count == self.model_drops
        assert self.box.occupied == (self.model_slot is not None)


class ByteQueueMachine(RuleBasedStateMachine):
    """ByteBudgetQueue vs a FIFO model with byte accounting."""

    BUDGET = 500

    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.queue = ByteBudgetQueue(self.env, budget_bytes=self.BUDGET)
        self.model = []          # admitted frames (fid, size)
        self.model_waiting = []  # blocked puts
        self.model_getters = 0
        self.received = []
        self.expected = []
        self.next_id = 1

    def _model_dispatch(self):
        progressed = True
        while progressed:
            progressed = False
            while self.model_waiting:
                fid, size = self.model_waiting[0]
                used = sum(s for _, s in self.model)
                fits = (not self.model and size >= self.BUDGET) or used + size <= self.BUDGET
                if not fits:
                    break
                self.model.append(self.model_waiting.pop(0))
                progressed = True
            while self.model_getters and self.model:
                self.model_getters -= 1
                fid, _ = self.model.pop(0)
                self.expected.append(fid)
                progressed = True

    @rule(size=__import__("hypothesis").strategies.integers(min_value=50, max_value=400))
    def put(self, size):
        fid = self.next_id
        self.next_id += 1
        self.queue.put(frame(fid, size=size), lambda: None)
        self.model_waiting.append((fid, size))
        self._model_dispatch()

    @rule()
    def get(self):
        # A served get runs its callback from an entry at the current
        # instant; the invariant below delivers it.
        self.queue.get(lambda got: self.received.append(got.frame_id))
        self.model_getters += 1
        self._model_dispatch()

    @invariant()
    def fifo_order_and_bytes_match(self):
        # drain any pending engine events at the current instant
        while self.env.peek() <= self.env.now:
            self.env.step()
        assert self.received == self.expected
        assert self.queue.queued_bytes == sum(s for _, s in self.model)


class MultiBufferMachine(RuleBasedStateMachine):
    """MultiBuffer front/back state machine vs its invariants."""

    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.buf = MultiBuffer(self.env)
        self.back = None
        self.front = None
        self.next_id = 1
        self.consumed = []
        self.flushed = []

    @precondition(lambda self: self.back is None)
    @rule()
    def put(self):
        fid = self.next_id
        self.next_id += 1
        self.buf.put_back(frame(fid))
        self.back = fid

    @precondition(lambda self: self.back is not None and self.front is None)
    @rule()
    def swap(self):
        self.buf.swap()
        self.front, self.back = self.back, None

    @precondition(lambda self: self.front is not None)
    @rule()
    def take(self):
        got = self.buf.take_front()
        self.consumed.append(got.frame_id)
        assert got.frame_id == self.front
        self.front = None

    @rule()
    def flush(self):
        dropped = self.buf.flush_back()
        if self.back is None:
            assert dropped is None
        else:
            assert dropped is not None and dropped.frame_id == self.back
            self.flushed.append(self.back)
            self.back = None

    @invariant()
    def occupancy_matches(self):
        assert self.buf.back_occupied == (self.back is not None)
        assert (self.buf.front is not None) == (self.front is not None)

    @invariant()
    def consumed_in_order(self):
        assert self.consumed == sorted(self.consumed)
        # no frame is both consumed and flushed
        assert not set(self.consumed) & set(self.flushed)


TestMailboxMachine = MailboxMachine.TestCase
TestByteQueueMachine = ByteQueueMachine.TestCase
TestMultiBufferMachine = MultiBufferMachine.TestCase

for case in (TestMailboxMachine, TestByteQueueMachine, TestMultiBufferMachine):
    case.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
