"""Inter-stage frame buffers.

Three disciplines, matching the three system designs in the paper:

:class:`Mailbox`
    The conventional stack's app→proxy hand-off: a single slot holding
    the *latest* rendered frame.  The producer never blocks; writing
    over an unconsumed frame discards it.  Those discarded frames are
    the paper's "excessive rendering".

:class:`MultiBuffer`
    ODR's front/back buffer pair (Mul-Buf1 and Mul-Buf2, Sec. 5.1).
    The producer blocks until the back buffer is free; the consumer
    processes the front buffer and *swaps* only when it has finished
    **and** the back buffer holds a new frame.  The blocking on both
    sides is what synchronizes stage rates without timing feedback.

:class:`ByteBudgetQueue`
    The proxy→network send queue of the conventional stack: a
    TCP-send-buffer-like FIFO bounded in *bytes*.  When the encoder
    outruns the network the queue fills and the encoder blocks;
    standing queueing delay here is the congestion mechanism behind
    NoReg's seconds-scale MtP latency on GCE (Sec. 6.4).

Waiters are actor steps (:class:`~repro.simcore.engine.Actor`): a
satisfied wait runs its waiter from one zero-delay plain entry, frame
waiters called with the frame, as :mod:`repro.simcore.resources` does.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Tuple

from repro.pipeline.frames import DropReason, Frame
from repro.simcore import Environment, Gate, Step

__all__ = ["ByteBudgetQueue", "Mailbox", "MultiBuffer"]


class Mailbox:
    """Single-slot latest-frame-wins hand-off (never blocks the producer)."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._slot: Optional[Frame] = None
        self._getters: List[Callable[[Frame], None]] = []
        self.drop_count = 0

    @property
    def occupied(self) -> bool:
        return self._slot is not None

    def offer(self, frame: Frame) -> Optional[Frame]:
        """Deposit ``frame``; returns the overwritten frame, if any.

        An overwritten frame is marked dropped and its input ids are
        inherited by the new frame.
        """
        dropped: Optional[Frame] = None
        if self._getters:
            # A consumer is already waiting: hand over directly.
            self.env.call_later(0.0, partial(self._getters.pop(0), frame))
            return None
        if self._slot is not None:
            dropped = self._slot
            dropped.drop(DropReason.MAILBOX_OVERWRITE, self.env.now)
            frame.inherit_inputs(dropped)
            self.drop_count += 1
        self._slot = frame
        return dropped

    def get(self, got: Callable[[Frame], None]) -> None:
        """``got(frame)`` runs with the current (or next) frame; FIFO
        among getters."""
        if self._slot is not None and not self._getters:
            frame, self._slot = self._slot, None
            self.env.call_later(0.0, partial(got, frame))
        else:
            self._getters.append(got)


class MultiBuffer:
    """ODR's front/back buffer pair with swap synchronization.

    Producer protocol, as an actor step that retries itself::

        def _store(self):
            if not buf.put_when_free(frame, self._store):
                return            # back buffer full: _store runs again
            ...

    Consumer protocol::

        def _take(self):
            if not buf.swap_when_ready(self._take):
                return            # back buffer empty: _take runs again
            frame = buf.take_front()
            ...process frame...

    :meth:`flush_back` implements PriorityFrame's obsolete-frame drop:
    an unsent frame sitting in the back buffer is discarded (its input
    ids are returned for inheritance) and the producer side is
    unblocked immediately.
    """

    def __init__(self, env: Environment, name: str = "mulbuf") -> None:
        self.env = env
        self.name = name
        self._front: Optional[Frame] = None
        self._back: Optional[Frame] = None
        self._back_free_gate = Gate(env, is_open=True)
        self._back_full_gate = Gate(env, is_open=False)
        self.swap_count = 0
        self.flush_count = 0

    # -- producer side ---------------------------------------------------

    @property
    def back_occupied(self) -> bool:
        return self._back is not None

    def back_free(self, waiter: Step) -> None:
        """Run ``waiter()`` when the back buffer is (or becomes) free."""
        self._back_free_gate.wait(waiter)

    def put_back(self, frame: Frame) -> None:
        """Deposit into the back buffer, which the caller knows is free."""
        if self._back is not None:
            raise RuntimeError(f"{self.name}: back buffer already occupied")
        self._back = frame
        self._back_free_gate.close()
        self._back_full_gate.open()

    # -- consumer side ---------------------------------------------------

    @property
    def front(self) -> Optional[Frame]:
        return self._front

    def swap_ready(self, waiter: Step) -> None:
        """Run ``waiter()`` when the back buffer holds a new frame."""
        self._back_full_gate.wait(waiter)

    def swap(self) -> None:
        """Move back → front (back must be full, front must be consumed)."""
        if self._back is None:
            raise RuntimeError(f"{self.name}: swap with empty back buffer")
        if self._front is not None:
            raise RuntimeError(f"{self.name}: swap over unconsumed front buffer")
        self._front, self._back = self._back, None
        self._back_full_gate.close()
        self._back_free_gate.open()
        self.swap_count += 1

    def take_front(self) -> Frame:
        """Remove and return the front frame."""
        if self._front is None:
            raise RuntimeError(f"{self.name}: take_front with empty front buffer")
        frame, self._front = self._front, None
        return frame

    # -- guarded protocol helpers ------------------------------------------

    def put_when_free(self, frame: Frame, retry: Step) -> bool:
        """Deposit ``frame`` and return True, or, while the back buffer is
        full, arrange for ``retry()`` to run once it frees and return False.

        The caller's ``retry`` calls this again, so occupancy is
        re-checked after every wake-up and the deposit stays correct when
        a PriorityFrame flush and a wake-up land on the same timestamp.
        """
        if self._back is not None:
            self.back_free(retry)
            return False
        self.put_back(frame)
        return True

    def swap_when_ready(self, retry: Step) -> bool:
        """Swap and return True, or, while the back buffer is empty,
        arrange for ``retry()`` to run once it fills and return False.

        Fullness is re-checked on every retry (a flush may have emptied
        the back buffer between the gate opening and the retry running).
        """
        if self._back is None:
            self.swap_ready(retry)
            return False
        self.swap()
        return True

    # -- PriorityFrame support --------------------------------------------

    def flush_back(self) -> Optional[Frame]:
        """Drop an unsent back-buffer frame (obsolete-frame flush).

        Returns the dropped frame (already marked) or None.  The
        producer side unblocks immediately.
        """
        if self._back is None:
            return None
        dropped, self._back = self._back, None
        dropped.drop(DropReason.OBSOLETE_FLUSH, self.env.now)
        self.flush_count += 1
        self._back_full_gate.close()
        self._back_free_gate.open()
        return dropped


class ByteBudgetQueue:
    """FIFO frame queue bounded by total bytes (a model TCP send buffer)."""

    def __init__(self, env: Environment, budget_bytes: int) -> None:
        if budget_bytes <= 0:
            raise ValueError("budget must be positive")
        self.env = env
        self.budget_bytes = budget_bytes
        self._frames: List[Frame] = []
        self._bytes = 0
        self._putters: List[Tuple[Frame, Step]] = []
        self._getters: List[Callable[[Frame], None]] = []
        #: Frames the queue has admitted so far.
        self.admitted = 0

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def queued_bytes(self) -> int:
        return self._bytes

    def put(self, frame: Frame, queued: Step) -> None:
        """Enqueue; ``queued()`` runs once the byte budget admits ``frame``.

        A frame larger than the whole budget is admitted alone (otherwise
        it could never be sent).
        """
        if frame.size_bytes <= 0:
            raise ValueError("frame must have its encoded size set before put")
        self._putters.append((frame, queued))
        self._dispatch()

    def get(self, got: Callable[[Frame], None]) -> None:
        """Dequeue the oldest frame; ``got(frame)`` runs once one is available."""
        self._getters.append(got)
        self._dispatch()

    def _fits(self, frame: Frame) -> bool:
        if not self._frames and frame.size_bytes >= self.budget_bytes:
            return True
        return self._bytes + frame.size_bytes <= self.budget_bytes

    def _dispatch(self) -> None:
        env = self.env
        progressed = True
        while progressed:
            progressed = False
            while self._putters and self._fits(self._putters[0][0]):
                frame, queued = self._putters.pop(0)
                self._frames.append(frame)
                self._bytes += frame.size_bytes
                self.admitted += 1
                env.call_later(0.0, queued)
                progressed = True
            while self._getters and self._frames:
                got = self._getters.pop(0)
                frame = self._frames.pop(0)
                self._bytes -= frame.size_bytes
                env.call_later(0.0, partial(got, frame))
                progressed = True
