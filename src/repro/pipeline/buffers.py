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
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.pipeline.frames import DropReason, Frame
from repro.simcore import Environment, Event, Gate, ProcessGenerator

__all__ = ["ByteBudgetQueue", "Mailbox", "MultiBuffer"]


class Mailbox:
    """Single-slot latest-frame-wins hand-off (never blocks the producer)."""

    def __init__(
        self, env: Environment, on_drop: Optional[Callable[[Frame], None]] = None
    ) -> None:
        self.env = env
        self._slot: Optional[Frame] = None
        self._getters: List[Event] = []
        self._on_drop = on_drop
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
            self._getters.pop(0).succeed(frame)
            return None
        if self._slot is not None:
            dropped = self._slot
            dropped.dropped = DropReason.MAILBOX_OVERWRITE
            frame.inherit_inputs(dropped)
            self.drop_count += 1
            if self._on_drop is not None:
                self._on_drop(dropped)
        self._slot = frame
        return dropped

    def get(self) -> Event:
        """Event yielding the current (or next) frame; FIFO among getters."""
        event = Event(self.env)
        if self._slot is not None and not self._getters:
            frame, self._slot = self._slot, None
            event.succeed(frame)
        else:
            self._getters.append(event)
        return event


class MultiBuffer:
    """ODR's front/back buffer pair with swap synchronization.

    Producer protocol::

        yield buf.back_free()     # blocks while the back buffer is full
        buf.put_back(frame)

    Consumer protocol::

        yield buf.swap_ready()    # blocks until the back buffer is full
        buf.swap()                # back -> front; back becomes free
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

    def back_free(self) -> Event:
        """Event that fires when the back buffer is (or becomes) free."""
        return self._back_free_gate.wait()

    def put_back(self, frame: Frame) -> None:
        """Deposit into the back buffer; caller must hold a fired back_free."""
        if self._back is not None:
            raise RuntimeError(f"{self.name}: back buffer already occupied")
        self._back = frame
        self._back_free_gate.close()
        self._back_full_gate.open()

    # -- consumer side ---------------------------------------------------

    @property
    def front(self) -> Optional[Frame]:
        return self._front

    def swap_ready(self) -> Event:
        """Event that fires when the back buffer holds a new frame."""
        return self._back_full_gate.wait()

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

    def put_when_free(self, frame: Frame) -> ProcessGenerator:
        """Generator: block until the back buffer is free, then deposit.

        Re-checks occupancy after every wake-up, so it stays correct when
        a PriorityFrame flush and a wake-up land on the same timestamp.
        """
        while self._back is not None:
            yield self.back_free()
        self.put_back(frame)

    def swap_when_ready(self) -> ProcessGenerator:
        """Generator: block until the back buffer is full, then swap.

        Re-checks fullness after every wake-up (a flush may have emptied
        the back buffer between the gate firing and this process running).
        """
        while self._back is None:
            yield self.swap_ready()
        self.swap()

    # -- PriorityFrame support --------------------------------------------

    def flush_back(self) -> Optional[Frame]:
        """Drop an unsent back-buffer frame (obsolete-frame flush).

        Returns the dropped frame (already marked) or None.  The
        producer side unblocks immediately.
        """
        if self._back is None:
            return None
        dropped, self._back = self._back, None
        dropped.dropped = DropReason.OBSOLETE_FLUSH
        self.flush_count += 1
        self._back_full_gate.close()
        self._back_free_gate.open()
        return dropped


class _PutEvent(Event):
    """A pending :meth:`ByteBudgetQueue.put`, carrying its frame."""

    def __init__(self, env: Environment, frame: Frame) -> None:
        super().__init__(env)
        self.frame = frame


class ByteBudgetQueue:
    """FIFO frame queue bounded by total bytes (a model TCP send buffer)."""

    def __init__(self, env: Environment, budget_bytes: int) -> None:
        if budget_bytes <= 0:
            raise ValueError("budget must be positive")
        self.env = env
        self.budget_bytes = budget_bytes
        self._frames: List[Frame] = []
        self._bytes = 0
        self._putters: List[_PutEvent] = []
        self._getters: List[Event] = []

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def queued_bytes(self) -> int:
        return self._bytes

    def put(self, frame: Frame) -> Event:
        """Enqueue; blocks (pending event) while the byte budget is exceeded.

        A frame larger than the whole budget is admitted alone (otherwise
        it could never be sent).
        """
        if frame.size_bytes <= 0:
            raise ValueError("frame must have its encoded size set before put")
        event = _PutEvent(self.env, frame)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self) -> Event:
        """Dequeue the oldest frame (pending event until one is available)."""
        event = Event(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def _fits(self, frame: Frame) -> bool:
        if not self._frames and frame.size_bytes >= self.budget_bytes:
            return True
        return self._bytes + frame.size_bytes <= self.budget_bytes

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and self._fits(self._putters[0].frame):
                put = self._putters.pop(0)
                self._frames.append(put.frame)
                self._bytes += put.frame.size_bytes
                put.succeed()
                progressed = True
            while self._getters and self._frames:
                get = self._getters.pop(0)
                frame = self._frames.pop(0)
                self._bytes -= frame.size_bytes
                get.succeed(frame)
                progressed = True
