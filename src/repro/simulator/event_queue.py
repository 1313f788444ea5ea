"""A deterministic priority queue of timed events.

Events are ordered by ``(time, sequence)`` where ``sequence`` is a strictly
increasing insertion counter.  Ties in time are therefore broken by insertion
order, which keeps simulation runs fully deterministic for a given workload and
random seed -- a requirement for the regression tests that compare distributed
B-Neck against the centralized oracle.

Heap micro-layout
-----------------

The heap holds flat ``(time, sequence, function, argument, tag, event)``
tuples; firing one is the single call ``function(argument)``.  Comparisons
stop at the unique ``sequence``, so sifting runs entirely in C.  Two flavours
share the layout:

* **Deliveries** (:meth:`EventQueue.push_delivery`), the packet majority,
  hold a receiver and its message and ``None`` as the event: no closure, no
  handle, no cancellation.
* **Cancellable entries** (:meth:`EventQueue.push`) hold :func:`_invoke` and
  a zero-argument callback, plus the :class:`Event` handle that
  :meth:`EventQueue.cancel` takes.

Nothing is counted per entry: the live count is the heap size minus the
cancelled entries not yet popped, and :attr:`EventQueue.pending_deliveries`
counts the handle-less entries.  The loop takes raw tuples from
:meth:`EventQueue.pop_entry` or pops the heap itself
(:meth:`repro.simulator.simulation.Simulator._drain_fast`).
"""

import heapq
import itertools


def _invoke(callback):
    """Fire a cancellable entry, whose argument is its callback."""
    callback()


class Event(object):
    """A scheduled callback.

    Attributes:
        time: absolute simulation time at which the event fires.
        sequence: insertion counter used for deterministic tie-breaking.
        callback: zero-argument callable executed when the event fires.
        cancelled: set by :meth:`EventQueue.cancel`; cancelled events are
            skipped.
        consumed: set by :meth:`EventQueue.pop` once the event has fired;
            consumed events can no longer be cancelled.
        tag: optional label used by traces and tests.
    """

    __slots__ = ("time", "sequence", "callback", "cancelled", "consumed", "tag")

    def __init__(self, time, sequence, callback, tag=None):
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        self.consumed = False
        self.tag = tag

    def __repr__(self):
        state = "cancelled" if self.cancelled else "consumed" if self.consumed else "pending"
        return "Event(time=%r, seq=%d, tag=%r, %s)" % (self.time, self.sequence, self.tag, state)


class EventQueue(object):
    """Min-heap of timed entries ordered by (time, insertion order)."""

    __slots__ = ("_heap", "_counter", "_cancelled")

    def __init__(self):
        self._heap = []
        self._counter = itertools.count()
        # Cancelled entries still in the heap; they are dropped as they surface.
        self._cancelled = 0

    def push(self, time, callback, tag=None):
        """Schedule ``callback()`` at absolute ``time`` and return an :class:`Event`.

        The returned event is the cancellation handle; use
        :meth:`push_delivery` instead when the caller will never cancel.
        """
        if not time >= 0:  # also rejects NaN
            raise ValueError("event time must be non-negative, got %r" % time)
        sequence = next(self._counter)
        event = Event(time, sequence, callback, tag=tag)
        heapq.heappush(self._heap, (time, sequence, _invoke, callback, tag, event))
        return event

    def push_delivery(self, time, receiver, message, tag=None):
        """Schedule the *non-cancellable* call ``receiver(message)`` at ``time``.

        No :class:`Event` handle is allocated or returned.  Deliveries and
        cancellable entries share one sequence counter, so mixing them keeps
        full (time, sequence) determinism.
        """
        if not time >= 0:  # also rejects NaN
            raise ValueError("event time must be non-negative, got %r" % time)
        heapq.heappush(
            self._heap, (time, next(self._counter), receiver, message, tag, None)
        )

    def pop_entry(self):
        """Remove and return the earliest live entry as a raw six-slot tuple.

        ``event`` (the last slot) is ``None`` for deliveries; a cancellable
        entry's handle is marked *consumed*, so a later :meth:`cancel` on it
        is a no-op.  Returns ``None`` when the queue holds no live entries.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            event = entry[5]
            if event is not None:
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event.consumed = True
            return entry
        return None

    def pop(self):
        """Remove and return the earliest live entry as an :class:`Event`.

        A delivery comes back as a synthesized, already-consumed
        :class:`Event` whose zero-argument callback makes the delivery.
        """
        entry = self.pop_entry()
        if entry is None:
            return None
        event = entry[5]
        if event is None:
            receiver, message = entry[2], entry[3]
            event = Event(entry[0], entry[1], lambda: receiver(message), tag=entry[4])
            event.consumed = True
        return event

    def peek_time(self):
        """Return the time of the earliest live entry, or ``None`` if empty."""
        heap = self._heap
        while heap:
            event = heap[0][5]
            if event is not None and event.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            return heap[0][0]
        return None

    def cancel(self, event):
        """Cancel a previously scheduled event.

        Cancelling an event that already fired (was popped) or was already
        cancelled is a no-op, so the live count stays exact no matter how
        often or how late ``cancel`` is called.
        """
        if event.cancelled or event.consumed:
            return
        event.cancelled = True
        self._cancelled += 1

    def clear(self):
        """Drop every pending entry.

        Dropped cancellable events are marked cancelled so a stale handle
        passed to :meth:`cancel` afterwards stays a no-op.  The heap list is
        emptied in place: a loop holding it keeps seeing the live heap.
        """
        for entry in self._heap:
            event = entry[5]
            if event is not None:
                event.cancelled = True
        self._heap.clear()
        self._cancelled = 0

    @property
    def pending_deliveries(self):
        """Deliveries waiting in the queue, counted on demand over the heap."""
        return sum(1 for entry in self._heap if entry[5] is None)

    def __len__(self):
        return len(self._heap) - self._cancelled

    def __repr__(self):
        return "EventQueue(pending=%d)" % len(self)
