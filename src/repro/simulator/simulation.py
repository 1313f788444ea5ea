"""The simulation loop.

A :class:`Simulator` owns the event queue and the clock.  Protocol tasks
schedule work through :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time); each scheduled callback executes
atomically at its firing time, matching the paper's model of ``when`` blocks
that are "executed atomically, and activated asynchronously when an event is
triggered".  Packet deliveries, the vast majority, go through
:meth:`Simulator.schedule_delivery`: the event is the call
``receiver(message)``, with no closure and no handle, and the unconstrained
loop (:meth:`Simulator._drain_fast`) pops the heap inline.

Because B-Neck is *quiescent*, a steady-state simulation terminates on its own:
once the max-min fair rates are computed, no task schedules further events and
the queue drains.  :meth:`Simulator.run` therefore runs until the queue is
empty by default, and the time of the last processed event is the
time-to-quiescence reported by the experiments.

All work of a run is an event in the one queue; nothing runs between events.
Every run loop therefore has the same contract: pop the earliest event, set
the clock to its time, call it.  The clock only moves forward:
:meth:`Simulator.schedule_at` rejects a time before ``now``, and
:meth:`Simulator.run` rejects a horizon before ``now``, each naming both
times.
"""

import heapq

from repro.simulator.errors import SimulationLimitExceeded
from repro.simulator.event_queue import EventQueue


class Simulator(object):
    """Discrete-event simulation loop with quiescence detection.

    Args:
        max_events: optional safety cap on processed events; exceeded caps
            raise :class:`SimulationLimitExceeded`.
        max_time: optional safety cap on the simulation clock.
        tracer: optional object with an ``on_event(time, tag)`` hook invoked
            for every processed event.
    """

    def __init__(self, max_events=None, max_time=None, tracer=None):
        self._queue = EventQueue()
        self._now = 0.0
        self._events_processed = 0
        self.max_events = max_events
        self.max_time = max_time
        self.tracer = tracer
        self._stop_requested = False

    # ------------------------------------------------------------------ clock

    @property
    def now(self):
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self):
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self):
        """Number of live events still waiting in the queue."""
        return len(self._queue)

    @property
    def pending_deliveries(self):
        """Deliveries (:meth:`schedule_delivery`) still waiting in the queue."""
        return self._queue.pending_deliveries

    # ------------------------------------------------------------- scheduling

    def schedule(self, delay, callback, tag=None):
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise ValueError("delay must be non-negative, got %r" % delay)
        return self._queue.push(self._now + delay, callback, tag=tag)

    def schedule_at(self, time, callback, tag=None):
        """Schedule ``callback`` at an absolute simulation time."""
        if not time >= self._now:  # also rejects NaN
            raise ValueError(
                "cannot schedule in the past (now=%r, requested=%r)" % (self._now, time)
            )
        return self._queue.push(time, callback, tag=tag)

    def schedule_delivery(self, delay, receiver, message, tag=None):
        """Call ``receiver(message)`` ``delay`` seconds from now; not cancellable.

        The fast path for packet deliveries: no handle is allocated or
        returned.  Ordering is identical to :meth:`schedule`.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError("delay must be non-negative, got %r" % delay)
        self._queue.push_delivery(self._now + delay, receiver, message, tag)

    def cancel(self, event):
        """Cancel a previously scheduled event."""
        self._queue.cancel(event)

    def stop(self):
        """Request that the current :meth:`run` call returns before the next event."""
        self._stop_requested = True

    # ---------------------------------------------------------------- running

    def step(self):
        """Execute the next pending event; returns ``False`` when none remains."""
        entry = self._queue.pop_entry()
        if entry is None:
            return False
        self._now = entry[0]
        self._events_processed += 1
        if self.tracer is not None:
            self.tracer.on_event(self._now, entry[4])
        entry[2](entry[3])
        return True

    def _unconstrained(self):
        """True when no per-event bookkeeping (limits, tracing) is needed."""
        return self.max_events is None and self.max_time is None and self.tracer is None

    def run(self, until=None, stop_condition=None):
        """Run the simulation.

        Args:
            until: optional absolute time horizon, no earlier than ``now``.
                Events scheduled after the horizon stay in the queue; the
                clock is advanced to ``until`` when the run stops there.
            stop_condition: optional zero-argument predicate evaluated after
                every event; the run stops once it returns ``True``.

        Returns:
            The simulation time at which the run stopped.

        Raises:
            ValueError: ``until`` is NaN or earlier than ``now``.
        """
        if until is not None and not until >= self._now:  # also rejects NaN
            raise ValueError(
                "cannot run to a horizon in the past (now=%r, until=%r)" % (self._now, until)
            )
        self._stop_requested = False
        if until is None and stop_condition is None and self._unconstrained():
            self._drain_fast()
        else:
            self._run_general(until, stop_condition)
        if until is not None and not self._queue and self._now < until:
            # The queue drained before the horizon: advance the clock so
            # repeated run(until=...) calls observe monotonic time.
            self._now = until
        return self._now

    def _run_general(self, until, stop_condition):
        """The fully-featured run loop: horizon, limits, tracer, predicate."""
        while True:
            if self._stop_requested:
                break
            next_time = self._queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self._now = until
                break
            self._check_limits(next_time)
            self.step()
            if stop_condition is not None and stop_condition():
                break

    def _drain_fast(self, check_stop=True):
        """Drain the queue with no limit checks and no tracer hook.

        Processes exactly the same events in exactly the same order as the
        general loop; it only skips the per-event bookkeeping that is a no-op
        when ``max_events``/``max_time``/``tracer`` are unset.

        Args:
            check_stop: honour :meth:`stop` between events (:meth:`run`
                semantics).  :meth:`run_until_quiescent` passes ``False``
                because it never observed the stop flag, and a stale flag
                from an earlier stopped ``run`` must not end it early.
        """
        # EventQueue.pop_entry, inlined.  These lists are only ever emptied
        # in place, so the local names stay valid.
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        while heap and not (check_stop and self._stop_requested):
            time, _sequence, function, argument, _tag, event = heappop(heap)
            if event is not None:
                if event.cancelled:
                    queue._cancelled -= 1
                    continue
                event.consumed = True
            self._now = time
            self._events_processed += 1
            function(argument)

    def run_until_quiescent(self):
        """Run until the event queue drains and return the quiescence time.

        The returned value is the timestamp of the last processed event, i.e.
        the instant at which the network stopped carrying control traffic.
        """
        if self._unconstrained():
            self._drain_fast(check_stop=False)
            # After a drain the clock sits on the last processed event (or is
            # untouched when the queue was already empty).
            return self._now
        last_event_time = self._now
        while True:
            next_time = self._queue.peek_time()
            if next_time is None:
                break
            self._check_limits(next_time)
            self.step()
            last_event_time = self._now
        return last_event_time

    def _check_limits(self, next_time):
        if self.max_events is not None and self._events_processed >= self.max_events:
            raise SimulationLimitExceeded(
                "event limit of %d exceeded at t=%r (possible livelock)"
                % (self.max_events, self._now),
                events_processed=self._events_processed,
                current_time=self._now,
            )
        if self.max_time is not None and next_time > self.max_time:
            raise SimulationLimitExceeded(
                "time limit of %r exceeded (next event at %r)" % (self.max_time, next_time),
                events_processed=self._events_processed,
                current_time=self._now,
            )

    def __repr__(self):
        return "Simulator(now=%r, pending=%d, processed=%d)" % (
            self._now,
            len(self._queue),
            self._events_processed,
        )
