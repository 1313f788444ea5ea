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

Bookkeeping timers
------------------

:meth:`Simulator.schedule_bookkeeping` registers an out-of-band timer that is
*not* a simulation event: it fires ``callback(due)`` between events -- always
before any event with ``time >= due`` executes, and at the latest when a run
ends -- without ever touching the event queue.  Timers therefore never show in
``events_processed``, never hold up quiescence detection, never stretch a
reported quiescence time, and never count against ``max_events`` /
``max_time``.  Their callbacks receive the due time explicitly (the clock is
not advanced for them) and must not schedule simulation events.  The protocol
uses them for windowed ``API.Rate`` flushes: a flush is pure observation, and
as a simulation event it would show in ``events_processed`` and could stretch
a reported phase by up to one window.
"""

import heapq
import itertools

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
        self._running = False
        self._timers = []
        self._timer_counter = itertools.count()
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

    @property
    def pending_bookkeeping(self):
        """Bookkeeping timers not yet fired (they never block quiescence)."""
        return len(self._timers)

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

    def schedule_bookkeeping(self, delay, callback):
        """Schedule an out-of-band *bookkeeping timer* (see module docstring).

        ``callback(due)`` fires between events -- before any event with
        ``time >= due`` executes, and at the latest when the current (or
        next) run ends -- without occupying an event-queue slot: it is
        invisible to ``events_processed``, quiescence times and safety caps.
        The callback must not schedule simulation events.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError("delay must be non-negative, got %r" % delay)
        heapq.heappush(
            self._timers, (self._now + delay, next(self._timer_counter), callback)
        )

    def _fire_timers(self, cap):
        """Fire bookkeeping timers with ``due <= cap`` (``None`` fires all)."""
        timers = self._timers
        while timers and (cap is None or timers[0][0] <= cap):
            due, _sequence, callback = heapq.heappop(timers)
            callback(due)

    def cancel(self, event):
        """Cancel a previously scheduled event."""
        self._queue.cancel(event)

    def stop(self):
        """Request that the current :meth:`run` call returns before the next event."""
        self._stop_requested = True

    # ---------------------------------------------------------------- running

    def step(self):
        """Execute the next pending event; returns ``False`` when none remains.

        Bookkeeping timers due at or before the event's time fire first.
        """
        entry = self._queue.pop_entry()
        if entry is None:
            return False
        if self._timers and self._timers[0][0] <= entry[0]:
            self._fire_timers(entry[0])
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
            until: optional absolute time horizon.  Events scheduled after the
                horizon stay in the queue; the clock is advanced to ``until``
                when the horizon is hit with work still pending.
            stop_condition: optional zero-argument predicate evaluated after
                every event; the run stops once it returns ``True``.

        Returns:
            The simulation time at which the run stopped.
        """
        self._running = True
        self._stop_requested = False
        try:
            if until is None and stop_condition is None and self._unconstrained():
                self._drain_fast()
            else:
                self._run_general(until, stop_condition)
        finally:
            self._running = False
        if until is not None and not self._queue and self._now < until:
            # The queue drained before the horizon: advance the clock so
            # repeated run(until=...) calls observe monotonic time.
            self._now = until
        if self._timers and not self._stop_requested:
            # Runs that ended by draining (or crossing a horizon) fire their
            # matured bookkeeping timers; runs ended early by stop() or a
            # stop_condition leave them pending for the next run.
            next_time = self._queue.peek_time()
            if next_time is None or (until is not None and next_time > until):
                self._fire_timers(until)
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
                # Record the early termination so the end-of-run timer flush
                # knows this run was paused, not drained.
                self._stop_requested = True
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
        timers = self._timers
        heappop = heapq.heappop
        while heap and not (check_stop and self._stop_requested):
            time, _sequence, function, argument, _tag, event = heappop(heap)
            if event is not None:
                if event.cancelled:
                    queue._cancelled -= 1
                    continue
                event.consumed = True
            if timers and timers[0][0] <= time:
                self._fire_timers(time)
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
            if self._timers:
                self._fire_timers(None)
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
        if self._timers:
            self._fire_timers(None)
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
