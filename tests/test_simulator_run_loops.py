"""The one contract every Simulator run loop keeps.

All work of a run is an event in the one queue, so each loop -- the
unconstrained drain, the general loop (limits, tracer, horizon, predicate),
``run_until_quiescent`` with and without limits, and repeated ``step`` calls
-- does the same thing: pop the earliest live event, set the clock to its
time, call it.  Every test here runs once per loop and asserts the same
observable outcome.
"""

import pytest

from repro.simulator.simulation import Simulator


class _EventRecorder(object):
    def __init__(self):
        self.events = []

    def on_event(self, time, tag):
        self.events.append((time, tag))


def _run(simulator):
    simulator.run()


def _run_horizon(simulator):
    simulator.run(until=1e6)


def _run_condition(simulator):
    simulator.run(stop_condition=lambda: False)


def _quiescent(simulator):
    simulator.run_until_quiescent()


def _step(simulator):
    while simulator.step():
        pass


def _capped():
    return Simulator(max_events=10 ** 6, max_time=1e6)


def _traced():
    return Simulator(tracer=_EventRecorder())


LOOPS = {
    "run-fast": (Simulator, _run),
    "run-capped": (_capped, _run),
    "run-traced": (_traced, _run),
    "run-horizon": (Simulator, _run_horizon),
    "run-condition": (Simulator, _run_condition),
    "quiescent-fast": (Simulator, _quiescent),
    "quiescent-capped": (_capped, _quiescent),
    "step": (Simulator, _step),
}


@pytest.fixture(params=sorted(LOOPS))
def loop(request):
    """A fresh simulator and the function that runs it with one loop."""
    make_simulator, drive = LOOPS[request.param]
    return make_simulator(), drive


def _append(fired, simulator, label):
    return lambda: fired.append((simulator.now, label))


def test_fires_in_time_order_with_ties_in_schedule_order(loop):
    simulator, drive = loop
    fired = []
    for time, label in [(3.0, "a"), (1.0, "b"), (2.0, "c"), (1.0, "d"), (3.0, "e"), (0.0, "f")]:
        simulator.schedule_at(time, _append(fired, simulator, label))
    drive(simulator)
    assert fired == [(0.0, "f"), (1.0, "b"), (1.0, "d"), (2.0, "c"), (3.0, "a"), (3.0, "e")]
    assert simulator.events_processed == 6
    if simulator.tracer is not None:
        assert [time for time, _tag in simulator.tracer.events] == [time for time, _ in fired]
    assert simulator.pending_events == 0


def test_events_scheduled_by_an_event_queue_behind_earlier_ties(loop):
    simulator, drive = loop
    fired = []

    def first():
        fired.append((simulator.now, "first"))
        simulator.schedule(0.0, _append(fired, simulator, "same-instant"))
        simulator.schedule(0.5, _append(fired, simulator, "later"))

    simulator.schedule_at(1.0, first)
    simulator.schedule_at(1.0, _append(fired, simulator, "tie"))
    simulator.schedule_at(1.2, _append(fired, simulator, "between"))
    drive(simulator)
    assert fired == [
        (1.0, "first"),
        (1.0, "tie"),
        (1.0, "same-instant"),
        (1.2, "between"),
        (1.5, "later"),
    ]
    assert simulator.events_processed == 5


def test_cancelled_events_never_fire_nor_count(loop):
    simulator, drive = loop
    fired = []
    simulator.schedule_at(1.0, _append(fired, simulator, "kept"))
    dropped = simulator.schedule_at(2.0, _append(fired, simulator, "dropped"))
    victim = simulator.schedule_at(4.0, _append(fired, simulator, "cancelled-in-run"))

    def canceller():
        fired.append((simulator.now, "canceller"))
        simulator.cancel(victim)

    simulator.schedule_at(3.0, canceller)
    simulator.cancel(dropped)
    assert simulator.pending_events == 3
    drive(simulator)
    assert fired == [(1.0, "kept"), (3.0, "canceller")]
    assert simulator.events_processed == 2
    assert simulator.pending_events == 0


def test_clock_reads_each_event_time_and_never_moves_back(loop):
    simulator, drive = loop
    seen = []

    def tick(remaining):
        seen.append(simulator.now)
        if remaining:
            simulator.schedule(0.25 * remaining, lambda: tick(remaining - 1))

    simulator.schedule_at(0.5, lambda: tick(3))
    simulator.schedule_at(0.75, lambda: seen.append(simulator.now))
    drive(simulator)
    assert seen == [0.5, 0.75, 1.25, 1.75, 2.0]
    assert seen == sorted(seen)
    assert simulator.events_processed == len(seen)


def test_deliveries_interleave_with_events_by_time_then_schedule_order(loop):
    simulator, drive = loop
    fired = []

    def receive(message):
        fired.append((simulator.now, message))

    simulator.schedule_delivery(2.0, receive, "delivery@2")
    simulator.schedule(1.0, _append(fired, simulator, "event@1"))
    simulator.schedule(2.0, _append(fired, simulator, "event@2"))
    simulator.schedule_delivery(1.0, receive, "delivery@1")
    simulator.schedule_delivery(0.5, receive, "delivery@0.5")
    assert simulator.pending_deliveries == 3
    drive(simulator)
    assert fired == [
        (0.5, "delivery@0.5"),
        (1.0, "event@1"),
        (1.0, "delivery@1"),
        (2.0, "delivery@2"),
        (2.0, "event@2"),
    ]
    assert simulator.pending_deliveries == 0
    assert simulator.events_processed == 5


def test_an_event_cannot_schedule_before_its_own_time(loop):
    simulator, drive = loop
    outcomes = []

    def rewind():
        with pytest.raises(ValueError, match="now=2.0, requested=1.0"):
            simulator.schedule_at(1.0, lambda: outcomes.append("rewound"))
        simulator.schedule_at(simulator.now, _append(outcomes, simulator, "at-now"))

    simulator.schedule_at(2.0, rewind)
    drive(simulator)
    assert outcomes == [(2.0, "at-now")]
    assert simulator.events_processed == 2
