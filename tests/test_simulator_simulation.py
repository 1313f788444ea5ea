"""Unit tests for the simulation loop."""

import math

import pytest

from repro.simulator.errors import SimulationLimitExceeded
from repro.simulator.simulation import Simulator


def _ignore(message):
    """A delivery receiver that drops its message."""


def test_clock_starts_at_zero(simulator):
    assert simulator.now == 0.0
    assert simulator.events_processed == 0


def test_schedule_and_run_until_quiescent(simulator):
    fired = []
    simulator.schedule(0.5, lambda: fired.append(simulator.now))
    simulator.schedule(0.2, lambda: fired.append(simulator.now))
    quiescence_time = simulator.run_until_quiescent()
    assert fired == [0.2, 0.5]
    assert quiescence_time == 0.5
    assert simulator.pending_events == 0


def test_events_can_schedule_more_events(simulator):
    fired = []

    def first():
        fired.append("first")
        simulator.schedule(0.1, lambda: fired.append("second"))

    simulator.schedule(1.0, first)
    simulator.run_until_quiescent()
    assert fired == ["first", "second"]
    assert simulator.now == pytest.approx(1.1)


def test_run_with_horizon_stops_before_later_events(simulator):
    fired = []
    simulator.schedule(1.0, lambda: fired.append("early"))
    simulator.schedule(5.0, lambda: fired.append("late"))
    simulator.run(until=2.0)
    assert fired == ["early"]
    assert simulator.now == 2.0
    assert simulator.pending_events == 1
    simulator.run(until=10.0)
    assert fired == ["early", "late"]


def test_run_advances_clock_to_horizon_when_queue_drains(simulator):
    simulator.schedule(0.5, lambda: None)
    simulator.run(until=3.0)
    assert simulator.now == 3.0


def test_schedule_negative_delay_rejected(simulator):
    with pytest.raises(ValueError):
        simulator.schedule(-0.1, lambda: None)


def test_schedule_at_in_the_past_rejected(simulator):
    simulator.schedule(1.0, lambda: None)
    simulator.run_until_quiescent()
    with pytest.raises(ValueError):
        simulator.schedule_at(0.5, lambda: None)


@pytest.mark.parametrize(
    "method", ["schedule", "schedule_at", "schedule_delivery", "schedule_bookkeeping"]
)
def test_nan_time_rejected(simulator, method):
    # ``nan < 0`` is false, so a sign test alone would let a NaN heap key in.
    arguments = (_ignore, "message") if method == "schedule_delivery" else (lambda: None,)
    with pytest.raises(ValueError):
        getattr(simulator, method)(math.nan, *arguments)
    assert simulator.pending_events == 0
    assert simulator.pending_deliveries == 0
    assert simulator.pending_bookkeeping == 0


def test_schedule_at_absolute_time(simulator):
    fired = []
    simulator.schedule_at(2.5, lambda: fired.append(simulator.now))
    simulator.run_until_quiescent()
    assert fired == [2.5]


def test_stop_condition_halts_run(simulator):
    fired = []
    for index in range(10):
        simulator.schedule(index * 0.1 + 0.1, lambda index=index: fired.append(index))
    simulator.run(stop_condition=lambda: len(fired) >= 3)
    assert len(fired) == 3
    assert simulator.pending_events == 7


def test_stop_request_halts_run(simulator):
    fired = []

    def fire_and_stop():
        fired.append("stopped-here")
        simulator.stop()

    simulator.schedule(0.1, fire_and_stop)
    simulator.schedule(0.2, lambda: fired.append("never"))
    simulator.run()
    assert fired == ["stopped-here"]
    assert simulator.pending_events == 1


def test_stale_stop_request_does_not_end_the_next_run(simulator):
    fired = []
    for index in range(5):
        simulator.schedule((index + 1) * 0.1, lambda index=index: fired.append(index))
    simulator.run(stop_condition=lambda: len(fired) >= 2)
    assert fired == [0, 1]
    simulator.stop()  # requested while no run is active
    simulator.run_until_quiescent()
    assert fired == [0, 1, 2, 3, 4]


def test_cancelled_events_do_not_fire(simulator):
    fired = []
    event = simulator.schedule(0.5, lambda: fired.append("cancelled"))
    simulator.schedule(1.0, lambda: fired.append("kept"))
    simulator.cancel(event)
    simulator.run_until_quiescent()
    assert fired == ["kept"]


def test_event_limit_raises(simulator):
    simulator.max_events = 5

    def reschedule():
        simulator.schedule(0.1, reschedule)

    simulator.schedule(0.1, reschedule)
    with pytest.raises(SimulationLimitExceeded):
        simulator.run_until_quiescent()
    assert simulator.events_processed == 5


def test_time_limit_raises():
    simulator = Simulator(max_time=1.0)
    simulator.schedule(2.0, lambda: None)
    with pytest.raises(SimulationLimitExceeded):
        simulator.run_until_quiescent()


def test_step_returns_false_when_empty(simulator):
    assert simulator.step() is False
    simulator.schedule(0.1, lambda: None)
    assert simulator.step() is True
    assert simulator.step() is False


def test_tracer_hook_sees_every_event_tag():
    class RecordingTracer(object):
        def __init__(self):
            self.tags = []

        def on_event(self, time, tag):
            self.tags.append(tag)

    tracer = RecordingTracer()
    simulator = Simulator(tracer=tracer)
    simulator.schedule(0.1, lambda: None, tag="alpha")
    simulator.schedule(0.2, lambda: None, tag="beta")
    simulator.run_until_quiescent()
    assert tracer.tags == ["alpha", "beta"]


def test_events_processed_counts(simulator):
    for index in range(4):
        simulator.schedule(0.1 * (index + 1), lambda: None)
    simulator.run_until_quiescent()
    assert simulator.events_processed == 4


# ------------------------------------------------------------------ deliveries


def test_schedule_delivery_fires_in_order_with_events(simulator):
    fired = []
    simulator.schedule(0.2, lambda: fired.append("event"))
    simulator.schedule_delivery(0.1, fired.append, "delivery-early")
    simulator.schedule_delivery(0.2, fired.append, "delivery-tied")
    simulator.run_until_quiescent()
    # The tie at t=0.2 breaks by insertion order: the Event came first.
    assert fired == ["delivery-early", "event", "delivery-tied"]
    assert simulator.events_processed == 3


def test_schedule_delivery_in_the_general_loop(simulator):
    fired = []
    simulator.schedule(0.2, lambda: fired.append("event"))
    simulator.schedule_delivery(0.1, fired.append, "delivery-early")
    simulator.schedule_delivery(0.2, fired.append, "delivery-tied")
    simulator.run(until=1.0)
    assert fired == ["delivery-early", "event", "delivery-tied"]


@pytest.mark.parametrize("delay", [-0.1, math.nan])
def test_schedule_delivery_bad_delay_rejected(simulator, delay):
    with pytest.raises(ValueError):
        simulator.schedule_delivery(delay, _ignore, "message")
    assert simulator.pending_events == 0


def test_schedule_delivery_counts_as_pending_delivery(simulator):
    simulator.schedule_delivery(0.5, _ignore, "message")
    simulator.schedule(0.7, lambda: None)
    assert simulator.pending_events == 2
    assert simulator.pending_deliveries == 1
    assert simulator.step()
    assert simulator.pending_events == 1
    assert simulator.pending_deliveries == 0
    simulator.run_until_quiescent()
    assert simulator.pending_events == 0


class TestBookkeepingTimers(object):
    """schedule_bookkeeping: out-of-band timers that are not events."""

    def test_fires_before_any_event_at_or_after_its_due_time(self):
        simulator = Simulator()
        order = []
        simulator.schedule(1.0, lambda: order.append("early"))
        simulator.schedule(3.0, lambda: order.append("late"))
        simulator.schedule_bookkeeping(2.0, lambda due: order.append(("timer", due)))
        simulator.run_until_quiescent()
        assert order == ["early", ("timer", 2.0), "late"]

    def test_is_invisible_to_events_and_quiescence(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, lambda: None)
        simulator.schedule_bookkeeping(5.0, fired.append)
        assert simulator.pending_events == 1
        assert simulator.pending_bookkeeping == 1
        quiescence = simulator.run_until_quiescent()
        # The timer fired (at run end; its due lies past the last event) but
        # neither the event count, the clock nor the quiescence time moved.
        assert fired == [5.0]
        assert simulator.events_processed == 1
        assert quiescence == 1.0
        assert simulator.now == 1.0
        assert simulator.pending_bookkeeping == 0

    def test_horizon_runs_fire_only_matured_timers(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(9.0, lambda: None)
        simulator.schedule_bookkeeping(2.0, lambda due: fired.append(due))
        simulator.schedule_bookkeeping(8.0, lambda due: fired.append(due))
        simulator.run(until=5.0)
        assert fired == [2.0]
        assert simulator.pending_bookkeeping == 1
        simulator.run_until_quiescent()
        assert fired == [2.0, 8.0]

    def test_stopped_runs_leave_timers_pending(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, simulator.stop)
        simulator.schedule(2.0, lambda: None)
        simulator.schedule_bookkeeping(1.5, fired.append)
        simulator.run()
        assert fired == []
        assert simulator.pending_bookkeeping == 1
        simulator.run_until_quiescent()
        assert fired == [1.5]

    def test_rejects_negative_delay(self):
        simulator = Simulator()
        with pytest.raises(ValueError):
            simulator.schedule_bookkeeping(-1.0, lambda due: None)

    def test_ties_run_in_registration_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule_bookkeeping(1.0, lambda due: order.append("a"))
        simulator.schedule_bookkeeping(1.0, lambda due: order.append("b"))
        simulator.schedule(2.0, lambda: order.append("event"))
        simulator.run_until_quiescent()
        assert order == ["a", "b", "event"]

    def test_condition_stopped_runs_leave_timers_pending(self):
        # A stop_condition firing on the event that empties the queue must
        # not flush future-dated timers: the run is paused, not drained.
        simulator = Simulator()
        fired = []
        done = []
        simulator.schedule(1.0, lambda: done.append(True))
        simulator.schedule_bookkeeping(5.0, fired.append)
        simulator.run(stop_condition=lambda: bool(done))
        assert fired == []
        assert simulator.pending_bookkeeping == 1
        simulator.run_until_quiescent()
        assert fired == [5.0]


def _run_fast(simulator):
    simulator.run()


def _run_capped(simulator):
    simulator.max_events = 10 ** 6
    simulator.run()


def _run_to_horizon(simulator):
    simulator.run(until=100.0)


def _quiescent_fast(simulator):
    simulator.run_until_quiescent()


def _quiescent_capped(simulator):
    simulator.max_time = 100.0
    simulator.run_until_quiescent()


# Every run loop must honour the bookkeeping-timer contract: run() and
# run_until_quiescent() each have an unconstrained drain and a general loop.
RUN_LOOPS = pytest.mark.parametrize(
    "drive",
    [_run_fast, _run_capped, _run_to_horizon, _quiescent_fast, _quiescent_capped],
    ids=["run-fast", "run-capped", "run-horizon", "quiescent-fast", "quiescent-capped"],
)


class TestBookkeepingTimersInEveryLoop(object):
    @RUN_LOOPS
    def test_timer_due_at_an_event_time_fires_before_that_event(self, drive):
        simulator = Simulator()
        order = []
        simulator.schedule(1.0, lambda: order.append("first"))
        simulator.schedule(2.0, lambda: order.append("tied"))
        simulator.schedule_bookkeeping(2.0, lambda due: order.append(("timer", due)))
        drive(simulator)
        assert order == ["first", ("timer", 2.0), "tied"]
        assert simulator.events_processed == 2

    @RUN_LOOPS
    def test_timer_gets_its_due_time_without_advancing_the_clock(self, drive):
        simulator = Simulator()
        seen = []
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(3.0, lambda: None)
        simulator.schedule_bookkeeping(2.0, lambda due: seen.append((due, simulator.now)))
        drive(simulator)
        # Fired between the two events: the clock still reads the first one.
        assert seen == [(2.0, 1.0)]

    @RUN_LOOPS
    def test_timer_scheduled_by_an_event_fires_before_later_events(self, drive):
        simulator = Simulator()
        order = []

        def arm():
            order.append("arm")
            simulator.schedule_bookkeeping(0.5, lambda due: order.append(("timer", due)))

        simulator.schedule(1.0, arm)
        simulator.schedule(2.0, lambda: order.append("later"))
        drive(simulator)
        assert order == ["arm", ("timer", 1.5), "later"]
        assert simulator.pending_bookkeeping == 0


class TestBookkeepingTimerEdges(object):
    def test_step_fires_matured_timers_before_the_event(self):
        simulator = Simulator()
        order = []
        simulator.schedule(1.0, lambda: order.append("event"))
        simulator.schedule_bookkeeping(1.0, lambda due: order.append(("timer", due)))
        assert simulator.step()
        assert order == [("timer", 1.0), "event"]
        assert simulator.pending_bookkeeping == 0

    def test_step_leaves_future_timers_pending(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, lambda: None)
        simulator.schedule_bookkeeping(2.0, fired.append)
        assert simulator.step()
        assert fired == []
        assert simulator.pending_bookkeeping == 1

    def test_tracer_never_sees_a_timer(self):
        class RecordingTracer(object):
            def __init__(self):
                self.events = []

            def on_event(self, time, tag):
                self.events.append((time, tag))

        tracer = RecordingTracer()
        simulator = Simulator(tracer=tracer)
        fired = []
        simulator.schedule(1.0, lambda: None, tag="alpha")
        simulator.schedule(3.0, lambda: None, tag="beta")
        simulator.schedule_bookkeeping(2.0, fired.append)
        simulator.schedule_bookkeeping(9.0, fired.append)
        simulator.run_until_quiescent()
        assert fired == [2.0, 9.0]
        assert tracer.events == [(1.0, "alpha"), (3.0, "beta")]

    @pytest.mark.parametrize("method", ["run", "run_until_quiescent"])
    def test_timer_past_max_time_does_not_trip_the_cap(self, method):
        simulator = Simulator(max_time=2.0)
        fired = []
        simulator.schedule(1.0, lambda: None)
        simulator.schedule_bookkeeping(5.0, fired.append)
        getattr(simulator, method)()
        assert fired == [5.0]
        assert simulator.now == 1.0

    def test_drained_horizon_run_fires_timers_up_to_the_horizon(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, lambda: None)
        simulator.schedule_bookkeeping(2.0, fired.append)
        simulator.schedule_bookkeeping(8.0, fired.append)
        simulator.run(until=5.0)
        assert fired == [2.0]
        assert simulator.now == 5.0
        assert simulator.pending_bookkeeping == 1
        simulator.run(until=10.0)
        assert fired == [2.0, 8.0]
        assert simulator.pending_bookkeeping == 0
