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


def test_run_horizon_in_the_past_rejected(simulator):
    fired = []
    simulator.schedule_at(10.0, lambda: fired.append(10.0))
    simulator.schedule_at(20.0, lambda: fired.append(20.0))
    assert simulator.run(until=15.0) == 15.0
    with pytest.raises(ValueError, match="now=15.0.*until=5.0"):
        simulator.run(until=5.0)
    # The rejected run left the clock alone, so the past stays unschedulable.
    assert simulator.now == 15.0
    with pytest.raises(ValueError):
        simulator.schedule_at(7.0, lambda: fired.append(7.0))
    assert simulator.run(until=15.0) == 15.0  # a horizon at ``now`` is legal
    assert simulator.run() == 20.0
    assert fired == [10.0, 20.0]


def test_run_horizon_nan_rejected(simulator):
    simulator.schedule(1.0, lambda: None)
    with pytest.raises(ValueError):
        simulator.run(until=math.nan)
    assert simulator.pending_events == 1
    assert simulator.now == 0.0


def test_schedule_negative_delay_rejected(simulator):
    with pytest.raises(ValueError):
        simulator.schedule(-0.1, lambda: None)


def test_schedule_at_in_the_past_rejected(simulator):
    simulator.schedule(1.0, lambda: None)
    simulator.run_until_quiescent()
    with pytest.raises(ValueError):
        simulator.schedule_at(0.5, lambda: None)


@pytest.mark.parametrize("method", ["schedule", "schedule_at", "schedule_delivery"])
def test_nan_time_rejected(simulator, method):
    # ``nan < 0`` is false, so a sign test alone would let a NaN heap key in.
    arguments = (_ignore, "message") if method == "schedule_delivery" else (lambda: None,)
    with pytest.raises(ValueError):
        getattr(simulator, method)(math.nan, *arguments)
    assert simulator.pending_events == 0
    assert simulator.pending_deliveries == 0


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
