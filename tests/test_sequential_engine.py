"""Run-mode equivalence and run-contract tests for the single-queue engine.

The :class:`~repro.simulator.simulation.Simulator` has several ways to drive
the same schedule: the fast drain of ``run_until_quiescent``, the general
loop (taken whenever limits or an event tracer are set), ``run(until=...)``
horizons, ``run(stop_condition=...)`` pauses, ``stop()`` requests and
single ``step()`` calls.  Covered here:

* **Run-mode equivalence**: on a matrix of seeded transit-stub mass joins,
  every way of driving (or pausing and resuming) a run reproduces the
  one-shot run's quiescence time, event and packet counts and allocations
  bit-exactly.
* **Churn through the runner**: multi-phase churn via
  :class:`~repro.experiments.runner.ExperimentRunner` validates, drains and
  is deterministic across repeats.
* **Between-run API calls**: joins, leaves and changes issued after a run
  has quiesced take effect on the next run; calls dated in the past run
  immediately.
* **Edge cases**: event and time limits raise, a horizon run executes the
  whole horizon instant, a null notification log counts every record the
  full log keeps, and an exception raised by an event leaves the rest of the
  queue runnable.
"""

import pytest

from repro.core.validation import validate_against_oracle
from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from repro.simulator.errors import SimulationLimitExceeded
from repro.simulator.simulation import Simulator
from repro.workloads.dynamics import DynamicPhase

# (size, delay model, seed, sessions)
SCENARIOS = [
    ("small", "lan", 2, 20),
    ("small", "wan", 2, 20),
    ("small", "lan", 9, 30),
    ("small", "wan", 7, 30),
    ("small", "lan", 13, 25),
    ("small", "wan", 13, 25),
    ("medium", "lan", 5, 60),
    ("medium", "wan", 5, 60),
]
SCENARIO_IDS = ["%s-%s-s%d-n%d" % scenario for scenario in SCENARIOS]


def _populated_runner(scenario, **spec_options):
    size, delay, seed, count = scenario
    spec = ScenarioSpec(size=size, delay_model=delay, seed=seed, **spec_options)
    runner = ExperimentRunner(spec, generator_seed=seed)
    runner.populate(count, join_window=(0.0, 1e-3))
    return runner


def _fingerprint(protocol, quiescence):
    """Everything a run mode must reproduce, with floats compared by repr."""
    return {
        "quiescence": repr(quiescence),
        "events": protocol.simulator.events_processed,
        "packets": protocol.tracer.total,
        "by_type": dict(protocol.tracer.by_type),
        "rate_callbacks": protocol.rate_callbacks,
        "allocation": {
            sid: repr(rate)
            for sid, rate in sorted(protocol.current_allocation().as_dict().items())
        },
        "notified": {
            sid: repr(rate)
            for sid, rate in sorted(protocol.notified_allocation().as_dict().items())
        },
    }


def _one_shot(scenario, **spec_options):
    runner = _populated_runner(scenario, **spec_options)
    quiescence = runner.run_to_quiescence()
    return _fingerprint(runner.protocol, quiescence)


@pytest.fixture(scope="module")
def reference():
    """One-shot fingerprints, computed once per scenario."""
    cache = {}

    def lookup(scenario):
        if scenario not in cache:
            cache[scenario] = _one_shot(scenario)
        return cache[scenario]

    return lookup


@pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
class TestRunModeEquivalence(object):
    def test_one_shot_run_validates_and_drains(self, scenario):
        runner = _populated_runner(scenario)
        runner.run_to_quiescence()
        protocol = runner.protocol
        assert protocol.quiescent
        assert protocol.in_flight_packets == 0
        assert protocol.simulator.pending_bookkeeping == 0
        assert validate_against_oracle(protocol).valid
        assert sorted(protocol.current_allocation().as_dict()) == sorted(
            runner.active_ids
        )

    def test_repeat_runs_are_bit_identical(self, scenario, reference):
        assert _one_shot(scenario) == reference(scenario)

    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_horizon_split_then_drain_matches_one_shot(
        self, scenario, reference, fraction
    ):
        expected = reference(scenario)
        runner = _populated_runner(scenario)
        protocol = runner.protocol
        horizon = float(expected["quiescence"]) * fraction
        # The horizon falls before the last event, so work stays queued and
        # the clock parks on the horizon itself.
        assert runner.run_until(horizon) == horizon
        assert protocol.simulator.pending_events > 0
        assert not protocol.quiescent
        quiescence = runner.run_to_quiescence()
        assert _fingerprint(protocol, quiescence) == expected

    def test_stop_condition_pause_then_resume_matches_one_shot(
        self, scenario, reference
    ):
        expected = reference(scenario)
        runner = _populated_runner(scenario)
        simulator = runner.protocol.simulator
        halfway = expected["events"] // 2
        runner.protocol.run(stop_condition=lambda: simulator.events_processed >= halfway)
        assert simulator.events_processed == halfway
        assert simulator.pending_events > 0
        quiescence = runner.run_to_quiescence()
        assert _fingerprint(runner.protocol, quiescence) == expected

    def test_stop_request_inside_an_event_pauses_the_run(self, scenario, reference):
        expected = reference(scenario)
        runner = _populated_runner(scenario)
        simulator = runner.protocol.simulator
        pause_at = float(expected["quiescence"]) / 2
        simulator.schedule_at(pause_at, simulator.stop, tag="pause")
        assert runner.protocol.run() == pause_at
        assert simulator.pending_events > 0
        quiescence = runner.run_to_quiescence()
        # The pause event itself is the only extra event.
        assert _fingerprint(runner.protocol, quiescence) == dict(
            expected, events=expected["events"] + 1
        )

    def test_single_steps_match_one_shot(self, scenario, reference):
        expected = reference(scenario)
        runner = _populated_runner(scenario)
        simulator = runner.protocol.simulator
        last_event_time = simulator.now
        while simulator.step():
            last_event_time = simulator.now
        assert runner.protocol.quiescent
        assert _fingerprint(runner.protocol, last_event_time) == expected

    def test_general_loop_matches_fast_drain(self, scenario, reference):
        # Generous limits push run_until_quiescent off the fast drain and onto
        # the limit-checking loop; the schedule must not notice.
        runner = _populated_runner(scenario)
        simulator = runner.protocol.simulator
        simulator.max_events = 10 ** 9
        simulator.max_time = 1e9
        quiescence = runner.run_to_quiescence()
        assert _fingerprint(runner.protocol, quiescence) == reference(scenario)

    def test_event_tracer_sees_every_event_without_changing_the_run(
        self, scenario, reference
    ):
        class Recorder(object):
            def __init__(self):
                self.times = []

            def on_event(self, time, tag):
                self.times.append(time)

        expected = reference(scenario)
        runner = _populated_runner(scenario)
        recorder = Recorder()
        runner.protocol.simulator.tracer = recorder
        quiescence = runner.run_to_quiescence()
        assert _fingerprint(runner.protocol, quiescence) == expected
        assert len(recorder.times) == expected["events"]
        assert recorder.times == sorted(recorder.times)
        assert repr(recorder.times[-1]) == expected["quiescence"]

    def test_null_packet_tracer_does_not_change_the_run(self, scenario, reference):
        expected = reference(scenario)
        runner = _populated_runner(scenario, trace_packets=False)
        quiescence = runner.run_to_quiescence()
        fingerprint = _fingerprint(runner.protocol, quiescence)
        assert fingerprint["packets"] == 0
        for key in ("quiescence", "events", "rate_callbacks", "allocation", "notified"):
            assert fingerprint[key] == expected[key], key


CHURN_SEEDS = [4, 6, 8]


def _churn(seed, count=40):
    runner = _populated_runner(("small", "lan", seed, count))
    first = runner.checkpoint("mass join")
    phases = [
        DynamicPhase("leave", leaves=10),
        DynamicPhase("change", changes=10),
        DynamicPhase("join2", joins=10),
        DynamicPhase("mixed", joins=6, leaves=6, changes=6),
    ]
    outcomes = runner.run_phases(phases, inter_phase_gap=1e-3)
    final = runner.checkpoint("after churn")
    protocol = runner.protocol
    summary = {
        "first_quiescence": repr(first.quiescence_time),
        "phase_quiescence": [repr(outcome.quiescence_time) for outcome in outcomes],
        "phase_packets": [outcome.packets for outcome in outcomes],
        "phase_callbacks": [outcome.rate_callbacks for outcome in outcomes],
        "fingerprint": _fingerprint(protocol, final.quiescence_time),
        "active": sorted(runner.active_ids),
    }
    return runner, final, summary


class TestChurnThroughTheRunner(object):
    @pytest.mark.parametrize("seed", CHURN_SEEDS)
    def test_phases_validate_and_drain(self, seed):
        runner, final, summary = _churn(seed)
        protocol = runner.protocol
        assert final.validated
        assert protocol.quiescent
        assert protocol.in_flight_packets == 0
        assert len(runner.active_ids) == 40 - 10 + 10 + 6 - 6
        assert sorted(protocol.current_allocation().as_dict()) == summary["active"]
        # Each phase starts after the previous one's observed quiescence.
        times = [float(t) for t in summary["phase_quiescence"]]
        assert times == sorted(times)
        assert float(summary["first_quiescence"]) < times[0]

    @pytest.mark.parametrize("seed", CHURN_SEEDS)
    def test_phases_are_deterministic_across_repeats(self, seed):
        assert _churn(seed)[2] == _churn(seed)[2]


class TestApiCallsBetweenRuns(object):
    def _settled(self, count=12, seed=8):
        runner = _populated_runner(("small", "lan", seed, count))
        runner.run_to_quiescence()
        return runner

    def test_leave_and_change_take_effect_on_the_next_run(self):
        runner = self._settled()
        protocol = runner.protocol
        victim, changed = runner.active_ids[0], runner.active_ids[1]
        now = protocol.simulator.now
        protocol.leave(victim, at=now + 1e-4)
        protocol.change(changed, 2 * MBPS, at=now + 2e-4)
        assert protocol.simulator.pending_events == 2
        runner.run_to_quiescence()
        allocation = protocol.current_allocation().as_dict()
        assert victim not in allocation
        assert allocation[changed] == pytest.approx(2 * MBPS)
        assert validate_against_oracle(protocol).valid

    def test_join_between_runs_takes_effect_on_the_next_run(self):
        runner = self._settled(count=5, seed=3)
        protocol = runner.protocol
        generator = runner.generator
        source_router, destination_router = generator.random_source.pair(
            generator.attachment_routers
        )
        source = runner.network.attach_host(source_router, 1000 * MBPS, microseconds(1))
        sink = runner.network.attach_host(
            destination_router, 1000 * MBPS, microseconds(1)
        )
        session = protocol.create_session(source.node_id, sink.node_id, session_id="late")
        protocol.join(session, at=protocol.simulator.now + 1e-4)
        assert "late" not in protocol.registry
        runner.run_to_quiescence()
        assert "late" in protocol.current_allocation().as_dict()
        assert validate_against_oracle(protocol).valid

    @pytest.mark.parametrize("kind", ["leave", "change"])
    def test_past_dated_call_runs_immediately(self, kind):
        runner = self._settled()
        protocol = runner.protocol
        session_id = runner.active_ids[0]
        past = protocol.simulator.now - 1e-4
        packets = protocol.tracer.total
        if kind == "leave":
            protocol.leave(session_id, at=past)
            # Deregistered synchronously; the Leave packet is already queued.
            assert session_id not in protocol.registry
        else:
            protocol.change(session_id, 2 * MBPS, at=past)
            assert protocol.session(session_id).demand == 2 * MBPS
        assert protocol.simulator.pending_events > 0
        runner.run_to_quiescence()
        assert protocol.tracer.total > packets
        assert validate_against_oracle(protocol).valid


class TestEdgeCases(object):
    def test_event_limit_raises_mid_join(self):
        runner = _populated_runner(("small", "lan", 11, 20))
        runner.protocol.simulator.max_events = 50
        with pytest.raises(SimulationLimitExceeded) as caught:
            runner.run_to_quiescence()
        assert caught.value.events_processed == 50

    def test_time_limit_raises_mid_join(self):
        runner = _populated_runner(("small", "lan", 11, 20))
        runner.protocol.simulator.max_time = 2e-4
        with pytest.raises(SimulationLimitExceeded):
            runner.run_to_quiescence()
        assert runner.protocol.simulator.now <= 2e-4

    def test_null_log_counts_every_record_the_full_log_keeps(self):
        def run(notification_log):
            runner = ExperimentRunner(
                ScenarioSpec(
                    size="small",
                    delay_model="lan",
                    seed=6,
                    notification_log=notification_log,
                ),
                generator_seed=6,
            )
            runner.populate(10, join_window=(0.0, 1e-4))
            for index in range(8):  # records made before the run
                runner.protocol.notify_rate("warmup-%d" % index, float(index))
            runner.run_to_quiescence()
            return runner.protocol

        full, null = run("full"), run("null")
        assert full.notification_log.recorded == len(full.notification_log) > 16
        assert null.notification_log.recorded == full.notification_log.recorded
        assert list(null.notification_log) == []
        # The log is observation only: the run and its callbacks are unchanged.
        assert null.simulator.events_processed == full.simulator.events_processed
        assert null.rate_callbacks == full.rate_callbacks
        assert null.notified_allocation().as_dict() == full.notified_allocation().as_dict()

    def test_horizon_includes_events_at_exactly_the_horizon(self):
        simulator = Simulator()
        fired = []
        simulator.schedule_at(1e-6, lambda: fired.append("early"))
        simulator.schedule_at(2e-6, lambda: fired.append("on"))
        simulator.schedule_at(2e-6, lambda: fired.append("on-too"))
        simulator.schedule_at(5e-6, lambda: fired.append("late"))
        assert simulator.run(until=2e-6) == 2e-6
        # Everything at the horizon instant ran.
        assert fired == ["early", "on", "on-too"]
        assert simulator.pending_events == 1
        assert simulator.run(until=1e-5) == 1e-5
        assert fired == ["early", "on", "on-too", "late"]

    def test_failing_event_propagates_and_leaves_the_queue_runnable(self):
        simulator = Simulator()
        fired = []

        def boom():
            raise ValueError("event exploded")

        simulator.schedule(1e-6, lambda: fired.append("before"))
        simulator.schedule(2e-6, boom)
        simulator.schedule(3e-6, lambda: fired.append("after"))
        with pytest.raises(ValueError, match="event exploded"):
            simulator.run_until_quiescent()
        assert fired == ["before"]
        assert simulator.events_processed == 2
        assert simulator.pending_events == 1
        assert simulator.run_until_quiescent() == 3e-6
        assert fired == ["before", "after"]
