"""Tests for the stochastic scenario engine and link-capacity dynamics.

Four families of guarantees:

* **Golden bit-identity**: a Poisson-churn run and a capacity-dynamics run
  reproduce the committed goldens (``tests/data/cross_engine_goldens.json``)
  -- per-round quiescence times, packets, events, callbacks and the final
  allocation, bit-exactly.
* **Capacity-change semantics**: after every
  :class:`~repro.core.actions.CapacityChangeAction` quiescence point the
  allocation matches the water-filling oracle on the *updated* capacities,
  including the empty-``R_e`` oversubscription case (a deep cut on a link
  whose sessions were all restricted elsewhere).
* **Workload-generator validation** (regressions): ``pick_sessions`` never
  shrinks a sample to fit, ``random_times`` rejects inverted windows, and a
  phase asking for more churn than the live population raises before any of
  its actions is applied.
* **Round measurements**: every ``run_scenario`` round reports when it
  started, how long it took to quiesce and which sessions it joined, removed
  and re-rated, and hands that measurement to the runner's ``progress``.
* **Runner lifecycle**: ``ExperimentRunner`` is a context manager that
  yields the runner and lets exceptions propagate.
"""

import json
import math
import os

import pytest

from repro.core.actions import (
    CapacityChangeAction,
    LeaveAction,
    replay_actions,
    validate_actions,
)
from repro.core.protocol import BNeckProtocol
from repro.core.validation import validate_against_oracle
from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.fairness.waterfilling import water_filling
from repro.network.graph import Network
from repro.network.topology import parking_lot_topology
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from repro.workloads.dynamics import DynamicPhase, PhaseWorkload, phase_actions
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.scenarios import build_network
from repro.workloads.stochastic import (
    WORKLOADS,
    CapacityDynamicsWorkload,
    PoissonChurnWorkload,
    StochasticWorkload,
    destination_subtrees,
    make_workload,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "cross_engine_goldens.json"
)
with open(GOLDEN_PATH) as handle:
    GOLDENS = json.load(handle)

STOCHASTIC_KEYS = sorted(key for key in GOLDENS if key.startswith("stochastic-"))


def _run_golden_scenario(key):
    golden = GOLDENS[key]["sequential"]
    _prefix, _workload, size, delay, seed = key.rsplit("-", 4)
    spec = ScenarioSpec(
        size=size,
        delay_model=delay,
        seed=int(seed[1:]),
        workload=golden["workload"],
    )
    runner = ExperimentRunner(spec)
    return runner, runner.run_scenario(), golden


class TestStochasticGoldens(object):
    """The stochastic scenarios replay their committed goldens bit-identically."""

    @pytest.mark.parametrize("key", STOCHASTIC_KEYS)
    def test_reproduces_the_sequential_golden(self, key):
        runner, measurements, golden = _run_golden_scenario(key)
        protocol = runner.protocol
        assert [m.description for m in measurements] == golden["round_labels"]
        assert [repr(m.quiescence_time) for m in measurements] == (
            golden["round_quiescence"]
        )
        assert [m.packets for m in measurements] == golden["round_packets"]
        assert all(m.validated for m in measurements)
        assert protocol.tracer.total == golden["packets"]
        assert protocol.simulator.events_processed == golden["events"]
        assert dict(protocol.tracer.by_type) == golden["by_type"]
        assert protocol.rate_callbacks == golden["rate_callbacks"]
        assert len(runner.active_ids) == golden["active_sessions"]
        allocation = protocol.current_allocation().as_dict()
        assert {
            sid: repr(rate) for sid, rate in sorted(allocation.items())
        } == golden["allocation"]


class TestCapacityChangeSemantics(object):
    def _two_session_parking_lot(self):
        network = parking_lot_topology(3, capacity=100 * MBPS)
        protocol = BNeckProtocol(network)

        def host(router):
            return network.attach_host(router, 1000 * MBPS, microseconds(1)).node_id

        protocol.open_session(host("r0"), host("r3"), session_id="long")
        protocol.open_session(host("r0"), host("r1"), session_id="short")
        protocol.run_until_quiescent()
        return network, protocol

    def test_cut_and_restore_reconverge_to_the_oracle(self):
        network, protocol = self._two_session_parking_lot()
        assert protocol.current_allocation().as_dict() == {
            "long": pytest.approx(50 * MBPS),
            "short": pytest.approx(50 * MBPS),
        }
        protocol.change_capacity("r1", "r2", 30 * MBPS, both_directions=True)
        protocol.run_until_quiescent()
        # `long` was in F_e at r1->r2 (restricted at r0->r1) with R_e empty:
        # the cut below its recorded rate must still pull it back and repair.
        assert protocol.current_allocation().as_dict() == {
            "long": pytest.approx(30 * MBPS),
            "short": pytest.approx(70 * MBPS),
        }
        assert network.link("r1", "r2").capacity == 30 * MBPS
        assert validate_against_oracle(protocol).valid

        protocol.change_capacity("r1", "r2", 100 * MBPS, both_directions=True)
        protocol.run_until_quiescent()
        assert protocol.current_allocation().as_dict() == {
            "long": pytest.approx(50 * MBPS),
            "short": pytest.approx(50 * MBPS),
        }
        assert validate_against_oracle(protocol).valid

    def test_capacity_raise_wakes_settled_sessions(self):
        network, protocol = self._two_session_parking_lot()
        # Make r1->r2 the binding bottleneck, then raise it: the settled
        # session must re-probe and claim the new headroom.
        protocol.change_capacity("r1", "r2", 20 * MBPS)
        protocol.run_until_quiescent()
        assert protocol.current_allocation().as_dict()["long"] == pytest.approx(
            20 * MBPS
        )
        protocol.change_capacity("r1", "r2", 40 * MBPS)
        protocol.run_until_quiescent()
        assert protocol.current_allocation().as_dict()["long"] == pytest.approx(
            40 * MBPS
        )
        assert validate_against_oracle(protocol).valid

    def test_scheduled_capacity_change_takes_its_time_slot(self):
        network, protocol = self._two_session_parking_lot()
        quiescence = protocol.simulator.now
        protocol.change_capacity("r1", "r2", 30 * MBPS, at=quiescence + 5e-3)
        protocol.run(until=quiescence + 4e-3)
        # Not yet due: the network still carries the old capacity.
        assert network.link("r1", "r2").capacity == 100 * MBPS
        protocol.run_until_quiescent()
        assert network.link("r1", "r2").capacity == 30 * MBPS
        assert validate_against_oracle(protocol).valid

    def test_rejects_host_links_and_unknown_links(self):
        network, protocol = self._two_session_parking_lot()
        host_id = network.hosts()[0].node_id
        router = network.hosts()[0].attached_router
        with pytest.raises(ValueError, match="router-to-router"):
            protocol.change_capacity(host_id, router, 10 * MBPS)
        with pytest.raises(KeyError):
            protocol.change_capacity("r0", "nowhere", 10 * MBPS)

    def test_bad_capacity_target_rejects_the_whole_batch(self):
        """A typo'd link fails before any action of its batch is scheduled."""
        spec = ScenarioSpec(size="small", seed=4, validate=False)
        with ExperimentRunner(spec) as runner:
            runner.populate(8, join_window=(0.0, 1e-3))
            runner.checkpoint("join")
            protocol = runner.protocol
            session_id = runner.active_ids[0]
            at = protocol.simulator.now + 1e-4
            with pytest.raises(KeyError):
                protocol.apply_actions([
                    LeaveAction(session_id, at),
                    CapacityChangeAction("r-nowhere", "also-nowhere", 1e6, at),
                ])
            # The leave ahead of the bad action was not scheduled either.
            assert protocol.simulator.pending_events == 0
            assert runner.checkpoint("still running").validated
            assert session_id in protocol.registry

    def test_validate_actions_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="positive finite capacity"):
            validate_actions([CapacityChangeAction("a", "b", 0.0, 1e-3)])
        with pytest.raises(ValueError, match="positive finite capacity"):
            validate_actions([CapacityChangeAction("a", "b", float("nan"), 1e-3)])
        with pytest.raises(ValueError, match="positive finite capacity"):
            validate_actions([CapacityChangeAction("a", "b", float("inf"), 1e-3)])
        with pytest.raises(ValueError, match="finite absolute time"):
            validate_actions([CapacityChangeAction("a", "b", 1.0, None)])

    def test_replay_on_protocol_without_support_is_an_error(self):
        class Bare(object):
            network = None

        with pytest.raises(ValueError, match="capacity-change"):
            replay_actions(Bare(), [CapacityChangeAction("a", "b", 1.0, 1e-3)])

    def test_allocation_matches_waterfilling_after_every_event(self):
        """The acceptance criterion: each capacity-change quiescence point
        validates against the water-filling oracle on updated capacities."""
        spec = ScenarioSpec(size="small", delay_model="lan", seed=13)
        workload = CapacityDynamicsWorkload(sessions=30, events=3)
        with ExperimentRunner(spec) as runner:
            observed_capacities = []
            for label, _start, actions in workload.rounds(runner):
                changed = {
                    (action.source, action.target): action.capacity
                    for action in actions
                    if action.kind == "capacity"
                }
                runner.apply_actions(actions)
                measurement = runner.checkpoint(label)
                assert measurement.validated, label
                # The network carries the new capacities ...
                for (source, target), capacity in changed.items():
                    assert runner.network.link(source, target).capacity == capacity
                # ... and the independent water-filling oracle on that updated
                # network reproduces the distributed allocation exactly.
                oracle = water_filling(runner.protocol.active_sessions())
                assert runner.protocol.current_allocation().equals(oracle)
                if changed:
                    observed_capacities.append(changed)
            assert observed_capacities, "no capacity event fired"


    def test_reverse_direction_events_reuse_originals(self, monkeypatch):
        """Events rescale both directions, so picking a link's reverse in a
        later event must cut from the first-seen bandwidth (no compounding)
        and the restore round must return to the true original."""
        import repro.workloads.stochastic as stochastic

        picks = iter([[("r1", "r2")], [("r2", "r1")]])
        monkeypatch.setattr(
            stochastic, "crossed_router_links", lambda protocol: next(picks)
        )
        spec = ScenarioSpec(
            name="parking-lot",
            network_builder=lambda: parking_lot_topology(3, capacity=100 * MBPS),
        )
        workload = CapacityDynamicsWorkload(
            sessions=4, events=2, factor_low=0.5, factor_high=0.5
        )
        capacities = []
        with ExperimentRunner(spec) as runner:
            for label, _start, actions in workload.rounds(runner):
                runner.apply_actions(actions)
                assert runner.checkpoint(label).validated
                capacities.append(
                    (
                        runner.network.link("r1", "r2").capacity,
                        runner.network.link("r2", "r1").capacity,
                    )
                )
        half, full = (50 * MBPS, 50 * MBPS), (100 * MBPS, 100 * MBPS)
        assert capacities == [full, half, half, full]

    def test_asymmetric_per_direction_capacities_are_preserved(self, monkeypatch):
        """Each direction is cut from and restored to its *own* original
        bandwidth, so asymmetric links survive a cut-and-restore cycle."""
        import repro.workloads.stochastic as stochastic

        def build():
            network = Network("asym")
            for router in ("r0", "r1", "r2"):
                network.add_router(router)
            network.add_link("r0", "r1", 100 * MBPS, microseconds(1), bidirectional=False)
            network.add_link("r1", "r0", 40 * MBPS, microseconds(1), bidirectional=False)
            network.add_link("r1", "r2", 100 * MBPS, microseconds(1))
            return network

        picks = iter([[("r1", "r0")]])
        monkeypatch.setattr(
            stochastic, "crossed_router_links", lambda protocol: next(picks)
        )
        spec = ScenarioSpec(name="asym", network_builder=build)
        workload = CapacityDynamicsWorkload(
            sessions=2, events=1, factor_low=0.5, factor_high=0.5
        )
        capacities = []
        with ExperimentRunner(spec) as runner:
            for label, _start, actions in workload.rounds(runner):
                runner.apply_actions(actions)
                assert runner.checkpoint(label).validated
                capacities.append(
                    (
                        runner.network.link("r0", "r1").capacity,
                        runner.network.link("r1", "r0").capacity,
                    )
                )
        assert capacities == [
            (100 * MBPS, 40 * MBPS),          # population round: untouched
            (50 * MBPS, 20 * MBPS),           # each cut from its own original
            (100 * MBPS, 40 * MBPS),          # each restored to its own original
        ]


class TestPhaseOverdraw(object):
    def _runner(self, seed=3):
        return ExperimentRunner(ScenarioSpec(size="small", seed=seed))

    def test_too_many_leaves_raise_before_any_action(self):
        with self._runner() as runner:
            runner.populate(4, join_window=(0.0, 1e-3))
            runner.checkpoint("join")
            events = runner.protocol.simulator.events_processed
            workload = PhaseWorkload([DynamicPhase("purge", leaves=10, changes=2)])
            # Only 4 sessions are alive: the request is refused, not silently
            # shrunk to fit (the historical under-reporting bug).
            with pytest.raises(
                ValueError, match="phase 'purge' asks for 10 leaves but only 4 sessions"
            ):
                runner.run_scenario(workload)
            assert len(runner.active_ids) == 4
            assert len(runner.protocol.registry) == 4
            assert runner.protocol.simulator.pending_events == 0
            assert runner.protocol.simulator.events_processed == events

    def test_too_many_changes_among_the_stayers_raise(self):
        with self._runner() as runner:
            runner.populate(6, join_window=(0.0, 1e-3))
            runner.checkpoint("join")
            workload = PhaseWorkload([DynamicPhase("churn", leaves=2, changes=5)])
            with pytest.raises(
                ValueError, match="phase 'churn' asks for 5 changes but only 4 sessions"
            ):
                runner.run_scenario(workload)
            assert len(runner.protocol.registry) == 6
            assert runner.protocol.simulator.pending_events == 0

    def test_satisfiable_phase_applies_every_request(self):
        with self._runner() as runner:
            runner.populate(6, join_window=(0.0, 1e-3))
            runner.checkpoint("join")
            [measurement] = runner.run_scenario(
                PhaseWorkload([DynamicPhase("churn", leaves=2, changes=4)])
            )
            assert len(measurement.left_ids) == 2
            assert len(measurement.changed_ids) == 4
            assert len(runner.active_ids) == 4

    def test_phase_actions_on_a_bare_generator_also_raise(self):
        network = build_network("small", "lan", seed=2)
        generator = WorkloadGenerator(network, seed=2)
        with pytest.raises(ValueError, match="phase 'leave' asks for 5 leaves but only 3"):
            phase_actions(
                generator, DynamicPhase("leave", leaves=5), ["s1", "s2", "s3"], 0.0
            )


class TestRoundMeasurements(object):
    """The per-round fields of ``run_scenario``'s measurements."""

    @pytest.mark.parametrize("name", ["poisson-churn", "capacity-dynamics"])
    def test_rounds_report_start_duration_membership_and_progress(self, name):
        workload = make_workload(name)
        resolved = []
        rounds = workload.rounds

        def recorded_rounds(runner):
            for label, start, actions in rounds(runner):
                resolved.append((label, start, list(actions)))
                yield label, start, actions

        workload.rounds = recorded_rounds
        seen = []
        spec = ScenarioSpec(size="small", delay_model="lan", seed=11)
        with ExperimentRunner(spec, progress=seen.append) as runner:
            measurements = runner.run_scenario(workload)
        assert len(measurements) == len(resolved) >= 2
        assert len(seen) == len(measurements)
        assert all(a is b for a, b in zip(seen, measurements))
        active = set()
        for (label, start, actions), measurement in zip(resolved, measurements):
            assert measurement.description == label
            assert measurement.start_time == start
            assert all(start <= action.at for action in actions)
            assert measurement.duration == measurement.quiescence_time - start
            # A capacity change that moves no rate quiesces at its own instant.
            assert measurement.duration >= 0
            joins = [action.session_id for action in actions if action.kind == "join"]
            leaves = [action.session_id for action in actions if action.kind == "leave"]
            changes = [action.session_id for action in actions if action.kind == "change"]
            assert measurement.joined_ids == joins
            assert measurement.left_ids == leaves
            assert measurement.changed_ids == changes
            active = (active | set(joins)) - set(leaves)
        assert active == set(runner.active_ids)
        assert active == {session.session_id for session in runner.protocol.active_sessions()}


class TestRunnerContextManager(object):
    def test_yields_the_runner_and_propagates_errors(self):
        spec = ScenarioSpec(size="small", seed=1)
        with ExperimentRunner(spec) as runner:
            assert isinstance(runner, ExperimentRunner)
        with pytest.raises(RuntimeError, match="boom"):
            with ExperimentRunner(spec):
                raise RuntimeError("boom")


class TestWorkloadRegistryAndRunner(object):
    def test_registry_names_all_four_scenarios(self):
        assert {
            "poisson-churn",
            "flash-crowd",
            "heavy-tailed-demand",
            "capacity-dynamics",
        } <= set(WORKLOADS)

    def test_make_workload_resolution(self):
        workload = make_workload("poisson-churn", segments=1)
        assert isinstance(workload, PoissonChurnWorkload)
        assert workload.segments == 1
        assert make_workload(workload) is workload
        with pytest.raises(ValueError, match="already constructed"):
            make_workload(workload, segments=2)
        with pytest.raises(ValueError, match="unknown workload"):
            make_workload("no-such-workload")
        with pytest.raises(TypeError):
            make_workload(42)

    def test_run_scenario_needs_a_workload(self):
        with ExperimentRunner(ScenarioSpec(size="small", seed=1)) as runner:
            with pytest.raises(ValueError, match="names none"):
                runner.run_scenario()

    def test_run_scenario_tracks_membership(self):
        spec = ScenarioSpec(size="small", delay_model="lan", seed=11)
        with ExperimentRunner(spec) as runner:
            measurements = runner.run_scenario("poisson-churn", segments=1)
            assert measurements and all(m.validated for m in measurements)
            assert set(runner.active_ids) == {
                session.session_id
                for session in runner.protocol.active_sessions()
            }

    def test_flash_crowd_targets_one_subtree(self):
        spec = ScenarioSpec(size="small", delay_model="lan", seed=5)
        with ExperimentRunner(spec) as runner:
            workload = make_workload("flash-crowd", crowd_size=12, depart=False)
            runner.run_scenario(workload)
            subtrees = destination_subtrees(runner.network)
            crowd = [
                session
                for session in runner.protocol.active_sessions()
                if session.session_id.startswith("flash-crowd-crowd-")
            ]
            assert len(crowd) == 12
            domains = set()
            for session in crowd:
                router = runner.network.node(session.destination).attached_router
                domains.update(
                    prefix
                    for prefix, members in subtrees.items()
                    if router in members
                )
            assert len(domains) == 1

    def test_poisson_survivors_carry_departures_across_segments(self):
        """A session outliving its segment departs in a later one (residual
        holding time), so the population converges instead of only growing."""
        spec = ScenarioSpec(size="small", delay_model="lan", seed=11)
        with ExperimentRunner(spec) as runner:
            workload = make_workload("poisson-churn", segments=2)
            batches = []
            for label, _start, actions in workload.rounds(runner):
                batches.append(actions)
                runner.apply_actions(actions)
                assert runner.checkpoint(label).validated
            carried_leaves = [
                action
                for action in batches[1]
                if action.kind == "leave"
                and action.session_id.startswith("poisson-churn1-")
            ]
            assert carried_leaves

    def test_heavy_tailed_burst_changes_demands(self):
        spec = ScenarioSpec(size="small", delay_model="lan", seed=5)
        with ExperimentRunner(spec) as runner:
            runner.run_scenario(
                "heavy-tailed-demand", sessions=12, bursts=1, changes_per_burst=8
            )
            demands = [
                session.demand for session in runner.protocol.active_sessions()
            ]
            assert len(demands) == 12
            assert all(math.isfinite(demand) for demand in demands)

    def test_base_class_requires_rounds(self):
        class Incomplete(StochasticWorkload):
            name = "incomplete"

        with pytest.raises(NotImplementedError):
            list(Incomplete().rounds(None))
