"""The packet send path: recorded packet stream, in-flight count, tracer swaps.

Every control packet is one delivery on the simulator's queue.  These tests
pin what the forwarding methods record (type, session, link crossed and
direction, in send order), check that ``in_flight_packets`` counts exactly the
packets sent but not yet received, and check that a tracer assigned after
construction takes over the accounting.
"""

import hashlib

import pytest

from repro.baselines.bfyz import BFYZProtocol
from repro.baselines.cg import CGProtocol
from repro.baselines.rcp import RCPProtocol
from repro.core.protocol import BNeckProtocol
from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.network.topology import single_link_topology
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from repro.simulator.tracing import NullPacketTracer, PacketTracer
from repro.workloads.dynamics import DynamicPhase, PhaseWorkload
from repro.workloads.generator import WorkloadGenerator, uniform_demand
from repro.workloads.scenarios import NetworkScenario

# (record count, sha256 of every packet record in send order) of a scenario,
# captured with the closure-per-packet send path that the one-argument queue
# deliveries replaced.
CHURN_RECORDS = (3959, "1eaf52d20c055193905b429767ce3fd49cf454a84a93215b18dfb4237120b4f6")
CAPACITY_RECORDS = (995, "012338a06096876aac1322fd65560b80982ec8af98aa5b2c546e9df58930c9d9")


def _records_digest(tracer):
    digest = hashlib.sha256()
    for record in tracer.records:
        digest.update(repr((
            record.time, record.packet_type, record.session_id,
            record.link, record.direction,
        )).encode())
        digest.update(b"\n")
    return len(tracer.records), digest.hexdigest()


def _churn_runner():
    """The five-phase churn of ``churn-medium-lan-s5-n60`` (joins, leaves,
    changes), with every packet record kept."""
    spec = ScenarioSpec(size="medium", delay_model="lan", seed=5)
    runner = ExperimentRunner(spec, generator_seed=5)
    runner.tracer.keep_records = True
    runner.run_scenario(
        PhaseWorkload(
            [
                DynamicPhase("join", joins=60),
                DynamicPhase("leave", leaves=12),
                DynamicPhase("change", changes=12),
                DynamicPhase("join2", joins=12),
                DynamicPhase("mixed", joins=12, leaves=12, changes=12),
            ],
            demand_sampler=uniform_demand(1e6, 80e6),
            inter_phase_gap=1e-3,
        )
    )
    return runner


def _capacity_runner():
    """The ``stochastic-capacity-small-lan-s13`` scenario: capacity changes
    on loaded links, then a restore, with every packet record kept."""
    spec = ScenarioSpec(size="small", delay_model="lan", seed=13,
                        workload="capacity-dynamics")
    runner = ExperimentRunner(spec)
    runner.tracer.keep_records = True
    runner.run_scenario()
    return runner


def _one_link_network():
    """Two routers, one link, one host pair; returns (network, source, sink)."""
    network = single_link_topology(capacity=100 * MBPS, delay=microseconds(1))
    source = network.attach_host("r0", 1000 * MBPS, microseconds(1))
    sink = network.attach_host("r1", 1000 * MBPS, microseconds(1))
    return network, source.node_id, sink.node_id


def _counting(stage, received):
    """Wrap ``stage.receive`` to log, per call, whether the stage had left."""
    receive = stage.receive

    def counted(message, sender=None):
        received.append(getattr(stage, "left", False))
        receive(message, sender)
    return counted


class TestRecordedPacketStream(object):
    def test_churn_stream_matches_the_golden(self):
        tracer = _churn_runner().protocol.tracer
        assert {record.packet_type for record in tracer.records} >= {"Leave", "Update"}
        assert _records_digest(tracer) == CHURN_RECORDS

    def test_capacity_change_stream_matches_the_golden(self):
        tracer = _capacity_runner().protocol.tracer
        assert _records_digest(tracer) == CAPACITY_RECORDS

    def test_upstream_packets_cross_the_reverse_link(self):
        network, source, sink = _one_link_network()
        protocol = BNeckProtocol(network, tracer=PacketTracer(keep_records=True))
        session, _ = protocol.open_session(source, sink, session_id="a")
        protocol.run_until_quiescent()
        path = [link.endpoints for link in session.links]
        reverse = [(target, source) for source, target in reversed(path)]
        records = protocol.tracer.records
        downstream = [r.link for r in records if r.direction == "downstream"]
        upstream = [r.link for r in records if r.direction == "upstream"]
        # One Join and one SetBottleneck down the path; one Response back up.
        assert downstream == path + path
        assert upstream == reverse
        assert [r.packet_type for r in records if r.direction == "upstream"] == (
            ["Response"] * len(reverse)
        )


class TestInFlightCount(object):
    def test_in_flight_is_sent_minus_received_at_every_step(self):
        network = single_link_topology(capacity=100 * MBPS, delay=microseconds(1))
        hosts = [
            (network.attach_host("r0", 1000 * MBPS, microseconds(1)).node_id,
             network.attach_host("r1", 1000 * MBPS, microseconds(1)).node_id)
            for _ in range(3)
        ]
        protocol = BNeckProtocol(network)
        for index, (source, sink) in enumerate(hosts):
            protocol.join(protocol.create_session(source, sink, session_id="s%d" % index),
                          at=0.0)
        protocol.change("s1", 20 * MBPS, at=2e-6)
        # s0 leaves while the Response closing its first Probe cycle is still
        # on the wire: the departed source drops it on arrival.
        protocol.leave("s0", at=5e-6)
        protocol.join(protocol.create_session(*hosts[0], session_id="s3"), at=6e-6)
        # Count every receive call on every task, dropped packets included.
        received = []
        for stages in (protocol._sources, protocol._router_links, protocol._destinations):
            for stage in stages.values():
                stage.receive = _counting(stage, received)
        simulator = protocol.simulator
        steps = 0
        while simulator.step():
            steps += 1
            assert protocol.in_flight_packets == protocol.tracer.total - len(received)
        assert steps > 20
        assert any(received)  # some packet reached a departed task
        assert protocol.in_flight_packets == 0
        assert protocol.tracer.total == len(received)
        assert protocol.quiescent

    def test_run_until_quiescent_leaves_nothing_in_flight(self):
        network, source, sink = _one_link_network()
        protocol = BNeckProtocol(network)
        protocol.open_session(source, sink, session_id="a")
        # The source sent its Join synchronously.
        assert protocol.in_flight_packets == 1
        protocol.run_until_quiescent()
        assert protocol.in_flight_packets == 0


class TestTracerSwap(object):
    @pytest.mark.parametrize("make_protocol", [BNeckProtocol, BFYZProtocol])
    def test_tracer_assigned_after_construction_counts(self, make_protocol):
        network, source, sink = _one_link_network()
        protocol = make_protocol(network, tracer=NullPacketTracer())
        tracer = PacketTracer()
        protocol.tracer = tracer
        protocol.open_session(source, sink, session_id="a")
        protocol.run(until=1.5e-3)
        assert protocol.tracer is tracer
        assert tracer.total > 0

    @pytest.mark.parametrize("make_protocol", [BNeckProtocol, BFYZProtocol])
    def test_null_tracer_assigned_after_construction_stops_counting(self, make_protocol):
        network, source, sink = _one_link_network()
        protocol = make_protocol(network)
        counting = protocol.tracer
        protocol.tracer = NullPacketTracer()
        protocol.open_session(source, sink, session_id="a")
        protocol.run(until=1.5e-3)
        assert counting.total == 0
        assert protocol.tracer.total == 0

    @pytest.mark.parametrize(
        "make_protocol", [BNeckProtocol, BFYZProtocol, CGProtocol, RCPProtocol]
    )
    def test_null_tracer_moves_no_event_and_no_rate(self, make_protocol):
        # ``tracer=NullPacketTracer()`` is the one way to switch packet
        # accounting off; it must only drop the counts.
        outcomes, totals = [], []
        for tracer in (PacketTracer(), NullPacketTracer()):
            network = NetworkScenario("small", "lan", seed=4).build()
            protocol = make_protocol(network, tracer=tracer)
            WorkloadGenerator(network, seed=4).populate(protocol, 12, join_window=(0.0, 1e-3))
            end = protocol.run(until=6e-3)
            outcomes.append((
                end,
                protocol.simulator.events_processed,
                sorted(protocol.current_allocation().items()),
            ))
            totals.append(tracer.total)
        traced, untraced = outcomes
        assert untraced == traced
        assert traced[1] > 100
        assert totals[0] > 0 and totals[1] == 0
