"""The per-session neighbour tables that ``BNeckProtocol.join`` wires.

Forwarding is stage-local: a packet goes to ``next_stage``/``prev_stage`` of
the stage that sends it (one entry per session on a RouterLink, the single
neighbour on a source or destination).  A downstream packet crosses the
sender's own link; an upstream packet crosses the reverse of the receiver's
own link.  These tests check those tables and constants against the
sessions' paths, on seeded paper-medium transit-stub sessions and on a
hand-built network whose reverse links have their own delays.
"""

import pytest

from repro.core.protocol import BNeckProtocol
from repro.network.graph import Network
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from repro.simulator.tracing import PacketTracer
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.scenarios import NetworkScenario


def _stages(protocol, session):
    """The session's stages in path order: source, RouterLinks, destination."""
    return (
        [protocol.source(session.session_id)]
        + [protocol.router_link(link.endpoints) for link in session.transit_links]
        + [protocol.destination(session.session_id)]
    )


def _assert_wired_along_the_path(protocol, session):
    session_id = session.session_id
    stages = _stages(protocol, session)
    source, destination = stages[0], stages[-1]
    assert source.next_stage is stages[1]
    assert destination.prev_stage is stages[-2]
    for position in range(1, len(stages) - 1):
        assert stages[position].next_stage[session_id] is stages[position + 1]
        assert stages[position].prev_stage[session_id] is stages[position - 1]
    # Stage i owns link i: downstream packets leave across it, upstream
    # packets arrive across its reverse.
    for stage, link in zip(stages, session.links):
        reverse = protocol.network.reverse_link(link)
        assert (stage.link_id, stage.down_delay) == (link.endpoints, link.control_delay())
        assert (stage.up_link_id, stage.up_delay) == (reverse.endpoints, reverse.control_delay())


@pytest.fixture(scope="module")
def paper_medium_protocol():
    network = NetworkScenario("paper-medium", "wan", seed=3).build()
    protocol = BNeckProtocol(network)
    WorkloadGenerator(network, seed=7).populate(protocol, 120, join_window=(0.0, 1e-3))
    return protocol


class TestPaperMediumSessions(object):
    def test_neighbours_follow_every_session_path(self, paper_medium_protocol):
        protocol = paper_medium_protocol
        sessions = list(protocol._sessions.values())
        assert len(sessions) == 120
        for session in sessions:
            _assert_wired_along_the_path(protocol, session)

    def test_router_links_hold_one_entry_per_crossing_session(self, paper_medium_protocol):
        protocol = paper_medium_protocol
        crossing = {}
        for session in protocol._sessions.values():
            for link in session.transit_links:
                crossing.setdefault(link.endpoints, set()).add(session.session_id)
        assert set(crossing) == set(protocol._router_links)
        for key, task in protocol._router_links.items():
            assert set(task.next_stage) == crossing[key] == set(task.prev_stage)

    def test_some_router_link_is_entered_from_different_stages(self, paper_medium_protocol):
        # Otherwise the per-session table could be one shared neighbour.
        assert any(
            len({id(stage) for stage in task.prev_stage.values()}) > 1
            for task in paper_medium_protocol._router_links.values()
        )

    def test_delays_differ_between_links(self, paper_medium_protocol):
        # WAN delays vary per router link, so the delay checks above can tell
        # one link's delay from another's.
        delays = {task.down_delay for task in paper_medium_protocol._router_links.values()}
        assert len(delays) > 10


def _asymmetric_network():
    """r0 -> r1 -> r2 with every reverse link slower than its forward link."""
    network = Network("asymmetric")
    for router in ("r0", "r1", "r2"):
        network.add_router(router)
    for source, target, delay in (("r0", "r1", 1), ("r1", "r2", 2)):
        network.add_link(source, target, 100 * MBPS, microseconds(delay), bidirectional=False)
        network.add_link(target, source, 100 * MBPS, microseconds(10 * delay),
                         bidirectional=False)
    return network


def _hosts(network, source_router, destination_router):
    return (network.attach_host(source_router, 1000 * MBPS, microseconds(3)).node_id,
            network.attach_host(destination_router, 1000 * MBPS, microseconds(5)).node_id)


class TestSharedRouterLink(object):
    def _protocol(self):
        network = _asymmetric_network()
        protocol = BNeckProtocol(network, tracer=PacketTracer(keep_records=True))
        far, _ = protocol.open_session(*_hosts(network, "r0", "r2"), session_id="far")
        near, _ = protocol.open_session(*_hosts(network, "r1", "r2"), session_id="near")
        return protocol, far, near

    def test_sessions_enter_the_shared_link_from_different_stages(self):
        protocol, far, near = self._protocol()
        shared = protocol.router_link(("r1", "r2"))
        assert shared.prev_stage["far"] is protocol.router_link(("r0", "r1"))
        assert shared.prev_stage["near"] is protocol.source("near")
        assert shared.next_stage["far"] is not shared.next_stage["near"]
        for session in (far, near):
            _assert_wired_along_the_path(protocol, session)

    def test_upstream_delay_is_the_reverse_links(self):
        protocol, _far, _near = self._protocol()
        shared = protocol.router_link(("r1", "r2"))
        reverse = protocol.network.link("r2", "r1")
        assert (shared.up_link_id, shared.up_delay) == (("r2", "r1"), reverse.control_delay())
        assert shared.up_delay > shared.down_delay

    def test_packets_cross_the_wired_links(self):
        protocol, far, near = self._protocol()
        protocol.run_until_quiescent()
        for session in (far, near):
            path = [link.endpoints for link in session.links]
            reverse = [(target, source) for source, target in reversed(path)]
            records = [r for r in protocol.tracer.records if r.session_id == session.session_id]
            down = [r.link for r in records if r.direction == "downstream"]
            up = [r.link for r in records if r.direction == "upstream"]
            assert down[:len(path)] == path  # the Join
            assert up[:len(reverse)] == reverse  # the Response closing it
            assert set(down) == set(path) and set(up) == set(reverse)


class TestJoinWithoutReverseLink(object):
    def test_raises_with_nothing_wired_and_nothing_registered(self):
        network = Network("one-way")
        for router in ("r0", "r1", "r2"):
            network.add_router(router)
        network.add_link("r0", "r1", 100 * MBPS, microseconds(1))
        network.add_link("r1", "r2", 100 * MBPS, microseconds(1), bidirectional=False)
        protocol = BNeckProtocol(network)
        protocol.open_session(*_hosts(network, "r0", "r1"), session_id="wired")
        shared = protocol.router_link(("r0", "r1"))
        before = (dict(shared.next_stage), dict(shared.prev_stage))
        router_links = list(protocol._router_links)
        pending = protocol.simulator.pending_events

        session = protocol.create_session(*_hosts(network, "r0", "r2"), session_id="broken")
        with pytest.raises(KeyError):
            protocol.join(session)

        assert (shared.next_stage, shared.prev_stage) == before
        assert list(protocol._router_links) == router_links
        for table in (protocol._sessions, protocol._applications,
                      protocol._sources, protocol._destinations):
            assert list(table) == ["wired"]
        assert [s.session_id for s in protocol.registry] == ["wired"]
        assert protocol.simulator.pending_events == pending
