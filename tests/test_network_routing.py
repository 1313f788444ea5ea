"""Unit tests for shortest-path routing."""

import collections
import random

import pytest

from repro.network.graph import Network
from repro.network.routing import PathComputer, path_links, shortest_path
from repro.network.topology import line_topology, star_topology
from repro.network.transit_stub import LAN, medium_network, stub_routers
from repro.network.units import MBPS
from repro.simulator.clock import microseconds, milliseconds


def test_shortest_path_on_line():
    network = line_topology(5)
    path = shortest_path(network, "r0", "r4")
    assert path == ["r0", "r1", "r2", "r3", "r4"]


def test_shortest_path_same_node():
    network = line_topology(3)
    assert shortest_path(network, "r1", "r1") == ["r1"]


def test_shortest_path_prefers_fewer_hops():
    network = Network()
    for name in ("a", "b", "c", "d"):
        network.add_router(name)
    network.add_link("a", "b", 10 * MBPS, microseconds(1))
    network.add_link("b", "d", 10 * MBPS, microseconds(1))
    network.add_link("a", "c", 10 * MBPS, microseconds(1))
    network.add_link("c", "d", 10 * MBPS, microseconds(1))
    network.add_link("a", "d", 10 * MBPS, milliseconds(10))
    assert shortest_path(network, "a", "d", metric="hops") == ["a", "d"]


def test_delay_metric_avoids_slow_links():
    network = Network()
    for name in ("a", "b", "d"):
        network.add_router(name)
    network.add_link("a", "d", 10 * MBPS, milliseconds(10))
    network.add_link("a", "b", 10 * MBPS, microseconds(1))
    network.add_link("b", "d", 10 * MBPS, microseconds(1))
    assert shortest_path(network, "a", "d", metric="delay") == ["a", "b", "d"]


def test_unknown_metric_rejected():
    network = line_topology(2)
    with pytest.raises(ValueError):
        shortest_path(network, "r0", "r1", metric="bandwidth")


def test_no_path_raises():
    network = Network()
    network.add_router("a")
    network.add_router("b")
    with pytest.raises(ValueError):
        shortest_path(network, "a", "b")


def test_path_links_matches_node_path():
    network = line_topology(4)
    node_path = shortest_path(network, "r0", "r3")
    links = path_links(network, node_path)
    assert [link.endpoints for link in links] == [("r0", "r1"), ("r1", "r2"), ("r2", "r3")]


class TestPathComputer(object):
    def test_host_to_host_route_goes_through_attached_routers(self):
        network = star_topology(3)
        source = network.attach_host("leaf0", 100 * MBPS, microseconds(1))
        sink = network.attach_host("leaf2", 100 * MBPS, microseconds(1))
        computer = PathComputer(network)
        route = computer.route(source.node_id, sink.node_id)
        assert route[0] == source.node_id
        assert route[-1] == sink.node_id
        assert route[1:-1] == ["leaf0", "hub", "leaf2"]

    def test_route_links_cover_whole_route(self):
        network = star_topology(2)
        source = network.attach_host("leaf0", 100 * MBPS, microseconds(1))
        sink = network.attach_host("leaf1", 100 * MBPS, microseconds(1))
        computer = PathComputer(network)
        links = computer.route_links(source.node_id, sink.node_id)
        assert links[0].source == source.node_id
        assert links[-1].target == sink.node_id
        for first, second in zip(links, links[1:]):
            assert first.target == second.source

    def test_router_segment_is_cached(self):
        network = star_topology(3)
        computer = PathComputer(network)
        hosts = []
        for _ in range(3):
            hosts.append(
                (
                    network.attach_host("leaf0", 100 * MBPS, microseconds(1)).node_id,
                    network.attach_host("leaf1", 100 * MBPS, microseconds(1)).node_id,
                )
            )
        for source, sink in hosts:
            computer.route(source, sink)
        # All three host pairs share the same router segment -> one cache entry.
        assert computer.cache_size() == 1

    def test_router_route_returns_copy(self):
        network = star_topology(2)
        computer = PathComputer(network)
        first = computer.router_route("leaf0", "leaf1")
        first.append("tampered")
        second = computer.router_route("leaf0", "leaf1")
        assert "tampered" not in second


def _reference_bfs_path(network, source, target):
    """Plain breadth-first search that enqueues every node it discovers."""
    if source == target:
        return [source]
    predecessor = {source: None}
    frontier = collections.deque([source])
    while frontier:
        current = frontier.popleft()
        for neighbor in network.neighbors(current):
            if neighbor in predecessor:
                continue
            predecessor[neighbor] = current
            if neighbor == target:
                path = [target]
                while predecessor[path[-1]] is not None:
                    path.append(predecessor[path[-1]])
                return path[::-1]
            frontier.append(neighbor)
    return None


def _random_graph_with_leaves(seed):
    rng = random.Random(seed)
    network = Network()
    routers = ["r%d" % index for index in range(rng.randint(5, 30))]
    for router in routers:
        network.add_router(router)
    for index in range(1, len(routers)):
        network.add_link(routers[index], rng.choice(routers[:index]), MBPS, 1e-6)
    for _ in range(rng.randint(0, 2 * len(routers))):
        first, second = rng.sample(routers, 2)
        if not network.has_link(first, second):
            network.add_link(first, second, MBPS, 1e-6)
    for _ in range(rng.randint(0, 6)):
        # One-way links: adjacency is directed.
        first, second = rng.sample(routers, 2)
        if not network.has_link(first, second):
            network.add_link(first, second, MBPS, 1e-6, bidirectional=False)
    for _ in range(rng.randint(1, 3 * len(routers))):
        network.attach_host(rng.choice(routers), MBPS, 1e-6)
    return network, rng


@pytest.mark.parametrize("seed", range(40))
def test_bfs_matches_the_reference_on_random_graphs_with_leaves(seed):
    network, rng = _random_graph_with_leaves(seed)
    nodes = [node.node_id for node in network.nodes()]
    for _ in range(60):
        source, target = rng.choice(nodes), rng.choice(nodes)
        expected = _reference_bfs_path(network, source, target)
        if expected is None:
            with pytest.raises(ValueError):
                shortest_path(network, source, target)
        else:
            assert shortest_path(network, source, target) == expected


@pytest.mark.parametrize("seed", [1, 3, 1009])
def test_bfs_matches_the_reference_on_transit_stub_with_hosts(seed):
    network = medium_network(LAN, seed=seed)
    rng = random.Random(seed)
    stubs = list(stub_routers(network))
    for _ in range(300):
        network.attach_host(rng.choice(stubs), MBPS, 1e-6)
    routers = [node.node_id for node in network.routers()]
    hosts = [node.node_id for node in network.hosts()]
    for _ in range(150):
        source = rng.choice(routers + hosts)
        target = rng.choice(routers + hosts)
        assert shortest_path(network, source, target) == _reference_bfs_path(
            network, source, target
        )
