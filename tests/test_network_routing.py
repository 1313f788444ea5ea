"""Unit tests for shortest-path routing."""

import collections
import random

import pytest

from repro.network.graph import Network
from repro.network.routing import PathComputer, path_links, shortest_path
from repro.network.topology import line_topology, star_topology
from repro.network.transit_stub import (
    LAN,
    PAPER_MEDIUM_PARAMETERS,
    generate_transit_stub,
    medium_network,
    stub_routers,
)
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


@pytest.mark.parametrize("metric", ["hops", "delay"])
@pytest.mark.parametrize(
    "source, target",
    [("ghost", "r1"), ("r0", "ghost"), ("ghost", "ghost")],
    ids=["unknown-source", "unknown-target", "unknown-source-equals-target"],
)
def test_unknown_endpoint_raises_key_error_naming_it(metric, source, target):
    network = line_topology(2)
    with pytest.raises(KeyError, match="'ghost'"):
        shortest_path(network, source, target, metric=metric)


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


def _assert_matches_reference_with_hosts(network, rng, hosts, pairs):
    stubs = list(stub_routers(network))
    for _ in range(hosts):
        network.attach_host(rng.choice(stubs), MBPS, 1e-6)
    nodes = [node.node_id for node in network.nodes()]
    for _ in range(pairs):
        source = rng.choice(nodes)
        target = rng.choice(nodes)
        assert shortest_path(network, source, target) == _reference_bfs_path(
            network, source, target
        )


@pytest.mark.parametrize("seed", [1, 3, 1009])
def test_bfs_matches_the_reference_on_transit_stub_with_hosts(seed):
    network = medium_network(LAN, seed=seed)
    _assert_matches_reference_with_hosts(network, random.Random(seed), 300, 150)


def test_bfs_matches_the_reference_on_paper_medium_with_hosts():
    network = generate_transit_stub(PAPER_MEDIUM_PARAMETERS, LAN, seed=3)
    _assert_matches_reference_with_hosts(network, random.Random(11), 400, 200)


def _shortest_path_count(network, source, target):
    """Number of distinct shortest ``source -> target`` paths (0 if unreachable)."""
    distance = {source: 0}
    count = {source: 1}
    frontier = collections.deque([source])
    while frontier:
        current = frontier.popleft()
        for neighbor in network.neighbors(current):
            if neighbor not in distance:
                distance[neighbor] = distance[current] + 1
                count[neighbor] = 0
                frontier.append(neighbor)
            if distance[neighbor] == distance[current] + 1:
                count[neighbor] += count[current]
    return count.get(target, 0)


def _network_from_edges(nodes, edges, rng, one_way_fraction):
    """Routers ``nodes`` joined by ``edges``, added in a shuffled order.

    The shuffle scrambles adjacency order, which decides between equal-length
    paths; each edge is one-way, in a random direction, with probability
    ``one_way_fraction``.
    """
    network = Network()
    for node in nodes:
        network.add_router(node)
    edges = list(edges)
    rng.shuffle(edges)
    for first, second in edges:
        if rng.random() < one_way_fraction:
            if rng.random() < 0.5:
                first, second = second, first
            network.add_link(first, second, MBPS, 1e-6, bidirectional=False)
        else:
            network.add_link(first, second, MBPS, 1e-6)
    return network


def _grid_edges(rows, columns, wrap):
    """Nodes and edges of a ``rows`` x ``columns`` grid (a torus if ``wrap``)."""
    def name(row, column):
        return "g%d_%d" % (row % rows, column % columns)

    edges = []
    for row in range(rows):
        for column in range(columns):
            if column + 1 < columns or wrap:
                edges.append((name(row, column), name(row, column + 1)))
            if row + 1 < rows or wrap:
                edges.append((name(row, column), name(row + 1, column)))
    nodes = [name(row, column) for row in range(rows) for column in range(columns)]
    return nodes, edges


def _layered_bipartite_edges(layers, width):
    """Complete bipartite graphs between consecutive layers of ``width`` nodes."""
    def name(layer, index):
        return "l%d_%d" % (layer, index)

    nodes = [name(layer, index) for layer in range(layers) for index in range(width)]
    edges = [
        (name(layer, first), name(layer + 1, second))
        for layer in range(layers - 1)
        for first in range(width)
        for second in range(width)
    ]
    return nodes, edges


TIE_BREAKING_SHAPES = {
    "grid": lambda: _grid_edges(7, 9, wrap=False),
    "torus": lambda: _grid_edges(6, 8, wrap=True),
    "layered-bipartite": lambda: _layered_bipartite_edges(6, 5),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("one_way_fraction", [0.0, 0.2], ids=["two-way", "one-way"])
@pytest.mark.parametrize("shape", sorted(TIE_BREAKING_SHAPES))
def test_bfs_matches_the_reference_where_ties_decide_the_path(
    shape, one_way_fraction, seed
):
    rng = random.Random(seed)
    nodes, edges = TIE_BREAKING_SHAPES[shape]()
    network = _network_from_edges(nodes, edges, rng, one_way_fraction)
    tied = 0
    for _ in range(80):
        source, target = rng.sample(nodes, 2)
        expected = _reference_bfs_path(network, source, target)
        if expected is None:
            with pytest.raises(ValueError):
                shortest_path(network, source, target)
            continue
        assert shortest_path(network, source, target) == expected
        tied += _shortest_path_count(network, source, target) > 1
    # Most pairs have a choice of shortest paths, so tie-breaking is tested.
    assert tied >= 40


def test_bfs_on_disconnected_pairs_and_trivial_routes():
    rng = random.Random(5)
    nodes, edges = _grid_edges(4, 4, wrap=False)
    network = _network_from_edges(nodes, edges, rng, 0.0)
    # A second component, reachable from the grid only through one-way links,
    # and an isolated router.
    for name in ("island0", "island1", "island2", "isolated"):
        network.add_router(name)
    network.add_link("island0", "island1", MBPS, 1e-6)
    network.add_link("g0_0", "island2", MBPS, 1e-6, bidirectional=False)
    network.add_link("island2", "island0", MBPS, 1e-6, bidirectional=False)
    all_nodes = [node.node_id for node in network.nodes()]
    unreachable = 0
    for source in all_nodes:
        assert shortest_path(network, source, source) == [source]
        for target in all_nodes:
            if source == target:
                continue
            expected = _reference_bfs_path(network, source, target)
            if expected is None:
                unreachable += 1
                with pytest.raises(ValueError):
                    shortest_path(network, source, target)
            else:
                assert shortest_path(network, source, target) == expected
    assert shortest_path(network, "g3_3", "island1")[-3:] == [
        "island2",
        "island0",
        "island1",
    ]
    with pytest.raises(ValueError):
        shortest_path(network, "island1", "g3_3")
    assert unreachable > 0


def _rebuilt_in_adjacency(network):
    in_adjacency = {node.node_id: [] for node in network.nodes()}
    for link in network.links():
        in_adjacency[link.target].append(link.source)
    return in_adjacency


def test_in_adjacency_stays_in_step_as_the_network_grows():
    network, rng = _random_graph_with_leaves(7)
    nodes = [node.node_id for node in network.nodes()]
    assert shortest_path(network, nodes[0], nodes[-1]) == _reference_bfs_path(
        network, nodes[0], nodes[-1]
    )
    view = network.in_adjacency()
    assert dict(view) == _rebuilt_in_adjacency(network)
    with pytest.raises(TypeError):
        view["intruder"] = []
    # Grow the network after the view exists: routers, two-way and one-way
    # links, and hosts.
    for index in range(5):
        network.add_router("late%d" % index)
        network.add_link("late%d" % index, rng.choice(nodes), MBPS, 1e-6)
    network.add_link("late0", "late1", MBPS, 1e-6, bidirectional=False)
    network.add_link("late4", "late2", MBPS, 1e-6, bidirectional=False)
    for _ in range(4):
        network.attach_host(rng.choice(["late0", "late3", nodes[1]]), MBPS, 1e-6)
    assert network.in_adjacency() is view
    assert dict(view) == _rebuilt_in_adjacency(network)
    everything = [node.node_id for node in network.nodes()]
    for source in everything:
        for target in ("late1", "late2", everything[-1], nodes[0]):
            expected = _reference_bfs_path(network, source, target)
            if expected is None:
                with pytest.raises(ValueError):
                    shortest_path(network, source, target)
            else:
                assert shortest_path(network, source, target) == expected
