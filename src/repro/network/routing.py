"""Single-path routing.

Sessions in the paper follow "a shortest path from its source to its
destination node", by hop count.  Routing returns exactly the path of *plain
BFS*: a breadth-first search from the source that scans neighbours in
adjacency order and lets the first discovery of a node set its predecessor.  Which of several equal-length paths
that is matters, because every session's path (and so every packet count and
allocation downstream) depends on it.  Plain BFS explores almost the whole
ball of radius ``D`` around the source; :func:`_bfs_path` gets the same path
from a bidirectional search that explores two balls of radius about ``D / 2``:

1. *Distance.*  Level-synchronous BFS forward from the source over
   :meth:`~repro.network.graph.Network.adjacency` and backward from the
   target over :meth:`~repro.network.graph.Network.in_adjacency`; each step
   expands the smaller frontier by one whole level and the search stops at
   the first level where the two balls meet.  With forward radius ``a`` and
   backward radius ``b`` at that point, ``D = a + b``; every meeting node
   ``v`` has ``d_s(v) == a`` and ``d_t(v) == b``.
2. *On-path sets up to level a.*  A node ``v`` lies on some shortest path
   iff ``d_s(v) + d_t(v) == D``.  At level ``a`` those are the meeting nodes;
   the on-path nodes of level ``j < a`` are the in-neighbours of the on-path
   nodes of level ``j + 1`` that have ``d_s == j``.
3. *Restricted replay.*  BFS from the source again, in frontier order and
   adjacency order, but keeping only on-path nodes: the sets of step 2 up to
   level ``a``, and ``d_t(w) == D - level`` above it (such a ``w`` is within
   the backward ball, and ``d_s(w) == level`` follows from the triangle
   inequality).  The replay stops when it discovers the target.

Why the replay returns plain BFS's path: let ``v`` be on a shortest path at
level ``d_s(v) = k``.  Every in-neighbour ``u`` of ``v`` with ``d_s(u) ==
k - 1`` is on a shortest path too (``d_t(u) <= d_t(v) + 1``).  Plain BFS
makes ``v``'s predecessor the first such ``u`` in its level-``k - 1`` queue
order; so if the replay sees the on-path nodes of level ``k - 1`` in the same
relative order as plain BFS, it picks the same predecessor, and it then
appends the on-path nodes of level ``k`` in the same relative order as well.
Induction on the level, from the source alone at level 0, gives the same
predecessor for every on-path node -- in particular along the target's
predecessor chain, which is the returned path.

:class:`PathComputer` caches router-to-router paths, which matters when a
workload creates tens of thousands of sessions over the same backbone.
"""


def shortest_path(network, source, target):
    """Return the list of node ids of a shortest hop path from ``source`` to ``target``.

    Raises ``KeyError`` naming the node when ``source`` or ``target`` is not in
    the network, and ``ValueError`` when no path exists.
    """
    for endpoint in (source, target):
        if not network.has_node(endpoint):
            raise KeyError("unknown routing endpoint %r" % (endpoint,))
    path = _bfs_path(network, source, target)
    if path is None:
        raise ValueError("no path from %r to %r" % (source, target))
    return path


def path_links(network, node_path):
    """Convert a node path to the list of directed links it traverses."""
    return [
        network.link(node_path[index], node_path[index + 1])
        for index in range(len(node_path) - 1)
    ]


def _bfs_path(network, source, target):
    """Plain BFS's path from ``source`` to ``target`` (see the module docstring)."""
    if source == target:
        return [source]
    adjacency = network.adjacency()
    in_adjacency = network.in_adjacency()

    # 1. Distance: grow both balls a whole level at a time until they meet.
    forward_distance = {source: 0}
    backward_distance = {target: 0}
    forward_frontier = [source]
    backward_frontier = [target]
    forward_radius = backward_radius = 0
    while True:
        if len(forward_frontier) <= len(backward_frontier):
            forward_radius += 1
            forward_frontier = _expand_level(
                forward_frontier, adjacency, forward_distance, forward_radius
            )
            meeting = [node for node in forward_frontier if node in backward_distance]
        else:
            backward_radius += 1
            backward_frontier = _expand_level(
                backward_frontier, in_adjacency, backward_distance, backward_radius
            )
            meeting = [node for node in backward_frontier if node in forward_distance]
        if meeting:
            break
        if not forward_frontier or not backward_frontier:
            return None
    distance = forward_radius + backward_radius

    # 2. On-path sets for levels 0..forward_radius, walking back from the meet.
    on_path = [None] * (forward_radius + 1)
    on_path[forward_radius] = level_set = set(meeting)
    for level in range(forward_radius - 1, -1, -1):
        level_set = {
            predecessor
            for node in level_set
            for predecessor in in_adjacency[node]
            if forward_distance.get(predecessor) == level
        }
        on_path[level] = level_set

    # 3. Restricted replay: plain BFS that keeps only on-path nodes.
    predecessor = {source: None}
    frontier = [source]
    for level in range(1, distance + 1):
        if level <= forward_radius:
            level_set = on_path[level]
        else:
            remaining = distance - level
            level_set = None
        next_frontier = []
        for current in frontier:
            for neighbor in adjacency[current]:
                if neighbor in predecessor:
                    continue
                if level_set is None:
                    if backward_distance.get(neighbor) != remaining:
                        continue
                elif neighbor not in level_set:
                    continue
                predecessor[neighbor] = current
                if neighbor == target:
                    return _reconstruct(predecessor, target)
                next_frontier.append(neighbor)
        frontier = next_frontier
    raise AssertionError("restricted replay missed %r" % (target,))


def _expand_level(frontier, adjacency, distance, level):
    """Label the unseen neighbours of ``frontier`` with ``level``; return them."""
    next_frontier = []
    append = next_frontier.append
    for current in frontier:
        for neighbor in adjacency[current]:
            if neighbor not in distance:
                distance[neighbor] = level
                append(neighbor)
    return next_frontier


def _reconstruct(predecessor, target):
    path = [target]
    while predecessor[path[-1]] is not None:
        path.append(predecessor[path[-1]])
    path.reverse()
    return path


class PathComputer(object):
    """Shortest-path oracle with a router-to-router path cache.

    Host access links are always single-hop, so a host-to-host path is the
    concatenation ``[source_host] + router_path + [destination_host]``; only
    the router-to-router segment is cached.
    """

    def __init__(self, network):
        self.network = network
        self._cache = {}

    def route(self, source_host, destination_host):
        """Return the node path from ``source_host`` to ``destination_host``."""
        source_node = self.network.node(source_host)
        destination_node = self.network.node(destination_host)
        if source_node.is_host and destination_node.is_host:
            ingress = source_node.attached_router
            egress = destination_node.attached_router
            if ingress is None or egress is None:
                return shortest_path(self.network, source_host, destination_host)
            router_path = self.router_route(ingress, egress)
            return [source_host] + router_path + [destination_host]
        return shortest_path(self.network, source_host, destination_host)

    def router_route(self, ingress, egress):
        """Return (and cache) the router-level path between two routers."""
        key = (ingress, egress)
        if key not in self._cache:
            self._cache[key] = shortest_path(self.network, ingress, egress)
        return list(self._cache[key])

    def route_links(self, source_host, destination_host):
        """Return the directed links of the path between two hosts."""
        return path_links(self.network, self.route(source_host, destination_host))

    def cache_size(self):
        return len(self._cache)
