"""Centralized B-Neck (Figure 1 of the paper).

The centralized algorithm discovers bottleneck links iteratively, in increasing
order of their bottleneck rates: at every round it computes, for each remaining
link, the estimate ``B_e = (C_e - sum of already-fixed rates crossing e) / |R_e|``,
fixes the rate of every session crossing a link whose estimate is minimal, and
removes those links from consideration.

It is used exactly as in the paper's evaluation: "every B-Neck execution result
... has been successfully validated against the result obtained when executing
the centralized version with the same input data".

Maximum-rate requests are handled through the paper's *modified system*: each
session with a finite requested rate gets a private virtual link of capacity
``D_s = min(r_s, C_e0)`` prepended to its path.

The estimates live in a heap keyed by ``(estimate, first-seen order,
version)``.  A round pops the minimal group, the heap prefix inside the
algebra's ``equal_window`` of the smallest estimate, and re-keys only the links
on the paths of the sessions it fixed; entries of links re-keyed or removed
since they were pushed are stale and dropped when they surface.  An estimate
changes only when a session crossing its link is fixed, so every other link
keeps the value a full rescan would recompute, and the whole run costs
``O(sum of path lengths * log #links)`` instead of ``#rounds * #links``.
"""

import heapq
import math
from operator import itemgetter

from repro.fairness.algebra import default_algebra
from repro.fairness.allocation import RateAllocation
from repro.fairness.bottleneck import link_incidence

_order_of = itemgetter(1)


def _build_link_table(sessions, incidence):
    """The links of the modified system, in first-seen order.

    Returns ``(capacities, members, index_of, demand_index)``: per link
    position, its capacity and member sessions; the position of each real
    link (by endpoints) and of each session's virtual demand link (by session
    id).  Real links come from ``incidence``; a session's demand link follows
    the links it was first to cross, so positions are the order in which a
    walk over the sessions' paths meets the links.
    """
    capacities = []
    members = []
    index_of = {}
    demand_index = {}
    entries = iter(incidence.items())
    pending = next(entries, None)
    for session in sessions:
        # A link's first member is the session that first crossed it.
        while pending is not None and pending[1][1][0] is session:
            endpoints, (link, crossing) = pending
            index_of[endpoints] = len(capacities)
            capacities.append(link.capacity)
            members.append(crossing)
            pending = next(entries, None)
        demand = session.effective_demand()
        if not math.isinf(demand):
            demand_index[session.session_id] = len(capacities)
            capacities.append(demand)
            members.append((session,))
    return capacities, members, index_of, demand_index


def centralized_bneck(sessions, algebra=None, incidence=None):
    """Compute the max-min fair rates of ``sessions`` with Centralized B-Neck.

    Args:
        sessions: iterable of :class:`~repro.network.session.Session`.
        algebra: optional :class:`~repro.fairness.algebra.RateAlgebra`.
        incidence: optional :func:`~repro.fairness.bottleneck.link_incidence`
            of ``sessions``, built here when omitted.

    Returns:
        A :class:`~repro.fairness.allocation.RateAllocation`.
    """
    algebra = algebra or default_algebra()
    sessions = list(sessions)
    allocation = RateAllocation(algebra=algebra)
    if not sessions:
        return allocation
    if incidence is None:
        incidence = link_incidence(sessions)

    capacities, members, index_of, demand_index = _build_link_table(sessions, incidence)
    divide = algebra.divide
    unfixed = [len(crossing) for crossing in members]         # |R_e|
    # Load of the already-fixed sessions crossing each link (the F_e sum):
    # every session fixed in a round got the same minimal rate, so the sum
    # grows by ``minimum * moved`` per link.
    fixed_load = [0] * len(capacities)
    # Capacities lifted into the algebra's number type, so the subtraction
    # stays exact under ExactAlgebra; only links that are re-keyed need it.
    lifted = [None] * len(capacities)
    # A heap entry is current while its version is the link's; a removed
    # link's version is None.
    version = [0] * len(capacities)
    heap = [
        (divide(capacity, count), position, 0)
        for position, (capacity, count) in enumerate(zip(capacities, unfixed))
    ]
    heapq.heapify(heap)
    rates = {}                                                   # lambda*_s

    while heap:
        if version[heap[0][1]] != heap[0][2]:
            heapq.heappop(heap)
            continue
        high = algebra.equal_window(heap[0][0])[1]
        prefix = []
        while heap and heap[0][0] <= high:
            entry = heapq.heappop(heap)
            if version[entry[1]] == entry[2]:
                prefix.append(entry)
        # The minimum is taken in first-seen order, as a rescan of every live
        # link meets them: among estimates the algebra calls equal, the first
        # met is the rate the group gets.
        prefix.sort(key=_order_of)
        minimum = algebra.minimum(entry[0] for entry in prefix)
        newly_fixed = []
        for entry in prefix:
            if not algebra.equal(entry[0], minimum):
                heapq.heappush(heap, entry)
                continue
            position = entry[1]
            version[position] = None
            for session in members[position]:
                if session.session_id not in rates:
                    rates[session.session_id] = minimum
                    newly_fixed.append(session)

        moved = {}
        for session in newly_fixed:
            for link in session.links:
                position = index_of[link.endpoints]
                if version[position] is not None:
                    moved[position] = moved.get(position, 0) + 1
            position = demand_index.get(session.session_id)
            if position is not None:
                version[position] = None  # its one member is now fixed
        for position, count in moved.items():
            unfixed[position] -= count
            if not unfixed[position]:
                version[position] = None
                continue
            fixed_load[position] = fixed_load[position] + minimum * count
            if lifted[position] is None:
                lifted[position] = divide(capacities[position], 1)
            version[position] += 1
            heapq.heappush(heap, (
                divide(lifted[position] - fixed_load[position], unfixed[position]),
                position,
                version[position],
            ))

    for session in sessions:
        # A session crossing only unsaturated links with infinite demand cannot
        # occur over real (finite-capacity) links, so every session has a rate.
        allocation.set_rate(session.session_id, rates[session.session_id])
    return allocation
