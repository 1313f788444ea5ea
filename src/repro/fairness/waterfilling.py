"""Classic water-filling (progressive filling) max-min fair allocation.

This is the textbook algorithm of Bertsekas & Gallager that the paper cites as
"the Water-Filling algorithm [6], [18]" and uses to validate every B-Neck run.

The algorithm: raise one common water level, the rate of every unfrozen
session; a session freezes when one of its links saturates or when the level
reaches its own maximum requested rate.  Each link keeps the load of its
frozen sessions and its count of unfrozen ones, so it saturates at level
``(C_e - frozen load) / unfrozen``; a heap holds those levels, and finite
demands are a sorted list.  The next level is the smaller of the heap top and
the next demand, and only links that share a session frozen at that level are
re-keyed, so a run costs ``O(sum of path lengths * log #links)``.

It stays independent of Centralized B-Neck (:mod:`repro.core.centralized`),
so the two oracles check each other:

* a link saturates when its *load* reaches its capacity under the algebra
  (``frozen load + unfrozen * level >= C_e``), whereas Centralized B-Neck
  groups links whose *estimates* the algebra calls equal to the minimal one;
* a demand is an event on the water level, whereas Centralized B-Neck turns
  it into a virtual link of the modified system.
"""

import heapq
import math

from repro.fairness.algebra import default_algebra
from repro.fairness.allocation import RateAllocation
from repro.fairness.bottleneck import link_incidence


def water_filling(sessions, algebra=None, incidence=None):
    """Compute the max-min fair allocation of ``sessions``.

    Args:
        sessions: iterable of :class:`~repro.network.session.Session`.  Each
            session's path links carry the capacities; each session's
            ``effective_demand()`` bounds its rate.
        algebra: optional :class:`~repro.fairness.algebra.RateAlgebra`.
        incidence: optional :func:`~repro.fairness.bottleneck.link_incidence`
            of ``sessions``, built here when omitted.

    Returns:
        A :class:`~repro.fairness.allocation.RateAllocation` with one entry per
        session.
    """
    algebra = algebra or default_algebra()
    sessions = list(sessions)
    allocation = RateAllocation(algebra=algebra)
    if not sessions:
        return allocation
    if incidence is None:
        incidence = link_incidence(sessions)

    divide = algebra.divide
    greater_equal = algebra.greater_equal
    index_of = {endpoints: position for position, endpoints in enumerate(incidence)}
    capacities = [link.capacity for link, _ in incidence.values()]
    members = [crossing for _, crossing in incidence.values()]
    active = [len(crossing) for crossing in members]
    # Loads start at integer zero so that, under the exact algebra, every
    # arithmetic step stays rational (int + Fraction is a Fraction, whereas
    # float + Fraction falls back to float).
    frozen_load = [0] * len(capacities)
    # Capacities lifted into the algebra's number type, so the subtraction
    # stays exact under ExactAlgebra; only links that are re-keyed need it.
    lifted = [None] * len(capacities)
    # A heap entry is current while its version is the link's; a link with
    # no unfrozen member has version None.
    version = [0] * len(capacities)
    heap = [
        (divide(capacity, count), position, 0)
        for position, (capacity, count) in enumerate(zip(capacities, active))
    ]
    heapq.heapify(heap)
    demands = sorted(
        (session.effective_demand(), order, session)
        for order, session in enumerate(sessions)
        if not math.isinf(session.effective_demand())
    )
    next_demand = 0
    # A saturated link's level is within the load test's tolerance of the
    # water level: at most the algebra's equality gap at the largest capacity
    # (the gap in load divided by the link's unfrozen count, at least 1).
    # Twice that gap also covers the rounding of the two sides.
    largest = max(capacities)
    reach = 2 * (algebra.equal_window(largest)[1] - largest)

    rates = {}
    level = 0

    def freeze(session, rate, touched):
        rates[session.session_id] = rate
        for link in session.links:
            position = index_of[link.endpoints]
            frozen_load[position] = frozen_load[position] + rate
            active[position] -= 1
            touched[position] = None

    for _ in range(len(sessions) + len(capacities) + 1):
        if len(rates) == len(sessions):
            break
        while version[heap[0][1]] != heap[0][2]:
            heapq.heappop(heap)
        while next_demand < len(demands) and demands[next_demand][2].session_id in rates:
            next_demand += 1
        target = heap[0][0]
        if next_demand < len(demands) and demands[next_demand][0] < target:
            target = divide(demands[next_demand][0], 1)
        if target > level:
            level = target

        touched = {}
        # Sessions that reach their demand, clamped to it.
        while next_demand < len(demands) and greater_equal(level, demands[next_demand][0]):
            demand, _, session = demands[next_demand]
            if session.session_id not in rates:
                freeze(session, min(level, demand), touched)
            next_demand += 1

        # Links whose load reaches their capacity: every candidate is tested
        # before any of their members freezes.
        candidates = []
        while heap and heap[0][0] - level <= reach:
            entry = heapq.heappop(heap)
            if version[entry[1]] == entry[2]:
                candidates.append(entry)
        saturated = []
        for entry in candidates:
            position = entry[1]
            if active[position] and greater_equal(
                frozen_load[position] + active[position] * level, capacities[position]
            ):
                saturated.append(position)
            else:
                heapq.heappush(heap, entry)
        for position in saturated:
            for session in members[position]:
                if session.session_id not in rates:
                    freeze(session, level, touched)

        for position in touched:
            if not active[position]:
                version[position] = None
                continue
            if lifted[position] is None:
                lifted[position] = divide(capacities[position], 1)
            version[position] += 1
            heapq.heappush(heap, (
                divide(lifted[position] - frozen_load[position], active[position]),
                position,
                version[position],
            ))
    else:
        remaining = [s.session_id for s in sessions if s.session_id not in rates]
        if remaining:
            raise RuntimeError(
                "water-filling did not converge; %d sessions left: %r"
                % (len(remaining), remaining[:5])
            )

    for session in sessions:
        allocation.set_rate(session.session_id, rates[session.session_id])
    return allocation
