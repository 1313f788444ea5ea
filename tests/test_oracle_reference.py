"""The three oracles against the full-rescan versions they replaced.

``centralized_bneck`` pops its minimal links from a heap, ``water_filling``
raises one water level from link-saturation and demand events, and
``verify_allocation`` tests each link once.  These tests pin those rewrites to
the full rescans they replaced, kept verbatim below as ``_reference_*``:

* on seeded small and medium populations (infinite and mixed demands) and on
  adversarial hand-built ones, under ``FloatAlgebra`` and ``ExactAlgebra``,
  each oracle returns the reference's rates: identical values under the exact
  algebra, equal under the float algebra's tolerance;
* ``verify_allocation`` reports the reference's ``(kind, subject)`` list on
  oracle outputs and on allocations with one session perturbed by +-1%;
* a counting algebra bounds the divisions of each oracle by
  ``#links + sum of path lengths + #finite-demand sessions``, which the
  full rescans exceed several times over.
"""

import fractions
import itertools
import math
import random

import pytest

from repro.core.centralized import centralized_bneck
from repro.core.protocol import BNeckProtocol
from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.fairness.algebra import ExactAlgebra, FloatAlgebra, default_algebra
from repro.fairness.allocation import RateAllocation
from repro.fairness.bottleneck import link_incidence
from repro.fairness.verification import MaxMinViolation, verify_allocation
from repro.fairness.waterfilling import water_filling
from repro.network.graph import Link
from repro.network.session import Session
from repro.network.transit_stub import medium_network, small_network
from repro.workloads.generator import WorkloadGenerator, mixed_demand

MBPS = 1e6


# ----------------------------------------------------------- full-rescan references


def _reference_build_link_table(sessions, algebra):
    capacities = {}
    members = {}
    for session in sessions:
        for link in session.links:
            key = link.endpoints
            capacities[key] = algebra.divide(link.capacity, 1)
            members.setdefault(key, set()).add(session.session_id)
        demand = session.effective_demand()
        if not math.isinf(demand):
            key = ("demand", session.session_id)
            capacities[key] = algebra.divide(demand, 1)
            members[key] = {session.session_id}
    return capacities, members


def _reference_centralized_bneck(sessions, algebra=None):
    """Centralized B-Neck rescanning every live link each round."""
    algebra = algebra or default_algebra()
    sessions = list(sessions)
    allocation = RateAllocation(algebra=algebra)
    if not sessions:
        return allocation

    capacities, members = _reference_build_link_table(sessions, algebra)

    restricted = {key: set(ids) for key, ids in members.items()}
    fixed_load = {key: 0 for key in members}
    rates = {}
    live_links = [key for key, ids in restricted.items() if ids]

    for _ in range(len(sessions) + 1):
        if not live_links:
            break
        estimates = {}
        for key in live_links:
            estimates[key] = algebra.divide(
                capacities[key] - fixed_load[key], len(restricted[key])
            )
        minimum = algebra.minimum(estimates.values())
        minimal_links = {
            key for key in live_links if algebra.equal(estimates[key], minimum)
        }
        newly_fixed = set()
        for key in minimal_links:
            newly_fixed |= restricted[key]
        for session_id in newly_fixed:
            rates[session_id] = minimum
        next_live = []
        for key in live_links:
            if key in minimal_links:
                continue
            members_here = restricted[key]
            moved = members_here & newly_fixed
            if moved:
                fixed_load[key] = fixed_load[key] + minimum * len(moved)
                members_here -= moved
            if members_here:
                next_live.append(key)
        live_links = next_live
    else:
        if live_links:
            raise RuntimeError("Centralized B-Neck did not terminate")

    for session in sessions:
        allocation.set_rate(session.session_id, rates[session.session_id])
    return allocation


def _reference_water_filling(sessions, algebra=None):
    """Water-filling rescanning every link and unfrozen session each level."""
    algebra = algebra or default_algebra()
    sessions = list(sessions)
    allocation = RateAllocation(algebra=algebra)
    if not sessions:
        return allocation

    rates = {session.session_id: 0 for session in sessions}
    frozen = set()

    link_members = {}
    link_objects = {}
    link_capacity = {}
    for session in sessions:
        for link in session.links:
            link_objects[link.endpoints] = link
            link_capacity[link.endpoints] = algebra.divide(link.capacity, 1)
            link_members.setdefault(link.endpoints, []).append(session)

    active_counts = {ep: len(members) for ep, members in link_members.items()}
    loads = {ep: 0 for ep in link_members}
    path_keys = {s.session_id: [link.endpoints for link in s.links] for s in sessions}
    demands = {s.session_id: s.effective_demand() for s in sessions}

    def freeze(session_id):
        frozen.add(session_id)
        for endpoints in path_keys[session_id]:
            active_counts[endpoints] -= 1

    max_iterations = len(sessions) + len(link_objects) + 1
    for _ in range(max_iterations):
        unfrozen = [session for session in sessions if session.session_id not in frozen]
        if not unfrozen:
            break

        increment = math.inf
        for endpoints, active_count in active_counts.items():
            if not active_count:
                continue
            headroom = link_capacity[endpoints] - loads[endpoints]
            if headroom < 0:
                headroom = 0
            share = algebra.divide(headroom, active_count)
            if algebra.less(share, increment):
                increment = share
        for session in unfrozen:
            remaining_demand = demands[session.session_id] - rates[session.session_id]
            if algebra.less(remaining_demand, increment):
                increment = remaining_demand

        if math.isinf(increment):
            raise RuntimeError("water-filling diverged: unconstrained sessions remain")

        if increment > 0:
            for session in unfrozen:
                rates[session.session_id] += increment
            for endpoints, active_count in active_counts.items():
                if active_count:
                    loads[endpoints] += increment * active_count

        for session in unfrozen:
            session_id = session.session_id
            if algebra.greater_equal(rates[session_id], demands[session_id]):
                clamped = min(rates[session_id], demands[session_id])
                if clamped != rates[session_id]:
                    delta = clamped - rates[session_id]
                    for endpoints in path_keys[session_id]:
                        loads[endpoints] += delta
                    rates[session_id] = clamped
                freeze(session_id)

        for endpoints, members in link_members.items():
            if not active_counts[endpoints]:
                continue
            if algebra.greater_equal(loads[endpoints], link_capacity[endpoints]):
                for member in members:
                    if member.session_id not in frozen:
                        freeze(member.session_id)
    else:
        remaining = [s.session_id for s in sessions if s.session_id not in frozen]
        if remaining:
            raise RuntimeError(
                "water-filling did not converge; %d sessions left: %r"
                % (len(remaining), remaining[:5])
            )

    for session in sessions:
        allocation.set_rate(session.session_id, rates[session.session_id])
    return allocation


def _reference_verify_allocation(sessions, allocation, algebra=None):
    """The max-min predicate testing every member of every candidate link."""
    algebra = algebra or default_algebra()
    sessions = list(sessions)
    violations = []

    for session in sessions:
        if session.session_id not in allocation:
            violations.append(
                MaxMinViolation("missing-rate", session.session_id, "no rate assigned")
            )
    if violations:
        return violations

    links = {}
    for session in sessions:
        for link in session.links:
            links.setdefault(link.endpoints, (link, []))[1].append(session)
    saturated = {}
    for endpoints, (link, members) in links.items():
        load = sum(float(allocation.rate(s.session_id)) for s in members)
        saturated[endpoints] = algebra.equal(load, link.capacity)
        if algebra.greater(load, link.capacity):
            violations.append(
                MaxMinViolation(
                    "overloaded-link",
                    link.endpoints,
                    "load %.6g exceeds capacity %.6g" % (load, link.capacity),
                )
            )

    for session in sessions:
        rate = float(allocation.rate(session.session_id))
        demand = float(session.effective_demand())
        if algebra.greater(rate, demand):
            violations.append(
                MaxMinViolation(
                    "demand-exceeded",
                    session.session_id,
                    "rate %.6g exceeds demand %.6g" % (rate, demand),
                )
            )
            continue
        if algebra.equal(rate, demand):
            continue
        has_bottleneck = False
        for link in session.links:
            endpoints = link.endpoints
            if not saturated[endpoints]:
                continue
            if all(
                algebra.less_equal(float(allocation.rate(other.session_id)), rate)
                for other in links[endpoints][1]
            ):
                has_bottleneck = True
                break
        if not has_bottleneck:
            violations.append(
                MaxMinViolation(
                    "no-bottleneck",
                    session.session_id,
                    "rate %.6g is below demand %.6g and no path link is a bottleneck"
                    % (rate, demand),
                )
            )
    return violations


# ------------------------------------------------------------------ populations


def _generated_sessions(builder, count, seed, demand_sampler=None):
    """``count`` random sessions routed over a seeded network, not simulated."""
    network = builder("lan", seed=seed)
    generator = WorkloadGenerator(network, seed=seed)
    protocol = BNeckProtocol(network)
    sessions = []
    for spec in generator.generate(count, demand_sampler=demand_sampler):
        source_host = network.attach_host(spec.source_router, 100 * MBPS, 1e-6)
        destination_host = network.attach_host(spec.destination_router, 100 * MBPS, 1e-6)
        sessions.append(
            protocol.create_session(
                source_host.node_id,
                destination_host.node_id,
                demand=spec.demand,
                session_id=spec.session_id,
            )
        )
    return sessions


_SEEDED = [
    (name, builder, count, seed, demands)
    for name, builder, counts in (
        ("small", small_network, (20, 40)),
        ("medium", medium_network, (60, 120)),
    )
    for count in counts
    for seed in (1, 2, 3)
    for demands in ("infinite", "mixed")
]


def _seeded_population(builder, count, seed, demands):
    sampler = mixed_demand(0.5, 1 * MBPS, 80 * MBPS) if demands == "mixed" else None
    return _generated_sessions(builder, count, seed, sampler)


_HOSTS = itertools.count()


def _session(session_id, links, demand=math.inf, access_capacity=1000 * MBPS):
    """A session over ``links`` behind a private access link."""
    host = "h%d" % next(_HOSTS)
    access = Link(host, links[0].source, access_capacity, 1e-6)
    path = [access] + list(links)
    nodes = [host] + [link.target for link in path]
    return Session(session_id, host, nodes[-1], nodes, path, demand)


def _chain(capacities, name="c"):
    """Links ``c0 -> c1 -> ...`` with the given capacities."""
    return [
        Link("%s%d" % (name, index), "%s%d" % (name, index + 1), capacity, 1e-6)
        for index, capacity in enumerate(capacities)
    ]


def _parking_lot(capacities, shorts_per_hop=1, long_demand=math.inf):
    """One session across every hop plus ``shorts_per_hop`` one-hop sessions each."""
    links = _chain(capacities)
    sessions = [_session("long", links, demand=long_demand)]
    for index, link in enumerate(links):
        for short in range(shorts_per_hop):
            sessions.append(_session("short%d.%d" % (index, short), [link]))
    return sessions


def _near_equal_levels():
    # Saturation levels spread 1e-10 relative apart: one level for the float
    # algebra's tolerance, distinct levels for the exact algebra.
    return _parking_lot([100 * MBPS * (1 + 1e-10 * step) for step in (3, 0, 2, 1, 4)])


def _demand_at_link_level():
    # The link level is 50 Mbps; one session asks for exactly that, another
    # for a third of the link (not a float the link division reproduces).
    link = _chain([100 * MBPS], "half")
    third = _chain([150 * MBPS], "third")
    return [
        _session("capped", link, demand=50 * MBPS),
        _session("free", link),
        _session("third-a", third, demand=50 * MBPS),
        _session("third-b", third),
        _session("third-c", third, demand=150 * MBPS / 3),
    ]


def _many_links_at_one_level():
    # Twelve hops of equal capacity: every link saturates at the same level.
    return _parking_lot([100 * MBPS] * 12, shorts_per_hop=2)


def _crossing_every_link():
    # A demand-limited session crossing every link of a chain with mixed
    # capacities, plus shorts with staggered demands.
    links = _chain([40 * MBPS, 90 * MBPS, 60 * MBPS, 100 * MBPS, 75 * MBPS])
    sessions = [_session("long", links)]
    for index, link in enumerate(links):
        sessions.append(_session("short%d" % index, [link], demand=(5 + 9 * index) * MBPS))
        sessions.append(_session("free%d" % index, [link]))
    sessions.append(_session("capped-long", links, demand=7 * MBPS))
    return sessions


_ADVERSARIAL = {
    "near-equal-levels": _near_equal_levels,
    "demand-at-link-level": _demand_at_link_level,
    "many-links-at-one-level": _many_links_at_one_level,
    "crossing-every-link": _crossing_every_link,
}

ALGEBRAS = {"float": FloatAlgebra, "exact": ExactAlgebra}


def _assert_same_rates(actual, expected, sessions, algebra, exact):
    assert actual.session_ids() == expected.session_ids()
    for session in sessions:
        got = actual.rate(session.session_id)
        want = expected.rate(session.session_id)
        if exact:
            assert got == want, (session.session_id, got, want)
            assert isinstance(got, fractions.Fraction), (session.session_id, got)
        else:
            assert algebra.equal(got, want), (session.session_id, got, want)


def _kinds(violations):
    return [(violation.kind, violation.subject) for violation in violations]


def _perturbed(allocation, session_id, factor):
    rates = dict(allocation.items())
    rates[session_id] = rates[session_id] * factor
    return RateAllocation(rates, algebra=allocation.algebra)


def _check_population(sessions, algebra_name):
    algebra = ALGEBRAS[algebra_name]()
    exact = algebra_name == "exact"
    expected = _reference_centralized_bneck(sessions, algebra)
    incidence = link_incidence(sessions)

    centralized = centralized_bneck(sessions, algebra=algebra)
    _assert_same_rates(centralized, expected, sessions, algebra, exact)
    shared = centralized_bneck(sessions, algebra=algebra, incidence=incidence)
    assert list(shared.items()) == list(centralized.items())

    reference_filled = _reference_water_filling(sessions, algebra)
    filled = water_filling(sessions, algebra=algebra, incidence=incidence)
    assert list(water_filling(sessions, algebra=algebra).items()) == list(filled.items())
    if exact:
        # Exact water-filling is the exact max-min allocation, so it equals
        # exact Centralized B-Neck.  The reference returned a float wherever
        # a float demand froze a session (``float - Fraction`` is a float),
        # so it is matched only where it stayed rational.
        _assert_same_rates(filled, expected, sessions, algebra, exact)
        if all(isinstance(rate, fractions.Fraction) for _, rate in reference_filled.items()):
            _assert_same_rates(filled, reference_filled, sessions, algebra, exact)
    else:
        _assert_same_rates(filled, reference_filled, sessions, algebra, exact)

    rng = random.Random(len(sessions))
    victims = rng.sample([session.session_id for session in sessions], 2)
    allocations = [expected, filled]
    for victim in victims:
        for factor in (fractions.Fraction(101, 100), fractions.Fraction(99, 100)):
            allocations.append(_perturbed(expected, victim, factor if exact else float(factor)))
    for allocation in allocations:
        want = _kinds(_reference_verify_allocation(sessions, allocation, algebra))
        assert _kinds(verify_allocation(sessions, allocation, algebra=algebra)) == want
        assert _kinds(
            verify_allocation(sessions, allocation, algebra=algebra, incidence=incidence)
        ) == want
    return expected


# ------------------------------------------------------------------------ tests


@pytest.mark.parametrize("algebra_name", sorted(ALGEBRAS))
@pytest.mark.parametrize(
    "name, builder, count, seed, demands",
    _SEEDED,
    ids=["%s-%d-seed%d-%s" % (n, c, s, d) for n, _b, c, s, d in _SEEDED],
)
def test_seeded_populations_match_the_references(name, builder, count, seed, demands,
                                                 algebra_name):
    sessions = _seeded_population(builder, count, seed, demands)
    _check_population(sessions, algebra_name)


@pytest.mark.parametrize("algebra_name", sorted(ALGEBRAS))
@pytest.mark.parametrize("case", sorted(_ADVERSARIAL))
def test_adversarial_populations_match_the_references(case, algebra_name):
    sessions = _ADVERSARIAL[case]()
    expected = _check_population(sessions, algebra_name)
    # The perturbed allocations above must include real violations.
    victim = sessions[0].session_id
    for factor in (1.01, 0.99):
        raised = _perturbed(expected, victim, factor)
        assert verify_allocation(sessions, raised, algebra=ALGEBRAS[algebra_name]())


def test_near_equal_levels_form_one_float_group_and_distinct_exact_ones():
    sessions = _near_equal_levels()
    floats = centralized_bneck(sessions)
    assert len({floats.rate(session.session_id) for session in sessions}) == 1
    exact = centralized_bneck(sessions, algebra=ExactAlgebra())
    assert len({exact.rate(session.session_id) for session in sessions}) > 2


class _CountingAlgebra(FloatAlgebra):
    """``FloatAlgebra`` counting its divisions."""

    def __init__(self):
        super(_CountingAlgebra, self).__init__()
        self.divides = 0

    def divide(self, numerator, denominator):
        self.divides += 1
        return numerator / denominator


def test_oracle_divisions_are_linear_in_the_incidence():
    runner = ExperimentRunner(ScenarioSpec(size="medium", seed=3), generator_seed=3)
    sessions = list(runner.populate(400).values())
    links = len(link_incidence(sessions))
    path_lengths = sum(len(session.links) for session in sessions)
    finite_demands = sum(
        1 for session in sessions if not math.isinf(session.effective_demand())
    )
    bound = links + path_lengths + finite_demands
    assert bound == 5351
    for oracle in (centralized_bneck, water_filling):
        algebra = _CountingAlgebra()
        oracle(sessions, algebra=algebra)
        assert algebra.divides <= bound, (oracle.__name__, algebra.divides, bound)
