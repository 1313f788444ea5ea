"""Open-loop stochastic scenarios: sustained churn, flash crowds, capacity dynamics.

Experiment 2 of the paper only exercises compressed five-phase churn bursts.
This module opens the scenario-diversity axis with *open-loop* stochastic
processes -- the workload does not react to protocol state, so an entire
segment of it can be resolved up front and emitted as plain
:mod:`repro.core.actions` batches:

* :class:`PoissonChurnWorkload` -- Poisson session arrivals with
  exponentially distributed holding times (an M/M/∞-style session process);
* :class:`FlashCrowdWorkload` -- a burst of correlated joins whose
  destinations all land in one stub-domain subtree;
* :class:`HeavyTailedDemandWorkload` -- storms of ``API.Change`` requests
  with Pareto-distributed (heavy-tailed) new demands;
* :class:`CapacityDynamicsWorkload` -- link-capacity degradations and
  recoveries (:class:`~repro.core.actions.CapacityChangeAction`), validated
  against the water-filling oracle at every quiescence point.

The action contract
-------------------

A workload yields *rounds*: ``(label, start, actions)`` batches in which
every random choice (endpoints, demands, times, links, factors) has already
been resolved against the runner's seeded random streams.  ``start`` is at or
after the yield-time clock, every action carries an absolute time at or after
``start``, and the round's measured duration runs from ``start`` to its
quiescence.  Because the batch is plain data applied through the protocol's
``apply_actions``, a seed replays the same scenario bit-identically (the
goldens in ``tests/data/cross_engine_goldens.json`` enforce this).  Rounds
are generated lazily: each one anchors at the simulator clock *after* the
previous round reached quiescence, so sustained processes of any length never
schedule an action in the past.

:meth:`repro.experiments.runner.ExperimentRunner.run_scenario` drives a
workload end to end -- apply a round, run to quiescence, validate against
the centralized/water-filling oracles, repeat -- and
``ScenarioSpec(workload=...)`` names one declaratively (see
``docs/workloads.md`` for the authoring guide).
"""

from repro.core.actions import (
    CapacityChangeAction,
    ChangeAction,
    JoinAction,
    LeaveAction,
    join_action_from_spec,
)
from repro.network.transit_stub import STUB_TIER
from repro.workloads.generator import uniform_demand

#: Registry of named workloads (name -> class), fed by ``@register_workload``.
WORKLOADS = {}


def register_workload(cls):
    """Class decorator: make a workload constructible by its ``name``."""
    if not cls.name:
        raise ValueError("workload %r needs a non-empty `name`" % (cls,))
    WORKLOADS[cls.name] = cls
    return cls


def make_workload(ref, **parameters):
    """Resolve a workload reference into an instance.

    ``ref`` may be an instance (returned as-is; parameters disallowed), a
    workload class, or a registered name like ``"poisson-churn"``.
    """
    if isinstance(ref, StochasticWorkload):
        if parameters:
            raise ValueError(
                "workload %r is already constructed; parameters %r cannot be "
                "applied (pass the name or class instead)"
                % (ref.name, sorted(parameters))
            )
        return ref
    if isinstance(ref, type) and issubclass(ref, StochasticWorkload):
        return ref(**parameters)
    if isinstance(ref, str):
        try:
            cls = WORKLOADS[ref]
        except KeyError:
            raise ValueError(
                "unknown workload %r (registered: %s)" % (ref, sorted(WORKLOADS))
            ) from None
        return cls(**parameters)
    raise TypeError(
        "workload must be a StochasticWorkload, a workload class or a "
        "registered name, got %r" % (ref,)
    )


def destination_subtrees(network):
    """Group the stub routers into their stub-domain 'subtrees'.

    Returns ``{domain_prefix: [router ids]}`` using the transit-stub naming
    scheme (``s<domain>.<sponsor>.<stub>.<node>``).  Teaching topologies
    without a stub tier degrade to one group holding every router.
    """
    domains = {}
    for node in network.routers():
        if node.tier == STUB_TIER:
            domains.setdefault(node.node_id.rsplit(".", 1)[0], []).append(node.node_id)
    if not domains:
        domains["all"] = [node.node_id for node in network.routers()]
    return domains


def crossed_router_links(protocol):
    """The directed router-to-router links crossed by active sessions, sorted.

    This is the interesting candidate set for capacity dynamics: changing an
    uncrossed link's capacity perturbs nothing.  Computed from session paths
    only, and sorted, so it is deterministic at any quiescence point.
    """
    network = protocol.network
    crossed = set()
    for session in protocol.active_sessions():
        for link in session.transit_links:
            source, target = link.endpoints
            if network.node(source).is_router and network.node(target).is_router:
                crossed.add((source, target))
    return sorted(crossed)


class StochasticWorkload(object):
    """Base class: a named generator of action rounds.

    Subclasses implement :meth:`rounds`, a *lazy* generator of
    ``(label, start, actions)`` batches.  Between two yields the caller
    applies the batch and runs the protocol to quiescence, so each round must
    read ``runner.protocol.simulator.now`` afresh, date ``start`` no earlier
    than it and its actions no earlier than ``start``.  All randomness must
    come from the runner's generator streams (``runner.generator.random_source``
    et al.) so a seed pins the entire scenario.
    """

    name = None

    def rounds(self, runner):
        raise NotImplementedError

    def __repr__(self):
        return "%s(name=%r)" % (type(self).__name__, self.name)


@register_workload
class PoissonChurnWorkload(StochasticWorkload):
    """Open-loop Poisson arrivals with exponential holding times.

    Sessions arrive as a Poisson process of rate ``arrival_rate`` (per
    second) over a segment of length ``horizon``; each holds for an
    ``Exp(1/mean_holding)`` duration and leaves.  ``segments`` consecutive
    segments are emitted, each anchored after the previous segment's
    quiescence; a session whose departure falls beyond its segment carries
    its *residual* holding time into the following segments (the
    inter-segment quiescence gap is frozen time for the session process), so
    the population converges toward the M/M/inf steady state
    ``arrival_rate * mean_holding``.  Sessions still holding after the last
    segment remain in service at the measurement point.
    """

    name = "poisson-churn"

    def __init__(
        self,
        arrival_rate=3000.0,
        mean_holding=5e-3,
        horizon=10e-3,
        segments=2,
        demand_low=1e6,
        demand_high=80e6,
        start_offset=1e-4,
    ):
        if arrival_rate <= 0 or mean_holding <= 0 or horizon <= 0:
            raise ValueError("arrival_rate, mean_holding and horizon must be positive")
        if segments < 1:
            raise ValueError("need at least one segment")
        self.arrival_rate = arrival_rate
        self.mean_holding = mean_holding
        self.horizon = horizon
        self.segments = segments
        self.demand_low = demand_low
        self.demand_high = demand_high
        self.start_offset = start_offset

    def rounds(self, runner):
        generator = runner.generator
        rng = generator.random_source
        sampler = uniform_demand(self.demand_low, self.demand_high)
        carried = []  # (session_id, residual holding beyond the previous segment)
        for segment in range(1, self.segments + 1):
            start = runner.protocol.simulator.now + self.start_offset
            end = start + self.horizon
            actions = []
            next_carried = []
            for session_id, residual in carried:
                departure = start + residual
                if departure < end:
                    actions.append(LeaveAction(session_id, departure))
                else:
                    next_carried.append((session_id, departure - end))
            arrivals = 0
            t = start
            while True:
                t += rng.expovariate(self.arrival_rate)
                if t >= end:
                    break
                arrivals += 1
                spec = generator.generate(
                    1,
                    join_window=(t, t),
                    demand_sampler=sampler,
                    prefix="%s%d-" % (self.name, segment),
                )[0]
                actions.append(
                    join_action_from_spec(
                        spec, generator.host_capacity, generator.host_delay
                    )
                )
                departure = t + rng.expovariate(1.0 / self.mean_holding)
                if departure < end:
                    actions.append(LeaveAction(spec.session_id, departure))
                else:
                    next_carried.append((spec.session_id, departure - end))
            carried = next_carried
            yield ("%s segment %d (%d arrivals)" % (self.name, segment, arrivals), start, actions)


@register_workload
class FlashCrowdWorkload(StochasticWorkload):
    """A flash crowd: many correlated joins onto one destination subtree.

    A base population joins first; then ``crowd_size`` sessions arrive within
    a ``crowd_window`` burst, every destination attached inside a single
    randomly chosen stub domain (the 'subtree' under one sponsoring transit
    router) while sources stay uniform -- the hot-spot pattern that
    concentrates load on the domain's gateway links.  With ``depart`` the
    crowd drains away in a final round, returning the network to its base
    allocation.
    """

    name = "flash-crowd"

    def __init__(
        self,
        base_sessions=20,
        crowd_size=40,
        crowd_window=2e-4,
        base_window=1e-3,
        demand_low=1e6,
        demand_high=80e6,
        depart=True,
        start_offset=1e-4,
    ):
        if base_sessions < 0 or crowd_size < 1:
            raise ValueError("need a non-negative base and at least one crowd session")
        self.base_sessions = base_sessions
        self.crowd_size = crowd_size
        self.crowd_window = crowd_window
        self.base_window = base_window
        self.demand_low = demand_low
        self.demand_high = demand_high
        self.depart = depart
        self.start_offset = start_offset

    def rounds(self, runner):
        generator = runner.generator
        rng = generator.random_source
        sampler = uniform_demand(self.demand_low, self.demand_high)

        if self.base_sessions:
            start = runner.protocol.simulator.now + self.start_offset
            specs = generator.generate(
                self.base_sessions,
                join_window=(start, start + self.base_window),
                demand_sampler=sampler,
                prefix="%s-base-" % self.name,
            )
            actions = [
                join_action_from_spec(spec, generator.host_capacity, generator.host_delay)
                for spec in specs
            ]
            yield ("%s base population (%d)" % (self.name, self.base_sessions), start, actions)

        subtrees = destination_subtrees(runner.network)
        subtree = rng.choice(sorted(subtrees))
        targets = subtrees[subtree]
        start = runner.protocol.simulator.now + self.start_offset
        crowd_ids = []
        actions = []
        for index in range(1, self.crowd_size + 1):
            destination = rng.choice(targets)
            sources = [
                router
                for router in generator.attachment_routers
                if router != destination
            ]
            session_id = "%s-crowd-%d" % (self.name, index)
            crowd_ids.append(session_id)
            actions.append(
                JoinAction(
                    session_id=session_id,
                    source_router=rng.choice(sources),
                    destination_router=destination,
                    demand=sampler(rng),
                    at=rng.uniform(start, start + self.crowd_window),
                    host_capacity=generator.host_capacity,
                    host_delay=generator.host_delay,
                )
            )
        yield (
            "%s crowd of %d onto subtree %s" % (self.name, self.crowd_size, subtree),
            start,
            actions,
        )

        if self.depart:
            start = runner.protocol.simulator.now + self.start_offset
            times = generator.random_times(
                len(crowd_ids), (start, start + self.base_window)
            )
            actions = [
                LeaveAction(session_id, when)
                for session_id, when in zip(crowd_ids, times)
            ]
            yield ("%s crowd departs" % self.name, start, actions)


@register_workload
class HeavyTailedDemandWorkload(StochasticWorkload):
    """Storms of rate changes with Pareto (heavy-tailed) new demands.

    A fixed population joins with uniform demands; then each of ``bursts``
    rounds re-negotiates ``changes_per_burst`` distinct sessions to demands
    drawn from ``scale * Pareto(alpha)`` (clamped to the host access
    capacity).  With ``alpha <= 2`` the demand distribution has infinite
    variance: most changes are small, a few are enormous -- the elephant/mice
    mix that shifts bottlenecks between bursts.
    """

    name = "heavy-tailed-demand"

    def __init__(
        self,
        sessions=30,
        bursts=2,
        changes_per_burst=20,
        alpha=1.5,
        scale=2e6,
        window=1e-3,
        demand_low=1e6,
        demand_high=40e6,
        start_offset=1e-4,
    ):
        if changes_per_burst > sessions:
            raise ValueError(
                "changes_per_burst (%d) cannot exceed the population (%d): "
                "changes pick distinct sessions" % (changes_per_burst, sessions)
            )
        if alpha <= 0 or scale <= 0:
            raise ValueError("alpha and scale must be positive")
        self.sessions = sessions
        self.bursts = bursts
        self.changes_per_burst = changes_per_burst
        self.alpha = alpha
        self.scale = scale
        self.window = window
        self.demand_low = demand_low
        self.demand_high = demand_high
        self.start_offset = start_offset

    def rounds(self, runner):
        generator = runner.generator
        rng = generator.random_source
        sampler = uniform_demand(self.demand_low, self.demand_high)

        start = runner.protocol.simulator.now + self.start_offset
        specs = generator.generate(
            self.sessions,
            join_window=(start, start + self.window),
            demand_sampler=sampler,
            prefix="%s-" % self.name,
        )
        population = [spec.session_id for spec in specs]
        actions = [
            join_action_from_spec(spec, generator.host_capacity, generator.host_delay)
            for spec in specs
        ]
        yield ("%s population (%d)" % (self.name, self.sessions), start, actions)

        for burst in range(1, self.bursts + 1):
            start = runner.protocol.simulator.now + self.start_offset
            victims = generator.pick_sessions(population, self.changes_per_burst)
            times = generator.random_times(
                len(victims), (start, start + self.window)
            )
            actions = []
            for session_id, when in zip(victims, times):
                demand = min(
                    self.scale * rng.paretovariate(self.alpha),
                    generator.host_capacity,
                )
                actions.append(ChangeAction(session_id, demand, when))
            yield ("%s burst %d (%d changes)" % (self.name, burst, len(actions)), start, actions)


@register_workload
class CapacityDynamicsWorkload(StochasticWorkload):
    """Link-capacity degradations and recovery under a live population.

    After a population joins, each of ``events`` rounds picks one directed
    router-to-router link currently crossed by active sessions and rescales
    its capacity (both directions) by a factor drawn from
    ``[factor_low, factor_high]`` of the link's *original* bandwidth --
    modelling partial degradation (factors < 1) or upgrades (factors > 1).
    Every event is followed by a quiescence point where the allocation is
    validated against the water-filling oracle on the *updated* capacities;
    a final round (``restore``) returns every touched link to its original
    bandwidth and validates once more.
    """

    name = "capacity-dynamics"

    def __init__(
        self,
        sessions=30,
        events=3,
        factor_low=0.08,
        factor_high=0.5,
        restore=True,
        window=1e-3,
        demand_low=1e6,
        demand_high=80e6,
        start_offset=1e-4,
    ):
        if events < 1:
            raise ValueError("need at least one capacity event")
        if factor_low <= 0 or factor_high < factor_low:
            raise ValueError("need 0 < factor_low <= factor_high")
        self.sessions = sessions
        self.events = events
        self.factor_low = factor_low
        self.factor_high = factor_high
        self.restore = restore
        self.window = window
        self.demand_low = demand_low
        self.demand_high = demand_high
        self.start_offset = start_offset

    def rounds(self, runner):
        generator = runner.generator
        rng = generator.random_source
        sampler = uniform_demand(self.demand_low, self.demand_high)

        start = runner.protocol.simulator.now + self.start_offset
        specs = generator.generate(
            self.sessions,
            join_window=(start, start + self.window),
            demand_sampler=sampler,
            prefix="%s-" % self.name,
        )
        actions = [
            join_action_from_spec(spec, generator.host_capacity, generator.host_delay)
            for spec in specs
        ]
        yield ("%s population (%d)" % (self.name, self.sessions), start, actions)

        # Original bandwidth per *directed* link, recorded for both directions
        # the first time an event touches their pair: every cut scales each
        # direction from its own first-seen capacity (so reverse-direction
        # picks in later events never compound on an already-cut value, and
        # asymmetric per-direction bandwidths are preserved), and the restore
        # round undoes exactly these recordings.
        originals = {}
        network = runner.network
        for event in range(1, self.events + 1):
            candidates = crossed_router_links(runner.protocol)
            if not candidates:
                break
            source, target = rng.choice(candidates)
            for endpoints in ((source, target), (target, source)):
                if endpoints not in originals:
                    originals[endpoints] = network.link(*endpoints).capacity
            factor = rng.uniform(self.factor_low, self.factor_high)
            at = runner.protocol.simulator.now + self.start_offset
            actions = [
                CapacityChangeAction(
                    source, target, originals[(source, target)] * factor, at
                ),
                CapacityChangeAction(
                    target, source, originals[(target, source)] * factor, at
                ),
            ]
            yield (
                "%s event %d: %s->%s x%.2f" % (self.name, event, source, target, factor),
                at,
                actions,
            )

        if self.restore and originals:
            at = runner.protocol.simulator.now + self.start_offset
            actions = [
                CapacityChangeAction(source, target, capacity, at)
                for (source, target), capacity in sorted(originals.items())
            ]
            yield (
                "%s restore (%d links)" % (self.name, len(originals) // 2),
                at,
                actions,
            )
