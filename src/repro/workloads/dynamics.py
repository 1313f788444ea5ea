"""Session dynamics: phases of joins, leaves and rate changes.

Experiment 2 of the paper subjects a quiescent B-Neck to five consecutive
phases of churn (mass join, mass leave, mass rate change, another mass join,
and a mixed phase), each phase compressed into a one-millisecond window, and
measures how long the protocol takes to become quiescent again.  A
:class:`DynamicPhase` describes one such phase, and :class:`PhaseWorkload`
runs a list of them as workload rounds, one round per phase.

A phase's schedule is emitted as *actions* (:mod:`repro.core.actions`), not
pre-bound callbacks: :func:`phase_actions` resolves every random choice (who
leaves, who changes, new demands, action times, join endpoints) against the
generator's random streams, producing plain data records.
:meth:`~repro.experiments.runner.ExperimentRunner.run_scenario` drives the
rounds like any stochastic workload's: apply the batch, run to quiescence,
measure (a :class:`~repro.experiments.runner.RunMeasurement` per phase).
"""

import math

from repro.core.actions import ChangeAction, LeaveAction, join_action_from_spec
from repro.workloads.stochastic import StochasticWorkload


class DynamicPhase(object):
    """One phase of session churn.

    Attributes:
        name: label used in reports ("join", "leave", "change", "mixed", ...).
        joins: number of sessions that join during the phase window.
        leaves: number of active sessions that leave.
        changes: number of active sessions that change their maximum rate.
        window: length (seconds) of the burst at the beginning of the phase.
    """

    def __init__(self, name, joins=0, leaves=0, changes=0, window=1e-3):
        if min(joins, leaves, changes) < 0:
            raise ValueError("phase action counts must be non-negative")
        if window <= 0:
            raise ValueError("phase window must be positive")
        self.name = name
        self.joins = joins
        self.leaves = leaves
        self.changes = changes
        self.window = window

    def total_actions(self):
        return self.joins + self.leaves + self.changes

    def __repr__(self):
        return "DynamicPhase(%r, joins=%d, leaves=%d, changes=%d, window=%r)" % (
            self.name,
            self.joins,
            self.leaves,
            self.changes,
            self.window,
        )


def phase_actions(generator, phase, active_ids, start_time, demand_sampler=None):
    """Resolve one churn phase into an action batch.

    Consumes the generator's random streams exactly as the historical
    callback-scheduling implementation did (victim picks, then leave times,
    then change times, then per-change demands, then join specs), so
    fixed-seed schedules are bit-identical to earlier releases.  Joins and
    rate changes draw their demands from ``demand_sampler``.

    Returns the actions ordered leaves, changes, joins -- the order they must
    be applied in.  A phase that asks for more leaves, or more changes among
    the sessions that stay, than ``active_ids`` holds raises ``ValueError``:
    churn is never silently shrunk to fit the population.
    """
    active_ids = list(active_ids)
    if phase.leaves > len(active_ids):
        raise ValueError(
            "phase %r asks for %d leaves but only %d sessions are active"
            % (phase.name, phase.leaves, len(active_ids))
        )
    if phase.changes > len(active_ids) - phase.leaves:
        raise ValueError(
            "phase %r asks for %d changes but only %d sessions stay active"
            % (phase.name, phase.changes, len(active_ids) - phase.leaves)
        )
    window = (start_time, start_time + phase.window)

    left_ids = generator.pick_sessions(active_ids, phase.leaves) if phase.leaves else []
    left = set(left_ids)
    remaining = [session_id for session_id in active_ids if session_id not in left]
    changed_ids = generator.pick_sessions(remaining, phase.changes) if phase.changes else []

    actions = []
    for session_id, when in zip(left_ids, generator.random_times(len(left_ids), window)):
        actions.append(LeaveAction(session_id, when))
    for session_id, when in zip(changed_ids, generator.random_times(len(changed_ids), window)):
        new_demand = generator.random_demand(demand_sampler)
        if math.isinf(new_demand):
            new_demand = generator.host_capacity
        actions.append(ChangeAction(session_id, new_demand, when))

    if phase.joins:
        specs = generator.generate(
            phase.joins,
            join_window=window,
            demand_sampler=demand_sampler,
            prefix="%s-" % phase.name,
        )
        for spec in specs:
            actions.append(
                join_action_from_spec(spec, generator.host_capacity, generator.host_delay)
            )
    return actions


class PhaseWorkload(StochasticWorkload):
    """Consecutive churn phases, one workload round per phase.

    The first phase starts at the simulator's current time; each later phase
    starts ``inter_phase_gap`` after the previous phase reached quiescence.
    Every phase resolves against the runner's live membership
    (``runner.active_ids``) and its generator, so a seed replays the whole
    sequence.  Not registered: a phase list cannot be named on a command line.
    """

    name = "phases"

    def __init__(self, phases, demand_sampler=None, inter_phase_gap=0.0):
        self.phases = list(phases)
        self.demand_sampler = demand_sampler
        self.inter_phase_gap = inter_phase_gap

    def rounds(self, runner):
        start = runner.protocol.simulator.now
        for phase in self.phases:
            actions = phase_actions(
                runner.generator,
                phase,
                runner.active_ids,
                start,
                demand_sampler=self.demand_sampler,
            )
            yield phase.name, start, actions
            start = runner.protocol.simulator.now + self.inter_phase_gap
