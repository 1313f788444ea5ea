"""Experiment 2 (Figure 6): stability of B-Neck under a highly dynamic workload.

A Medium/LAN network goes through five consecutive phases of churn, each
compressed into the first millisecond of its phase:

1. a mass **join** establishes the population;
2. a mass **leave** removes 20% of the sessions;
3. a mass **rate change** alters the demand of 20% of the sessions;
4. another mass **join** adds 20% more sessions;
5. a **mixed** phase joins, leaves and changes 20% each, simultaneously.

The paper reports (a) the time each phase needs to reach quiescence again and
(b) the number of control packets of each type transmitted per 5 ms interval
(Figure 6).  Counts are scaled down from the paper's 100,000-session population
by default (see DESIGN.md); the ratios between phases are preserved.
"""

from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.network.transit_stub import LAN
from repro.workloads.dynamics import DynamicPhase
from repro.workloads.generator import uniform_demand
from repro.workloads.scenarios import NetworkScenario


def DEFAULT_PHASES(initial_sessions, churn_fraction=0.2, window=1e-3):
    """The paper's five phases, scaled to ``initial_sessions``."""
    churn = max(1, int(round(initial_sessions * churn_fraction)))
    return [
        DynamicPhase("join", joins=initial_sessions, window=window),
        DynamicPhase("leave", leaves=churn, window=window),
        DynamicPhase("change", changes=churn, window=window),
        DynamicPhase("join2", joins=churn, window=window),
        DynamicPhase("mixed", joins=churn, leaves=churn, changes=churn, window=window),
    ]


class Experiment2Config(object):
    """Knobs of the Experiment 2 run."""

    def __init__(
        self,
        size="medium",
        delay_model=LAN,
        initial_sessions=500,
        churn_fraction=0.2,
        window=1e-3,
        interval=5e-3,
        inter_phase_gap=1e-3,
        demand_low=1e6,
        demand_high=80e6,
        seed=0,
        validate=True,
        notification_log=None,
        notification_batch_window=None,
    ):
        self.size = size
        self.delay_model = delay_model
        self.initial_sessions = initial_sessions
        self.churn_fraction = churn_fraction
        self.window = window
        self.interval = interval
        self.inter_phase_gap = inter_phase_gap
        self.demand_low = demand_low
        self.demand_high = demand_high
        self.seed = seed
        self.validate = validate
        self.notification_log = notification_log
        self.notification_batch_window = notification_batch_window

    def phases(self):
        return DEFAULT_PHASES(self.initial_sessions, self.churn_fraction, self.window)

    def scenario(self):
        return NetworkScenario(self.size, self.delay_model, seed=self.seed)

    def spec(self):
        """The :class:`~repro.experiments.runner.ScenarioSpec` of this config."""
        return ScenarioSpec(
            size=self.size,
            delay_model=self.delay_model,
            seed=self.seed,
            tracer_interval=self.interval,
            notification_log=self.notification_log,
            notification_batch_window=self.notification_batch_window,
            validate=self.validate,
        )

    def __repr__(self):
        return "Experiment2Config(size=%r, sessions=%d, churn=%.0f%%)" % (
            self.size,
            self.initial_sessions,
            self.churn_fraction * 100,
        )


class Experiment2Result(object):
    """Per-phase quiescence timings plus the per-interval packet-type series."""

    def __init__(self, config, outcomes, interval_series, validated, rate_callbacks=0,
                 final_allocation=None):
        self.config = config
        self.outcomes = outcomes
        self.interval_series = interval_series
        self.validated = validated
        self.rate_callbacks = rate_callbacks
        self.final_allocation = final_allocation or {}

    def phase_durations(self):
        """``{phase name: seconds until quiescence}``."""
        return {outcome.phase.name: outcome.duration for outcome in self.outcomes}

    def phase_packets(self):
        """``{phase name: control packets transmitted during the phase}``."""
        return {outcome.phase.name: outcome.packets for outcome in self.outcomes}

    def total_packets(self):
        return sum(outcome.packets for outcome in self.outcomes)

    def __repr__(self):
        return "Experiment2Result(phases=%d, total_packets=%d, validated=%r)" % (
            len(self.outcomes),
            self.total_packets(),
            self.validated,
        )


def run_experiment2(config=None, progress=None):
    """Run Experiment 2 and return an :class:`Experiment2Result`."""
    config = config or Experiment2Config()
    demand_sampler = uniform_demand(config.demand_low, config.demand_high)
    with ExperimentRunner(
        config.spec(), generator_seed=config.seed, progress=progress
    ) as runner:
        outcomes = runner.run_phases(
            config.phases(),
            demand_sampler=demand_sampler,
            inter_phase_gap=config.inter_phase_gap,
        )

        validated = True
        if config.validate:
            validated = runner.validate()

        return Experiment2Result(
            config=config,
            outcomes=outcomes,
            interval_series=runner.tracer.interval_series(),
            validated=validated,
            rate_callbacks=runner.protocol.rate_callbacks,
            final_allocation=runner.protocol.notified_allocation().as_dict(),
        )
