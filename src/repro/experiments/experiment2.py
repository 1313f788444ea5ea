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

The phases run as a :class:`~repro.workloads.dynamics.PhaseWorkload` through
:meth:`~repro.experiments.runner.ExperimentRunner.run_scenario`, one round per
phase; the final allocation is validated once, after the last phase.
"""

from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.network.transit_stub import LAN
from repro.workloads.dynamics import DynamicPhase, PhaseWorkload
from repro.workloads.generator import uniform_demand


def _churn(initial_sessions, churn_fraction):
    """Sessions each churn phase joins, removes or re-rates."""
    return max(1, int(round(initial_sessions * churn_fraction)))


def DEFAULT_PHASES(initial_sessions, churn_fraction=0.2, window=1e-3):
    """The paper's five phases, scaled to ``initial_sessions``."""
    churn = _churn(initial_sessions, churn_fraction)
    return [
        DynamicPhase("join", joins=initial_sessions, window=window),
        DynamicPhase("leave", leaves=churn, window=window),
        DynamicPhase("change", changes=churn, window=window),
        DynamicPhase("join2", joins=churn, window=window),
        DynamicPhase("mixed", joins=churn, leaves=churn, changes=churn, window=window),
    ]


class Experiment2Config(object):
    """Knobs of the Experiment 2 run.

    The change phase re-rates sessions that did not leave in the phase
    before it, so a population whose churn exceeds the sessions that stay
    (``churn > initial_sessions - churn``) is rejected here, before any run.
    """

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
    ):
        churn = _churn(initial_sessions, churn_fraction)
        if churn > initial_sessions - churn:
            raise ValueError(
                "initial_sessions=%d with churn_fraction=%r churns %d sessions "
                "per phase, more than the %d that stay active for the change "
                "phase" % (initial_sessions, churn_fraction, churn, initial_sessions - churn)
            )
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

    def phases(self):
        return DEFAULT_PHASES(self.initial_sessions, self.churn_fraction, self.window)

    def spec(self):
        """The :class:`~repro.experiments.runner.ScenarioSpec` of this config.

        The spec does not validate per round: :func:`run_experiment2`
        validates once, after the last phase, when ``validate`` is set.
        """
        return ScenarioSpec(
            size=self.size,
            delay_model=self.delay_model,
            seed=self.seed,
            tracer_interval=self.interval,
            validate=False,
        )

    def __repr__(self):
        return "Experiment2Config(size=%r, sessions=%d, churn=%.0f%%)" % (
            self.size,
            self.initial_sessions,
            self.churn_fraction * 100,
        )


class Experiment2Result(object):
    """Per-phase quiescence timings plus the per-interval packet-type series.

    ``measurements`` holds one :class:`~repro.experiments.runner.RunMeasurement`
    per phase; its ``description`` is the phase name.
    """

    def __init__(self, config, measurements, interval_series, validated, rate_callbacks=0,
                 final_allocation=None):
        self.config = config
        self.measurements = measurements
        self.interval_series = interval_series
        self.validated = validated
        self.rate_callbacks = rate_callbacks
        self.final_allocation = final_allocation or {}

    def phase_durations(self):
        """``{phase name: seconds from the phase start until quiescence}``."""
        return {m.description: m.duration for m in self.measurements}

    def phase_packets(self):
        """``{phase name: control packets transmitted during the phase}``."""
        return {m.description: m.packets for m in self.measurements}

    def total_packets(self):
        return sum(m.packets for m in self.measurements)

    def __repr__(self):
        return "Experiment2Result(phases=%d, total_packets=%d, validated=%r)" % (
            len(self.measurements),
            self.total_packets(),
            self.validated,
        )


def run_experiment2(config=None, progress=None):
    """Run Experiment 2 and return an :class:`Experiment2Result`.

    ``progress`` is called once per phase, right after the phase's
    quiescence, with that phase's
    :class:`~repro.experiments.runner.RunMeasurement`.
    """
    config = config or Experiment2Config()
    workload = PhaseWorkload(
        config.phases(),
        demand_sampler=uniform_demand(config.demand_low, config.demand_high),
        inter_phase_gap=config.inter_phase_gap,
    )
    with ExperimentRunner(
        config.spec(), generator_seed=config.seed, progress=progress
    ) as runner:
        measurements = runner.run_scenario(workload)
        return Experiment2Result(
            config=config,
            measurements=measurements,
            interval_series=runner.tracer.interval_series(),
            validated=runner.validate() if config.validate else True,
            rate_callbacks=runner.protocol.rate_callbacks,
            final_allocation=runner.protocol.notified_allocation().as_dict(),
        )
