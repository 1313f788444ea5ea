"""Opt-in paper-scale tier: the full-size Medium/Big topologies of the paper.

The paper evaluates B-Neck on transit-stub networks of up to 10,900 routers
with up to 300,000 sessions; the default benchmarks scale those down so a
pure-Python run finishes in minutes.  This module runs the *actual*
``PAPER_MEDIUM_PARAMETERS`` (1,100 routers) and ``PAPER_BIG_PARAMETERS``
(10,900 routers) topologies through the shared
:class:`~repro.experiments.runner.ExperimentRunner`, checking the paper's
headline property at full topology scale: B-Neck reaches quiescence and the
final allocation matches the centralized max-min oracle exactly.

Everything here is marked ``slow_bench`` and deselected by default (see
``pytest.ini``); run it explicitly with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_paper_scale.py -m slow_bench -s

CI runs this tier on manual dispatch and nightly.  The runs opt into the null
notification log (and the churn run into windowed ``API.Rate`` batching) -- at
this scale the full per-notification record is pure allocator churn.
"""

import pytest

from repro.experiments.experiment2 import Experiment2Config, run_experiment2
from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentRunner, ScenarioSpec

pytestmark = pytest.mark.slow_bench

MASS_JOIN_SESSIONS = 3000
CHURN_SESSIONS = 1500


def _mass_join(size, print_table):
    spec = ScenarioSpec(
        size=size,
        delay_model="lan",
        seed=0,
        trace_packets=False,
        notification_log="null",
    )
    with ExperimentRunner(spec) as runner:
        runner.populate(MASS_JOIN_SESSIONS, join_window=(0.0, 1e-3))
        measurement = runner.checkpoint("mass join of %d sessions" % MASS_JOIN_SESSIONS)

        # The headline property at paper scale: quiescence is reached and the
        # distributed allocation equals the centralized max-min oracle.
        assert measurement.validated
        assert measurement.quiescence_time > 0.0
        assert runner.protocol.quiescent
        assert runner.protocol.in_flight_packets == 0

    print_table(
        "Paper-scale %s: mass join to quiescence" % size,
        format_table(
            ("scenario", "sessions", "quiescence [ms]", "events", "validated"),
            [(
                measurement.label,
                MASS_JOIN_SESSIONS,
                measurement.quiescence_time * 1e3,
                measurement.events_processed,
                "yes" if measurement.validated else "NO",
            )],
        ),
    )


def test_paper_medium_mass_join_quiescence(print_table):
    _mass_join("paper-medium", print_table)


def test_paper_big_mass_join_quiescence(print_table):
    _mass_join("paper-big", print_table)


def test_paper_medium_five_phase_churn(print_table):
    """Experiment 2's five churn phases on the paper's full Medium topology."""
    config = Experiment2Config(
        size="paper-medium",
        initial_sessions=CHURN_SESSIONS,
        churn_fraction=0.2,
        seed=0,
        notification_log="null",
        notification_batch_window=1e-3,
    )
    result = run_experiment2(config)
    assert result.validated

    durations = result.phase_durations()
    assert set(durations) == {"join", "leave", "change", "join2", "mixed"}
    for duration in durations.values():
        assert duration > 0.0

    print_table(
        "Paper-scale medium: five-phase churn quiescence times",
        format_table(
            ("phase", "quiescence [ms]", "packets", "API.Rate callbacks"),
            [
                (outcome.phase.name, outcome.duration * 1e3, outcome.packets,
                 outcome.rate_callbacks)
                for outcome in result.outcomes
            ],
        ),
    )
