"""Figure 6: traffic details of B-Neck under a highly dynamic workload.

Five consecutive phases of churn (mass join, leave, rate change, join, mixed)
hit a Medium/LAN network; the bench reports the packets of each type per 5 ms
interval and the time each phase needs to become quiescent again.

Reproduced qualitative findings:

* B-Neck becomes quiescent again after every phase, whatever the kind of
  churn;
* the time to quiescence is of the same order of magnitude across phase kinds
  (the paper: 35-60 ms for 100,000 sessions; here, scaled down, a few ms);
* once quiescence is reached no packet at all is transmitted until the next
  phase starts.

The five-phase run opts into the null notification log: a churn run does not
need the full (unbounded) notification record.  The comparison bench below
pins down that windowed ``API.Rate`` delivery with the null log changes
*nothing* about the simulation -- final notified allocations, per-phase packet
counts and per-phase quiescence times are bit-identical to synchronous
delivery with the full record -- while delivering fewer application callbacks.
"""

import time

from repro.experiments.experiment2 import Experiment2Config, run_experiment2
from repro.experiments.reporting import format_experiment2_table, format_table

# Null log: Experiment 2 only reads phase/interval aggregates, never the
# per-notification record, so a churn run keeps memory flat.
CONFIG = Experiment2Config(
    size="medium",
    initial_sessions=400,
    churn_fraction=0.2,
    seed=3,
    notification_log="null",
)


def _config(notification_log, notification_batch_window=None):
    # Smaller than the Figure-6 run, so the comparison's two runs keep the
    # default benchmark tier fast.
    return Experiment2Config(
        size="medium",
        initial_sessions=300,
        churn_fraction=0.2,
        seed=3,
        notification_log=notification_log,
        notification_batch_window=notification_batch_window,
    )


def test_figure6_dynamic_phases(benchmark, print_table):
    result = benchmark.pedantic(run_experiment2, args=(CONFIG,), iterations=1, rounds=1)
    assert result.validated

    durations = result.phase_durations()
    assert set(durations) == {"join", "leave", "change", "join2", "mixed"}
    # Every phase reaches quiescence again (finite, positive durations).
    for name, duration in durations.items():
        assert duration > 0.0
    # The paper's conclusion: the time to quiescence is nearly independent of
    # the kind of dynamics.  We allow an order of magnitude of slack between
    # the churn-only phases (leave/change/join2/mixed).
    churn_durations = [durations[name] for name in ("leave", "change", "join2", "mixed")]
    assert max(churn_durations) <= 10 * min(churn_durations)
    # Phases produce packets; the series accounts for all of them.
    assert result.total_packets() > 0

    print_table(
        "Figure 6 -- packets per type per 5 ms interval, and per-phase quiescence",
        format_experiment2_table(result),
    )


BATCH_WINDOW = 1e-3  # one churn window: coalesce each burst's transient


def test_batched_pipeline_vs_synchronous_delivery(print_table):
    """Windowed delivery + null log: fewer callbacks, same simulation."""
    timings = {}

    def timed(label, config):
        started = time.perf_counter()
        result = run_experiment2(config)
        timings[label] = time.perf_counter() - started
        assert result.validated
        return result

    synchronous = timed("synchronous", _config(notification_log="full"))
    windowed = timed(
        "windowed",
        _config(notification_log="null", notification_batch_window=BATCH_WINDOW),
    )

    # The notification pipeline is observation-only: final notified rates,
    # packets and quiescence times are bit-identical whichever variant
    # records/delivers the notifications.  The windowed flush is a
    # bookkeeping timer, so it cannot stretch a reported phase.
    assert windowed.final_allocation == synchronous.final_allocation
    assert windowed.phase_packets() == synchronous.phase_packets()
    assert windowed.phase_durations() == synchronous.phase_durations()

    # Coalescing must reduce the application-facing callback stream
    # measurably under churn.
    assert 0 < windowed.rate_callbacks < synchronous.rate_callbacks

    saved = synchronous.rate_callbacks - windowed.rate_callbacks
    print_table(
        "Windowed notification pipeline vs. synchronous delivery "
        "(identical five-phase churn, final allocations bit-identical)",
        format_table(
            ("pipeline", "wall-clock [s]", "API.Rate callbacks", "callbacks saved"),
            [
                ("synchronous + full log", "%.3f" % timings["synchronous"],
                 synchronous.rate_callbacks, "-"),
                ("windowed (1 ms) batching + null log", "%.3f" % timings["windowed"],
                 windowed.rate_callbacks,
                 "%d (%.1f%%)" % (saved, 100.0 * saved / synchronous.rate_callbacks)),
            ],
        ),
    )
