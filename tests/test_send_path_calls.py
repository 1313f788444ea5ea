"""A gate on the number of library calls the event loop makes per event.

The per-packet work of B-Neck is a handful of Python calls (handler, state
mutation, forwarding, tracer, queue push), so the count of library-level
calls per processed event is a machine-independent proxy for the loop's
cost.  It is measured with ``sys.setprofile`` on the tiny mass join of the
benchmark (``perfbench/run.py --workload mass-join --tiny``: the small
transit-stub topology, seed 3, 40 sessions joining within 1 ms), counting
the ``"call"`` events whose code lives in the ``repro`` package while
``run_until_quiescent`` drains the queue.

CPython 3.11 counts 17.75 calls per event; the bound allows 2% over that,
so putting calls back on the per-event path fails it: recomputing ``B_e``
through a method on every read, as the code did before ``B_e`` became a
maintained field, counted 19.71.  Python 3.12 inlines comprehensions
(PEP 709), so its count can only be lower.
"""

import os
import sys

import repro
from repro.experiments.runner import ExperimentRunner, ScenarioSpec

LIBRARY = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

EVENTS = 2161
CALLS_PER_EVENT_BOUND = 18.10


def _loop_calls_per_event():
    runner = ExperimentRunner(ScenarioSpec(size="small", seed=3), generator_seed=3)
    runner.install(runner.generator.generate(40, join_window=(0.0, 1e-3)))
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(LIBRARY):
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        runner.protocol.run_until_quiescent()
    finally:
        sys.setprofile(previous)
    events = runner.protocol.simulator.events_processed
    return events, calls[0] / events


def test_library_calls_per_event_stay_under_the_bound():
    events, per_event = _loop_calls_per_event()
    assert events == EVENTS  # the workload is the one the bound was set on
    assert per_event <= CALLS_PER_EVENT_BOUND, (
        "%.2f library calls per event (bound %.2f)" % (per_event, CALLS_PER_EVENT_BOUND)
    )
