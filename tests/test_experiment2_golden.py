"""Experiment 2's outputs, pinned.

``tests/data/experiment2_golden.json`` holds what
``run_experiment2(Experiment2Config(size="small", initial_sessions=40,
seed=5))`` returns: each phase's duration (``repr``), the control packets of
each phase, the ``API.Rate`` callback count, the per-interval packet-type
series and the final allocation (``repr`` of each rate).  A change to how
the phases are driven must reproduce them bit-exactly.  To recapture after a
deliberate behaviour change::

    PYTHONPATH=src:. python -c "import json, tests.test_experiment2_golden as t; \\
        print(json.dumps(t.experiment2_outputs(), indent=1, sort_keys=True))"
"""

import json
import os

from repro.experiments.experiment2 import Experiment2Config, run_experiment2

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "experiment2_golden.json")


def experiment2_outputs():
    result = run_experiment2(Experiment2Config(size="small", initial_sessions=40, seed=5))
    return {
        "validated": result.validated,
        "phase_durations": [
            [name, repr(duration)] for name, duration in result.phase_durations().items()
        ],
        "phase_packets": [[name, packets] for name, packets in result.phase_packets().items()],
        "rate_callbacks": result.rate_callbacks,
        "interval_series": [
            [repr(start), dict(sorted(counts.items()))]
            for start, counts in result.interval_series
        ],
        "final_allocation": {
            session_id: repr(rate)
            for session_id, rate in sorted(result.final_allocation.items())
        },
    }


def test_experiment2_reproduces_its_golden():
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert experiment2_outputs() == golden
