"""Experiment 1's outputs, pinned.

``tests/data/experiment1_golden.json`` holds, for each row of a small
Figure-5 sweep (see ``CONFIG``), the scenario label, the session count, the
time to quiescence (``repr``), the control packets, the events processed and
the validation flag.  A change to how the mass joins are driven must
reproduce them bit-exactly.  To recapture after a deliberate behaviour
change::

    PYTHONPATH=src:. python -c "import json, tests.test_experiment1_golden as t; \\
        print(json.dumps(t.experiment1_outputs(), indent=1, sort_keys=True))"
"""

import json
import os

from repro.experiments.experiment1 import Experiment1Config, run_experiment1

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "experiment1_golden.json")

CONFIG = dict(session_counts=(20, 40), sizes=("small",), delay_models=("lan", "wan"), seed=2)


def experiment1_outputs():
    return [
        {
            "scenario": row.scenario_label,
            "sessions": row.session_count,
            "time_to_quiescence": repr(row.time_to_quiescence),
            "packets": row.total_packets,
            "events": row.events_processed,
            "validated": row.validated,
        }
        for row in run_experiment1(Experiment1Config(**CONFIG))
    ]


def test_experiment1_reproduces_its_golden():
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert experiment1_outputs() == golden
