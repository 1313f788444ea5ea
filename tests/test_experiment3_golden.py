"""Experiment 3's outputs, pinned.

``tests/data/experiment3_golden.json`` holds what ``run_experiment3`` returns
for a small four-protocol comparison (see ``CONFIG``): for each protocol the
source and link error series (``repr`` of every summary statistic), the
per-interval packet series, the total packets, the convergence time, the
``quiescent`` flag, and the oracle rates (``repr``).  A change to how the
protocols or the sampling loop run must reproduce them bit-exactly.  To
recapture after a deliberate behaviour change::

    PYTHONPATH=src:. python -c "import json, tests.test_experiment3_golden as t; \\
        print(json.dumps(t.experiment3_outputs(), indent=1, sort_keys=True))"
"""

import json
import os

from repro.experiments.experiment3 import Experiment3Config, run_experiment3

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "experiment3_golden.json")

CONFIG = dict(
    size="small",
    initial_sessions=40,
    leave_count=4,
    churn_window=2e-3,
    sample_interval=3e-3,
    horizon=30e-3,
    protocols=("bneck", "bfyz", "cg", "rcp"),
    seed=6,
)


def _error_series(series):
    return [
        [repr(time), {key: repr(value) for key, value in summary.as_dict().items()}]
        for time, summary in series
    ]


def experiment3_outputs():
    result = run_experiment3(Experiment3Config(**CONFIG))
    protocols = {}
    for name in result.protocol_names():
        series = result.series(name)
        protocols[name] = {
            "source_error_series": _error_series(series.source_error_series),
            "link_error_series": _error_series(series.link_error_series),
            "packets_series": [
                [repr(start), packets] for start, packets in series.packets_series
            ],
            "total_packets": series.total_packets,
            "convergence_time": repr(series.convergence_time),
            "quiescent": series.quiescent,
        }
    return {
        "protocols": protocols,
        "oracle": {
            session_id: repr(rate) for session_id, rate in sorted(result.oracle.items())
        },
    }


def test_experiment3_reproduces_its_golden():
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert experiment3_outputs() == golden
