"""Smoke tests for the runnable examples.

Each example is loaded from the ``examples/`` directory and executed with a
small workload, so the documented entry points keep working as the library
evolves.
"""

import hashlib
import importlib.util
import os

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def load_example(name):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, name + ".py"))
    spec = importlib.util.spec_from_file_location("example_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quickstart_runs_and_validates(capsys):
    module = load_example("quickstart")
    module.main()
    output = capsys.readouterr().out
    assert "quiescent" in output
    assert "validation against the centralized oracle: OK" in output
    assert "45.00 Mbps" in output


def test_dynamic_sessions_walkthrough(capsys):
    module = load_example("dynamic_sessions")
    assert module.main([]) == 0
    output = capsys.readouterr().out
    assert "API.Rate" in output
    assert "80.00 Mbps" in output
    assert "quiescent again" in output


def test_wan_vs_lan_small_counts(capsys):
    module = load_example("wan_vs_lan")
    module.main(["10"])
    output = capsys.readouterr().out
    assert "small-lan" in output
    assert "small-wan" in output
    assert "longer to become quiescent" in output


def test_experiment1_sweep_tiny(capsys):
    module = load_example("experiment1_sweep")
    exit_code = module.main(["--counts", "5", "--sizes", "small", "--delay-models", "lan"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "small-lan" in output


def test_experiment1_sweep_rejects_unknown_size():
    module = load_example("experiment1_sweep")
    with pytest.raises(SystemExit):
        module.parse_arguments(["--sizes", "galactic"])


def test_stochastic_churn_default_workload(capsys):
    module = load_example("stochastic_churn")
    assert module.main([]) == 0
    output = capsys.readouterr().out
    assert "poisson-churn segment" in output
    assert "sessions active at the end" in output


def test_stochastic_churn_capacity_dynamics(capsys):
    module = load_example("stochastic_churn")
    assert module.main(["--workload", "capacity-dynamics", "--seed", "13"]) == 0
    output = capsys.readouterr().out
    assert "capacity-dynamics restore" in output
    assert "NO" not in output


# sha256 of the full stdout of each command, recorded from the scripts.  They
# pin the application-facing ``API.Rate`` stream: ``dynamic_sessions`` prints
# every callback, and ``stochastic_churn`` prints per-round callback counts.
STDOUT_DIGESTS = [
    ("dynamic_sessions", [],
     "cb872984129d168eb52419ccbaea4d692f9c7081a10482392e3435ea60f95539"),
    ("stochastic_churn", [],
     "0e6da45f11a21d2f4275e2311cf34f52bc6c45b52f3a41ab2fd4d8330e66dbba"),
    ("stochastic_churn", ["--workload", "capacity-dynamics", "--seed", "13"],
     "b02305001858b5272421b016f79dd01b39ff0beef2f48505f9f54f58dc8af09e"),
]


@pytest.mark.parametrize(
    "name, argv, digest",
    STDOUT_DIGESTS,
    ids=["dynamic-sessions", "stochastic-churn", "stochastic-churn-capacity-dynamics"],
)
def test_example_stdout_is_pinned(capsys, name, argv, digest):
    module = load_example(name)
    assert module.main(argv) == 0
    output = capsys.readouterr().out
    assert hashlib.sha256(output.encode()).hexdigest() == digest
