"""Tests of the benchmark itself, on a tiny configuration of every workload.

They check that each run prints every metric by name with its unit, and that
the correctness gate and the determinism check can fail.
"""

import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_harness  # noqa: E402
import bench_speed  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)

WORKLOADS = sorted(bench_harness.WORKLOADS)


def tiny_run(name, trace=False, perturb=None):
    workload = bench_harness.WORKLOADS[name]
    seed = workload.default_seed
    parameters = workload.parameters(tiny=True)
    return bench_harness.run_benchmark(
        workload, seed, seconds=0, trace=trace, tiny=True, perturb=perturb,
        setup_probe=lambda: bench_harness.measure_setup(workload, parameters, seed),
    )


def printed(result):
    out = io.StringIO()
    bench_run.report(result, bench_harness, out)
    return out.getvalue().splitlines()


def inflate_one_rate(allocation):
    session_id = min(allocation.session_ids())
    allocation.set_rate(session_id, allocation.rate(session_id) * 1.5 + 1.0)
    return allocation


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(name, trace):
    result = tiny_run(name, trace=trace)
    lines = printed(result)
    final = json.loads(lines[-1])
    assert sorted(final) == ["attempted", "correct", "failed", "metrics"]
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] >= 1
    table = bench_harness.PER_LAYER if trace else bench_harness.END_TO_END
    assert [entry[0] for entry in table] == list(final["metrics"])
    for entry in table:
        name_, unit = entry[0], entry[1]
        metric = final["metrics"][name_]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))
        assert any(line.startswith("%s %r %s" % (name_, metric["value"], unit))
                   for line in lines[:-1])
    assert any(line.startswith("failed_frac 0.0 ratio") for line in lines)


@pytest.mark.parametrize("name", WORKLOADS)
def test_perturbed_allocation_counts_as_failed_round(name):
    result = tiny_run(name, perturb=inflate_one_rate)
    assert not result.correct
    if name == "five-phase-churn":
        # Experiment 2 validates once, at the end of its last phase.
        assert (result.failed, result.attempted) == (1, 5)
    else:
        assert result.failed == result.attempted >= 1
    assert "oracle validation" in result.executions[0].failures[0]
    assert printed(result)[-1].startswith('{"correct": false')


def test_a_raise_fails_the_round_and_every_round_after_it(monkeypatch):
    calls = []
    run_until_quiescent = bench_harness.BNeckProtocol.run_until_quiescent

    def raise_in_second_phase(protocol):
        calls.append(protocol)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return run_until_quiescent(protocol)

    monkeypatch.setattr(bench_harness.BNeckProtocol, "run_until_quiescent",
                        raise_in_second_phase)
    result = tiny_run("five-phase-churn")
    execution = result.executions[0]
    assert (execution.attempted, execution.failed_rounds) == (5, 4)
    assert "round 2 raised (4 rounds lost)" in execution.failures[0]
    assert (result.attempted, result.failed) == (5, 4)
    assert not result.correct


@pytest.mark.parametrize("name", WORKLOADS)
def test_deterministic_outputs_repeat_and_differences_are_errors(name):
    workload = bench_harness.WORKLOADS[name]
    parameters = workload.parameters(tiny=True)
    seed = workload.default_seed
    plain = bench_harness.execute(workload, parameters, seed)
    traced = bench_harness.execute(
        workload, parameters, seed, recorder=bench_harness.SpanRecorder()
    )
    assert bench_harness.determinism_errors([plain, traced]) == []
    other = bench_harness.execute(workload, parameters, seed + 1)
    errors = bench_harness.determinism_errors([plain, other])
    assert any("simulator.events" in error or "allocation" in error for error in errors)


@pytest.mark.parametrize("name", WORKLOADS)
def test_default_seed_outputs_match_the_recorded_ones(name, monkeypatch):
    workload = bench_harness.WORKLOADS[name]
    execution = bench_harness.execute(workload, workload.parameters(tiny=True),
                                      workload.default_seed)
    golden = bench_harness.GOLDEN[(name, True)]
    assert (execution.outputs["simulator.events"], execution.digest) == golden
    assert bench_harness.golden_errors(workload, workload.default_seed, True, execution) == []
    assert bench_harness.golden_errors(workload, workload.default_seed + 1, True, execution) == []
    monkeypatch.setitem(bench_harness.GOLDEN, (name, True), (golden[0] + 1, golden[1]))
    errors = bench_harness.golden_errors(workload, workload.default_seed, True, execution)
    assert len(errors) == 1 and "differ from the recorded ones" in errors[0]


def test_speed_meter_scales_wall_time_additively():
    meter = bench_speed.SpeedMeter()
    with meter:
        start = bench_speed.clock()
        while bench_speed.clock() - start < 0.3:
            bench_speed.calibration_loop()
        middle = bench_speed.clock()
        while bench_speed.clock() - middle < 0.3:
            bench_speed.calibration_loop()
        end = bench_speed.clock()
    assert len(meter.probes) > 2 * bench_speed.BURST
    whole = meter.scaled(start, end)
    assert whole > 0
    assert whole == pytest.approx(meter.scaled(start, middle) + meter.scaled(middle, end))
    with pytest.raises(ValueError):
        meter.scaled(start - 1.0, end)


@pytest.mark.parametrize("name", WORKLOADS)
def test_layer_self_times_account_for_traced_run_s(name):
    result = tiny_run(name, trace=True)
    accounted, run_s = bench_harness.trace_accounting(result.median_traced)
    assert accounted == pytest.approx(run_s, rel=1e-9)
    assert result.metrics["simulator.loop_s"] > 0
    assert result.metrics["network.route_calls"] >= 1
    assert result.metrics["core.centralized_s"] > 0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(bench_harness.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        entry[:3] for entry in bench_harness.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        entry[:3] for entry in bench_harness.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for workload in spec["workloads"]:
        assert "held-out seed %d" % bench_harness.HELD_OUT_SEED in workload["why"]


def test_command_line_run_prints_the_result_last(capsys):
    bench_run.main(["--workload", "five-phase-churn", "--seed", "5", "--seconds", "1",
                    "--trace", "0", "--tiny"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# env ")
    env = json.loads(lines[0][len("# env "):])
    assert {"commit", "python", "nproc", "cpu_model", "engine", "seed"} <= set(env)
    assert env["engine"] == "sequential" and env["seed"] == 5
    assert json.loads(lines[-1])["correct"] is True


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), str(tmp_path / "perfbench"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mass-join", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
