"""B-Neck benchmark: validated end-to-end run time, split by layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload mass-join --seed 3 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` makes a separate
traced run and prints every per-layer metric.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it repeat each metric with its unit and
stamp the run environment.  Host times of ``--trace 0`` are in reference
seconds: wall seconds scaled to a reference host speed that a calibration
loop measures while the run goes on (``bench_speed.py``); each execution's
raw wall seconds are printed too.  Workloads, metrics and the correctness
gate are defined in ``bench_harness.py``; spans of a traced run are written
to ``.perfbench_out/`` in the checkout.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from bench_speed import REFERENCE_PROBE_S  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")


def _import_harness():
    """Import the library from this checkout; returns (harness, import seconds).

    The import time counts from this process's start when the library was not
    loaded yet, as in a command-line run.
    """
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        raise SystemExit(
            "perfbench: no B-Neck sources at %s; run from a full checkout" % SOURCE
        )
    if SOURCE not in sys.path:
        sys.path.insert(0, SOURCE)
    started = PROCESS_START if "repro" not in sys.modules else time.perf_counter()
    import bench_harness

    return bench_harness, time.perf_counter() - started


def git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = os.path.join(git_dir, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def environment(workload, seed, args, harness):
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "engine": "sequential",
        "workload": workload.name,
        "seed": seed,
        "default_seed": workload.default_seed,
        "held_out_seed": harness.HELD_OUT_SEED,
        "parameters": workload.parameters(args.tiny),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv, harness):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=int, default=15,
                        help="how long to keep repeating executions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small topologies and few sessions, for the tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the seconds of one set-up from process start "
                             "and exit (the benchmark's own set-up probe)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def setup_probe(workload, seed, tiny):
    """Return a callable that times one set-up in a fresh process.

    Set-up counts from process start, before ``repro`` is imported, so each
    sample needs a process of its own.
    """
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
               "--seed", str(seed), "--setup-only"] + (["--tiny"] if tiny else [])

    def probe():
        completed = subprocess.run(command, capture_output=True, text=True, check=True,
                                   timeout=120)
        return float(completed.stdout.split()[-1])

    return probe


def report(result, harness, out):
    """Print every metric with its unit, then the JSON result line."""
    workload = result.workload
    for execution in result.executions + result.traced:
        for failure in execution.failures:
            print("FAILED %s: %s" % (workload.name, failure), file=sys.stderr)
    for error in result.errors:
        print("ERROR %s: %s" % (workload.name, error), file=sys.stderr)
    executions = result.executions
    meter = result.meter
    for kind, group in (("untraced", executions), ("traced", result.traced)):
        for number, execution in enumerate(group, 1):
            scaled = ""
            if meter is not None and kind == "untraced":
                scaled = " (%.4f reference s)" % meter.scaled(execution.ready,
                                                               execution.finished)
            print("# %s execution %d: setup %.4f s, run %.4f s wall%s, %d rounds, "
                  "%d failed, %d events, outputs digest %s"
                  % (kind, number, execution.setup_s, execution.run_s, scaled,
                     execution.attempted, execution.failed_rounds,
                     execution.outputs["simulator.events"], execution.digest), file=out)
    if meter is not None:
        probes = sorted(end - start for start, end in meter.probes)
        print("# host speed: %d calibration probes, median %.4f ms (reference %.4f ms); "
              "host times below are in reference seconds"
              % (len(probes), probes[len(probes) // 2] * 1e3,
                 REFERENCE_PROBE_S * 1e3), file=out)
    print("# %s: %d untraced and %d traced executions, %d rounds attempted, %d failed"
          % (workload.name, len(executions), len(result.traced), result.attempted,
             result.failed), file=out)
    if result.trace:
        table = harness.PER_LAYER
        accounted, run_s = harness.trace_accounting(result.median_traced)
        print("# traced run_s %.6f s; layer self times plus experiments.self_s sum "
              "to %.6f s" % (run_s, accounted), file=out)
    else:
        table = harness.END_TO_END
        rounds = sum(len(execution.round_s) for execution in executions)
        print("# round_p50_ms and round_p90_ms over n=%d rounds of %d executions; "
              "setup_s: median of %d set-ups in fresh processes"
              % (rounds, len(executions), len(result.setup_samples)), file=out)
    metrics = {}
    for entry in table:
        name, unit = entry[0], entry[1]
        value = result.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
        moves = "  (moves %s)" % entry[3] if len(entry) > 3 else ""
        print("%s %r %s%s" % (name, value, unit, moves), file=out)
    failed_frac = result.failed / result.attempted if result.attempted else 1.0
    print("failed_frac %r ratio  (%d of %d rounds)"
          % (failed_frac, result.failed, result.attempted), file=out)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }), file=out)


def write_spans(result):
    """Write the spans of the traced execution the metrics came from."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    result.median_traced.recorder.write(os.path.join(
        SPANS_DIR, "spans-%s-seed%d.json" % (result.workload.name, result.seed)
    ))


def main(argv=None, out=None):
    out = sys.stdout if out is None else out
    harness, import_s = _import_harness()
    args = parse_args(argv, harness)
    workload = harness.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if args.setup_only:
        setup_s = harness.measure_setup(workload, workload.parameters(args.tiny), seed)
        print(import_s + setup_s, file=out)
        return None
    print("# env %s" % json.dumps(environment(workload, seed, args, harness),
                                  sort_keys=True), file=out)
    result = harness.run_benchmark(
        workload, seed, args.seconds, bool(args.trace), tiny=args.tiny,
        setup_probe=setup_probe(workload, seed, args.tiny),
    )
    if result.trace:
        write_spans(result)
    report(result, harness, out)
    return result


if __name__ == "__main__":
    main()
