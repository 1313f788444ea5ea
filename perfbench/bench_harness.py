"""Workloads, correctness gate and metrics of the B-Neck benchmark.

The benchmark drives the library from outside, through public entry points
only: :class:`ScenarioSpec` / :class:`ExperimentRunner`,
``WorkloadGenerator.generate``, ``BNeckProtocol.apply_actions`` / ``run_until_quiescent``,
``validate_against_oracle`` and ``run_experiment2``.  Executions run on the
default ``sequential`` engine, in this process, with no threads; only the
set-up probes of ``run.py`` use processes of their own, one at a time.
Host times of untraced runs are scaled to a reference host speed by a
:class:`~bench_speed.SpeedMeter` (see ``bench_speed.py``).

One *execution* runs a workload once, from set-up to its last validated
round.  A *round* runs from handing one action batch to the library until
its quiescence has been checked: no pending event, no packet in flight and,
where the round is validated, an allocation equal to the centralized
oracles'.  A round that raises or fails a check counts as failed; the run
goes on.
"""

import contextlib
import gc
import hashlib
import math
import resource
import statistics
import time
import traceback

from repro.core import validation as validation_module
from repro.core.packets import PACKET_TYPES
from repro.core.protocol import BNeckProtocol
from repro.experiments.experiment2 import Experiment2Config, run_experiment2
from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.network.routing import PathComputer
from repro.workloads import dynamics as dynamics_module
from repro.workloads.generator import WorkloadGenerator

from bench_spans import SpanRecorder
from bench_speed import SpeedMeter

clock = time.perf_counter

#: Seed kept out of every tuning run; later claims are re-checked on it.
HELD_OUT_SEED = 1009

#: Set-up-only processes per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 7

#: End-to-end metrics: (name, unit, better).  Host time, in reference
#: seconds (see ``bench_speed.py``), unless noted.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("actions_per_s", "1/s", "higher"),
    ("round_p50_ms", "ms", "lower"),
    ("round_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_converge_ms", "ms", "lower"),  # simulated time, deterministic
    ("packets_per_action", "1/action", "lower"),  # deterministic
)

_LOOP = "run_s on mass-join and five-phase-churn"
_ORACLES = "run_s on mass-join; little change on big-join"
_ROUTING = "run_s and actions_per_s on big-join; no change on five-phase-churn"

#: Per-layer metrics of the traced run: (name, unit, better, what it moves).
#: Each is named after the module it measures; "moves" names the end-to-end
#: metric and the workload a change to that layer should show up in.
PER_LAYER = (
    ("network.build_s", "s", "lower", "setup_s, mostly on big-join"),
    ("network.route_s", "s", "lower", _ROUTING),
    ("network.route_calls", "count", "lower", _ROUTING),
    ("network.route_cache_hit_ratio", "ratio", "higher", _ROUTING),
    ("workloads.generate_s", "s", "lower", "run_s on five-phase-churn"),
    ("core.apply_s", "s", "lower", "run_s on big-join"),
    ("simulator.loop_s", "s", "lower", _LOOP),
    ("simulator.events", "count", "lower", _LOOP),
    ("simulator.events_per_s", "1/s", "higher", _LOOP),
) + tuple(
    ("core.packets.%s" % packet_type, "1/action", "lower",
     "packets_per_action on all workloads")
    for packet_type in PACKET_TYPES
) + (
    ("core.link_sessions_mean", "count", "lower", "run_s on mass-join"),
    ("core.link_sessions_max", "count", "lower", "run_s on mass-join"),
    ("core.rate_callbacks", "count", "lower",
     "run_s and peak_rss_mb on five-phase-churn"),
    ("core.notify_delivered_ratio", "ratio", "lower",
     "run_s and peak_rss_mb on five-phase-churn"),
    ("core.validation_s", "s", "lower", _ORACLES),
    ("core.centralized_s", "s", "lower", _ORACLES),
    ("fairness.waterfilling_s", "s", "lower", _ORACLES),
    ("fairness.verification_s", "s", "lower", _ORACLES),
    ("experiments.self_s", "s", "lower", "run_s on five-phase-churn"),
    ("trace.overhead_frac", "ratio", "lower",
     "none: the cost of tracing itself"),
)


class SetupComplete(Exception):
    """Raised by a set-up-only execution once its runner is ready."""


class Execution(object):
    """Timing, round checks and the protocol of one workload execution.

    ``recorder`` (a :class:`~bench_spans.SpanRecorder`) marks a traced
    execution; ``perturb`` rewrites each allocation before validation, which
    lets the benchmark's own tests prove that the gate can fail;
    ``setup_only`` stops the execution once its runner is ready.  Drivers set
    ``planned`` to the number of rounds the workload has.
    """

    def __init__(self, seed, recorder=None, perturb=None, setup_only=False):
        self.seed = seed
        self.recorder = recorder
        self.perturb = perturb
        self.setup_only = setup_only
        self.protocol = None
        self.setup_start = None
        self.ready = None
        self.finished = None
        self.root = None
        self.planned = 1
        self.rounds = []  # (host start, host end) of each checked round
        self.converge_s = []
        self.failures = []  # one message per failed round, or per raise
        self.failed = 0
        self.lost = 0  # rounds that raised or never ran after a raise
        self.actions = 0

    @property
    def setup_s(self):
        return self.ready - self.setup_start

    @property
    def run_s(self):
        return self.finished - self.ready

    @property
    def round_s(self):
        return [end - start for start, end in self.rounds]

    @property
    def attempted(self):
        """Rounds attempted: the checked ones plus those lost to a raise."""
        return len(self.rounds) + self.lost

    @property
    def failed_rounds(self):
        return self.failed + self.lost

    def prepare(self, spec):
        """Hook ``spec`` so the runner built from it marks the end of set-up.

        Set-up ends when the protocol exists, which is the last step of
        :class:`ExperimentRunner` construction.  A traced execution opens the
        root span of its run there.
        """
        build_protocol = spec.build_protocol

        def build_and_mark_ready(network, tracer):
            protocol = build_protocol(network, tracer)
            self.protocol = protocol
            self.ready = clock()
            if self.setup_only:
                raise SetupComplete()
            if self.recorder is not None:
                self.root = self.recorder.begin("experiments.run")
            return protocol

        spec.build_protocol = build_and_mark_ready
        return spec

    def end_round(self, started, converge_s, actions, validate=True):
        """Check the round just run to quiescence and record it."""
        reason = round_failure(self.protocol, validate, self.perturb)
        self.rounds.append((started, clock()))
        self.converge_s.append(converge_s)
        self.actions += actions
        if reason is not None:
            self.failed += 1
            self.failures.append("round %d: %s" % (len(self.rounds), reason))

    def raised(self, details):
        """Record a raise: that round and every planned round after it failed."""
        self.lost = max(self.planned - len(self.rounds), 1)
        self.failures.append("round %d raised (%d rounds lost):\n%s"
                             % (len(self.rounds) + 1, self.lost, details))

    def finish(self):
        """Close the run and keep what the metrics need, releasing the protocol.

        Holding no protocol between executions keeps ``peak_rss_mb`` the
        footprint of one execution, however many a run makes.
        """
        self.finished = clock()
        if self.root is not None:
            self.recorder.end(self.root)
        protocol = self.protocol
        self.outputs = {  # deterministic: must repeat exactly
            "simulator.events": protocol.simulator.events_processed,
            "core.packets": dict(sorted(protocol.tracer.by_type.items())),
            "core.rate_callbacks": protocol.rate_callbacks,
            "sim_converge_s": list(self.converge_s),
            "allocation": sorted(protocol.current_allocation().as_dict().items()),
        }
        self.digest = hashlib.sha256(
            repr(sorted(self.outputs.items())).encode()
        ).hexdigest()[:16]
        self.packets = protocol.tracer.total
        self.notifications = protocol.notification_log.recorded
        self.link_sessions = [len(state.sessions()) for state in protocol.router_link_states()]
        self.route_cache_size = protocol.path_computer.cache_size()
        self.protocol = None


def round_failure(protocol, validate, perturb):
    """Why a round that ran to quiescence failed, or ``None`` if it passed."""
    if not protocol.quiescent:
        return "not quiescent (%d events pending)" % protocol.simulator.pending_events
    if protocol.in_flight_packets:
        return "%d packets still in flight" % protocol.in_flight_packets
    if not validate:
        return None
    allocation = protocol.current_allocation()
    if perturb is not None:
        allocation = perturb(allocation)
    # Looked up at call time, so a traced execution reaches the traced oracle.
    result = validation_module.validate_against_oracle(protocol, allocation=allocation)
    if not result.valid:
        return "allocation fails oracle validation: %r" % (result,)
    return None


# ---------------------------------------------------------------- workloads


def drive_join(execution, size, topology_seed, sessions, join_window=(0.0, 1e-3)):
    """A mass join: ``sessions`` sessions join inside ``join_window``, one round."""
    spec = execution.prepare(ScenarioSpec(size=size, seed=topology_seed))
    execution.setup_start = clock()
    with ExperimentRunner(spec, generator_seed=execution.seed) as runner:
        specs = runner.generator.generate(sessions, join_window=join_window)
        started = clock()
        runner.install(specs)
        quiescence = runner.protocol.run_until_quiescent()
        first = min(session.join_time for session in specs)
        execution.end_round(started, quiescence - first, len(specs))


class _HookedExperiment2Config(Experiment2Config):
    """Experiment 2's configuration on a fixed topology, with the execution's hook.

    ``seed`` seeds the workload generator, as in Experiment 2; the network is
    built from ``topology_seed``.
    """

    def __init__(self, execution, topology_seed, **knobs):
        super().__init__(**knobs)
        self._execution = execution
        self._topology_seed = topology_seed

    def spec(self):
        spec = super().spec()
        spec.seed = self._topology_seed
        return self._execution.prepare(spec)


def drive_five_phase(execution, size, topology_seed, initial_sessions, churn_fraction):
    """Experiment 2 through ``run_experiment2``, validated at its end.

    A round is one phase, and its simulated convergence time is the phase's
    duration from its start, Experiment 2's own measure.  Phases end at
    quiescence, as in Experiment 2; the last one ends at the validation of the
    final allocation, which the benchmark's gate makes in place of the
    library's own identical call.
    """
    config = _HookedExperiment2Config(
        execution,
        topology_seed,
        size=size,
        initial_sessions=initial_sessions,
        churn_fraction=churn_fraction,
        seed=execution.seed,
        validate=False,
    )
    phases = execution.planned = len(config.phases())
    phase_ends = []
    last = []

    def progress(outcome):
        begun = phase_ends[-1] if phase_ends else execution.ready
        actions = len(outcome.joined_ids) + len(outcome.left_ids) + len(outcome.changed_ids)
        if len(phase_ends) + 1 == phases:
            last.append((begun, outcome.duration, actions))
        else:
            execution.end_round(begun, outcome.duration, actions, validate=False)
        phase_ends.append(clock())

    execution.setup_start = clock()
    run_experiment2(config, progress=progress)
    execution.end_round(*last[0])


class Workload(object):
    """A named benchmark workload: its driver and parameters.

    The workload seed (``--seed``) drives the workload generator: session
    endpoints, demands, times and churn.  The network is part of the
    workload and is always built from its ``topology_seed``, so seeds vary
    the sessions without swapping the topology, whose size and shape set most
    of the cost.  Why each workload was chosen, and which layer it loads, is
    recorded in ``BENCHMARK.json``.
    """

    def __init__(self, name, default_seed, driver, full, tiny):
        self.name = name
        self.default_seed = default_seed
        self.driver = driver
        self.full = full
        self.tiny = tiny

    def parameters(self, tiny=False):
        return dict(self.tiny if tiny else self.full)


#: Open-loop Poisson churn (medium topology, 100 validated rounds) was left
#: out: its packets_per_action varied by 0.12-0.19 (IQR over median) across
#: ten seeds, too near the 0.25 that a bound may be at most.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("mass-join", 3, drive_join,
                 full={"size": "paper-medium", "topology_seed": 3, "sessions": 1500},
                 tiny={"size": "small", "topology_seed": 3, "sessions": 40}),
        Workload("five-phase-churn", 3, drive_five_phase,
                 full={"size": "medium", "topology_seed": 3, "initial_sessions": 400,
                       "churn_fraction": 0.2},
                 tiny={"size": "small", "topology_seed": 3, "initial_sessions": 30,
                       "churn_fraction": 0.2}),
        Workload("big-join", 3, drive_join,
                 full={"size": "paper-big", "topology_seed": 3, "sessions": 1000},
                 tiny={"size": "small", "topology_seed": 3, "sessions": 30}),
    )
}


# ---------------------------------------------------------------- executing


def execute(workload, parameters, seed, recorder=None, perturb=None, meter=None):
    """Run one execution; a raising round is recorded as a failed round.

    ``recorder`` traces the execution; ``meter`` (a
    :class:`~bench_speed.SpeedMeter`) probes the host speed while it runs.
    """
    gc.collect()
    execution = Execution(seed, recorder=recorder, perturb=perturb)
    with contextlib.ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(traced_library(recorder))
        if meter is not None:
            stack.enter_context(meter)
        try:
            workload.driver(execution, **parameters)
        except Exception:  # a failed round must not abort the benchmark
            if execution.ready is None:
                raise
            execution.raised(traceback.format_exc())
        execution.finish()
    return execution


def measure_setup(workload, parameters, seed):
    """Seconds from set-up start until the runner is ready, set-up alone."""
    gc.collect()
    execution = Execution(seed, setup_only=True)
    try:
        workload.driver(execution, **parameters)
    except SetupComplete:
        return execution.setup_s
    raise RuntimeError("%s ran past set-up" % workload.name)


#: Library functions a traced execution records as spans: (owner, attribute,
#: span name).  Patched on their module or class, so calls the library makes
#: itself are recorded too.
TRACED = (
    (ScenarioSpec, "build_network", "network.build"),
    (BNeckProtocol, "apply_actions", "core.apply"),
    (BNeckProtocol, "run_until_quiescent", "simulator.loop"),
    (PathComputer, "route", "network.route"),
    (validation_module, "validate_against_oracle", "core.validation"),
    (validation_module, "centralized_bneck", "core.centralized"),
    (validation_module, "water_filling", "fairness.waterfilling"),
    (validation_module, "verify_allocation", "fairness.verification"),
    (dynamics_module, "phase_actions", "workloads.generate"),
    (WorkloadGenerator, "generate", "workloads.generate"),
)


@contextlib.contextmanager
def traced_library(recorder):
    """Record every call to the functions of :data:`TRACED` while active."""
    originals = [(owner, attribute, getattr(owner, attribute))
                 for owner, attribute, _ in TRACED]
    try:
        for owner, attribute, name in TRACED:
            setattr(owner, attribute, recorder.wrap(name, getattr(owner, attribute)))
        yield
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)


def determinism_errors(executions):
    """Deterministic outputs that differ between executions, as messages."""
    reference = executions[0].outputs
    errors = []
    for number, execution in enumerate(executions[1:], 2):
        for name, expected in reference.items():
            if execution.outputs[name] != expected:
                errors.append("execution %d differs from execution 1 in %s" % (number, name))
    return errors


#: Deterministic outputs at each workload's default seed, recorded once:
#: ``(name, tiny) -> (simulator.events, digest of all outputs)``.  They let a
#: run check itself against other processes, hash seeds and commits.
GOLDEN = {
    ("mass-join", False): (318426, "14f7e0cde7875551"),  # sim_converge_ms 2.4205
    ("five-phase-churn", False): (315791, "94b2b4ac61ec7fef"),
    ("big-join", False): (214762, "cc49c7f678cbb780"),
    ("mass-join", True): (2161, "227859f49d0f005f"),
    ("five-phase-churn", True): (1306, "aa9c05a161a679c2"),
    ("big-join", True): (1434, "a475f4fe53a653f1"),
}


def golden_errors(workload, seed, tiny, execution):
    """How ``execution`` differs from the recorded outputs at the default seed."""
    golden = GOLDEN.get((workload.name, tiny))
    if seed != workload.default_seed or golden is None:
        return []
    found = (execution.outputs["simulator.events"], execution.digest)
    if found == golden:
        return []
    return ["outputs at the default seed %d differ from the recorded ones: "
            "events %d, digest %s (expected events %d, digest %s)"
            % ((seed,) + found + golden)]


# ----------------------------------------------------------------- metrics


def percentile(values, fraction):
    """Percentile of ``values``, interpolated linearly between order statistics."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def end_to_end_metrics(executions, setup_samples, meter):
    """``{name: value}`` of every end-to-end metric over untraced executions.

    Host times are scaled by ``meter``, which probed while the executions
    ran.  ``peak_rss_mb`` is this process's high-water RSS, so the process
    must run only this workload.
    """
    first = executions[0]
    actions = max(first.actions, 1)
    run_s = [meter.scaled(execution.ready, execution.finished) for execution in executions]
    round_ms = [meter.scaled(start, end) * 1e3
                for execution in executions for start, end in execution.rounds]
    return {
        "setup_s": statistics.median(setup_samples),
        "run_s": statistics.median(run_s),
        "actions_per_s": statistics.median(
            max(execution.actions, 1) / seconds
            for execution, seconds in zip(executions, run_s)
        ),
        "round_p50_ms": percentile(round_ms, 0.5),
        "round_p90_ms": percentile(round_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_converge_ms": statistics.median(first.converge_s) * 1e3,
        "packets_per_action": first.packets / actions,
    }


def per_layer_metrics(execution, untraced_run_s):
    """``{name: value}`` of every per-layer metric of one traced execution."""
    recorder = execution.recorder
    outputs = execution.outputs
    times = recorder.self_times()
    route_calls = recorder.calls("network.route")
    loop_s = times.get("simulator.loop", 0.0)
    events = outputs["simulator.events"]
    callbacks = outputs["core.rate_callbacks"]
    link_sessions = execution.link_sessions
    recorded = execution.notifications
    metrics = {
        "network.build_s": times.get("network.build", 0.0),
        "network.route_s": times.get("network.route", 0.0),
        "network.route_calls": route_calls,
        "network.route_cache_hit_ratio": (
            1.0 - execution.route_cache_size / route_calls if route_calls else 0.0
        ),
        "workloads.generate_s": times.get("workloads.generate", 0.0),
        "core.apply_s": times.get("core.apply", 0.0),
        "simulator.loop_s": loop_s,
        "simulator.events": events,
        "simulator.events_per_s": events / loop_s if loop_s else 0.0,
        "core.link_sessions_mean": (
            statistics.mean(link_sessions) if link_sessions else 0.0
        ),
        "core.link_sessions_max": max(link_sessions, default=0),
        "core.rate_callbacks": callbacks,
        "core.notify_delivered_ratio": callbacks / recorded if recorded else 0.0,
        "core.validation_s": times.get("core.validation", 0.0),
        "core.centralized_s": times.get("core.centralized", 0.0),
        "fairness.waterfilling_s": times.get("fairness.waterfilling", 0.0),
        "fairness.verification_s": times.get("fairness.verification", 0.0),
        "experiments.self_s": times.get("experiments.run", 0.0),
        "trace.overhead_frac": execution.run_s / untraced_run_s - 1.0,
    }
    for packet_type in PACKET_TYPES:
        metrics["core.packets.%s" % packet_type] = (
            outputs["core.packets"].get(packet_type, 0) / max(execution.actions, 1)
        )
    return metrics


def trace_accounting(execution):
    """``(sum of self times under the root span, root span duration)``."""
    recorder = execution.recorder
    inside = recorder.under(execution.root)
    return sum(recorder.self_times(inside).values()), recorder.duration(execution.root)


# -------------------------------------------------------------------- runs


class RunResult(object):
    """What one benchmark invocation measured and checked."""

    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.executions = []  # untraced
        self.traced = []
        self.setup_samples = []
        self.median_traced = None
        self.meter = None  # the SpeedMeter of an untraced run
        self.errors = []
        self.metrics = {}

    @property
    def attempted(self):
        return sum(execution.attempted for execution in self.executions + self.traced)

    @property
    def failed(self):
        return sum(execution.failed_rounds for execution in self.executions + self.traced)

    @property
    def correct(self):
        return self.failed == 0 and not self.errors


def run_benchmark(workload, seed, seconds, trace, tiny=False, perturb=None,
                  setup_probe=None):
    """Measure ``workload`` for about ``seconds`` seconds; returns a :class:`RunResult`.

    Untraced runs (``trace`` false) first call ``setup_probe`` (which returns
    the seconds of one complete set-up, imports included)
    :data:`SETUP_REPEATS` times, each scaled by host-speed probes right
    before and after it.  Then, with the clock of ``seconds`` started, they
    repeat the execution, probing the host speed while it runs, for as long
    as the next one still fits, and report end-to-end metrics as medians.
    Traced runs repeat (untraced, traced) pairs, without probes, and report
    per-layer metrics of the median traced execution.  At least one execution
    (or pair) always runs.  Deterministic outputs must repeat exactly across
    all executions and, at the default seed, match :data:`GOLDEN`.
    """
    parameters = workload.parameters(tiny)
    result = RunResult(workload, seed, trace)
    meter = None
    if not trace:
        meter = result.meter = SpeedMeter()
        for _ in range(SETUP_REPEATS):
            before = meter.burst()
            probed = setup_probe()
            result.setup_samples.append(meter.scale_duration(probed, before + meter.burst()))
    start = clock()
    while True:
        unit_start = clock()
        result.executions.append(
            execute(workload, parameters, seed, perturb=perturb, meter=meter)
        )
        if trace:
            result.traced.append(
                execute(workload, parameters, seed, recorder=SpanRecorder(), perturb=perturb)
            )
        now = clock()
        if now - start + (now - unit_start) > seconds:
            break
    result.errors.extend(determinism_errors(result.executions + result.traced))
    result.errors.extend(golden_errors(workload, seed, tiny, result.executions[0]))
    if trace:
        untraced_run_s = statistics.median(e.run_s for e in result.executions)
        by_run_s = sorted(result.traced, key=lambda execution: execution.run_s)
        result.median_traced = by_run_s[(len(by_run_s) - 1) // 2]
        result.metrics = per_layer_metrics(result.median_traced, untraced_run_s)
    else:
        result.metrics = end_to_end_metrics(result.executions, result.setup_samples, meter)
    return result
