"""Tests for the top-level public API surface (`import repro`)."""

import math

import pytest

import repro
import repro.core
from repro import (
    BNeckProtocol,
    MBPS,
    RateAllocation,
    centralized_bneck,
    dumbbell_topology,
    is_max_min_fair,
    validate_against_oracle,
    water_filling,
)
from repro.baselines.bfyz import BFYZProtocol
from repro.experiments.experiment2 import Experiment2Config
from repro.experiments.runner import ScenarioSpec
from repro.network.topology import single_link_topology
from repro.simulator.simulation import Simulator


def test_version_is_exposed():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), "missing export %r" % name


def test_readme_quickstart_flow():
    # The flow documented in the README, end to end.
    network = dumbbell_topology(side_count=2, bottleneck_capacity=100 * MBPS)
    protocol = BNeckProtocol(network)

    source_a = network.attach_host("west0", 1000 * MBPS, 1e-6)
    sink_a = network.attach_host("east0", 1000 * MBPS, 1e-6)
    _, app_a = protocol.open_session(source_a.node_id, sink_a.node_id)

    source_b = network.attach_host("west1", 1000 * MBPS, 1e-6)
    sink_b = network.attach_host("east1", 1000 * MBPS, 1e-6)
    _, app_b = protocol.open_session(source_b.node_id, sink_b.node_id, demand=10 * MBPS)

    protocol.run_until_quiescent()

    assert app_a.current_rate / MBPS == math.floor(app_a.current_rate / MBPS) == 90
    assert app_b.current_rate / MBPS == 10
    assert validate_against_oracle(protocol).valid


def test_oracles_are_importable_from_the_top_level(single_link_network):
    from tests.conftest import make_session

    sessions = [
        make_session(single_link_network, "a", "r0", "r1"),
        make_session(single_link_network, "b", "r0", "r1", demand=10 * MBPS),
    ]
    centralized = centralized_bneck(sessions)
    filled = water_filling(sessions)
    assert isinstance(centralized, RateAllocation)
    assert centralized.equals(filled)
    assert is_max_min_fair(sessions, centralized)


# ``API.Rate`` has one delivery path (synchronous, one full log) and packet
# accounting has one switch per object (``tracer=NullPacketTracer()`` on a
# protocol, ``trace_packets=`` on a ScenarioSpec).  The options that offered a
# second way are gone; passing one is an error, not a silent no-op.
_REMOVED_OPTIONS = [
    (BNeckProtocol, "notification_batch_window", 1e-3),
    (BNeckProtocol, "notification_log", "null"),
    (BNeckProtocol, "trace_packets", False),
    (BFYZProtocol, "trace_packets", False),
    (ScenarioSpec, "notification_batch_window", 1e-3),
    (ScenarioSpec, "notification_log", "null"),
    (Experiment2Config, "notification_batch_window", 1e-3),
    (Experiment2Config, "notification_log", "null"),
]


def _construct(owner, **options):
    if owner in (BNeckProtocol, BFYZProtocol):
        return owner(single_link_topology(), **options)
    if owner is ScenarioSpec:
        return owner(size="small", **options)
    return owner(size="small", initial_sessions=20, **options)


@pytest.mark.parametrize(
    "owner, option, value",
    _REMOVED_OPTIONS,
    ids=["%s-%s" % (owner.__name__, option) for owner, option, _ in _REMOVED_OPTIONS],
)
def test_removed_option_is_rejected(owner, option, value):
    _construct(owner)  # the defaults still construct
    with pytest.raises(TypeError, match=option):
        _construct(owner, **{option: value})


@pytest.mark.parametrize("name", ["NullNotificationLog", "make_notification_log"])
def test_core_exports_only_the_full_notification_log(name):
    assert "NotificationLog" in repro.core.__all__
    assert name not in repro.core.__all__
    assert not hasattr(repro.core, name)


@pytest.mark.parametrize("name", ["schedule_bookkeeping", "pending_bookkeeping"])
def test_simulator_has_no_out_of_band_timers(name):
    # Every piece of work is an event in the one queue.
    assert not hasattr(Simulator(), name)
