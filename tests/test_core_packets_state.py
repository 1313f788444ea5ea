"""Unit tests for the B-Neck packet types and the per-link protocol state."""

import math

import pytest

from repro.core.packets import (
    BOTTLENECK,
    Bottleneck,
    Join,
    Leave,
    PACKET_TYPES,
    Probe,
    RESPONSE,
    Response,
    SetBottleneck,
    UPDATE,
    Update,
)
from repro.core.state import IDLE, LinkState, WAITING_PROBE, WAITING_RESPONSE
from repro.fairness.algebra import ExactAlgebra, FloatAlgebra
from repro.network.units import MBPS
from tests.conftest import bottleneck_formula


class TestPackets(object):
    def test_join_and_probe_carry_rate_and_restricting_link(self):
        join = Join("s1", 10 * MBPS, ("a", "b"))
        probe = Probe("s1", 20 * MBPS, ("b", "c"))
        assert join.session_id == "s1"
        assert join.rate == 10 * MBPS
        assert join.restricting_link == ("a", "b")
        assert probe.rate == 20 * MBPS

    def test_response_validates_tau(self):
        for tau in (RESPONSE, UPDATE, BOTTLENECK):
            assert Response("s", tau, 1.0, ("a", "b")).tau == tau
        with pytest.raises(ValueError):
            Response("s", "NONSENSE", 1.0, ("a", "b"))

    def test_set_bottleneck_normalizes_beta(self):
        assert SetBottleneck("s", 1).found_bottleneck is True
        assert SetBottleneck("s", 0).found_bottleneck is False

    def test_simple_packets_only_carry_the_session(self):
        for packet_class in (Update, Bottleneck, Leave):
            packet = packet_class("s9")
            assert packet.session_id == "s9"

    def test_packet_type_names_are_unique_and_complete(self):
        assert len(set(PACKET_TYPES)) == 7
        assert {Join.type_name, Probe.type_name, Response.type_name, Update.type_name,
                Bottleneck.type_name, SetBottleneck.type_name, Leave.type_name} == set(PACKET_TYPES)

    def test_repr_contains_fields(self):
        assert "rate" in repr(Join("s", 1.0, None))
        assert "found_bottleneck" in repr(SetBottleneck("s", True))


@pytest.fixture(params=[FloatAlgebra, ExactAlgebra], ids=["float", "exact"])
def algebra(request):
    return request.param()


class TestLinkState(object):
    def make_state(self, capacity=100 * MBPS):
        return LinkState(("a", "b"), capacity)

    def test_initially_empty_and_unrestricting(self):
        state = self.make_state()
        assert state.sessions() == set()
        assert not state.knows("s1")
        assert state.bottleneck == math.inf
        assert state.state_of("s1") == IDLE
        assert state.rate_of("s1") is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LinkState(("a", "b"), 0.0)

    def test_membership_moves_between_sets(self):
        state = self.make_state()
        state.add_restricted("s1")
        assert "s1" in state.restricted
        state.add_unrestricted("s1")
        assert "s1" in state.unrestricted
        assert "s1" not in state.restricted
        state.add_restricted("s1")
        assert "s1" in state.restricted
        assert "s1" not in state.unrestricted

    def test_bottleneck_rate_formula(self):
        state = self.make_state(90 * MBPS)
        state.add_restricted("a")
        state.add_restricted("b")
        state.add_unrestricted("c")
        state.set_rate("c", 30 * MBPS)
        # (90 - 30) / 2
        assert state.bottleneck == pytest.approx(30 * MBPS)

    def test_set_state_validates(self):
        state = self.make_state()
        for value in (IDLE, WAITING_PROBE, WAITING_RESPONSE):
            state.set_state("s", value)
            assert state.state_of("s") == value
        with pytest.raises(ValueError):
            state.set_state("s", "SLEEPING")

    def test_forget_removes_everything(self):
        state = self.make_state()
        state.add_restricted("s1")
        state.set_state("s1", WAITING_PROBE)
        state.set_rate("s1", 5.0)
        state.forget("s1")
        assert not state.knows("s1")
        assert state.rate_of("s1") is None
        assert state.state_of("s1") == IDLE

    def test_all_restricted_settled(self):
        state = self.make_state(100 * MBPS)
        assert not state.all_restricted_settled()  # empty R_e
        state.add_restricted("s1")
        state.add_restricted("s2")
        state.set_state("s1", IDLE)
        state.set_state("s2", IDLE)
        state.set_rate("s1", 50 * MBPS)
        state.set_rate("s2", 50 * MBPS)
        assert state.all_restricted_settled()
        state.set_state("s2", WAITING_RESPONSE)
        assert not state.all_restricted_settled()
        state.set_state("s2", IDLE)
        state.set_rate("s2", 40 * MBPS)
        assert not state.all_restricted_settled()

    def test_is_stable_definition2(self):
        state = self.make_state(100 * MBPS)
        # Empty link state is trivially stable.
        assert state.is_stable()
        state.add_restricted("s1")
        state.set_state("s1", IDLE)
        state.set_rate("s1", 60 * MBPS)
        state.add_unrestricted("s2")
        state.set_state("s2", IDLE)
        state.set_rate("s2", 40 * MBPS)
        # B_e = (100 - 40) / 1 = 60: restricted at 60, unrestricted below -> stable.
        assert state.is_stable()
        # An unrestricted session at (or above) B_e breaks stability.
        state.set_rate("s2", 60 * MBPS)
        assert not state.is_stable()

    def test_is_stable_requires_idle_sessions(self):
        state = self.make_state()
        state.add_restricted("s1")
        state.set_state("s1", WAITING_PROBE)
        state.set_rate("s1", 100 * MBPS)
        assert not state.is_stable()

    def test_is_stable_requires_rates_at_bottleneck(self):
        state = self.make_state(100 * MBPS)
        state.add_restricted("s1")
        state.add_restricted("s2")
        for session_id in ("s1", "s2"):
            state.set_state(session_id, IDLE)
        state.set_rate("s1", 50 * MBPS)
        state.set_rate("s2", 30 * MBPS)
        assert not state.is_stable()

    def test_bottleneck_is_maintained_by_every_mutation(self, algebra):
        state = LinkState(("a", "b"), 100, algebra)
        # (mutation, C_e - F_e load, |R_e|) after it; None means R_e is empty.
        steps = [
            (lambda: None, None),
            (lambda: state.add_restricted("a"), (100, 1)),
            (lambda: state.add_restricted("b"), (100, 2)),
            (lambda: state.add_restricted("c"), (100, 3)),
            (lambda: state.set_rate("a", 20), (100, 3)),  # an R_e rate: no move
            (lambda: state.add_unrestricted("a"), (100 - 20, 2)),
            (lambda: state.set_rate("a", 35), (100 - 35, 2)),  # an F_e rate
            (lambda: state.set_rate("b", 10), (100 - 35, 2)),
            (lambda: state.add_unrestricted("b"), (100 - 45, 1)),
            (lambda: state.add_unrestricted("d"), (100 - 45, 1)),  # unrated
            (lambda: state.set_capacity(90), (90 - 45, 1)),
            (lambda: state.forget("a"), (90 - 10, 1)),  # an F_e member
            (lambda: state.forget("d"), (90 - 10, 1)),
            (lambda: state.add_restricted("b"), (90, 2)),  # F_e empties
            (lambda: state.forget("c"), (90, 1)),  # an R_e member
            (lambda: state.set_capacity(70), (70, 1)),
            (lambda: state.forget("b"), None),
            (lambda: state.set_capacity(50), None),
        ]
        for mutate, expected in steps:
            mutate()
            if expected is None:
                assert state.bottleneck == math.inf
            else:
                remaining, count = expected
                assert repr(state.bottleneck) == repr(algebra.divide(remaining, count))
            assert repr(state.bottleneck) == bottleneck_formula(state)

    def test_snapshot_is_a_plain_copy(self):
        state = self.make_state()
        state.add_restricted("s1")
        state.set_rate("s1", 10 * MBPS)
        snapshot = state.snapshot()
        snapshot["restricted"].add("tampered")
        assert "tampered" not in state.restricted
        assert snapshot["capacity"] == 100 * MBPS
