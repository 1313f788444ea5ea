"""The sorted rate indexes of ``LinkState`` and the window queries on them.

``RouterLinkTask`` answers Figure 2's threshold questions by bisecting the
sorted ``(rate, session_id)`` indexes of its ``LinkState`` into the algebra's
``equal_window`` and applying the algebra only inside that window.  These
tests pin that rewrite to the full scans it replaced:

* ``equal_window`` brackets every rate the algebra calls equal (a property
  test probing the tolerance boundaries ulp by ulp);
* random operation sequences drive an indexed ``RouterLinkTask`` and a
  full-scan reference (the pre-index handlers, kept verbatim below) in
  lockstep, under ``FloatAlgebra``, ``ExactAlgebra`` and an algebra without a
  window; after every operation the packets sent, the sessions moved into
  ``R_e`` (in order), the link state and ``all_restricted_settled`` agree, and
  both indexes equal indexes rebuilt from scratch.
"""

import fractions
import math
import random

import pytest

from repro.core.packets import (
    BOTTLENECK,
    Bottleneck,
    Join,
    Leave,
    Probe,
    RESPONSE,
    Response,
    SetBottleneck,
    UPDATE,
    Update,
)
from repro.core.router_link import RouterLinkTask
from repro.core.state import IDLE, WAITING_PROBE, WAITING_RESPONSE, LinkState
from repro.fairness.algebra import ExactAlgebra, FloatAlgebra, RateAlgebra
from repro.network.graph import Link
from repro.simulator.simulation import Simulator

LINK_ID = ("r1", "r2")
OTHER_LINK = ("r0", "r1")


# ------------------------------------------------------- full-scan reference


def reference_settled(state):
    """``LinkState.all_restricted_settled`` as a full scan of ``R_e``."""
    if not state.restricted:
        return False
    rate = state.bottleneck
    for session_id in state.restricted:
        if state.state_of(session_id) != IDLE:
            return False
        recorded = state.rate_of(session_id)
        if recorded is None or not state.algebra.equal(recorded, rate):
            return False
    return True


def _unrestricted_rated(state):
    return [
        (session_id, state.rate_of(session_id))
        for session_id in state.unrestricted
        if state.rate_of(session_id) is not None
    ]


class ReferenceRouterLink(RouterLinkTask):
    """The RouterLink handlers as full scans over ``R_e``/``F_e``."""

    def process_new_restricted(self):
        state = self.state
        algebra = self.algebra
        while True:
            rate = state.bottleneck
            rated = _unrestricted_rated(state)
            offender_rates = [
                recorded
                for _session_id, recorded in rated
                if algebra.greater_equal(recorded, rate)
            ]
            if not offender_rates:
                break
            largest = max(offender_rates)
            moved = sorted(
                session_id
                for session_id, recorded in rated
                if algebra.equal(recorded, largest)
            )
            for session_id in moved:
                state.add_restricted(session_id)

        rate = state.bottleneck
        for session_id in sorted(state.restricted):
            recorded = state.rate_of(session_id)
            if (
                recorded is not None
                and state.state_of(session_id) == IDLE
                and algebra.greater(recorded, rate)
            ):
                state.set_state(session_id, WAITING_PROBE)
                self._send_upstream_update(session_id)

    def on_response(self, packet):
        state = self.state
        session_id = packet.session_id
        tau = packet.tau
        rate = packet.rate
        eta = packet.restricting_link
        if tau == UPDATE:
            state.set_state(session_id, WAITING_PROBE)
        else:
            local_rate = state.bottleneck
            restricted_here = eta == self.link_id
            accepted = (
                restricted_here and self.algebra.equal(rate, local_rate)
            ) or (not restricted_here and self.algebra.less_equal(rate, local_rate))
            if accepted:
                state.set_state(session_id, IDLE)
                state.set_rate(session_id, rate)
            else:
                tau = UPDATE
                state.set_state(session_id, WAITING_PROBE)
            if reference_settled(state):
                tau = BOTTLENECK
                eta = self.link_id
                for other_id in sorted(state.restricted):
                    if other_id != session_id:
                        self._send_upstream_bottleneck(other_id)
        self._send_upstream(Response(session_id, tau, rate, eta))

    def on_set_bottleneck(self, packet):
        state = self.state
        session_id = packet.session_id
        rate = state.bottleneck
        recorded = state.rate_of(session_id)
        if reference_settled(state):
            self._send_downstream(SetBottleneck(session_id, True))
            return
        if (
            state.state_of(session_id) == IDLE
            and recorded is not None
            and self.algebra.less(recorded, rate)
        ):
            settled = [
                other_id
                for other_id in sorted(state.restricted)
                if state.state_of(other_id) == IDLE
                and state.rate_of(other_id) is not None
                and self.algebra.equal(state.rate_of(other_id), rate)
            ]
            for other_id in settled:
                state.set_state(other_id, WAITING_PROBE)
                self._send_upstream_update(other_id)
            state.add_unrestricted(session_id)
            self._send_downstream(SetBottleneck(session_id, packet.found_bottleneck))
            return
        if (
            state.state_of(session_id) == IDLE
            and recorded is not None
            and self.algebra.equal(recorded, rate)
        ):
            self._send_downstream(SetBottleneck(session_id, packet.found_bottleneck))

    def capacity_changed(self, new_capacity):
        state = self.state
        state.set_capacity(new_capacity)
        if not state.restricted and not state.unrestricted:
            return
        if not state.restricted and self.algebra.greater(
            state.unrestricted_load(), new_capacity
        ):
            rated = _unrestricted_rated(state)
            if rated:
                largest = max(rate for _session_id, rate in rated)
                victim = min(
                    session_id
                    for session_id, rate in rated
                    if self.algebra.equal(rate, largest)
                )
                state.add_restricted(victim)
        self.process_new_restricted()
        rate = state.bottleneck
        for session_id in sorted(state.restricted):
            if (
                state.state_of(session_id) == IDLE
                and not self.algebra.equal(state.rate_of(session_id) or 0.0, rate)
            ):
                state.set_state(session_id, WAITING_PROBE)
                self._send_upstream_update(session_id)

    def on_leave(self, packet):
        state = self.state
        session_id = packet.session_id
        rate = state.bottleneck
        to_update = [
            other_id
            for other_id in sorted(state.restricted)
            if other_id != session_id
            and state.state_of(other_id) == IDLE
            and state.rate_of(other_id) is not None
            and self.algebra.equal(state.rate_of(other_id), rate)
        ]
        state.forget(session_id)
        for other_id in to_update:
            state.set_state(other_id, WAITING_PROBE)
            self._send_upstream_update(other_id)
        self._send_downstream(Leave(session_id))


ReferenceRouterLink._DISPATCH = dict(RouterLinkTask._DISPATCH)
ReferenceRouterLink._DISPATCH.update(
    {
        Response: ReferenceRouterLink.on_response,
        SetBottleneck: ReferenceRouterLink.on_set_bottleneck,
        Leave: ReferenceRouterLink.on_leave,
    }
)


# ------------------------------------------------------------ test harness


class _Log(object):
    """Stand-in protocol: one ordered log of every packet sent."""

    def __init__(self):
        self.entries = []

    def forward_downstream(self, stage, packet):
        self.entries.append(("down", stage.link_id, repr(packet)))

    def forward_upstream(self, stage, packet):
        self.entries.append(("up", stage.link_id, repr(packet)))


def _task(cls, algebra, capacity):
    log = _Log()
    link = Link(LINK_ID[0], LINK_ID[1], capacity, 1e-6)
    reverse = Link(LINK_ID[1], LINK_ID[0], capacity, 1e-6)
    task = cls(Simulator(), log, link, reverse, algebra)
    # Record every move into R_e, in order, next to the packets.
    add_restricted = task.state.add_restricted

    def logged_add_restricted(session_id):
        log.entries.append(("move", session_id))
        add_restricted(session_id)

    task.state.add_restricted = logged_add_restricted
    return task, log


class _UnwindowedFloat(FloatAlgebra):
    """Float tolerances, but the base class's whole-line window: the indexed
    handlers must fall back to deciding every entry with the algebra."""

    equal_window = RateAlgebra.equal_window


ALGEBRAS = {
    "float": FloatAlgebra,
    "exact": ExactAlgebra,
    "unwindowed": _UnwindowedFloat,
}

# Relative offsets around a reference rate: exact hits, inside, on and just
# past the default 1e-9 relative tolerance, and clearly apart.
_OFFSETS = (0.0, 1e-12, 5e-10, 9.99e-10, 1e-9, 1.0001e-9, 2e-9, 1e-6, 0.1, 0.5)
# Absolute rates around the default 1e-6 absolute tolerance.
_TINY = (0.0, 1e-7, 5e-7, 9.99e-7, 1e-6, 1.01e-6, 2e-6)


def _rate_near(rng, task, scale, exact):
    """A rate drawn to land inside, on or just past the tolerance band of
    ``B_e``, of another recorded rate, or of the abs_tol floor."""
    state = task.state
    if rng.random() < 0.5:
        anchor = state.bottleneck
    else:
        anchors = [rate for rate in state._rate.values()]
        anchors.append(state.capacity / rng.randint(1, 5))
        anchor = rng.choice(anchors)
    if not math.isfinite(anchor):
        anchor = state.capacity / rng.randint(1, 5)
    choice = rng.random()
    if choice < 0.15:
        rate = rng.choice(_TINY) * (1 if scale <= 1e-6 else rng.choice((1, 10)))
    elif choice < 0.3:
        rate = anchor
    else:
        offset = rng.choice(_OFFSETS) * rng.choice((1, -1))
        if exact:
            rate = fractions.Fraction(anchor) * (1 + fractions.Fraction(offset))
        else:
            rate = anchor * (1 + offset)
    if rate < 0 and rng.random() < 0.8:
        rate = -rate
    return rate


def _capacity(rng, scale, exact):
    capacity = scale * rng.choice((1, 2, 3, 5, 7, 0.01, 0.3))
    return fractions.Fraction(capacity) if exact else capacity


def _random_operation(rng, task, sessions, scale, exact):
    session_id = rng.choice(sessions)
    eta = rng.choice((LINK_ID, OTHER_LINK))
    kind = rng.randrange(12)
    if kind == 11:
        # Every R_e session answered at B_e, so the link can settle.
        rate = task.state.bottleneck
        return ("packets", [
            Response(other_id, RESPONSE, rate, LINK_ID)
            for other_id in sorted(task.state.restricted)
        ])
    if kind == 0:
        return ("packet", Join(session_id, _rate_near(rng, task, scale, exact), eta))
    if kind == 1:
        return ("packet", Probe(session_id, _rate_near(rng, task, scale, exact), eta))
    if kind in (2, 3, 4):
        tau = rng.choice((RESPONSE, RESPONSE, UPDATE, BOTTLENECK))
        rate = _rate_near(rng, task, scale, exact)
        return ("packet", Response(session_id, tau, rate, eta))
    if kind == 5:
        return ("packet", SetBottleneck(session_id, rng.random() < 0.5))
    if kind == 6:
        return ("packet", rng.choice((Update, Bottleneck, Leave))(session_id))
    if kind == 7:
        # Deep cuts leave the F_e load above C_e, so B_e goes negative.
        return ("capacity", _capacity(rng, scale, exact))
    if kind == 8:
        return ("free", session_id)
    if kind == 9:
        return ("rate", session_id, _rate_near(rng, task, scale, exact))
    return ("state", session_id, rng.choice((IDLE, IDLE, WAITING_PROBE)))


def _apply(task, operation):
    kind = operation[0]
    if kind == "packet":
        task.receive(operation[1], None)
    elif kind == "packets":
        for packet in operation[1]:
            task.receive(packet, None)
    elif kind == "capacity":
        task.capacity_changed(operation[1])
    elif kind == "free":
        task.state.add_unrestricted(operation[1])
    elif kind == "rate":
        task.state.set_rate(operation[1], operation[2])
    else:
        task.state.set_state(operation[1], operation[2])


def _observable(state):
    return (
        sorted(state.restricted),
        sorted(state.unrestricted),
        sorted(state._mu.items()),
        sorted((session_id, repr(rate)) for session_id, rate in state._rate.items()),
        repr(state.unrestricted_load()),
        repr(state.capacity),
    )


def assert_indexes_in_sync(state):
    assert (state.idle_rated, state.free_rated) == state._rebuilt_indexes()


@pytest.mark.parametrize("algebra_name", sorted(ALGEBRAS))
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e8])
def test_indexed_handlers_decide_like_the_full_scans(algebra_name, scale):
    exact = algebra_name == "exact"
    rng = random.Random("%s-%r" % (algebra_name, scale))
    settled_true = 0
    negative_bottleneck = 0
    for _sequence in range(60):
        algebra = ALGEBRAS[algebra_name]()
        capacity = _capacity(rng, scale, exact)
        indexed, indexed_log = _task(RouterLinkTask, algebra, capacity)
        reference, reference_log = _task(ReferenceRouterLink, algebra, capacity)
        sessions = ["s%d" % number for number in range(rng.randint(2, 9))]
        for _step in range(80):
            operation = _random_operation(rng, reference, sessions, scale, exact)
            _apply(reference, operation)
            _apply(indexed, operation)
            assert indexed_log.entries == reference_log.entries, operation
            assert _observable(indexed.state) == _observable(reference.state)
            settled = reference_settled(reference.state)
            assert indexed.state.all_restricted_settled() == settled
            assert_indexes_in_sync(indexed.state)
            settled_true += settled
            if indexed.state.restricted and indexed.state.bottleneck < 0:
                negative_bottleneck += 1
    # The generator must reach the interesting corners, or the test is vacuous.
    assert settled_true > 50
    assert negative_bottleneck > 5


def test_indexes_follow_every_mutation_method():
    rng = random.Random(7)
    state = LinkState(LINK_ID, 10.0)
    sessions = ["s%d" % number for number in range(6)]
    for _step in range(3000):
        session_id = rng.choice(sessions)
        action = rng.randrange(5)
        if action == 0:
            state.set_state(session_id, rng.choice((IDLE, WAITING_PROBE, WAITING_RESPONSE)))
        elif action == 1:
            state.set_rate(session_id, rng.choice((1.0, 2.0, 2.0, 3.5, 0.0)))
        elif action == 2:
            state.add_restricted(session_id)
        elif action == 3:
            state.add_unrestricted(session_id)
        else:
            state.forget(session_id)
        assert_indexes_in_sync(state)
        assert state.all_restricted_settled() == reference_settled(state)


# ---------------------------------------------------------- equal_window


def _probes(value, algebra):
    """Floats at and a few ulps around every tolerance edge of ``value``."""
    relative = algebra.relative_tolerance
    absolute = algebra.absolute_tolerance
    magnitude = abs(value)
    gaps = {
        relative * magnitude,
        relative * magnitude / (1.0 - relative) if relative < 1 else 0.0,
        absolute,
        max(relative * magnitude / (1.0 - relative) if relative < 1 else 0.0, absolute),
    }
    for gap in gaps:
        for edge in (value - gap, value + gap):
            point = edge
            for _ in range(12):
                point = math.nextafter(point, -math.inf)
            for _ in range(25):
                yield point
                point = math.nextafter(point, math.inf)


TOLERANCES = [
    (1e-9, 1e-6),
    (1e-12, 0.0),
    (1e-3, 1e-9),
    (0.0, 1e-6),
    (1e-9, 0.0),
    (0.3, 5.0),
    (1e-15, 1e-300),
]


@pytest.mark.parametrize("relative, absolute", TOLERANCES)
def test_float_window_brackets_every_equal_rate(relative, absolute):
    algebra = FloatAlgebra(relative_tolerance=relative, absolute_tolerance=absolute)
    rng = random.Random("%r-%r" % (relative, absolute))
    values = [0.0, -0.0, 1e-6, -1e-6, 5e-7, 1.0, 1e8 / 3.0, -(1e8 / 7.0)]
    values.extend(
        rng.choice((1, -1)) * rng.random() * 10.0 ** rng.randint(-12, 12)
        for _ in range(300)
    )
    equal_seen = 0
    for value in values:
        lo, hi = algebra.equal_window(value)
        assert lo <= value <= hi
        for point in _probes(value, algebra):
            if algebra.equal(point, value):
                equal_seen += 1
                assert lo <= point <= hi, (value, point, lo, hi)
    assert equal_seen > len(values)


def test_infinite_values_have_point_windows():
    algebra = FloatAlgebra()
    assert algebra.equal_window(math.inf) == (math.inf, math.inf)
    assert algebra.equal_window(-math.inf) == (-math.inf, -math.inf)
    assert algebra.equal_window(math.nan) == (-math.inf, math.inf)


def test_exact_window_is_the_point_and_base_window_is_the_line():
    exact = ExactAlgebra()
    third = fractions.Fraction(1, 3)
    assert exact.equal_window(third) == (third, third)
    assert exact.equal(fractions.Fraction(2, 6), third)
    assert RateAlgebra().equal_window(1.0) == (-math.inf, math.inf)


@pytest.mark.parametrize("relative, absolute", TOLERANCES)
def test_direct_float_comparisons_match_the_derived_ones(relative, absolute):
    algebra = FloatAlgebra(relative_tolerance=relative, absolute_tolerance=absolute)
    equal = algebra.equal

    def less(first, second):
        return first < second and not equal(first, second)

    def less_equal(first, second):
        return less(first, second) or equal(first, second)

    rng = random.Random(relative)
    specials = [0.0, -0.0, 1e-6, 1.0, 3.0, math.inf, -math.inf, math.nan]
    randoms = [
        rng.choice((1, -1)) * rng.random() * 10.0 ** rng.randint(-9, 9)
        for _ in range(60)
    ]
    pairs = [(first, second) for first in specials + randoms for second in specials]
    for value in randoms + specials[:5]:
        for point in _probes(value, algebra):
            pairs.append((point, value))
            pairs.append((value, point))
    for first, second in pairs:
        assert algebra.less(first, second) == less(first, second)
        assert algebra.greater(first, second) == less(second, first)
        assert algebra.less_equal(first, second) == less_equal(first, second)
        assert algebra.greater_equal(first, second) == less_equal(second, first)
