"""Direct verification that an allocation is max-min fair.

The bottleneck characterization theorem (Bertsekas & Gallager) states that a
feasible allocation is max-min fair iff every session either

* is allocated its full requested demand, or
* has at least one bottleneck link (Definition 1 of the paper): a saturated
  link on which no other session gets a larger rate.

This check is independent of *any* allocation algorithm in the library, which
makes it the strongest oracle available to the property-based tests: both
water-filling and (centralized/distributed) B-Neck results must pass it.

It makes one pass over the link incidence: each link's load, saturation and
largest member rate are computed once, so a session has a bottleneck iff one
of its path links is saturated and has no member rate above its own.  Rates
are compared as floats, as everywhere in the fairness layer.
"""

from repro.fairness.algebra import default_algebra
from repro.fairness.bottleneck import link_incidence


class MaxMinViolation(object):
    """A reason why an allocation fails to be max-min fair."""

    __slots__ = ("kind", "subject", "detail")

    def __init__(self, kind, subject, detail):
        self.kind = kind
        self.subject = subject
        self.detail = detail

    def __repr__(self):
        return "MaxMinViolation(%s, %r, %s)" % (self.kind, self.subject, self.detail)


def verify_allocation(sessions, allocation, algebra=None, incidence=None):
    """Return the list of :class:`MaxMinViolation` for an allocation.

    An empty list means the allocation is max-min fair (and feasible).
    Violation kinds:

    * ``overloaded-link`` -- the allocation exceeds some link capacity;
    * ``demand-exceeded`` -- a session got more than it asked for;
    * ``missing-rate`` -- a session has no assigned rate;
    * ``no-bottleneck`` -- a session is below its demand yet has no bottleneck
      link, so its rate could be increased (not max-min fair).
    """
    algebra = algebra or default_algebra()
    sessions = list(sessions)
    violations = []

    for session in sessions:
        if session.session_id not in allocation:
            violations.append(
                MaxMinViolation("missing-rate", session.session_id, "no rate assigned")
            )
    if violations:
        return violations

    # Feasibility on links, and each link's saturation and largest member
    # rate, computed once: the per-session bottleneck checks below then cost
    # one test per path link.
    if incidence is None:
        incidence = link_incidence(sessions)
    rate_of = {s.session_id: float(allocation.rate(s.session_id)) for s in sessions}
    saturated = {}
    largest = {}
    for endpoints, (link, members) in incidence.items():
        member_rates = [rate_of[s.session_id] for s in members]
        load = sum(member_rates)
        saturated[endpoints] = algebra.equal(load, link.capacity)
        largest[endpoints] = max(member_rates)
        if algebra.greater(load, link.capacity):
            violations.append(
                MaxMinViolation(
                    "overloaded-link",
                    link.endpoints,
                    "load %.6g exceeds capacity %.6g" % (load, link.capacity),
                )
            )

    # Per-session conditions.
    for session in sessions:
        rate = rate_of[session.session_id]
        demand = float(session.effective_demand())
        if algebra.greater(rate, demand):
            violations.append(
                MaxMinViolation(
                    "demand-exceeded",
                    session.session_id,
                    "rate %.6g exceeds demand %.6g" % (rate, demand),
                )
            )
            continue
        if algebra.equal(rate, demand):
            continue
        # Definition 1 as an existence test: a saturated path link with no
        # member rate above this one.  Testing the largest member rate decides
        # "every member rate is <= this one" because ``less_equal(x, rate)`` is
        # monotone in ``x`` for non-negative rates.  ExactAlgebra: it is the
        # exact order.  FloatAlgebra: let ``x' <= x`` and
        # ``less_equal(x, rate)``.  If ``x' <= rate`` it holds plainly.  Else
        # ``rate < x' <= x`` and ``x`` was accepted as close:
        # ``x - rate <= max(rel * x, rel * rate, abs)``.  The gap
        # ``x' - rate`` is smaller, and where ``rel * x`` bounded the gap,
        # ``rate >= (1 - rel) * x >= (1 - rel) * x'``, so ``rel * x'`` bounds
        # it too; so ``x'`` is accepted.  Rounding keeps this: close floats
        # subtract exactly (Sterbenz's lemma), and the rounded ``rel * x``
        # exceeds the rounded ``rel * x'`` by less than ``x - x'``.
        has_bottleneck = False
        for link in session.links:
            endpoints = link.endpoints
            if saturated[endpoints] and algebra.less_equal(largest[endpoints], rate):
                has_bottleneck = True
                break
        if not has_bottleneck:
            violations.append(
                MaxMinViolation(
                    "no-bottleneck",
                    session.session_id,
                    "rate %.6g is below demand %.6g and no path link is a bottleneck"
                    % (rate, demand),
                )
            )
    return violations


def is_max_min_fair(sessions, allocation, algebra=None):
    """True when :func:`verify_allocation` reports no violation."""
    return not verify_allocation(sessions, allocation, algebra=algebra)
