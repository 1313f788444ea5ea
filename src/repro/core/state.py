"""Per-link B-Neck protocol state.

For every link ``e`` the protocol keeps (Section III-C):

* ``R_e`` -- sessions believed to be restricted at this link;
* ``F_e`` -- sessions crossing the link but restricted somewhere else;
* per session ``s``: its state ``mu^e_s`` in {IDLE, WAITING_PROBE,
  WAITING_RESPONSE} and its recorded rate ``lambda^e_s`` (meaningful only when
  ``s`` is in ``F_e``, or in ``R_e`` with ``mu^e_s = IDLE``);
* the bottleneck-rate estimate ``B_e = (C_e - sum of F_e rates) / |R_e|``,
  kept in the ``bottleneck`` attribute.

Two sorted indexes of ``(rate, session_id)`` tuples let the RouterLink task
answer its threshold questions ("which F_e rates reach ``B_e``?", "which
settled sessions sit at ``B_e``?") by bisecting instead of rescanning:

* ``idle_rated`` -- every ``R_e`` member whose ``mu`` is IDLE (including the
  implicit default) and which has a recorded rate;
* ``free_rated`` -- every ``F_e`` member with a recorded rate.

Both indexes, the running sum of the ``F_e`` rates and ``bottleneck`` are
derived from ``C_e``/``R_e``/``F_e``/``mu``/``lambda``.  They stay in sync
only if every change goes through the mutation methods (``set_state``,
``set_rate``, ``add_restricted``, ``add_unrestricted``, ``forget``,
``set_capacity``): each removes the session's index entry before it changes
anything and re-derives it after, and each one that can move ``B_e``
recomputes it.  Never mutate ``capacity``, ``restricted``/``unrestricted``
or the private maps directly.
Recorded rates must be comparable numbers (no NaN), or sorted order breaks;
the session API rejects NaN demands, the only outside source of rates.

The same container is used by the RouterLink task, by the SourceNode task (for
the session's access link) and by the stability checker of Definition 2.
"""

import math
from bisect import bisect_left, insort

from repro.fairness.algebra import default_algebra

IDLE = "IDLE"
WAITING_PROBE = "WAITING_PROBE"
WAITING_RESPONSE = "WAITING_RESPONSE"

SESSION_STATES = (IDLE, WAITING_PROBE, WAITING_RESPONSE)


class _AboveEverySessionId(object):
    """Sorts after every session id, so ``(rate, _ABOVE)`` follows every
    ``(rate, session_id)`` index entry with the same rate."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return True


_ABOVE = _AboveEverySessionId()


def rate_window(index, lo, hi):
    """Slice bounds ``(start, stop)`` of the entries of a sorted
    ``(rate, session_id)`` index with ``lo <= rate <= hi``."""
    return bisect_left(index, (lo,)), bisect_left(index, (hi, _ABOVE))


class LinkState(object):
    """The B-Neck bookkeeping of one directed link."""

    def __init__(self, link_id, capacity, algebra=None):
        if capacity <= 0:
            raise ValueError("link capacity must be positive, got %r" % capacity)
        self.link_id = link_id
        self.capacity = capacity
        self.algebra = algebra or default_algebra()
        self.restricted = set()        # R_e
        self.unrestricted = set()      # F_e
        self._mu = {}                  # session id -> mu^e_s
        self._rate = {}                # session id -> lambda^e_s
        # Incrementally maintained sum of the F_e rates behind B_e.  Starts at
        # integer zero so exact (Fraction-valued) algebras stay exact.
        self._unrestricted_load = 0
        # B_e is read on nearly every packet, while C_e, |R_e| and the F_e
        # load change far less often, so the mutations that move them
        # recompute it (_refresh_bottleneck).  Infinite while R_e is empty:
        # the link restricts nobody.
        self.bottleneck = math.inf
        # Sorted (rate, session_id) indexes; see the module docstring.
        self.idle_rated = []
        self.free_rated = []

    # --------------------------------------------------------------- queries

    def knows(self, session_id):
        """True when the link keeps state for the session."""
        return session_id in self.restricted or session_id in self.unrestricted

    def sessions(self):
        """All session ids with state at this link."""
        return self.restricted | self.unrestricted

    def state_of(self, session_id):
        """``mu^e_s`` (defaults to IDLE for unknown sessions)."""
        return self._mu.get(session_id, IDLE)

    def rate_of(self, session_id):
        """``lambda^e_s`` (``None`` when the link has not recorded one yet)."""
        return self._rate.get(session_id)

    def is_idle(self, session_id):
        return self.state_of(session_id) == IDLE

    def unrestricted_load(self):
        """The maintained sum of the ``F_e`` rates (unknown rates count as 0)."""
        return self._unrestricted_load

    def _recomputed_unrestricted_load(self):
        """The F_e load summed from scratch; used by consistency tests."""
        return sum(self._rate.get(session_id, 0.0) for session_id in self.unrestricted)

    def _rebuilt_indexes(self):
        """``(idle_rated, free_rated)`` derived from scratch; used by
        consistency tests."""
        rate_table = self._rate
        idle = sorted(
            (rate_table[session_id], session_id)
            for session_id in self.restricted
            if session_id in rate_table and self.state_of(session_id) == IDLE
        )
        free = sorted(
            (rate_table[session_id], session_id)
            for session_id in self.unrestricted
            if session_id in rate_table
        )
        return idle, free

    # ------------------------------------------------------------- mutations

    def _index_of(self, session_id):
        """The index that holds (or would hold) the session, or ``None``."""
        if session_id in self.unrestricted:
            return self.free_rated
        if session_id in self.restricted and self._mu.get(session_id, IDLE) == IDLE:
            return self.idle_rated
        return None

    def _unindex(self, session_id):
        rate = self._rate.get(session_id)
        if rate is not None:
            index = self._index_of(session_id)
            if index is not None:
                del index[bisect_left(index, (rate, session_id))]

    def _reindex(self, session_id):
        rate = self._rate.get(session_id)
        if rate is not None:
            index = self._index_of(session_id)
            if index is not None:
                insort(index, (rate, session_id))

    def set_state(self, session_id, state):
        if state not in SESSION_STATES:
            raise ValueError("unknown session state %r" % (state,))
        # The hottest mutation, so the unindex/reindex pair is spelled out:
        # mu only decides membership of a rated R_e session in idle_rated.
        mu = self._mu
        if session_id in self.restricted:
            rate = self._rate.get(session_id)
            if rate is not None:
                was_idle = mu.get(session_id, IDLE) == IDLE
                if was_idle != (state == IDLE):
                    index = self.idle_rated
                    if was_idle:
                        del index[bisect_left(index, (rate, session_id))]
                    else:
                        insort(index, (rate, session_id))
        mu[session_id] = state

    def set_capacity(self, capacity):
        """Change ``C_e`` (link-capacity dynamics)."""
        if capacity <= 0 or not math.isfinite(capacity):
            raise ValueError(
                "link capacity must be positive and finite, got %r" % (capacity,)
            )
        self.capacity = capacity
        self._refresh_bottleneck()

    def set_rate(self, session_id, rate):
        self._unindex(session_id)
        if session_id in self.unrestricted:
            old = self._rate.get(session_id, 0)
            self._unrestricted_load = self._unrestricted_load - old + rate
            self._refresh_bottleneck()
        self._rate[session_id] = rate
        self._reindex(session_id)

    def add_restricted(self, session_id):
        """Put the session in ``R_e`` (removing it from ``F_e`` if needed)."""
        self._unindex(session_id)
        if session_id in self.unrestricted:
            self.unrestricted.remove(session_id)
            self._drop_unrestricted_rate(session_id)
        self.restricted.add(session_id)
        self._refresh_bottleneck()
        self._reindex(session_id)

    def add_unrestricted(self, session_id):
        """Put the session in ``F_e`` (removing it from ``R_e`` if needed)."""
        self._unindex(session_id)
        self.restricted.discard(session_id)
        if session_id not in self.unrestricted:
            self.unrestricted.add(session_id)
            self._unrestricted_load += self._rate.get(session_id, 0)
        self._refresh_bottleneck()
        self._reindex(session_id)

    def forget(self, session_id):
        """Drop every trace of the session (used on ``Leave``)."""
        self._unindex(session_id)
        self.restricted.discard(session_id)
        if session_id in self.unrestricted:
            self.unrestricted.remove(session_id)
            self._drop_unrestricted_rate(session_id)
        self._refresh_bottleneck()
        self._mu.pop(session_id, None)
        self._rate.pop(session_id, None)

    def _drop_unrestricted_rate(self, session_id):
        if self.unrestricted:
            self._unrestricted_load -= self._rate.get(session_id, 0)
        else:
            # Re-anchor the running sum whenever F_e empties, so rounding
            # residue from long add/remove histories cannot accumulate.
            self._unrestricted_load = 0

    def _refresh_bottleneck(self):
        """Recompute ``B_e`` after ``C_e``, ``|R_e|`` or the F_e load moved."""
        if self.restricted:
            remaining = self.capacity - self._unrestricted_load
            self.bottleneck = self.algebra.divide(remaining, len(self.restricted))
        else:
            self.bottleneck = math.inf

    # ------------------------------------------------------- stability checks

    def all_restricted_settled(self):
        """The bottleneck-detection condition of Figure 2, lines 25 and 46:

        every session in ``R_e`` is IDLE and recorded at exactly ``B_e``.

        ``idle_rated`` holds exactly the IDLE, rated ``R_e`` members, so the
        condition fails when it is shorter than ``R_e`` or when its smallest
        or largest rate is off ``B_e``; only a likely True pays the full loop.
        """
        index = self.idle_rated
        if not self.restricted or len(index) < len(self.restricted):
            return False
        rate = self.bottleneck
        equal = self.algebra.equal
        if not (equal(index[0][0], rate) and equal(index[-1][0], rate)):
            return False
        for recorded, _session_id in index:
            if not equal(recorded, rate):
                return False
        return True

    def is_stable(self):
        """The per-link stability predicate of Definition 2."""
        for session_id in self.sessions():
            if self.state_of(session_id) != IDLE:
                return False
        rate = self.bottleneck
        for session_id in self.restricted:
            recorded = self._rate.get(session_id)
            if recorded is None or not self.algebra.equal(recorded, rate):
                return False
        if self.restricted:
            for session_id in self.unrestricted:
                recorded = self._rate.get(session_id)
                if recorded is None or not self.algebra.less(recorded, rate):
                    return False
        return True

    def snapshot(self):
        """A plain-dict view used by tests and debugging output."""
        return {
            "link": self.link_id,
            "capacity": self.capacity,
            "restricted": set(self.restricted),
            "unrestricted": set(self.unrestricted),
            "mu": dict(self._mu),
            "rate": dict(self._rate),
            "bottleneck": self.bottleneck,
        }

    def __repr__(self):
        return "LinkState(%r, |R|=%d, |F|=%d, B=%.4g)" % (
            self.link_id,
            len(self.restricted),
            len(self.unrestricted),
            self.bottleneck,
        )
