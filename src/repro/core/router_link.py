"""The RouterLink task (Figure 2 of the paper).

One RouterLink instance controls one directed link and keeps per-session state
for every session whose path crosses the link.  Its handlers are a line-by-line
transcription of Figure 2, with two presentational differences:

* rate comparisons go through the configured
  :class:`~repro.fairness.algebra.RateAlgebra` instead of raw ``==``/``<``;
* packet forwarding is delegated to the protocol orchestrator
  (:class:`~repro.core.protocol.BNeckProtocol`), which wires each session's
  neighbours into ``next_stage``/``prev_stage`` at join time and moves the
  packet across the link.

The figure's scans over ``R_e`` and ``F_e`` ("every F_e rate not below
``B_e``", "every IDLE R_e session at ``B_e``") are window queries on the
sorted rate indexes of :class:`~repro.core.state.LinkState`: a bisect finds
the entries inside the algebra's
:meth:`~repro.fairness.algebra.RateAlgebra.equal_window` of the threshold,
plain ordering decides every entry outside it, and the algebra's own
comparison decides every entry inside it.  The decisions are those of a full
scan, and the sessions they select are still handled in session-id order.
"""

from repro.core.packets import (
    BOTTLENECK,
    Bottleneck,
    Join,
    Leave,
    Probe,
    Response,
    SetBottleneck,
    UPDATE,
    Update,
)
from repro.core.state import (
    IDLE,
    LinkState,
    WAITING_PROBE,
    WAITING_RESPONSE,
    rate_window,
)
from repro.simulator.process import Process


def _equal_to(index, value, algebra):
    """Sorted session ids of the ``index`` entries whose rate equals ``value``."""
    lo, hi = algebra.equal_window(value)
    start, stop = rate_window(index, lo, hi)
    equal = algebra.equal
    return sorted(
        session_id
        for recorded, session_id in index[start:stop]
        if equal(recorded, value)
    )


class RouterLinkTask(Process):
    """Runs the B-Neck link algorithm for one directed link."""

    def __init__(self, simulator, protocol, link, reverse_link, algebra):
        super(RouterLinkTask, self).__init__(simulator, "RL(%s->%s)" % link.endpoints)
        self.protocol = protocol
        self.link = link
        self.link_id = link.endpoints
        # Downstream packets leave across this link; upstream ones arrive
        # across its reverse.
        self.down_delay = link.control_delay()
        self.up_link_id = reverse_link.endpoints
        self.up_delay = reverse_link.control_delay()
        # Session id -> the neighbouring stage of that session's path.
        self.next_stage = {}
        self.prev_stage = {}
        self.state = LinkState(self.link_id, link.capacity, algebra)
        self.algebra = algebra

    # ----------------------------------------------------------- dispatching

    # Packet-type -> unbound handler, built once at class definition time (see
    # the assignment below the handler definitions) so ``receive`` does a
    # single dict lookup per packet instead of rebuilding the table.
    _DISPATCH = None

    def receive(self, message, sender=None):
        handler = self._DISPATCH.get(message.__class__)
        if handler is None:
            raise TypeError("%s cannot handle %r" % (self.name, message))
        handler(self, message)

    # ----------------------------------------------------- downstream helpers

    def _send_downstream(self, packet):
        self.protocol.forward_downstream(self, packet)

    def _send_upstream(self, packet):
        self.protocol.forward_upstream(self, packet)

    def _send_upstream_update(self, session_id):
        """Send an Update for *another* session towards its own source."""
        self.protocol.forward_upstream(self, Update(session_id))

    def _send_upstream_bottleneck(self, session_id):
        """Send a Bottleneck for *another* session towards its own source."""
        self.protocol.forward_upstream(self, Bottleneck(session_id))

    # -------------------------------------------------- ProcessNewRestricted

    def process_new_restricted(self):
        """Figure 2, lines 4-10.

        Move back into ``R_e`` every session recorded in ``F_e`` whose rate is
        not actually below the current bottleneck rate (highest rates first,
        recomputing ``B_e`` after each move), then ask every settled session in
        ``R_e`` whose recorded rate exceeds ``B_e`` to run a new Probe cycle.
        """
        state = self.state
        algebra = self.algebra
        free = state.free_rated
        while free:
            rate = state.bottleneck
            start, stop = rate_window(free, *algebra.equal_window(rate))
            if stop < len(free):
                # Above the window every rate is greater than B_e.
                largest = free[-1][0]
            else:
                greater_equal = algebra.greater_equal
                for position in range(stop - 1, start - 1, -1):
                    if greater_equal(free[position][0], rate):
                        largest = free[position][0]
                        break
                else:
                    break
            # Sorted so the incremental F_e load sum is updated in a
            # reproducible order.
            for session_id in _equal_to(free, largest, algebra):
                state.add_restricted(session_id)

        idle = state.idle_rated
        if not idle:
            return
        rate = state.bottleneck
        start, stop = rate_window(idle, *algebra.equal_window(rate))
        greater = algebra.greater
        woken = [
            session_id
            for recorded, session_id in idle[start:stop]
            if greater(recorded, rate)
        ]
        woken.extend(session_id for _recorded, session_id in idle[stop:])
        for session_id in sorted(woken):
            state.set_state(session_id, WAITING_PROBE)
            self._send_upstream_update(session_id)

    # ---------------------------------------------------------------- handlers

    def on_join(self, packet):
        """Figure 2, lines 12-16."""
        state = self.state
        state.add_restricted(packet.session_id)
        state.set_state(packet.session_id, WAITING_RESPONSE)
        self.process_new_restricted()
        rate = state.bottleneck
        forwarded_rate = packet.rate
        forwarded_eta = packet.restricting_link
        if self.algebra.greater(forwarded_rate, rate):
            forwarded_rate = rate
            forwarded_eta = self.link_id
        self._send_downstream(Join(packet.session_id, forwarded_rate, forwarded_eta))

    def on_probe(self, packet):
        """Figure 2, lines 30-36."""
        state = self.state
        state.set_state(packet.session_id, WAITING_RESPONSE)
        if packet.session_id in state.unrestricted:
            state.add_restricted(packet.session_id)
        self.process_new_restricted()
        rate = state.bottleneck
        forwarded_rate = packet.rate
        forwarded_eta = packet.restricting_link
        if self.algebra.greater(forwarded_rate, rate):
            forwarded_rate = rate
            forwarded_eta = self.link_id
        self._send_downstream(Probe(packet.session_id, forwarded_rate, forwarded_eta))

    def on_response(self, packet):
        """Figure 2, lines 18-28."""
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
                # Either this link believed it was the restriction but its
                # bottleneck rate changed meanwhile, or the rate now exceeds
                # the local bottleneck rate: ask for a new Probe cycle.
                tau = UPDATE
                state.set_state(session_id, WAITING_PROBE)
            if state.all_restricted_settled():
                tau = BOTTLENECK
                eta = self.link_id
                for other_id in sorted(state.restricted):
                    if other_id != session_id:
                        self._send_upstream_bottleneck(other_id)
        self._send_upstream(Response(session_id, tau, rate, eta))

    def on_update(self, packet):
        """Figure 2, lines 38-40."""
        state = self.state
        if state.state_of(packet.session_id) == IDLE:
            state.set_state(packet.session_id, WAITING_PROBE)
            self._send_upstream(Update(packet.session_id))

    def on_bottleneck(self, packet):
        """Figure 2, lines 42-43."""
        state = self.state
        if (
            state.state_of(packet.session_id) == IDLE
            and packet.session_id in state.restricted
        ):
            self._send_upstream(Bottleneck(packet.session_id))

    def on_set_bottleneck(self, packet):
        """Figure 2, lines 45-55."""
        state = self.state
        session_id = packet.session_id
        rate = state.bottleneck
        recorded = state.rate_of(session_id)

        if state.all_restricted_settled():
            # This link is itself a bottleneck, so a bottleneck exists for the
            # session: forward with beta = TRUE.
            self._send_downstream(SetBottleneck(session_id, True))
            return
        if (
            state.state_of(session_id) == IDLE
            and recorded is not None
            and self.algebra.less(recorded, rate)
        ):
            # The session is not restricted here: move it to F_e and wake the
            # sessions that were settled at the old bottleneck rate, since the
            # recomputed B_e can only grow.
            for other_id in _equal_to(state.idle_rated, rate, self.algebra):
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
            return
        # Otherwise a new Probe cycle for the session is already under way at
        # this link; the stale SetBottleneck is dropped.

    # --------------------------------------------------- capacity dynamics

    def capacity_changed(self, new_capacity):
        """Re-run the bottleneck computation after ``C_e`` changed mid-flight.

        Not part of Figure 2 -- link-capacity dynamics are an extension -- but
        built entirely from the paper's own repair machinery, so the protocol
        converges back to the max-min allocation of the *updated* network:

        * a capacity drop can pull previously unrestricted sessions back under
          this link's bottleneck rate; :meth:`process_new_restricted` moves
          them from ``F_e`` into ``R_e`` exactly as a new restriction would;
        * every settled session in ``R_e`` then holds a rate computed for the
          old capacity (too high after a drop, too low after a raise), so each
          is asked to run a fresh Probe cycle via an upstream Update -- the
          same wake-up a Leave sends to its co-bottlenecked sessions.

        Sessions already mid-cycle (``WAITING_*``) need no wake-up: their
        in-flight Response is checked against the *new* ``B_e`` when it
        arrives (``on_response`` re-probes on any mismatch).
        """
        state = self.state
        state.set_capacity(new_capacity)
        if not state.restricted and not state.unrestricted:
            return
        if not state.restricted and self.algebra.greater(
            state.unrestricted_load(), new_capacity
        ):
            # With R_e empty, B_e is infinite and process_new_restricted is
            # inert -- yet a deep capacity drop can leave the F_e load alone
            # exceeding C_e.  Seed the recomputation by pulling the
            # largest-rated F_e session back under this link's control
            # (smallest id on ties, for determinism); B_e turns finite and
            # the standard offender cascade below takes over.
            free = state.free_rated
            if free:
                victim = _equal_to(free, free[-1][0], self.algebra)[0]
                state.add_restricted(victim)
        self.process_new_restricted()
        rate = state.bottleneck
        idle = state.idle_rated
        start, stop = rate_window(idle, *self.algebra.equal_window(rate))
        equal = self.algebra.equal
        stale = [session_id for _recorded, session_id in idle[:start] + idle[stop:]]
        stale.extend(
            session_id
            for recorded, session_id in idle[start:stop]
            if not equal(recorded, rate)
        )
        if not equal(0.0, rate):
            # An IDLE R_e member without a recorded rate counts as rate 0.
            stale.extend(
                session_id
                for session_id in state.restricted
                if state.rate_of(session_id) is None
                and state.state_of(session_id) == IDLE
            )
        for session_id in sorted(stale):
            state.set_state(session_id, WAITING_PROBE)
            self._send_upstream_update(session_id)

    def on_leave(self, packet):
        """Figure 2, lines 57-62."""
        state = self.state
        session_id = packet.session_id
        rate = state.bottleneck
        to_update = [
            other_id
            for other_id in _equal_to(state.idle_rated, rate, self.algebra)
            if other_id != session_id
        ]
        state.forget(session_id)
        for other_id in to_update:
            state.set_state(other_id, WAITING_PROBE)
            self._send_upstream_update(other_id)
        self._send_downstream(Leave(session_id))


RouterLinkTask._DISPATCH = {
    Join: RouterLinkTask.on_join,
    Probe: RouterLinkTask.on_probe,
    Response: RouterLinkTask.on_response,
    Update: RouterLinkTask.on_update,
    Bottleneck: RouterLinkTask.on_bottleneck,
    SetBottleneck: RouterLinkTask.on_set_bottleneck,
    Leave: RouterLinkTask.on_leave,
}
