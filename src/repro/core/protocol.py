"""The B-Neck protocol orchestrator.

:class:`BNeckProtocol` glues the three task types of Section III-C to a
network and a discrete-event simulator:

* it instantiates one :class:`~repro.core.router_link.RouterLinkTask` per
  directed link crossed by some session, one
  :class:`~repro.core.source_node.SourceNodeTask` and one
  :class:`~repro.core.destination_node.DestinationNodeTask` per session;
* it routes packets hop by hop along session paths (downstream) and reverse
  paths (upstream), applying each link's control-packet delay and accounting
  every transmission in a :class:`~repro.simulator.tracing.PacketTracer`;
* it exposes the session API (``join`` / ``leave`` / ``change``), records every
  ``API.Rate`` notification, and provides quiescence and allocation helpers
  used by the experiments and tests.

Notification delivery
---------------------

``API.Rate`` is a plain upcall: by default each ``notify_rate`` call reaches
the session's :class:`~repro.core.api.SessionApplication` synchronously, as
its ``deliver_rate`` callback.  For churn-heavy experiments,
``notification_batch_window=w`` coalesces the callbacks into logical windows
of ``w`` seconds: pending rates are delivered at the next multiple of ``w``,
one application update per session per window, carrying the session's final
rate.  Windowed flushes run as out-of-band *bookkeeping timers*
(:meth:`~repro.simulator.simulation.Simulator.schedule_bookkeeping`), so they
never appear in ``events_processed``, never stretch a reported quiescence
time, and never count against ``Simulator.max_events`` / ``max_time`` caps;
applications observe the window-boundary timestamp.  Notifications schedule
no events, so packet counts, event counts and final allocations are
bit-identical with or without a window; only the application-facing callback
stream is coalesced.

The record of ``API.Rate`` invocations is kept in a *notification log* (see
:mod:`repro.core.notifications`): the default retains everything
(list-compatible via the ``notifications`` attribute); churn-heavy runs can
pass ``notification_log="null"`` (keep nothing but a count) without affecting
protocol behaviour.
"""

import math

from repro.core.actions import CapacityChangeAction, replay_actions, validate_actions
from repro.core.api import SessionApplication
from repro.core.notifications import make_notification_log
from repro.core.destination_node import DestinationNodeTask
from repro.core.router_link import RouterLinkTask
from repro.core.source_node import SourceNodeTask
from repro.fairness.algebra import default_algebra
from repro.fairness.allocation import RateAllocation
from repro.network.routing import PathComputer, path_links
from repro.network.session import Session, SessionRegistry, check_demand
from repro.simulator.simulation import Simulator
from repro.simulator.tracing import NullPacketTracer, PacketTracer

DOWNSTREAM = "downstream"
UPSTREAM = "upstream"


class _SessionWiring(object):
    """Per-session forwarding table: ordered protocol stages, path links, the
    reverse of each path link (what upstream packets cross) and the control
    delay of each, by position along the path."""

    __slots__ = ("stages", "links", "reverse_links", "down_delays", "up_delays",
                 "index_by_key")

    def __init__(self, session, stages, links, reverse_links):
        self.stages = stages
        self.links = links
        self.reverse_links = reverse_links
        self.down_delays = [link.control_delay() for link in links]
        self.up_delays = [link.control_delay() for link in reverse_links]
        # Stage 0 (the source) is addressed by the access link it owns; stages
        # 1..k by the link their RouterLink controls; the destination by a
        # dedicated key.
        self.index_by_key = {link.endpoints: position for position, link in enumerate(links)}
        self.index_by_key[("destination", session.session_id)] = len(links)


class BNeckProtocol(object):
    """B-Neck running over a network on a discrete-event simulator.

    Args:
        network: the :class:`~repro.network.graph.Network` to run over.
        simulator: optional simulator (one is created if omitted).
        algebra: optional rate algebra; defaults to tolerance-based floats.
        tracer: optional :class:`~repro.simulator.tracing.PacketTracer`.
        trace_packets: when false (and no explicit ``tracer`` is given) a
            :class:`~repro.simulator.tracing.NullPacketTracer` is installed
            and the forwarding methods skip the per-packet accounting
            entirely -- use for runs that only report times, not counts.
            Assigning ``tracer`` later switches the accounting to match.
        notification_log: where ``API.Rate`` records are kept -- ``"full"``
            (default, unbounded) or ``"null"`` (see
            :func:`repro.core.notifications.make_notification_log`).
        notification_batch_window: optional window width (seconds) over which
            application ``API.Rate`` callbacks are coalesced (see the module
            docstring); ``None`` (default) delivers each one synchronously.
    """

    def __init__(self, network, simulator=None, algebra=None, tracer=None,
                 trace_packets=True, notification_log=None,
                 notification_batch_window=None):
        self.network = network
        self.simulator = simulator or Simulator()
        self.algebra = algebra or default_algebra()
        if tracer is None:
            tracer = PacketTracer() if trace_packets else NullPacketTracer()
        self.tracer = tracer
        self.registry = SessionRegistry()
        self.path_computer = PathComputer(network)
        self._router_links = {}
        self._sources = {}
        self._destinations = {}
        self._applications = {}
        self._wirings = {}
        self._sessions = {}
        self._last_rate = {}
        self.notification_log = make_notification_log(notification_log)
        if notification_batch_window is not None and not (
            0 < notification_batch_window < math.inf  # also rejects NaN
        ):
            raise ValueError(
                "notification_batch_window must be positive and finite, got %r"
                % (notification_batch_window,)
            )
        self.notification_batch_window = notification_batch_window
        self._pending_rates = {}
        self.rate_callbacks = 0
        self._session_counter = 0

    @property
    def tracer(self):
        """The packet tracer; assigning one also sets the per-packet flag."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer):
        self._tracer = tracer
        # Read once per packet by the forwarding methods.
        self._trace_packets = getattr(tracer, "enabled", True)

    @property
    def in_flight_packets(self):
        """Control packets sent but not yet delivered (each is one delivery)."""
        return self.simulator.pending_deliveries

    # ------------------------------------------------------------------ actions

    def apply_actions(self, actions):
        """Apply a batch of session actions.

        ``actions`` are :mod:`repro.core.actions` records (joins, leaves,
        changes, capacity changes) with every random choice already resolved
        and an absolute time each.  Times, capacities and capacity-change
        targets are checked for the whole batch before any action is
        scheduled.  Returns ``{session_id: session}`` for the joins.
        """
        actions = validate_actions(list(actions))
        for action in actions:
            if action.kind == "capacity":
                self._check_capacity_action(action)
        return replay_actions(self, actions)

    # ------------------------------------------------------------------ sessions

    def create_session(self, source_host, destination_host, demand=math.inf, session_id=None):
        """Build a :class:`~repro.network.session.Session` along the shortest path.

        This only constructs the object; call :meth:`join` to activate it.
        """
        if session_id is None:
            self._session_counter += 1
            session_id = "session-%d" % self._session_counter
        node_path = self.path_computer.route(source_host, destination_host)
        links = path_links(self.network, node_path)
        session = Session(session_id, source_host, destination_host, node_path, links, demand)
        return session

    def join(self, session, at=None, application=None):
        """``API.Join``: activate a session, optionally at a future time.

        Returns the :class:`~repro.core.api.SessionApplication` that will
        receive the session's ``API.Rate`` notifications.
        """
        if session.session_id in self._sessions:
            raise ValueError("session %r already joined" % session.session_id)
        # Upstream packets cross these; a missing reverse link fails here.
        reverse_links = [self.network.reverse_link(link) for link in session.links]
        if application is None:
            application = SessionApplication(session.session_id, session.demand)
        self._sessions[session.session_id] = session
        self._applications[session.session_id] = application

        source = SourceNodeTask(self.simulator, self, session, self.algebra)
        destination = DestinationNodeTask(self.simulator, self, session)
        self._sources[session.session_id] = source
        self._destinations[session.session_id] = destination

        stages = [source]
        for link in session.transit_links:
            stages.append(self._router_link_for(link))
        stages.append(destination)
        self._wirings[session.session_id] = _SessionWiring(
            session, stages, session.links, reverse_links
        )

        def activate():
            self.registry.add(session)
            source.api_join(session.demand)

        self._schedule_api_call(activate, at, "API.Join")
        return application

    def leave(self, session_id, at=None):
        """``API.Leave``: terminate an active session, optionally at a future time."""
        source = self._sources[session_id]

        def deactivate():
            if session_id in self.registry:
                self.registry.remove(session_id)
            source.api_leave()

        self._schedule_api_call(deactivate, at, "API.Leave")

    def change(self, session_id, requested_rate, at=None):
        """``API.Change``: request a new maximum rate, optionally at a future time.

        A demand that is not positive (zero, negative, NaN) raises
        ``ValueError`` here, before anything is scheduled.
        """
        check_demand(requested_rate)
        source = self._sources[session_id]
        session = self._sessions[session_id]

        def apply_change():
            session.demand = requested_rate
            source.api_change(requested_rate)

        self._schedule_api_call(apply_change, at, "API.Change")

    def change_capacity(self, source, target, capacity, at=None, both_directions=False):
        """Change a router-to-router link's data-plane capacity, mid-flight.

        The change is described as one (or, with ``both_directions``, a pair
        of) :class:`~repro.core.actions.CapacityChangeAction` and applied
        through :meth:`apply_actions`.  When the scheduled time arrives, the
        network link is mutated and the affected RouterLink re-runs its
        bottleneck computation
        (:meth:`~repro.core.router_link.RouterLinkTask.capacity_changed`);
        once the protocol requiesces, the allocation again matches the
        water-filling oracle on the *updated* capacities.  ``at=None`` pins
        the change to the current time.
        """
        when = self.simulator.now if at is None else at
        actions = [CapacityChangeAction(source, target, capacity, when)]
        if both_directions:
            actions.append(CapacityChangeAction(target, source, capacity, when))
        return self.apply_actions(actions)

    def schedule_capacity_change(self, action):
        """Schedule one replayed :class:`~repro.core.actions.CapacityChangeAction`.

        Called from :func:`repro.core.actions.replay_actions`.  The change
        takes a deterministic ``(time, sequence)`` slot in the event queue
        relative to the packets in flight around it.
        """
        link = self._check_capacity_action(action)
        key = (action.source, action.target)

        def apply_change():
            link.set_capacity(action.capacity)
            task = self._router_links.get(key)
            if task is not None:
                task.capacity_changed(action.capacity)

        self._schedule_api_call(apply_change, action.at, "CapacityChange")

    def _check_capacity_action(self, action):
        """Resolve a capacity action's link, rejecting host endpoints.

        Raises ``KeyError`` for unknown links and ``ValueError`` for access
        links; returns the :class:`~repro.network.graph.Link`.
        """
        key = (action.source, action.target)
        link = self.network.link(*key)
        for endpoint in key:
            if not self.network.node(endpoint).is_router:
                raise ValueError(
                    "capacity changes apply to router-to-router links; %r -> %r "
                    "touches host %r (access-link bandwidth is a session-demand "
                    "concern: use API.Change)" % (action.source, action.target, endpoint)
                )
        return link

    def open_session(self, source_host, destination_host, demand=math.inf, session_id=None, at=None):
        """Create and immediately join a session; returns ``(session, application)``."""
        session = self.create_session(source_host, destination_host, demand, session_id)
        application = self.join(session, at=at)
        return session, application

    def _schedule_api_call(self, callback, at, tag):
        # Calls with no requested time (or a time already in the past) execute
        # immediately.  A call at exactly ``now`` is *enqueued*, not executed
        # synchronously: it must take its (time, sequence) slot in the event
        # queue so it interleaves deterministically with packet deliveries
        # scheduled at the same instant.
        if at is None or at < self.simulator.now:
            callback()
        else:
            self.simulator.schedule_at(at, callback, tag=tag)

    def _router_link_for(self, link):
        key = link.endpoints
        if key not in self._router_links:
            self._router_links[key] = RouterLinkTask(self.simulator, self, link, self.algebra)
        return self._router_links[key]

    # ---------------------------------------------------------------- forwarding

    def forward_downstream(self, link_id, packet):
        """Deliver ``packet`` to the next stage of its session's path."""
        wiring = self._wirings[packet.session_id]
        index = wiring.index_by_key[link_id]
        type_name = packet.type_name
        if self._trace_packets:
            self._tracer.record(self.simulator.now, type_name, packet.session_id,
                                wiring.links[index].endpoints, DOWNSTREAM)
        self.simulator.schedule_delivery(
            wiring.down_delays[index], wiring.stages[index + 1].receive, packet, type_name
        )

    def forward_upstream(self, link_id, packet):
        """Deliver ``packet`` to the previous stage of its session's path
        (the destination sends from its key ``("destination", session_id)``)."""
        wiring = self._wirings[packet.session_id]
        index = wiring.index_by_key[link_id] - 1
        if index < 0:
            # The source is the first stage; nothing lies upstream of it.
            return
        type_name = packet.type_name
        if self._trace_packets:
            self._tracer.record(self.simulator.now, type_name, packet.session_id,
                                wiring.reverse_links[index].endpoints, UPSTREAM)
        self.simulator.schedule_delivery(
            wiring.up_delays[index], wiring.stages[index].receive, packet, type_name
        )

    # A RouterLink that originates an Update/Bottleneck for *another* session
    # uses the same routing logic: the packet starts at this link's position in
    # that session's path and travels towards that session's source.
    send_upstream_from = forward_upstream

    # --------------------------------------------------------------- API.Rate

    @property
    def notifications(self):
        """The retained ``API.Rate`` records (sequence-compatible log)."""
        return self.notification_log

    def notify_rate(self, session_id, rate):
        """Record an ``API.Rate`` invocation and deliver it to the application.

        Without a ``notification_batch_window`` the application callback runs
        synchronously.  With one, it is deferred to the next window boundary
        and coalesced: only the last rate a session was notified within the
        window reaches ``deliver_rate``.  Records, ``last_notified_rate`` and
        the returned notification object always reflect every invocation.
        """
        time = self.simulator.now
        notification = self.notification_log.record(time, session_id, rate)
        self._last_rate[session_id] = rate
        window = self.notification_batch_window
        if window is None:
            application = self._applications.get(session_id)
            if application is not None:
                self.rate_callbacks += 1
                application.deliver_rate(time, rate)
            return notification
        pending = self._pending_rates
        if not pending:
            # Flush at the next window boundary strictly after `now`, through a
            # bookkeeping timer, not an event (see the module docstring).
            boundary = (math.floor(time / window) + 1.0) * window
            self.simulator.schedule_bookkeeping(boundary - time, self._flush_pending_rates)
        pending[session_id] = rate
        return notification

    def _flush_pending_rates(self, due):
        """Windowed-flush bookkeeping timer: one coalesced ``API.Rate`` per session.

        Fires between events (see
        :meth:`repro.simulator.simulation.Simulator.schedule_bookkeeping`);
        applications see the boundary timestamp ``due`` regardless of where
        between two events the timer actually ran.  Dict insertion order makes
        delivery order deterministic: sessions are notified in the order of
        their *first* rate update within the window, each carrying its
        *final* rate.
        """
        batch = list(self._pending_rates.items())
        self._pending_rates.clear()
        applications = self._applications
        delivered = 0
        for session_id, rate in batch:
            application = applications.get(session_id)
            if application is not None:
                delivered += 1
                application.deliver_rate(due, rate)
        self.rate_callbacks += delivered

    def last_notified_rate(self, session_id):
        """The last rate notified to a session (``None`` before the first)."""
        return self._last_rate.get(session_id)

    # -------------------------------------------------------------- inspection

    def source(self, session_id):
        """The SourceNode task of a session."""
        return self._sources[session_id]

    def destination(self, session_id):
        """The DestinationNode task of a session."""
        return self._destinations[session_id]

    def router_link(self, endpoints):
        """The RouterLink task controlling the directed link ``endpoints``."""
        return self._router_links[endpoints]

    def router_link_states(self):
        """The :class:`~repro.core.state.LinkState` of every RouterLink task."""
        return [task.state for task in self._router_links.values()]

    def all_link_states(self):
        """Every link state: RouterLinks plus the access links owned by sources
        of currently active sessions."""
        states = list(self.router_link_states())
        for session in self.registry:
            source = self._sources.get(session.session_id)
            if source is not None:
                states.append(source.state)
        return states

    def application(self, session_id):
        return self._applications[session_id]

    def session(self, session_id):
        return self._sessions[session_id]

    # -------------------------------------------------------------- allocation

    def current_allocation(self):
        """The rate each active session currently believes it may use.

        Before a session's first Response this is 0 (B-Neck is conservative:
        transient rates never exceed the final max-min rates).
        """
        allocation = RateAllocation(algebra=self.algebra)
        for session in self.registry:
            source = self._sources[session.session_id]
            allocation.set_rate(session.session_id, source.current_rate())
        return allocation

    def notified_allocation(self):
        """The last ``API.Rate`` value of every active session (0 if none yet)."""
        allocation = RateAllocation(algebra=self.algebra)
        for session in self.registry:
            rate = self._last_rate.get(session.session_id, 0.0)
            allocation.set_rate(session.session_id, rate)
        return allocation

    def active_sessions(self):
        """The currently active sessions (the paper's set ``S``)."""
        return self.registry.active_sessions()

    # --------------------------------------------------------------- execution

    @property
    def quiescent(self):
        """True when no event (packet delivery or pending API call) remains."""
        return self.simulator.pending_events == 0

    def run_until_quiescent(self):
        """Run until the event queue drains; returns the quiescence time."""
        return self.simulator.run_until_quiescent()

    def run(self, until=None, stop_condition=None):
        """Run up to a time horizon (used when mixing with workload schedules)."""
        return self.simulator.run(until=until, stop_condition=stop_condition)

    def __repr__(self):
        return "BNeckProtocol(network=%r, sessions=%d, now=%r)" % (
            self.network.name,
            len(self.registry),
            self.simulator.now,
        )
