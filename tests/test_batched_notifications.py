"""``API.Rate`` delivery semantics.

``API.Rate`` is a plain upcall: every ``notify_rate`` call reaches the
application at once, stamped with the current simulation time, and is
recorded in the protocol's notification log.
"""

import pytest

from repro.core.protocol import BNeckProtocol
from repro.network.topology import single_link_topology
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.scenarios import NetworkScenario


def _single_link_protocol():
    network = single_link_topology(capacity=100 * MBPS, delay=microseconds(1))
    protocol = BNeckProtocol(network)
    source = network.attach_host("r0", 1000 * MBPS, microseconds(1))
    sink = network.attach_host("r1", 1000 * MBPS, microseconds(1))
    return protocol, source.node_id, sink.node_id


class TestSynchronousDelivery(object):
    def _notify_twice_in_one_instant(self):
        protocol, source, sink = _single_link_protocol()
        session, application = protocol.open_session(source, sink, session_id="a")
        protocol.run_until_quiescent()
        baseline = application.notification_count
        simulator = protocol.simulator

        def burst():
            # Two renegotiations of the same session within one instant, as a
            # same-instant join+change collapse produces.
            protocol.notify_rate("a", 10 * MBPS)
            protocol.notify_rate("a", 70 * MBPS)

        simulator.schedule(1e-3, burst)
        protocol.run_until_quiescent()
        return protocol, application, baseline

    def test_delivers_every_invocation(self):
        protocol, application, baseline = self._notify_twice_in_one_instant()
        assert application.notification_count == baseline + 2
        assert application.current_rate == 70 * MBPS
        assert protocol.notification_log.recorded == baseline + 2
        assert protocol.last_notified_rate("a") == 70 * MBPS

    def test_delivery_carries_the_event_timestamp(self):
        protocol, application, _ = self._notify_twice_in_one_instant()
        last = application.notifications[-1]
        assert last.time == protocol.simulator.now

    def test_same_instant_join_then_change_yields_single_final_rate(self):
        protocol, source, sink = _single_link_protocol()
        session = protocol.create_session(source, sink, session_id="a")
        application = protocol.join(session, at=0.0)
        protocol.change("a", 40 * MBPS, at=0.0)
        protocol.run_until_quiescent()
        # The final notified rate reflects the change, and no instant ever
        # delivered more than one notification to the application.
        assert protocol.last_notified_rate("a") == pytest.approx(40 * MBPS)
        assert application.current_rate == pytest.approx(40 * MBPS)
        times = [n.time for n in application.notifications]
        assert len(times) == len(set(times))

    def test_churn_run_never_delivers_twice_per_instant(self):
        network = NetworkScenario("small", "lan", seed=11).build()
        protocol = BNeckProtocol(network)
        generator = WorkloadGenerator(network, seed=11)
        generator.populate(protocol, 30, join_window=(0.0, 1e-3))
        protocol.run_until_quiescent()
        for session in protocol.active_sessions():
            application = protocol.application(session.session_id)
            times = [n.time for n in application.notifications]
            assert len(times) == len(set(times))
        assert protocol.rate_callbacks == sum(
            protocol.application(s.session_id).notification_count
            for s in protocol.active_sessions()
        )
