"""Unit tests for the NotificationLog."""

from repro.core.api import RateNotification
from repro.core.notifications import NotificationLog


class TestFullLog(object):
    def test_records_everything_in_order(self):
        log = NotificationLog()
        first = log.record(0.1, "a", 10.0)
        log.record(0.2, "b", 20.0)
        assert isinstance(first, RateNotification)
        assert len(log) == 2
        assert log[0].session_id == "a"
        assert [n.rate for n in log] == [10.0, 20.0]
        assert log.recorded == 2
