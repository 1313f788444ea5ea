"""Unit tests for the NotificationLog variants."""

import pytest

from repro.core.api import RateNotification
from repro.core.notifications import (
    NotificationLog,
    NullNotificationLog,
    make_notification_log,
)


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


class TestNullLog(object):
    def test_retains_nothing_but_counts(self):
        log = NullNotificationLog()
        assert log.record(0.1, "a", 10.0) is None
        assert len(log) == 0
        assert list(log) == []
        assert log.recorded == 1
        with pytest.raises(IndexError):
            log[0]


class TestFactory(object):
    def test_named_variants(self):
        assert isinstance(make_notification_log(None), NotificationLog)
        assert isinstance(make_notification_log("full"), NotificationLog)
        assert isinstance(make_notification_log("null"), NullNotificationLog)

    def test_rejects_unknown_specs(self):
        for spec in ("bogus", "ring", "ring:8", 42, NullNotificationLog):
            with pytest.raises(ValueError, match="unknown notification log"):
                make_notification_log(spec)
