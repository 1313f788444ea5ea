"""The record of ``API.Rate`` invocations.

Every ``API.Rate`` invocation is recorded by
:meth:`~repro.core.protocol.BNeckProtocol.notify_rate` in a
:class:`NotificationLog`: a list of
:class:`~repro.core.api.RateNotification` objects with ``len`` / indexing /
iteration, plus ``recorded``, the number of invocations seen.  It is the one
protocol-side record; each session's
:class:`~repro.core.api.SessionApplication` keeps its own.
"""

from repro.core.api import RateNotification


class NotificationLog(object):
    """Every ``API.Rate`` invocation, in order."""

    def __init__(self):
        self._records = []

    def record(self, time, session_id, rate):
        """Store one ``API.Rate`` invocation; returns the stored record."""
        notification = RateNotification(time, session_id, rate)
        self._records.append(notification)
        return notification

    @property
    def recorded(self):
        """Total number of ``API.Rate`` invocations seen."""
        return len(self._records)

    def __len__(self):
        return len(self._records)

    def __getitem__(self, index):
        return self._records[index]

    def __iter__(self):
        return iter(self._records)

    def __repr__(self):
        return "NotificationLog(recorded=%d)" % len(self._records)
