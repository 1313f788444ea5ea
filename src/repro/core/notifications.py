"""Storage for ``API.Rate`` notification records.

Every ``API.Rate`` invocation is recorded by
:meth:`~repro.core.protocol.BNeckProtocol.notify_rate`.  The default -- a list
of :class:`~repro.core.api.RateNotification` objects -- is exactly what the
small correctness tests want, but a long dynamic run (Experiment 2-style
churn, or the paper-scale topologies) accumulates millions of records the
experiments never read.  Two logs are therefore provided:

* :class:`NotificationLog` -- the default: keeps every record, supports
  ``len`` / indexing / iteration like the plain list it replaces.
* :class:`NullNotificationLog` -- keeps nothing but a count; the cheapest
  option for benchmarks that only read final allocations.

Both are interchangeable: ``record`` is the single write entry point,
``recorded`` counts every invocation, and the sequence protocol (over whatever
records are retained) is the read side.  The protocol's
``last_notified_rate`` bookkeeping is independent of the log, so dropping
records never changes protocol behaviour -- simulation traces are
bit-identical across logs.
"""

from repro.core.api import RateNotification

FULL = "full"
NULL = "null"


class NotificationLog(object):
    """Full-record log: every ``API.Rate`` invocation is kept (the default)."""

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


class NullNotificationLog(object):
    """A log that retains nothing, as cheaply as possible.

    ``record`` only bumps a counter -- no :class:`RateNotification` is
    allocated -- so churn-heavy benchmark runs pay nothing per notification.
    The read side reports an empty sequence.
    """

    __slots__ = ("_recorded",)

    def __init__(self):
        self._recorded = 0

    def record(self, time, session_id, rate):
        self._recorded += 1
        return None

    @property
    def recorded(self):
        return self._recorded

    def __len__(self):
        return 0

    def __getitem__(self, index):
        raise IndexError("NullNotificationLog retains no records")

    def __iter__(self):
        return iter(())

    def __repr__(self):
        return "NullNotificationLog(recorded=%d)" % self._recorded


def make_notification_log(spec):
    """Build a notification log from ``None`` / ``"full"`` (the default) or ``"null"``."""
    if spec is None or spec == FULL:
        return NotificationLog()
    if spec == NULL:
        return NullNotificationLog()
    raise ValueError("unknown notification log %r (expected 'full' or 'null')" % (spec,))
