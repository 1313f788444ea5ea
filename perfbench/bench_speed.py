"""Host-speed meter: wall time scaled to a reference host speed.

The host a benchmark runs on may share its CPUs, and its speed can then
change by half or more for tens of seconds at a time.  Raw wall seconds of
two runs a minute apart differ by that much, whatever the code does.

The meter times a fixed calibration loop, which uses nothing of the library,
every :data:`INTERVAL` seconds from a ``SIGALRM`` handler while an execution
runs, and right before and after it.  Each stretch of wall time between two
probes is divided by the local probe duration (the median of the probes
around it) and multiplied by :data:`REFERENCE_PROBE_S`.  The result is in
seconds on a host that runs the calibration loop in exactly
:data:`REFERENCE_PROBE_S`.  A change to the library changes the stretches but
not the probes; a change of host speed changes both alike.  Time spent in
probes is left out.
"""

import bisect
import gc
import heapq
import signal
import statistics
import time

clock = time.perf_counter

#: Seconds between probes while the meter runs.
INTERVAL = 0.05

#: Probe duration that defines the reference host speed.
REFERENCE_PROBE_S = 0.0005

#: Probes on each side of a stretch whose median gives its local speed.
WINDOW = 3

#: Probes in one burst, taken before and after a measured stretch.
BURST = 9


class _Item(object):
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def calibration_loop(n=400):
    """Fixed interpreter work of the kind a discrete-event loop does."""
    heap = []
    table = {}
    for i in range(n):
        item = _Item(i % 97, i)
        heapq.heappush(heap, (i * 7919 % 1013, i, item))
        table[item.key] = table.get(item.key, 0) + item.value
    while heap:
        _, _, item = heapq.heappop(heap)
        table[item.key] -= 1
    return table


class SpeedMeter(object):
    """Probes recorded as ``(start, end)`` pairs, in the order they ran."""

    def __init__(self):
        self.probes = []
        self._speeds = None
        self._probing = False

    def probe(self):
        """Time the calibration loop once, with the garbage collector held off.

        The loop frees what it allocates, so holding the collector off moves
        no collection out of the measured code.
        """
        self._probing = True
        enabled = gc.isenabled()
        gc.disable()
        started = clock()
        calibration_loop()
        ended = clock()
        if enabled:
            gc.enable()
        self._probing = False
        self.probes.append((started, ended))
        self._speeds = None
        return ended - started

    def burst(self):
        """Probe :data:`BURST` times; returns the durations."""
        return [self.probe() for _ in range(BURST)]

    def _alarm(self, signum, frame):
        if not self._probing:  # a slow probe must not be interrupted by the next
            self.probe()

    def __enter__(self):
        self.burst()
        self._previous = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.burst()
        return False

    def scale_duration(self, seconds, probes):
        """``seconds`` measured next to ``probes``, in reference seconds."""
        return seconds * REFERENCE_PROBE_S / statistics.median(probes)

    def scaled(self, start, end):
        """Reference seconds of the wall time from ``start`` to ``end``.

        Both ends must lie between the first and the last probe.
        """
        probes = self.probes
        if not probes or start < probes[0][1] or end > probes[-1][0]:
            raise ValueError("stretch %r-%r is not covered by probes" % (start, end))
        if self._speeds is None:
            durations = [ended - started for started, ended in probes]
            self._speeds = [
                statistics.median(durations[max(0, gap - WINDOW + 1):gap + WINDOW + 1])
                for gap in range(len(probes) - 1)
            ]
            self._ends = [ended for _, ended in probes]
        total = 0.0
        gap = max(bisect.bisect_right(self._ends, start) - 1, 0)
        while gap < len(probes) - 1:
            low = max(probes[gap][1], start)
            high = min(probes[gap + 1][0], end)
            if low >= end:
                break
            if high > low:
                total += (high - low) / self._speeds[gap]
            gap += 1
        return total * REFERENCE_PROBE_S
