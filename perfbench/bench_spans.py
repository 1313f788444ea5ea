"""In-memory span recorder for the benchmark's traced runs.

A traced run wraps the library's public entry points from outside (see
:func:`bench_harness.traced_library`): every wrapped call becomes one span
with a name, a start, an end and the span that caused it.  Spans stay in
memory until the run ends; a layer's *self time* is the duration of its spans
minus the part their child spans cover, so the self times of all spans under
one root add up to the root's duration exactly.
"""

import collections
import json
import time


class SpanRecorder(object):
    """Records nested spans as ``[name, start, end, parent_index]`` lists."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    def begin(self, name):
        """Open a span as a child of the innermost open span; returns its index."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(index)
        return index

    def end(self, index):
        """Close the innermost open span, which must be ``index``."""
        if not self._open or self._open[-1] != index:
            raise RuntimeError(
                "span %r closed out of order (open: %r)"
                % (self.spans[index][0], [self.spans[i][0] for i in self._open])
            )
        self._open.pop()
        self.spans[index][2] = self.clock()

    def wrap(self, name, function):
        """Return ``function`` wrapped so that every call records one span."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(index)

        traced.__wrapped__ = function
        return traced

    def _closed(self):
        for span in self.spans:
            if span[2] is None:
                raise RuntimeError("span %r is still open" % (span[0],))
        return self.spans

    def under(self, root):
        """Indices of ``root`` and every span nested below it."""
        spans = self._closed()
        inside = {root}
        for index in range(root + 1, len(spans)):
            if spans[index][3] in inside:
                inside.add(index)
        return inside

    def self_times(self, indices=None):
        """``{name: total self seconds}`` over ``indices`` (default: all)."""
        spans = self._closed()
        if indices is None:
            indices = range(len(spans))
        child_time = collections.Counter()
        for name, start, end, parent in spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = collections.Counter()
        for index in indices:
            name, start, end, _ = spans[index]
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def calls(self, name):
        """How many spans named ``name`` were recorded."""
        return sum(1 for span in self.spans if span[0] == name)

    def duration(self, index):
        name, start, end, _ = self._closed()[index]
        return end - start

    def write(self, path):
        """Write every span as JSON (times relative to the first span's start)."""
        spans = self._closed()
        origin = spans[0][1] if spans else 0.0
        with open(path, "w") as handle:
            json.dump(
                [
                    {"name": name, "start": start - origin, "end": end - origin,
                     "parent": parent}
                    for name, start, end, parent in spans
                ],
                handle,
            )
