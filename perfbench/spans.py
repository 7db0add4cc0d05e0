"""Span recording and self-time arithmetic for the traced benchmark run.

Spans are recorded only here, around calls the benchmark makes into the
program's layers (wrapped callables, a timing ``Fingerprinter``
subclass, a wrapped ``ShardServer.handle_message``); nothing inside
``src/`` is instrumented.  A span is ``[name, start, end, parent,
check_id]``; the layer of a span is its name up to the first dot.
Spans stay in memory and are written out once, when the run ends.
"""

import json
from collections import defaultdict
from time import perf_counter

from repro.runtime.fingerprint import Fingerprinter


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.check_id = None

    def begin(self, name):
        """Open a span; returns its index for :meth:`end`."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent,
                           self.check_id])
        self._stack.append(index)
        return index

    def end(self, index):
        """Close the innermost open span (which must be ``index``)."""
        self.spans[index][2] = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span "
                               f"{popped} was innermost")

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for name, start, end, parent, check_id in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "check": check_id}) + "\n")


def union_length(intervals):
    """Total length covered by possibly overlapping ``(start, end)``s."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans):
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval first, so a child
    that (through clock skew or a cross-thread parent) pokes out of its
    parent never makes a self time negative.
    """
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(index, ())
                   if min(e, end) > max(s, start)]
        result.append((end - start) - union_length(clipped))
    return result


def layer_of(name):
    """The layer a span belongs to: its name up to the first dot."""
    return name.split(".", 1)[0]


def summarize(spans):
    """Aggregate spans by name and by layer.

    Per name: how many ``spans``, their summed ``self_s`` and their
    summed ``total_s`` (inclusive durations).  Per layer: summed
    ``self_s`` and ``calls``, the number of spans *entering* the layer
    (whose parent is a root or belongs to another layer), so
    ``object_parts`` calling ``object_fingerprint`` is one call into
    the fingerprint layer, not two.
    """
    selfs = self_times(spans)
    by_name = defaultdict(lambda: {"spans": 0, "self_s": 0.0,
                                   "total_s": 0.0})
    by_layer = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for index, (name, start, end, parent, _) in enumerate(spans):
        row = by_name[name]
        row["spans"] += 1
        row["self_s"] += selfs[index]
        row["total_s"] += end - start
        layer = by_layer[layer_of(name)]
        layer["self_s"] += selfs[index]
        if parent < 0 or layer_of(spans[parent][0]) != layer_of(name):
            layer["calls"] += 1
    return dict(by_name), dict(by_layer)


class TimingFingerprinter(Fingerprinter):
    """A :class:`Fingerprinter` whose part methods record spans.

    Only the part methods are overridden, never ``fingerprint``: the
    DPOR state cache switches to its non-incremental path when a
    subclass overrides ``fingerprint``, and the traced run must execute
    the same program as the untraced one.
    """

    def __init__(self, tracer):
        super().__init__()
        self._tracer = tracer

    def _timed(self, name, method, *args):
        tracer = self._tracer
        index = tracer.begin(name)
        try:
            return method(*args)
        finally:
            tracer.end(index)

    def object_parts(self, system):
        return self._timed("fingerprint.object_parts",
                           super().object_parts, system)

    def heavy_parts(self, system):
        return self._timed("fingerprint.heavy_parts",
                           super().heavy_parts, system)

    def object_fingerprint(self, obj):
        return self._timed("fingerprint.object_fingerprint",
                           super().object_fingerprint, obj)

    def process_heavy(self, handle):
        return self._timed("fingerprint.process_heavy",
                           super().process_heavy, handle)

    def assemble(self, system, obj_parts, heavy):
        return self._timed("fingerprint.assemble",
                           super().assemble, system, obj_parts, heavy)
