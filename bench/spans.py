"""Span recording for the traced benchmark run, and the arithmetic the
benchmark reports: percentiles, self times and per-name totals.

A span is (name, start, end, parent).  Spans are kept in memory in
parallel arrays and written out once, when the run ends.  A span's slot
is taken when it starts, so a parent always precedes its children and
the children of one parent appear in start order.
"""

from __future__ import annotations

import array
import functools
import math
from collections import Counter
from time import perf_counter

__all__ = ["Recorder", "percentile", "self_times", "totals_by_name"]


def percentile(values, q: float) -> float:
    """The q-th percentile (0 <= q <= 100) of values, interpolating
    linearly between the two nearest ranks (rank (n - 1) * q / 100)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile rank {q} outside 0..100")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of its interval covered by its
    child spans.  Overlapping children are counted once; a child's time
    outside its parent's interval is not subtracted.

    Requires the order the Recorder keeps: parents before children, and
    the children of one parent in start order.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [-math.inf] * n  # latest child end seen so far, per parent
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if end[i] > reach[p]:
            reach[p] = end[i]
    return [end[i] - start[i] - covered[i] for i in range(n)]


def totals_by_name(names, name_ids, parent, start, end) -> dict[str, tuple[int, float]]:
    """{name: (span count, summed self time in seconds)}."""
    counts = [0] * len(names)
    totals = [0.0] * len(names)
    for nid, t in zip(name_ids, self_times(parent, start, end)):
        counts[nid] += 1
        totals[nid] += t
    return {names[k]: (counts[k], totals[k]) for k in range(len(names)) if counts[k]}


class Recorder:
    """Collects spans from wrapped callables, plus named counters.  Span
    times are read from clock, a function returning seconds."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, label=None):
        """fn wrapped so each call records a span.  label(args), when
        given, returns a suffix that makes the span name depend on the
        arguments (such as the table size)."""
        fixed = self._intern(name)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if label is None else self._intern(f"{name}.{label(args)}")
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()

        return traced

    def totals(self) -> dict[str, tuple[int, float]]:
        return totals_by_name(self.names, self.name_id, self.parent, self.start, self.end)

    def save(self, path) -> None:
        """Write every span to an .npz file: arrays name_id, parent,
        start, end, and the name table."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
