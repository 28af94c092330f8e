"""Tests of the benchmark's own arithmetic on synthetic spans.

    python3 -m pytest bench/test_spans.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder, percentile, self_times, totals_by_name  # noqa: E402


def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 25) == 2.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([7.0], 99) == 7.0


def test_percentile_99_of_1000_leaves_ten_samples_above():
    values = list(range(1, 1001))
    p99 = percentile(values, 99)
    assert p99 == pytest.approx(990.01)
    assert sum(v > p99 for v in values) == 10


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# stored parent first, children in start order: root [0, 10] with
# children a [1, 4] and b [5, 9]; a has the child c [2, 3]
PARENT = [-1, 0, 1, 0]
START = [0.0, 1.0, 2.0, 5.0]
END = [10.0, 4.0, 3.0, 9.0]


def test_self_time_subtracts_children_only():
    assert self_times(PARENT, START, END) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    # children [1, 5] and [3, 8] of a [0, 10] parent cover [1, 8]
    assert self_times([-1, 0, 0], [0.0, 1.0, 3.0], [10.0, 5.0, 8.0])[0] == 3.0


def test_self_time_ignores_child_time_outside_parent():
    assert self_times([-1, 0], [0.0, 2.0], [4.0, 6.0])[0] == 2.0


def test_totals_by_name_sums_self_time_per_name():
    totals = totals_by_name(["root", "leaf"], [0, 1, 1, 1], PARENT, START, END)
    assert totals == {"root": (1, 3.0), "leaf": (3, 7.0)}


def test_recorder_nests_spans_and_labels_by_argument():
    rec = Recorder()

    def inner(table):
        return len(table)

    traced_inner = rec.wrap("inner", inner, label=lambda args: f"n{len(args[0])}")

    def outer():
        return traced_inner([1, 2]) + traced_inner([1, 2, 3])

    assert rec.wrap("outer", outer)() == 5
    assert list(rec.parent) == [-1, 0, 0]
    assert [rec.names[i] for i in rec.name_id] == ["outer", "inner.n2", "inner.n3"]
    assert all(e >= s for s, e in zip(rec.start, rec.end))
    totals = rec.totals()
    assert totals["inner.n2"][0] == 1 and totals["inner.n3"][0] == 1
    assert 0 <= totals["outer"][1] <= rec.end[0] - rec.start[0]


def test_recorder_closes_span_when_call_raises():
    rec = Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    assert rec.end[0] >= rec.start[0]
    assert rec._stack == [-1]


def test_recorder_reads_the_clock_it_is_given():
    ticks = iter([10.0, 11.0, 13.0, 17.0])
    rec = Recorder(clock=lambda: next(ticks))
    outer = rec.wrap("outer", lambda f: f())
    outer(rec.wrap("inner", lambda: None))
    assert list(rec.start) == [10.0, 11.0] and list(rec.end) == [17.0, 13.0]
    assert rec.totals() == {"outer": (1, 5.0), "inner": (1, 2.0)}
