"""Self-time accounting of the benchmark's span recorder.

Run from the root of a checkout::

    python3 -m pytest wallbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Operation, Span, self_times  # noqa: E402


def test_overlapping_children_split_their_overlap() -> None:
    op = Operation(1, "q")
    op.root.intervals = [0.0, 10.0]
    a = Span("a", op.root, 1)
    a.intervals = [1.0, 3.0]
    b = Span("b", op.root, 2)  # a pool-thread sibling overlapping ``a``
    b.intervals = [2.0, 5.0]
    c = Span("c", b, 2)  # b's child: b is not busy on its own meanwhile
    c.intervals = [4.0, 4.5]
    op.spans += [a, b, c]
    got = self_times(op)
    assert got[id(op.root)] == pytest.approx(1.0 + 5.0)
    assert got[id(a)] == pytest.approx(1.0 + 0.5)
    assert got[id(b)] == pytest.approx(0.5 + 1.0 + 0.5)
    assert got[id(c)] == pytest.approx(0.5)
    assert sum(got.values()) == pytest.approx(10.0)


def test_iterator_span_counts_only_its_busy_intervals() -> None:
    op = Operation(1, "q")
    op.root.intervals = [0.0, 4.0]
    scan = Span("scan", op.root, 1)
    scan.intervals = [0.5, 1.0, 2.0, 2.5, 9.0, 9.5]  # last interval outside the op
    op.spans.append(scan)
    got = self_times(op)
    assert got[id(scan)] == pytest.approx(1.0)
    assert got[id(op.root)] == pytest.approx(3.0)
