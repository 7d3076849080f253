"""Layer spans recorded from outside the program.

The benchmark patches the public entry points of each layer (see
``LAYERS``) with thin wrappers that record a span per call.  Nothing in
``src/`` knows about it.  One client drives the program, so at most one
operation is in flight and every span, on any thread, belongs to it.

A span has a name, a parent, the operation id, and one or more busy
intervals: one for a plain call, and one per ``next()`` for a call that
returns an iterator (operators close those iterators early, so they are
wrapped, never materialised).  A span opened on a pool thread with no
span of its own above it is parented to the innermost open span that
hands work to the pool (``kvstore.multi_range_scan``, ``kvstore.multi_get``).

Self time is a span's busy time minus the time its children are busy.
Scans overlap on pool threads, so where several spans are busy at once
and none of them has a busy child, the overlapped time is split evenly
between them.  The per-span self times of one operation therefore add up
to its wall time, and the root's share is the time no layer claims.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter
from typing import Any, Callable, Optional

# Span names that hand work to the worker pool: a span that opens on a
# pool thread with an empty local stack belongs under the latest of these.
DISPATCHERS = ("kvstore.multi_range_scan", "kvstore.multi_get")


class Span:
    __slots__ = ("name", "parent", "intervals", "count", "thread")

    def __init__(self, name: str, parent: Optional["Span"], thread: int):
        self.name = name
        self.parent = parent
        self.intervals: list[float] = []  # flat [start, end, start, end, ...]
        self.count = 0
        self.thread = thread


class Operation:
    """One client operation and every span recorded while it ran."""

    def __init__(self, op_id: int, kind: str):
        self.op_id = op_id
        self.root = Span("op." + kind, None, threading.get_ident())
        self.spans: list[Span] = [self.root]
        self.dispatch: list[Span] = []


class Recorder:
    """Collects spans for the single in-flight operation."""

    def __init__(self) -> None:
        self.op: Optional[Operation] = None
        self._local = threading.local()
        self._mu = threading.Lock()
        self._next_id = 0

    # -- operation lifecycle ----------------------------------------------

    def begin(self, kind: str) -> Operation:
        self._next_id += 1
        op = Operation(self._next_id, kind)
        self._stack().append(op.root)
        op.root.intervals.append(perf_counter())
        self.op = op
        return op

    def end(self, op: Operation) -> dict[int, float]:
        """Close the operation; its spans' self times keyed by ``id(span)``."""
        op.root.intervals.append(perf_counter())
        self._stack().pop()
        self.op = None
        return self_times(op)

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, op: Operation, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = op.dispatch[-1] if op.dispatch else op.root
        span = Span(name, parent, threading.get_ident())
        with self._mu:
            op.spans.append(span)
            if name in DISPATCHERS:
                op.dispatch.append(span)
        return span

    def close(self, op: Operation, span: Span) -> None:
        if span.name in DISPATCHERS:
            with self._mu:
                if span in op.dispatch:
                    op.dispatch.remove(span)

    # -- wrappers -----------------------------------------------------------

    def wrap_call(
        self, name: str, fn: Callable, count: Optional[Callable[..., int]] = None
    ) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            op = recorder.op
            if op is None:
                return fn(*args, **kwargs)
            span = recorder.open(op, name)
            stack = recorder._stack()
            stack.append(span)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.intervals += (t0, perf_counter())
                stack.pop()
                recorder.close(op, span)
            span.count += count(args, out) if count is not None else 1
            return out

        return traced

    def wrap_iter(
        self, name: str, fn: Callable, count: Optional[Callable[..., int]] = None
    ) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            op = recorder.op
            if op is None:
                return fn(*args, **kwargs)
            span = recorder.open(op, name)
            span.count += count(args, None) if count is not None else 1
            return _TracedIter(recorder, op, span, fn(*args, **kwargs))

        return traced


class _TracedIter:
    """An iterator whose ``next()`` calls are the span's busy intervals."""

    __slots__ = ("_rec", "_op", "_span", "_it")

    def __init__(self, recorder: Recorder, op: Operation, span: Span, it):
        self._rec = recorder
        self._op = op
        self._span = span
        self._it = iter(it)

    def __iter__(self) -> "_TracedIter":
        return self

    def __next__(self):
        stack = self._rec._stack()
        stack.append(self._span)
        t0 = perf_counter()
        try:
            return next(self._it)
        except StopIteration:
            self._rec.close(self._op, self._span)
            raise
        finally:
            self._span.intervals += (t0, perf_counter())
            stack.pop()

    def close(self) -> None:
        close = getattr(self._it, "close", None)
        if close is not None:
            close()
        self._rec.close(self._op, self._span)


def self_times(op: Operation) -> dict[int, float]:
    """Seconds of self time per span (keyed by ``id(span)``) of one operation.

    Sweeps the busy intervals, clipped to the root's, in time order.  In
    each slice between two events the busy spans with no busy child share
    the slice evenly.  The root is busy throughout, so every slice has at
    least one such span and the shares sum to the root's wall time.
    """
    root = op.root
    lo, hi = root.intervals[0], root.intervals[1]
    events: list[tuple[float, int, Span]] = []
    for span in op.spans:
        if span is root:
            continue
        iv = span.intervals
        for i in range(0, len(iv) - 1, 2):
            a, b = max(iv[i], lo), min(iv[i + 1], hi)
            if b > a:
                events.append((a, 1, span))
                events.append((b, -1, span))
    events.sort(key=lambda e: (e[0], e[1]))
    busy: dict[int, int] = {id(root): 1}
    busy_children: dict[int, int] = {}
    leaves: dict[int, Span] = {id(root): root}
    out: dict[int, float] = {id(root): 0.0}
    t = lo
    for when, delta, span in events:
        if when > t:
            share = (when - t) / len(leaves)
            for key in leaves:
                out[key] += share
            t = when
        key = id(span)
        out.setdefault(key, 0.0)
        parent = span.parent
        pkey = id(parent) if parent is not None else None
        if delta > 0:
            busy[key] = busy.get(key, 0) + 1
            if busy_children.get(key, 0) == 0:
                leaves[key] = span
            if pkey is not None:
                n = busy_children.get(pkey, 0) + 1
                busy_children[pkey] = n
                if n == 1:
                    leaves.pop(pkey, None)
        else:
            busy[key] -= 1
            if busy[key] == 0:
                leaves.pop(key, None)
            if pkey is not None:
                n = busy_children[pkey] - 1
                busy_children[pkey] = n
                if n == 0 and busy.get(pkey, 0) > 0:
                    leaves[pkey] = parent
    if hi > t:
        share = (hi - t) / len(leaves)
        for key in leaves:
            out[key] += share
    return out


def _n_out(args: tuple, out: Any) -> int:
    return len(out)


def _n_keys(args: tuple, out: Any) -> int:
    return len(args[1])


def _layers() -> list[tuple[type, str, str, str, Optional[Callable]]]:
    """(class, method, span name, call|iter, counter) for every wrapped entry.

    The counter gives the span's work count from the call's arguments and
    result; without one a span counts its calls.
    """
    from repro.cluster.client import NodeClient
    from repro.compression.traj_codec import TrajectoryCodec
    from repro.core.st import STIndex
    from repro.core.temporal import TRIndex
    from repro.core.tshape import TShapeIndex
    from repro.kvstore.table import Table
    from repro.query.planner import QueryPlanner
    from repro.storage.serializer import RowSerializer
    from repro.storage.writer import StorageWriter

    return [
        (TShapeIndex, "query_ranges", "core.tshape.query_ranges", "call", _n_out),
        (TRIndex, "query_ranges", "core.tr.query_ranges", "call", None),
        (STIndex, "query_windows", "core.st.query_windows", "call", None),
        (QueryPlanner, "plan", "query.planner.plan", "call", None),
        (Table, "multi_range_scan", "kvstore.multi_range_scan", "iter", None),
        (Table, "scan", "kvstore.scan", "iter", None),
        (Table, "multi_get", "kvstore.multi_get", "call", _n_out),
        (Table, "put", "kvstore.put", "call", None),
        (Table, "put_batch", "kvstore.put_batch", "call", _n_keys),
        (Table, "flush", "kvstore.flush", "call", None),
        (RowSerializer, "decode", "storage.serializer.decode", "call", None),
        (RowSerializer, "decode_trajectory", "storage.serializer.decode", "call", None),
        (RowSerializer, "encode", "storage.serializer.encode", "call", None),
        (TrajectoryCodec, "decode_array_block", "compression.codec.decode", "call", None),
        (TrajectoryCodec, "decode_points", "compression.codec.decode", "call", None),
        (TrajectoryCodec, "encode_points", "compression.codec.encode", "call", None),
        (StorageWriter, "bulk_load", "storage.writer", "call", None),
        (StorageWriter, "insert", "storage.writer", "call", None),
        (NodeClient, "call", "cluster.rpc", "call", None),
    ]


def install(recorder: Recorder) -> Callable[[], None]:
    """Patch every layer entry point; returns the function that undoes it."""
    originals = []
    for cls, attr, name, kind, count in _layers():
        fn = cls.__dict__[attr]
        wrap = recorder.wrap_iter if kind == "iter" else recorder.wrap_call
        setattr(cls, attr, wrap(name, fn, count))
        originals.append((cls, attr, fn))

    def undo() -> None:
        for cls, attr, fn in originals:
            setattr(cls, attr, fn)

    return undo


def summarize(op: Operation, selfs: dict[int, float]) -> dict[str, list[float]]:
    """Per span name: [self seconds, work count, spans]; plus planner-nested core.

    ``query.planner.plan.core`` holds the self time of ``core.*`` spans
    that ran inside ``plan()``.
    """
    out: dict[str, list[float]] = {}
    for span in op.spans:
        s = selfs.get(id(span), 0.0)
        rec = out.setdefault(span.name, [0.0, 0, 0])
        rec[0] += s
        rec[1] += span.count
        rec[2] += 1
        if span.name.startswith("core.") and _inside(span, "query.planner.plan"):
            rec = out.setdefault("query.planner.plan.core", [0.0, 0, 0])
            rec[0] += s
            rec[2] += 1
    return out


def _inside(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def span_records(op: Operation, selfs: dict[int, float]) -> list[tuple]:
    """Compact rows for the span log: one per span, intervals folded."""
    index = {id(span): i for i, span in enumerate(op.spans)}
    rows = []
    for i, span in enumerate(op.spans):
        iv = span.intervals
        busy = sum(iv[j + 1] - iv[j] for j in range(0, len(iv) - 1, 2))
        rows.append((
            op.op_id, i,
            index.get(id(span.parent), -1) if span.parent is not None else -1,
            span.name, span.thread,
            iv[0] if iv else None, iv[-1] if iv else None,
            busy, selfs.get(id(span), 0.0), span.count,
        ))
    return rows
