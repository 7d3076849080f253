"""Brute-force answers over the trajectories acknowledged so far.

Every query the benchmark times is checked here, outside the timed
region: the time predicate is the closed-interval intersection the
paper's TRQ uses, the spatial predicate is
``repro.geometry.relations.polyline_intersects_rect`` over the original
full-precision points, STRQ is the conjunction, and IDT is the object id
plus the time predicate.  A result must hold exactly the expected
trajectory ids, each once, with every point of the original.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.geometry.relations import polyline_intersects_rect
from repro.model.mbr import MBR
from repro.model.timerange import TimeRange
from repro.model.trajectory import Trajectory
from repro.query.types import (
    IDTemporalQuery,
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
)


class Oracle:
    """Answers range and ID-temporal queries by scanning every trajectory."""

    def __init__(self, trajs: Iterable[Trajectory] = ()):
        self._trajs: list[Trajectory] = []
        self._cols: Optional[np.ndarray] = None
        self.add(trajs)

    def __len__(self) -> int:
        return len(self._trajs)

    @property
    def trajectories(self) -> list[Trajectory]:
        return self._trajs

    def add(self, trajs: Iterable[Trajectory]) -> None:
        self._trajs.extend(trajs)
        self._cols = None

    def _columns(self) -> np.ndarray:
        if self._cols is None:
            self._cols = np.array(
                [
                    (t.time_range.start, t.time_range.end, *t.mbr.as_tuple())
                    for t in self._trajs
                ],
                dtype=np.float64,
            ).reshape(-1, 6)
        return self._cols

    def _time_mask(self, tr: TimeRange) -> np.ndarray:
        c = self._columns()
        return (c[:, 0] <= tr.end) & (tr.start <= c[:, 1])

    def _spatial(self, mask: np.ndarray, w: MBR) -> list[Trajectory]:
        c = self._columns()
        mask = mask & (c[:, 2] <= w.x2) & (w.x1 <= c[:, 4])
        mask &= (c[:, 3] <= w.y2) & (w.y1 <= c[:, 5])
        return [
            self._trajs[i]
            for i in np.flatnonzero(mask)
            if polyline_intersects_rect([p.xy for p in self._trajs[i].points], w)
        ]

    def answer(self, q) -> list[Trajectory]:
        """The trajectories ``q`` must return, in no particular order."""
        if isinstance(q, TemporalRangeQuery):
            return [self._trajs[i] for i in np.flatnonzero(self._time_mask(q.time_range))]
        if isinstance(q, IDTemporalQuery):
            return [
                self._trajs[i]
                for i in np.flatnonzero(self._time_mask(q.time_range))
                if self._trajs[i].oid == q.oid
            ]
        if isinstance(q, SpatialRangeQuery):
            return self._spatial(np.ones(len(self._trajs), dtype=bool), q.window)
        if isinstance(q, STRangeQuery):
            return self._spatial(self._time_mask(q.time_range), q.window)
        raise TypeError(f"no oracle for {type(q).__name__}")

    def check(self, q, returned: list[Trajectory]) -> Optional[str]:
        """None when ``returned`` is exactly the right answer, else why not."""
        expected = {t.tid: t for t in self.answer(q)}
        got = [t.tid for t in returned]
        if len(got) != len(set(got)):
            return f"{type(q).__name__}: duplicate trajectories in the result"
        if set(got) != set(expected):
            missing = sorted(set(expected) - set(got))[:3]
            extra = sorted(set(got) - set(expected))[:3]
            return (
                f"{type(q).__name__}: {len(got)} returned, {len(expected)} expected; "
                f"missing {missing}, unexpected {extra}"
            )
        for t in returned:
            if len(t) != len(expected[t.tid]):
                return f"{type(q).__name__}: {t.tid} lost points"
        return None
