"""The one I/O cost model: a price per counter.

A query's cost is the priced sum of its I/O counters (:data:`COUNTERS`,
named as in :class:`~repro.kvstore.stats.StatsSnapshot` and
:class:`~repro.obs.profile.QueryProfile`) plus a fixed ``rpc`` charge for
any query that opened a scan or issued a point get.  Two instances:

- :data:`HBASE_COSTS`, in milliseconds of a small HBase deployment (~8 ms
  per range seek, ~4 us per row scanned server-side, ~20 us per row
  shipped plus 200 MB/s of bandwidth, 1 ms of RPC), produces
  ``QueryResult.simulated_ms``, the figure the paper-reproduction reports
  plot;
- :data:`PLANNER_COSTS`, the CBO's default, in units of one sequentially
  scanned row.  :func:`calibrate` refits it for a concrete deployment from
  the per-query resource ledgers the profiler collects.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Union

# Least-squares calibration needs a handful of profiles whose counter mix
# actually varies; below this the fit is noise and defaults are kept.
MIN_CALIBRATION_SAMPLES = 8

COUNTERS = (
    "rows_scanned", "range_scans", "point_gets", "decode_rows", "rows_returned",
    "bytes_transferred",
)


@dataclass(frozen=True)
class CostModel:
    """Price of one unit of each I/O counter, plus a per-query RPC charge.

    For the planner, ``point_gets`` is one primary-key lookup (the
    secondary route pays it per resolved match), ``range_scans`` the
    fixed cost of opening one range scan (seek + RPC), and
    ``decode_rows`` the CPU cost of decompressing one trajectory row.
    """

    rows_scanned: float = 0.0
    range_scans: float = 0.0
    point_gets: float = 0.0
    decode_rows: float = 0.0
    rows_returned: float = 0.0
    bytes_transferred: float = 0.0
    rpc: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be non-negative")

    def cost(
        self,
        rows_scanned: float = 0.0,
        range_scans: float = 0.0,
        point_gets: float = 0.0,
        decode_rows: float = 0.0,
        rows_returned: float = 0.0,
        bytes_transferred: float = 0.0,
    ) -> float:
        """Total price of these counter values."""
        total = (
            rows_scanned * self.rows_scanned
            + range_scans * self.range_scans
            + point_gets * self.point_gets
            + decode_rows * self.decode_rows
            + rows_returned * self.rows_returned
            + bytes_transferred * self.bytes_transferred
        )
        if range_scans or point_gets:
            total += self.rpc
        return total

    def simulate_ms(self, delta: object) -> float:
        """Price a counter delta (a ``StatsSnapshot`` or ``QueryProfile``)."""
        return self.cost(*(getattr(delta, name, 0) for name in COUNTERS))


HBASE_COSTS = CostModel(
    rows_scanned=4.0 / 1000,
    range_scans=8.0,
    rows_returned=20.0 / 1000,
    bytes_transferred=1000 / (200.0 * 1_000_000),
    rpc=1.0,
)
PLANNER_COSTS = CostModel(rows_scanned=1.0, range_scans=8.0, point_gets=4.0, decode_rows=0.5)


ProfileLike = Union[Mapping[str, float], object]


def _field(profile: ProfileLike, name: str) -> float:
    if isinstance(profile, Mapping):
        return float(profile.get(name, 0.0))
    return float(getattr(profile, name, 0.0))


def calibrate(
    profiles: Iterable[ProfileLike],
    defaults: CostModel = PLANNER_COSTS,
) -> CostModel:
    """Fit planner prices to observed per-query latencies.

    ``profiles`` are :class:`~repro.obs.profile.QueryProfile` objects (or
    their ``as_dict`` mappings); the fit solves

        elapsed_ms ≈ a·rows_scanned + b·point_gets + c·range_scans + d·decode_rows

    by non-negative-clamped least squares and renormalizes so one scanned
    row costs 1.0.  With too few samples, a degenerate counter mix
    (singular system), or a non-positive row coefficient, the ``defaults``
    are returned unchanged — calibration only ever refines, never breaks,
    the planner.
    """
    rows = []
    for p in profiles:
        scanned = _field(p, "rows_scanned")
        gets = _field(p, "point_gets")
        scans = _field(p, "range_scans")
        decodes = _field(p, "decode_rows")
        elapsed = _field(p, "elapsed_ms")
        if elapsed <= 0.0 or (scanned + gets + scans + decodes) <= 0.0:
            continue
        rows.append((scanned, gets, scans, decodes, elapsed))
    if len(rows) < MIN_CALIBRATION_SAMPLES:
        return defaults

    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is part of the toolchain
        return defaults

    a = np.array([r[:4] for r in rows], dtype=float)
    y = np.array([r[4] for r in rows], dtype=float)
    # Guard against a rank-deficient design matrix (e.g. a workload that
    # never used the secondary route): lstsq still answers, but the
    # unconstrained coefficients are meaningless for the missing columns.
    used = a.sum(axis=0) > 0.0
    coef = np.zeros(4)
    try:
        fit, *_ = np.linalg.lstsq(a[:, used], y, rcond=None)
    except np.linalg.LinAlgError:  # pragma: no cover - lstsq rarely raises
        return defaults
    coef[used] = fit
    seq = float(coef[0])
    if seq <= 0.0:
        return defaults
    point_gets = max(0.0, float(coef[1])) / seq if used[1] else defaults.point_gets
    range_scans = max(0.0, float(coef[2])) / seq if used[2] else defaults.range_scans
    decode_rows = max(0.0, float(coef[3])) / seq if used[3] else defaults.decode_rows
    return CostModel(
        rows_scanned=1.0,
        range_scans=range_scans,
        point_gets=point_gets,
        decode_rows=decode_rows,
    )
