"""Shared plumbing for single-index baseline systems.

``SingleIndexStore`` stores full trajectory rows under
``shard :: u64(index value) :: tid`` keys in its own cluster, and executes
window scans with optional push-down — the skeleton the TMan-XZT / TMan-XZ
retrofit baselines share.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional, Sequence

from repro.compression.traj_codec import TrajectoryCodec
from repro.kvstore.cluster import Cluster
from repro.kvstore.filters import Filter
from repro.kvstore.scan import Scan
from repro.model.trajectory import Trajectory
from repro.query.cost import HBASE_COSTS
from repro.query.types import QueryResult
from repro.storage.schema import RowKeyCodec, encode_u64
from repro.storage.serializer import RowSerializer


class SingleIndexStore:
    """One primary table keyed by a single u64 index value."""

    def __init__(
        self,
        name: str,
        index_value_fn: Callable[[Trajectory], int],
        tr_value_fn: Callable[[Trajectory], int],
        num_shards: int = 4,
        kv_workers: int = 4,
        push_down: bool = True,
    ):
        self.name = name
        self._index_value = index_value_fn
        self._tr_value = tr_value_fn
        self.push_down = push_down
        self.cluster = Cluster(workers=kv_workers)
        self.table = self.cluster.create_table(f"{name}_primary")
        self.keys = RowKeyCodec(num_shards, index_width=8)
        self.serializer = RowSerializer(TrajectoryCodec())
        self.row_count = 0

    def close(self) -> None:
        """Release the resources held by this object (idempotent)."""
        self.cluster.close()

    # -- writes -------------------------------------------------------------

    def bulk_load(self, trajs: Sequence[Trajectory]) -> int:
        """Load a batch of trajectories into the system."""
        for traj in trajs:
            value = self._index_value(traj)
            key = self.keys.primary_key(encode_u64(value), traj.tid)
            self.table.put(key, self.serializer.encode(traj, self._tr_value(traj)))
            self.row_count += 1
        return self.row_count

    # -- reads ---------------------------------------------------------------

    def windows_from_half_open(
        self, ranges: Iterable[tuple[int, int]]
    ) -> list[tuple[bytes, bytes]]:
        """Windows from half open."""
        windows = []
        for lo, hi in ranges:
            lo_b, hi_b = encode_u64(lo), encode_u64(hi)
            for shard in self.keys.all_shards():
                windows.append(self.keys.primary_window(shard, lo_b, hi_b))
        return windows

    def windows_from_inclusive(
        self, ranges: Iterable[tuple[int, int]]
    ) -> list[tuple[bytes, bytes]]:
        """Windows from inclusive."""
        return self.windows_from_half_open((lo, hi + 1) for lo, hi in ranges)

    def run_windows(
        self, windows: Sequence[tuple[bytes, bytes]], row_filter: Optional[Filter]
    ) -> QueryResult:
        """Scan windows, filter (server- or client-side), decode, account."""
        before = self.cluster.stats.snapshot()
        t0 = time.perf_counter()
        seen: set[str] = set()
        out: list[Trajectory] = []
        for start, stop in windows:
            scan = Scan(start, stop, row_filter if self.push_down else None)
            for key, value in self.table.scan(scan):
                if not self.push_down and row_filter is not None:
                    if not row_filter.test(key, value):
                        continue
                stored = self.serializer.decode(value)
                if stored.trajectory.tid not in seen:
                    seen.add(stored.trajectory.tid)
                    out.append(stored.trajectory)
        elapsed = (time.perf_counter() - t0) * 1000
        delta = self.cluster.stats.snapshot() - before
        return QueryResult(
            trajectories=out,
            candidates=delta.rows_scanned + delta.point_gets,
            transferred_rows=delta.rows_returned,
            windows=delta.range_scans,
            elapsed_ms=elapsed,
            simulated_ms=HBASE_COSTS.simulate_ms(delta),
            plan=f"{self.name}/primary",
        )
