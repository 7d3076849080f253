"""The benchmark's three workloads and the closed loop that times them.

Every workload runs on ``tdrive_like(1000, max_points=120)`` (about 50k
points) generated from the seed, with every ``TManConfig`` knob at its
default except ``boundary`` and, for ``ingest_processes``, the process
cluster topology.  One client drives the deployment in a closed loop with
no think time: the next operation starts when the previous one returned
and its answer was checked against the brute-force oracle.  Checking is
not timed.  The loop runs whole cycles (one of each operation of the
mix) until the operations themselves have taken ``seconds``.

Why these workloads:

- ``temporal`` (threads): TRQ with fresh 1 h windows and IDT over a week.
  Window generation is trivial; the time goes to secondary resolve and
  row decode.  It carries decode and codec changes, and it is the control
  on which a TShape or planner change must move nothing.
- ``spatial`` (threads): SRQ with fresh 1 km windows and STRQ with fresh
  3 km x 6 h windows, never repeated.  Algorithm 2 expansion, the
  planner's window counter and per-window scans dominate; decode is a
  few percent.  It carries TShape, planner and scan-scheduling changes,
  and it is the control for decode changes.  No window repeats, so a
  cache keyed by window gains nothing here.
- ``ingest_processes``: two region-server processes, rf = W = R = 2.
  Setup bulk-loads 60% of the trajectories; the loop inserts the rest in
  fixed batches, each followed by an IDT read per inserted trajectory, a
  fresh TRQ and an SRQ from a fixed hot set of windows that inserts keep
  adding shapes under.  The only workload that runs the RPC layer,
  replication, the durable WAL/SSTable path and the writer, and the only
  one that repeats windows beside writes.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.resource_tracker
import os
import resource
import shutil
import statistics
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

import numpy as np

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.geometry.distance import degrees_for_km
from repro.kvstore.scan import Scan
from repro.model.mbr import MBR
from repro.model.timerange import TimeRange
from repro.model.trajectory import Trajectory
from repro.query.types import (
    IDTemporalQuery,
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
)

from oracle import Oracle
from tracing import Recorder, install, span_records, summarize

N_TRAJECTORIES = 1000
MAX_POINTS = 120
SETUPS = 3  # deployments built per run; setup_s is their median
HOUR = 3600.0
WEEK = 7 * 24 * HOUR
# ingest_processes
BULK_SHARE = 0.6
INSERT_BATCH = 4
# The client calls flush() after every 2nd insert batch.  A store compacts
# when a flush leaves it more than 8 runs, and the hot SRQ windows slow with
# every run until then; flushing often makes that saw-tooth short (18
# batches), so a run spans several teeth and where it stops in the last one
# matters little.
FLUSH_EVERY = 2
HOT_WINDOW_KM = 0.5
HOT_SET_SEED = 0
# The loop stops after this many times ``seconds`` of wall time even when
# the operations have not yet taken ``seconds`` (oracle checks are slow).
WALL_CAP = 4.0
STRATA = 8  # window-distance strata, see Queries.window; also the hot-set size

QUERY_KINDS = ("trq", "idt", "srq", "strq")


def dataset(seed: int) -> list[Trajectory]:
    return tdrive_like(N_TRAJECTORIES, seed=seed, max_points=MAX_POINTS)


class Queries:
    """Fresh query descriptors drawn from one seeded generator."""

    def __init__(self, data: list[Trajectory], rng: np.random.Generator):
        self.rng = rng
        self.t_min = min(t.time_range.start for t in data)
        self.t_max = max(t.time_range.end for t in data)
        self.oids = sorted({t.oid for t in data})
        self._strata: dict[float, list[float]] = {}

    def time_window(self, length: float) -> TimeRange:
        start = float(self.rng.uniform(self.t_min, max(self.t_min, self.t_max - length)))
        return TimeRange(start, start + length)

    def window(self, side_km: float) -> MBR:
        """A square window near the dense core, like the paper's analysts.

        The corner is 2-D normal around the city centre.  Its distance from
        the centre is drawn stratified: each run of ``STRATA`` windows of
        one size takes one distance from each of ``STRATA``
        equal-probability bands, in random order.  The distribution is
        unchanged, but every run sees about the same mix of dense and
        sparse windows, which is what a window's cost mostly depends on.
        """
        spec = TDRIVE_SPEC
        side = degrees_for_km(side_km, at_lat=spec.center[1])
        b = spec.boundary
        sigma = spec.center_sigma * 1.5
        strata = self._strata.setdefault(side_km, [])
        if not strata:
            strata.extend((np.arange(STRATA) + self.rng.random(STRATA)) / STRATA)
            self.rng.shuffle(strata)
        # Radius of a 2-D standard normal at quantile u (Rayleigh).
        radius = sigma * float(np.sqrt(-2.0 * np.log1p(-strata.pop())))
        angle = float(self.rng.uniform(0.0, 2.0 * np.pi))
        x = float(np.clip(spec.center[0] + radius * np.cos(angle), b.x1, b.x2 - side))
        y = float(np.clip(spec.center[1] + radius * np.sin(angle), b.y1, b.y2 - side))
        return MBR(x, y, x + side, y + side)

    def trq(self) -> TemporalRangeQuery:
        return TemporalRangeQuery(self.time_window(HOUR))

    def idt(self, traj: Optional[Trajectory] = None) -> IDTemporalQuery:
        """A week of one object: random, or centred on ``traj``.

        Windows start no earlier than the TR index's time origin (0).
        """
        if traj is None:
            oid = self.oids[int(self.rng.integers(len(self.oids)))]
            start = float(self.rng.uniform(self.t_min - WEEK / 2, self.t_max - WEEK / 2))
        else:
            oid, start = traj.oid, traj.time_range.start - WEEK / 2
        start = max(0.0, start)
        return IDTemporalQuery(oid, TimeRange(start, start + WEEK))

    def srq(self) -> SpatialRangeQuery:
        return SpatialRangeQuery(self.window(1.0))

    def strq(self) -> STRangeQuery:
        return STRangeQuery(self.window(3.0), self.time_window(6 * HOUR))


# A step is (kind, payload): a query descriptor, or for "insert" the
# batch and whether the client flushes after it.
Step = tuple[str, object]


@dataclass(frozen=True)
class Workload:
    name: str
    processes: bool
    cycles: Callable[["Queries", list[Trajectory]], Iterator[list[Step]]]
    warmup: Callable[["Queries"], list[Step]]

    def config(self, data_dir: Optional[str]) -> TManConfig:
        if not self.processes:
            return TManConfig(boundary=TDRIVE_SPEC.boundary)
        return TManConfig(
            boundary=TDRIVE_SPEC.boundary,
            cluster_mode="processes",
            cluster_nodes=2,
            replication_factor=2,
            write_quorum=2,
            read_quorum=2,
            cluster_data_dir=data_dir,
        )

    def split(self, data: list[Trajectory]) -> tuple[list, list]:
        """(bulk-loaded in setup, inserted by the loop)."""
        if not self.processes:
            return data, []
        cut = int(len(data) * BULK_SHARE)
        return data[:cut], data[cut:]

    @property
    def flush_policy(self) -> str:
        if self.processes:
            return (
                f"setup: bulk_load + flush(); loop: insert batches of {INSERT_BATCH}, "
                f"flush() after every {FLUSH_EVERY} batches (timed in the batch it follows)"
            )
        return "setup: bulk_load + flush(); loop: read-only"


# Both read-only mixes run two of their main query per one of the other,
# so the query a workload is built for has most of the samples.


def _temporal_cycles(qs: Queries, pending: list) -> Iterator[list[Step]]:
    while True:
        yield [("trq", qs.trq()), ("trq", qs.trq()), ("idt", qs.idt())]


def _spatial_cycles(qs: Queries, pending: list) -> Iterator[list[Step]]:
    while True:
        yield [("srq", qs.srq()), ("srq", qs.srq()), ("strq", qs.strq())]


def _ingest_cycles(qs: Queries, pending: list) -> Iterator[list[Step]]:
    # The hot set is part of the workload's definition, the same in every
    # run (one window per stratum): which few windows a seed happened to
    # pick would otherwise set the SRQ-dominated tail from run to run.
    fixed = Queries(pending, np.random.default_rng(HOT_SET_SEED))
    hot = [fixed.window(HOT_WINDOW_KM) for _ in range(STRATA)]
    batch_no = 0
    while True:
        batch = pending[batch_no * INSERT_BATCH : (batch_no + 1) * INSERT_BATCH]
        steps: list[Step] = []
        if batch:
            batch_no += 1
            steps.append(("insert", (batch, batch_no % FLUSH_EVERY == 0)))
            steps.extend(("idt", qs.idt(t)) for t in batch)
        else:  # every pending trajectory is in: reads only
            steps.extend(("idt", qs.idt()) for _ in range(INSERT_BATCH))
        steps.append(("trq", qs.trq()))
        steps.append(("srq", SpatialRangeQuery(hot[batch_no % len(hot)])))
        yield steps


WORKLOADS = {
    "temporal": Workload(
        "temporal", False, _temporal_cycles, lambda qs: [("trq", qs.trq()), ("idt", qs.idt())]
    ),
    "spatial": Workload(
        "spatial", False, _spatial_cycles, lambda qs: [("srq", qs.srq()), ("strq", qs.strq())]
    ),
    "ingest_processes": Workload(
        "ingest_processes",
        True,
        _ingest_cycles,
        lambda qs: [("trq", qs.trq()), ("idt", qs.idt()), ("srq", qs.srq())],
    ),
}


@dataclass
class OpRecord:
    kind: str
    ms: float
    traced: bool
    cycle: int = 0
    points: int = 0  # insert batches: points acknowledged
    results: int = 0
    layers: Optional[dict] = None  # traced: summarize() output
    io: Optional[dict] = None  # traced queries: IOStats deltas
    estimate: Optional[float] = None
    candidates: int = 0
    plan: str = ""


class Bench:
    """One benchmark run: set up, run the closed loop, check, report."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        seconds: float,
        trace: bool,
        out_dir: Path,
        setups: int = SETUPS,
        max_cycles: Optional[int] = None,
    ):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out_dir = out_dir
        self.setups = setups
        self.max_cycles = max_cycles
        self.data = dataset(seed)
        self.bulk, self.pending = workload.split(self.data)
        self.oracle = Oracle(self.bulk)
        self.ops: list[OpRecord] = []
        self.attempted = 0
        self.errors: list[str] = []
        self.recorder = Recorder()
        self.spans: list[tuple] = []
        self.setup_s: list[float] = []
        self.load_s: list[float] = []
        self.close_s: list[float] = []
        self.dirs: list[Path] = []
        self.tman: Optional[TMan] = None
        self.live: list[TMan] = []  # deployments not yet closed

    # -- set-up ----------------------------------------------------------------

    def _deploy(self, i: int) -> TMan:
        data_dir = None
        if self.w.processes:
            # Relative, so the workers' unix socket paths stay short.
            path = self.out_dir / f"cluster-{os.getpid()}-{i}"
            shutil.rmtree(path, ignore_errors=True)
            self.dirs.append(path)
            data_dir = str(path)
        tman = TMan(self.w.config(data_dir))
        self.live.append(tman)
        return tman

    def setup(self) -> None:
        warm_rng = np.random.default_rng([self.seed, 1])
        closers: list[threading.Thread] = []
        try:
            self._setup(warm_rng, closers)
        finally:
            # Background closes end before the loop is measured or traced.
            for closer in closers:
                closer.join()

    def _setup(self, warm_rng: np.random.Generator, closers: list[threading.Thread]) -> None:
        for i in range(self.setups):
            last = i == self.setups - 1
            traced_load = self.trace and last and not self.pending
            t0 = perf_counter()
            tman = self._deploy(i)
            t1 = perf_counter()
            undo = install(self.recorder) if traced_load else None
            op = self.recorder.begin("load") if traced_load else None
            try:
                tman.bulk_load(self.bulk)
                tman.flush()
            finally:
                if undo is not None:
                    undo()
            if op is not None:
                rec = OpRecord("load", 0.0, True, points=points_of(self.bulk))
                self._finish_traced(op, rec)
                self.ops.append(rec)
            t2 = perf_counter()
            warm = [(kind, q, tman.query(q)) for kind, q in
                    self.w.warmup(Queries(self.data, warm_rng))]
            t3 = perf_counter()
            self.setup_s.append(t3 - t0)
            self.load_s.append(t2 - t1)
            for kind, q, result in warm:
                self.attempted += 1
                self._check(q, result.trajectories)
            if last:
                self.tman = tman
            else:
                # Closing a process cluster mostly waits on worker joins
                # (seconds, little CPU), so earlier deployments close in the
                # background while the next one is set up.
                closer = threading.Thread(target=self._close, args=(tman,))
                closer.start()
                closers.append(closer)

    def _close(self, tman: TMan) -> None:
        t0 = perf_counter()
        try:
            tman.close()
        finally:
            self.live.remove(tman)
        self.close_s.append(perf_counter() - t0)

    # -- the loop -------------------------------------------------------------

    def loop(self) -> None:
        """Run whole cycles until the operations have taken ``seconds``."""
        qs = Queries(self.data, np.random.default_rng([self.seed, 2]))
        cycles = self.w.cycles(qs, self.pending)
        measured = 0.0
        wall0 = perf_counter()
        n = 0
        while True:
            if self.max_cycles is not None:
                if n >= self.max_cycles:
                    break
            elif measured >= self.seconds or perf_counter() - wall0 > WALL_CAP * self.seconds:
                break
            traced = self.trace and n % 2 == 1
            undo = install(self.recorder) if traced else None
            try:
                for kind, payload in next(cycles):
                    measured += self._step(kind, payload, traced, n)
            finally:
                if undo is not None:
                    undo()
            n += 1

    def _step(self, kind: str, payload, traced: bool, cycle: int) -> float:
        tman = self.tman
        self.attempted += 1
        rec = OpRecord(kind, 0.0, traced, cycle)
        if traced and kind != "insert":
            io0 = (tman.cluster.stats.snapshot(), tman.index_cache.stats())
        op = self.recorder.begin(kind) if traced else None
        t0 = perf_counter()
        result = None
        try:
            if kind == "insert":
                batch, flush = payload
                tman.insert(batch)
                if flush:
                    tman.flush()
            else:
                result = tman.query(payload)
        except Exception as exc:  # noqa: BLE001 - a failed op is a result
            if op is not None:
                self.recorder.end(op)
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return perf_counter() - t0
        dt = perf_counter() - t0
        if op is not None:
            self._finish_traced(op, rec)
            dt = rec.ms / 1000.0
        else:
            rec.ms = dt * 1000.0
        if kind == "insert":
            self.oracle.add(payload[0])
            rec.points = points_of(payload[0])
        else:
            rec.results = len(result.trajectories)
            rec.plan = result.plan
            rec.candidates = result.candidates
            if traced:
                rec.io = _io_delta(io0, (tman.cluster.stats.snapshot(), tman.index_cache.stats()))
                rec.estimate = tman.planner.estimate_candidates(payload)
            self._check(payload, result.trajectories)
        self.ops.append(rec)
        return dt

    def _finish_traced(self, op, rec: OpRecord) -> None:
        selfs = self.recorder.end(op)
        iv = op.root.intervals
        rec.ms = (iv[1] - iv[0]) * 1000.0
        rec.layers = summarize(op, selfs)
        self.spans.extend(span_records(op, selfs))

    def _check(self, q, trajectories) -> None:
        err = self.oracle.check(q, trajectories)
        if err is not None:
            self.errors.append(err)

    # -- teardown and sizes -----------------------------------------------------

    def sizes(self) -> dict:
        """Stored key+value bytes, on-disk bytes and cache occupancy."""
        tman = self.tman
        tman.flush()
        tables = [tman.primary_table, *tman.secondary_tables.values()]
        stored = sum(len(k) + len(v) for t in tables for k, v in t.scan(Scan()))
        points = points_of(self.oracle.trajectories)
        disk = sum(
            f.stat().st_size for d in self.dirs if d.exists()
            for f in d.rglob("*") if f.is_file()
        )
        cache = tman.index_cache.stats()
        block = tman.cluster.block_cache
        block_stats = None if block is None else block.stats()
        block_lookups = 0 if block_stats is None else block_stats.hits + block_stats.misses
        workers_kb = 0
        health = tman.health().get("cluster") or {}
        for node in (health.get("nodes") or {}).values():
            workers_kb += _vm_hwm_kb(node.get("pid"))
        return {
            "trajectories": len(self.oracle),
            "points": points,
            "stored_bytes": stored,
            "disk_bytes": disk,
            "index_cache_entries": cache.entries,
            "index_cache_capacity": tman.config.index_cache_capacity,
            "block_cache_lookups": block_lookups,
            "coordinator_peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "workers_peak_rss_kb": workers_kb,
        }

    def teardown(self) -> None:
        """Close every deployment, then end every process the run started."""
        self.tman = None
        try:
            while self.live:
                self._close(self.live[-1])
        finally:
            _reap_children()
            for d in self.dirs:
                shutil.rmtree(d, ignore_errors=True)


def _reap_children() -> None:
    """Stop and wait for what ``multiprocessing`` left behind.

    Spawning a region server also starts multiprocessing's resource
    tracker, a helper process that would otherwise outlive this one by a
    moment.  Workers that ignored the graceful shutdown are killed.
    """
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = multiprocessing.resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def points_of(trajs) -> int:
    return sum(len(t) for t in trajs)


def _io_delta(before, after) -> dict:
    """IOStats and index-cache counter deltas across one query."""
    d = after[0] - before[0]
    return {
        "rows_scanned": d.rows_scanned,
        "bytes_transferred": d.bytes_transferred,
        "cache_hits": after[1].hits - before[1].hits,
        "cache_misses": after[1].misses - before[1].misses,
    }


def _vm_hwm_kb(pid: Optional[int]) -> int:
    if pid is None:
        return 0
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# -- statistics ------------------------------------------------------------------


TAIL_GROUP = 200  # samples per stretch that a tail is taken over (p95)


def rate(ops: list[OpRecord], per=lambda o: 1) -> float:
    """Sum of ``per`` over ``ops`` per second of their operation time.

    Taken over the whole loop: in ``ingest_processes``, stretches of the
    loop differ by where they fall in the compaction saw-tooth.
    """
    return 1000.0 * sum(per(o) for o in ops) / sum(o.ms for o in ops)


def tail(ops: list[OpRecord]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with 10 samples above it.

    Long loops yield thousands of samples, and the tenth-largest of them
    is set by a single burst of host contention or a garbage-collector
    pass.  So the samples, in loop order, are cut into stretches of
    exactly ``TAIL_GROUP`` (the remainder is dropped; fewer samples make
    one stretch), the tenth-largest is taken per stretch (p95), and the
    median over the stretches is reported with the percentile used.
    """
    values = [o.ms for o in ops]
    n = len(values)
    if n < TAIL_GROUP:
        stretches = [values]
    else:
        stretches = [values[i : i + TAIL_GROUP] for i in range(0, n - TAIL_GROUP + 1, TAIL_GROUP)]
    size = len(stretches[0])
    if size <= 10:  # no percentile has 10 samples above it: report the maximum
        return max(values), 100.0
    return median(sorted(st)[-11] for st in stretches), 100.0 * (size - 10) / size


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")
