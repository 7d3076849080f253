"""Cost-based optimizer benchmark: TR-vs-interval, planner regret, re-planning.

Three claims of the CBO PR, each measured in deterministic simulated
milliseconds (:attr:`QueryResult.simulated_ms`) so CI runs are stable:

- **tr_vs_interval** — on an increasing-ending-time workload with
  recent-window queries, the LIT-style interval index answers in 2 range
  scans where the TR expansion opens ~``max_periods`` windows; forced-plan
  runs quantify the gap and the CBO must pick the interval route.
- **planner_regret** — over a mixed temporal/ST/spatial workload the
  CBO's mean latency is compared against a per-query oracle (best forced
  plan).  The matrix of forced runs doubles as the calibration corpus:
  :func:`repro.query.cost.calibrate` fits the planner prices to this
  deployment, and the calibrated regret is the number CI gates on
  (``python -m repro.bench.validate cbo --max-regret 0.15``).
- **adaptive_replan** — statistics are made stale-low (a flushed sliver
  plus a large unflushed burst); the CBO picks a plan that is wrong for
  the actual data, the divergence guard fires mid-query, and the re-plan
  onto the next route must beat completing the stale plan while returning
  bit-identical results.

Emits ``benchmarks/results/BENCH_cbo.json``.  ``BENCH_SMOKE=1`` shrinks
the workload so CI can run the full path in seconds.
"""

from __future__ import annotations

import json
import os
import statistics

import numpy as np

from benchmarks.conftest import RESULTS_DIR
from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.model import MBR, TimeRange
from repro.model.pointblock import PointBlock
from repro.model.trajectory import Trajectory
from repro.obs import profile_log
from repro.query.cost import calibrate
from repro.query.planner import QueryPlan
from repro.query.types import (
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
)

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
PROFILE = "smoke" if SMOKE else "full"
N_TRAJS = 150 if SMOKE else 300
N_RECENT_QUERIES = 3 if SMOKE else 6
N_MIXED_ROUNDS = 3 if SMOKE else 6
# The replan scenario is not scaled down for smoke: the stale plan choice
# depends on the tail/burst proportions (the flushed tail must inflate the
# interval route's estimate past the TR expansion's fixed window cost), so
# shrinking it flips which plan is stale and inverts the assertion.
REPLAN_TAIL = 450
REPLAN_BURST = 250

HOUR = 3600.0
SPAN_HOURS = 40.0
MAX_REGRET = 0.15


def _retime(trajs, spans):
    """Give each trajectory an exact (start, end) time span."""
    out = []
    for t, (t0, t1) in zip(trajs, spans):
        ts, xs, ys = t.xy_arrays()
        if len(ts) > 1:
            grid = t0 + (ts - ts[0]) / max(ts[-1] - ts[0], 1e-9) * (t1 - t0)
        else:
            grid = np.array([t0])
        out.append(Trajectory(t.oid, t.tid, PointBlock(grid, xs, ys, validate=False)))
    return out


def _increasing_ending_time(n, seed):
    """Short trips whose ending times increase over the full span."""
    raw = sorted(
        tdrive_like(n, seed=seed, max_points=40), key=lambda t: t.time_range.end
    )
    spans = [
        ((i / n) * SPAN_HOURS * HOUR, (i / n) * SPAN_HOURS * HOUR + 0.5 * HOUR)
        for i in range(n)
    ]
    return _retime(raw, spans)


def _percentiles(samples_ms):
    ordered = sorted(samples_ms)
    return {
        "p50_ms": round(statistics.median(ordered), 4),
        "p99_ms": round(ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))], 4),
    }


def _make_tman(data, **overrides):
    defaults = dict(
        boundary=TDRIVE_SPEC.boundary,
        max_resolution=10,
        num_shards=2,
        kv_workers=2,
        split_rows=50_000,
        secondary_indexes=("tr", "idt", "interval"),
    )
    defaults.update(overrides)
    tman = TMan(TManConfig(**defaults))
    tman.bulk_load(data)
    tman.flush()
    return tman


def _tr_vs_interval(tman, report):
    """Forced-plan shootout on recent-window queries."""
    queries = [
        TemporalRangeQuery(
            TimeRange(
                (SPAN_HOURS - 2.0 - i * 0.5) * HOUR,
                (SPAN_HOURS - 0.5 - i * 0.5) * HOUR,
            )
        )
        for i in range(N_RECENT_QUERIES)
    ]
    sims, windows = {}, {}
    for name in ("tr", "interval"):
        plan = QueryPlan(name, "secondary", "forced")
        for q in queries:  # warm block caches so both routes measure steady state
            tman.query(q, plan=plan)
        sims[name] = []
        windows[name] = []
        for q in queries:
            r = tman.query(q, plan=plan)
            sims[name].append(r.simulated_ms)
            windows[name].append(r.windows)
    chosen = [tman.query(q).plan for q in queries]
    section = {
        "queries": len(queries),
        "tr": _percentiles(sims["tr"]),
        "interval": _percentiles(sims["interval"]),
        "tr_windows_p50": int(statistics.median(windows["tr"])),
        "interval_windows_p50": int(statistics.median(windows["interval"])),
        "p50_speedup": round(
            statistics.median(sims["tr"])
            / max(statistics.median(sims["interval"]), 1e-9),
            3,
        ),
        "cbo_picks_interval": all(p == "interval/secondary" for p in chosen),
    }
    report["tr_vs_interval"] = section
    # The acceptance headline: 2 windows beat the TR expansion's ~N.
    assert section["interval"]["p50_ms"] < section["tr"]["p50_ms"], section
    assert section["cbo_picks_interval"], chosen


def _mixed_workload():
    span = TDRIVE_SPEC.boundary
    mid_x = (span.x1 + span.x2) / 2
    mid_y = (span.y1 + span.y2) / 2
    st_window = MBR(span.x1, span.y1, mid_x, mid_y)
    spatial_window = MBR(
        span.x1, span.y1, span.x1 + (span.x2 - span.x1) * 0.3, mid_y
    )
    queries = []
    for i in range(N_MIXED_ROUNDS):
        t0 = (i * 6.3) % (SPAN_HOURS - 2.0) * HOUR
        queries.append(TemporalRangeQuery(TimeRange(t0, t0 + 2.0 * HOUR)))
        queries.append(STRangeQuery(st_window, TimeRange(t0, t0 + 3.0 * HOUR)))
    queries.append(SpatialRangeQuery(spatial_window))
    return queries


def _forced_matrix(tman, queries):
    """Run every candidate plan of every query; returns calibration samples."""
    samples = []
    for q in queries:
        for cand in tman.planner.candidate_plans(q):
            profile_log().clear()
            r = tman.query(q, plan=cand.plan)
            ledger = list(profile_log().entries())[-1]
            samples.append(
                {
                    "rows_scanned": ledger.rows_scanned,
                    "point_gets": ledger.point_gets,
                    "range_scans": ledger.range_scans,
                    "decode_rows": ledger.decode_rows,
                    # Fit against the deterministic simulated cost so the
                    # calibrated prices match the unit regret is in.
                    "elapsed_ms": r.simulated_ms,
                }
            )
    return samples


def _regret(tman, queries):
    cbo_ms, oracle_ms, picked_best = [], [], 0
    for q in queries:
        r = tman.query(q)
        oracle = min(
            tman.query(q, plan=c.plan).simulated_ms
            for c in tman.planner.candidate_plans(q)
        )
        cbo_ms.append(r.simulated_ms)
        oracle_ms.append(oracle)
        if abs(r.simulated_ms - oracle) < 1e-9:
            picked_best += 1
    cbo_mean = statistics.mean(cbo_ms)
    oracle_mean = statistics.mean(oracle_ms)
    return {
        "regret": round(cbo_mean / max(oracle_mean, 1e-9) - 1.0, 4),
        "picked_best": picked_best,
        "cbo_mean_ms": round(cbo_mean, 3),
        "oracle_mean_ms": round(oracle_mean, 3),
    }


def _planner_regret(tman, report):
    queries = _mixed_workload()
    _forced_matrix(tman, queries)  # warm pass
    samples = _forced_matrix(tman, queries)
    default = _regret(tman, queries)
    fitted = calibrate(samples, defaults=tman.planner.costs)
    tman.planner.set_costs(fitted)
    calibrated = _regret(tman, queries)
    section = {
        "queries": len(queries),
        "calibration_samples": len(samples),
        "default": default,
        "calibrated": calibrated,
        "costs": {
            "rows_scanned": round(fitted.rows_scanned, 4),
            "range_scans": round(fitted.range_scans, 4),
            "point_gets": round(fitted.point_gets, 4),
            "decode_rows": round(fitted.decode_rows, 4),
        },
    }
    report["planner_regret"] = section
    # The acceptance gate CI re-checks via repro.bench.validate.
    assert calibrated["regret"] <= MAX_REGRET, section
    assert calibrated["regret"] <= default["regret"] + 1e-9, section


def _adaptive_replan(report):
    """Stale statistics pick a wrong plan; the guard must escape it."""
    raw = tdrive_like(REPLAN_TAIL + REPLAN_BURST, seed=13, max_points=30)
    # Flushed (visible to the census): short trips after the query window,
    # which make the interval route's tail look expensive.
    tail = _retime(
        raw[:REPLAN_TAIL],
        [
            (
                23.0 * HOUR + (i / REPLAN_TAIL) * 24.0 * HOUR,
                23.4 * HOUR + (i / REPLAN_TAIL) * 24.0 * HOUR,
            )
            for i in range(REPLAN_TAIL)
        ],
    )
    # Unflushed burst (invisible): long trips ending inside the query
    # window, sitting at the front of the TR route's window order so the
    # divergence fires before the expansion's seek cost is sunk.
    burst = _retime(
        raw[REPLAN_TAIL:],
        [
            (
                1.0 * HOUR + (i % 3) * HOUR,
                20.5 * HOUR + (i / REPLAN_BURST) * 1.5 * HOUR,
            )
            for i in range(REPLAN_BURST)
        ],
    )
    query = TemporalRangeQuery(TimeRange(20.0 * HOUR, 22.5 * HOUR))
    config = TManConfig(
        boundary=TDRIVE_SPEC.boundary,
        max_resolution=10,
        num_shards=2,
        kv_workers=1,
        split_rows=50_000,
        secondary_indexes=("tr", "idt", "interval"),
        adaptive_replan=True,
        replan_divergence_ratio=2.0,
        replan_min_candidates=32,
    )
    tman = TMan(config)
    try:
        tman.bulk_load(tail)
        tman.flush()
        tman.bulk_load(burst)

        estimate = tman.planner.estimate_candidates(query)
        stale_plan = tman.planner.plan(query)
        result = tman.query(query)
        annotations = dict(result.trace.annotations)
        triggered = "replanned_from" in annotations

        stale_forced = tman.query(
            query, plan=QueryPlan(stale_plan.index, stale_plan.route, "forced")
        )
        final_index, final_route = result.plan.split("/")
        final_forced = tman.query(
            query, plan=QueryPlan(final_index, final_route, "forced")
        )
        matches = sorted(t.tid for t in result.trajectories) == sorted(
            t.tid for t in stale_forced.trajectories
        )
        section = {
            "estimate": round(estimate or 0.0, 2),
            "observed": int(annotations.get("replan_observed_rows", 0)),
            "stale_plan": f"{stale_plan.index}/{stale_plan.route}",
            "final_plan": result.plan,
            "triggered": triggered,
            "results_match": matches,
            "stale_completed_ms": round(stale_forced.simulated_ms, 3),
            "adaptive_ms": round(result.simulated_ms, 3),
            "final_plan_alone_ms": round(final_forced.simulated_ms, 3),
            "speedup_vs_stale": round(
                stale_forced.simulated_ms / max(result.simulated_ms, 1e-9), 3
            ),
        }
        report["adaptive_replan"] = section
        assert triggered, section
        assert matches, section
        assert result.plan != section["stale_plan"], section
        # "Helping": aborting + re-running beats completing the stale plan.
        assert section["adaptive_ms"] < section["stale_completed_ms"], section
    finally:
        tman.close()


def test_cbo_benchmark():
    report = {
        "profile": PROFILE,
        "smoke": SMOKE,
        "n_trajectories": N_TRAJS,
        "max_regret_gate": MAX_REGRET,
    }
    data = _increasing_ending_time(N_TRAJS, seed=11)
    tman = _make_tman(data)
    try:
        _tr_vs_interval(tman, report)
        _planner_regret(tman, report)
    finally:
        tman.close()
    _adaptive_replan(report)

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_cbo.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print("\n" + json.dumps(report, indent=2, sort_keys=True))
