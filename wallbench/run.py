"""Wall-clock benchmark of the TMan reproduction.

Run from the root of a checkout::

    python3 wallbench/run.py --workload spatial --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` patches the layers' public entry points (``tracing.py``),
traces every other loop cycle, and reports the per-layer split; the
untraced cycles of the same run give ``trace.overhead_ratio``.  Every
answer is checked against a brute-force oracle; the last line of output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full report and the span log go to ``.wallbench_out/``.

End-to-end metrics (every workload):

- ``setup_s``: ``TMan(...)`` through bulk load, flush and warm-up queries
  (worker spawn included in process mode); median of three deployments.
- ``query_p50_geomean_ms``: the median latency of each query type of the
  mix, geometric mean over the types.  The types' latencies differ 2-30x,
  and the median over all queries of a mix falls where one type's
  distribution gives way to the next, so it jumps between runs.
- ``query_tail_ms``: the highest percentile with 10 samples above it,
  taken per stretch of ~200 queries and the median reported (near p95).
- ``ops_per_s``: queries plus insert batches per second of operation time.
- ``stored_bytes_per_point``: key+value bytes of all tables after the
  final flush over points stored.
- ``peak_rss_mb``: peak RSS of this process plus that of the workers.

Report-only lines carry what only some workloads have: per-type medians,
insert latency, ``ingest_points_per_s``, and ``op_failure_ratio``
(``failed / attempted`` in the JSON line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = Path(".wallbench_out")


def _import_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"wallbench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _provenance(w, seed: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "not a git checkout"
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha1": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cluster_mode": "processes" if w.processes else "threads",
        "flush_policy": w.flush_policy,
        "client": "closed loop, 1 client, no think time",
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end(bench, sizes: dict) -> tuple[dict, dict]:
    """(driver metrics, report-only metrics) of an untraced run."""
    from workloads import QUERY_KINDS, median, points_of, rate, tail

    ops = bench.ops
    queries = [o for o in ops if o.kind in QUERY_KINDS]
    inserts = [o for o in ops if o.kind == "insert"]
    kinds = [k for k in QUERY_KINDS if any(o.kind == k for o in queries)]
    q_tail, q_pct = tail(queries)
    if inserts:
        ingest = rate(inserts, lambda o: o.points)
    else:  # read-only loop: the bulk loads of set-up are the only writes
        ingest = median(points_of(bench.bulk) / s for s in bench.load_s)
    metrics = {
        "setup_s": (median(bench.setup_s), "s"),
        "query_p50_geomean_ms": (
            statistics.geometric_mean(
                median(o.ms for o in queries if o.kind == k) for k in kinds
            ),
            "ms",
        ),
        "query_tail_ms": (q_tail, "ms"),
        "ops_per_s": (rate(ops), "1/s"),
        "stored_bytes_per_point": (sizes["stored_bytes"] / sizes["points"], "B"),
        "peak_rss_mb": (
            (sizes["coordinator_peak_rss_kb"] + sizes["workers_peak_rss_kb"]) / 1024.0,
            "MB",
        ),
    }
    extra = {
        "ingest_points_per_s": (ingest, "1/s"),
        "query_tail_ms.percentile": (q_pct, "%"),
        "query_samples": (len(queries), "count"),
        "op_failure_ratio": (len(bench.errors) / bench.attempted, "ratio"),
    }
    for kind in QUERY_KINDS:
        lat = [o.ms for o in ops if o.kind == kind]
        if lat:
            extra[f"{kind}_p50_ms"] = (median(lat), "ms")
            extra[f"{kind}_samples"] = (len(lat), "count")
    if inserts:
        i_tail, i_pct = tail(inserts)
        extra["insert_p50_ms"] = (median(o.ms for o in inserts), "ms")
        extra["insert_tail_ms"] = (i_tail, "ms")
        extra["insert_tail_ms.percentile"] = (i_pct, "%")
        extra["insert_batches"] = (len(inserts), "count")
    return metrics, extra


def _layer(o, name: str, field: int = 0) -> float:
    rec = o.layers.get(name)
    return rec[field] if rec is not None else 0.0


def per_layer(bench, sizes: dict) -> tuple[dict, dict, dict]:
    """(driver metrics, report-only metrics, per-query-type split) of a traced run."""
    from workloads import QUERY_KINDS, median

    traced = [o for o in bench.ops if o.traced and o.kind in QUERY_KINDS]
    plain = [o.ms for o in bench.ops if not o.traced and o.kind in QUERY_KINDS]
    writes = [o for o in bench.ops if o.traced and o.kind in ("insert", "load")]
    if not traced or not writes:
        raise RuntimeError("the traced run completed no traced query or write")

    def ms(o, *names):
        return 1000.0 * sum(_layer(o, n) for n in names)

    def count(o, name):
        return _layer(o, name, 1)

    def calls(o, name):
        return _layer(o, name, 2)

    decode_rows = sum(count(o, "storage.serializer.decode") for o in traced)
    decode_ms = sum(ms(o, "storage.serializer.decode") for o in traced)
    codec_ms = sum(ms(o, "compression.codec.decode") for o in traced)
    enc_rows = sum(count(o, "storage.serializer.encode") for o in writes)
    enc_ms = sum(ms(o, "storage.serializer.encode") for o in writes)
    codec_enc_ms = sum(ms(o, "compression.codec.encode") for o in writes)
    results = sum(o.results for o in traced)
    wall = sum(o.ms for o in traced)
    unclaimed = sum(ms(o, "op." + o.kind) for o in traced)
    ratios = [o.estimate / max(1, o.candidates) for o in traced if o.estimate is not None]
    hits = sum(o.io["cache_hits"] for o in traced)
    lookups = hits + sum(o.io["cache_misses"] for o in traced)
    rpc_calls = sum(count(o, "cluster.rpc") for o in traced)
    rpc_ms = sum(ms(o, "cluster.rpc") for o in traced)
    metrics = {
        "query.planner.plan.ms": (_mean(ms(o, "query.planner.plan") for o in traced), "ms"),
        "query.planner.est_over_actual": (median(ratios) if ratios else 0.0, "ratio"),
        "query.pipeline.self_ms": (_mean(ms(o, "op." + o.kind) for o in traced), "ms"),
        "core.tr.query_ranges.ms": (_mean(ms(o, "core.tr.query_ranges") for o in traced), "ms"),
        "core.tshape.query_ranges.calls": (
            _mean(calls(o, "core.tshape.query_ranges") for o in traced), "count"),
        "core.tshape.ranges_out": (
            _mean(count(o, "core.tshape.query_ranges") for o in traced), "count"),
        "kvstore.scan.windows": (_mean(calls(o, "kvstore.scan") for o in traced), "count"),
        "kvstore.scan.ms": (
            _mean(ms(o, "kvstore.multi_range_scan", "kvstore.scan") for o in traced), "ms"),
        "kvstore.multi_get.keys": (_mean(count(o, "kvstore.multi_get") for o in traced), "count"),
        "kvstore.multi_get.ms": (_mean(ms(o, "kvstore.multi_get") for o in traced), "ms"),
        "kvstore.rows_scanned_per_result": (
            sum(o.io["rows_scanned"] for o in traced) / max(1, results), "ratio"),
        "kvstore.bytes_transferred": (_mean(o.io["bytes_transferred"] for o in traced), "B"),
        "storage.serializer.decode.ms": (decode_ms / len(traced), "ms"),
        "storage.serializer.decode.rows": (decode_rows / len(traced), "count"),
        "storage.serializer.decode.us_per_row": (1000.0 * decode_ms / max(1, decode_rows), "us"),
        "compression.codec.decode.us_per_row": (1000.0 * codec_ms / max(1, decode_rows), "us"),
        "kvstore.put.ms": (_mean(ms(o, "kvstore.put") for o in writes), "ms"),
        "kvstore.flush.ms": (_mean(ms(o, "kvstore.flush") for o in writes), "ms"),
        "kvstore.flushes": (_mean(calls(o, "kvstore.flush") for o in writes), "count"),
        "storage.serializer.encode.us_per_row": (1000.0 * enc_ms / max(1, enc_rows), "us"),
        "storage.writer.self_ms": (_mean(ms(o, "storage.writer") for o in writes), "ms"),
        "compression.codec.encode.us_per_row": (
            1000.0 * codec_enc_ms / max(1, enc_rows), "us"),
        "cluster.rpc.calls": (rpc_calls / len(traced), "count"),
        "trace.overhead_ratio": (median(o.ms for o in traced) / median(plain), "ratio"),
        "trace.coverage": ((wall - unclaimed) / wall, "ratio"),
    }
    extra = {
        "core.tshape.query_ranges.ms": (
            _mean(ms(o, "core.tshape.query_ranges") for o in traced), "ms"),
        "core.st.query_windows.ms": (_mean(ms(o, "core.st.query_windows") for o in traced), "ms"),
        "query.planner.plan.core_ms": (
            _mean(ms(o, "query.planner.plan.core") for o in traced), "ms"),
        "cache.index.hit_ratio": (hits / lookups if lookups else float("nan"), "ratio"),
        "cache.index.lookups": (lookups / len(traced), "count"),
        "cluster.rpc.ms": (rpc_ms / len(traced), "ms"),
        "cluster.rpc.ms_per_call": (rpc_ms / rpc_calls if rpc_calls else float("nan"), "ms"),
        "cluster.rpc.calls_per_write": (_mean(count(o, "cluster.rpc") for o in writes), "count"),
        "kvstore.put_batch.ms": (_mean(ms(o, "kvstore.put_batch") for o in writes), "ms"),
        "kvstore.disk_bytes_per_point": (sizes["disk_bytes"] / sizes["points"], "B"),
        "traced_queries": (len(traced), "count"),
        "untraced_queries": (len(plain), "count"),
        "traced_writes": (len(writes), "count"),
    }
    # Per query type: mean self ms of every layer, the root's share as
    # query.pipeline.self, and how far their sum is from the wall time.
    split = {}
    layers = sorted(
        {n for o in traced for n in o.layers if not n.startswith("op.")}
        - {"query.planner.plan.core"}
    )
    for kind in QUERY_KINDS:
        ops = [o for o in traced if o.kind == kind]
        if not ops:
            continue
        row = {n: _mean(ms(o, n) for o in ops) for n in layers}
        row["query.pipeline.self"] = _mean(ms(o, "op." + kind) for o in ops)
        kind_wall = _mean(o.ms for o in ops)
        split[kind] = {
            "queries": len(ops),
            "wall_ms": kind_wall,
            "self_ms": row,
            "coverage": 1.0 - row["query.pipeline.self"] / kind_wall,
            "additivity_error": abs(sum(row.values()) - kind_wall) / kind_wall,
        }
    return metrics, extra, split


def plan_record(bench) -> dict:
    plans: dict[str, Counter] = {}
    for o in bench.ops:
        if o.plan:
            plans.setdefault(o.kind, Counter())[o.plan] += 1
    return {k: dict(v) for k, v in plans.items()}


# Self times must add up to each query's wall time within this share.
ADDITIVITY_TOLERANCE = 0.01


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS, Bench

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    bench = Bench(w, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    try:
        bench.setup()
        bench.loop()
        sizes = bench.sizes()
    finally:
        bench.teardown()

    report = {
        "workload": w.name,
        "provenance": _provenance(w, args.seed),
        "dataset": {k: sizes[k] for k in ("trajectories", "points", "stored_bytes", "disk_bytes")},
        "caches": {
            "index_cache_entries": sizes["index_cache_entries"],
            "index_cache_capacity": sizes["index_cache_capacity"],
            "block_cache_lookups": sizes["block_cache_lookups"],
        },
        "plans": plan_record(bench),
        "setup_s": bench.setup_s,
        "close_s": bench.close_s,
    }
    if args.trace:
        metrics, extra, split = per_layer(bench, sizes)
        report["per_query_type"] = split
        for kind, row in split.items():
            if row["additivity_error"] > ADDITIVITY_TOLERANCE:
                bench.errors.append(
                    f"trace: {kind} self times miss the wall time by "
                    f"{row['additivity_error']:.2%}"
                )
    else:
        metrics, extra = end_to_end(bench, sizes)
    report["errors"] = bench.errors[:20]
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["report_only"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}

    _print_report(report)
    name = f"{w.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"report-{name}.json").write_text(json.dumps(report, indent=1, default=str))
    if args.trace:
        with open(OUT_DIR / f"spans-{name}.jsonl", "w") as fh:
            for row in bench.spans:
                fh.write(json.dumps(row) + "\n")
    failed = len(bench.errors)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


def _print_report(report: dict) -> None:
    print(f"# workload {report['workload']}")
    for key, value in report["provenance"].items():
        print(f"# {key}: {value}")
    for key, value in {**report["dataset"], **report["caches"]}.items():
        print(f"# {key}: {value}")
    print(f"# plans: {json.dumps(report['plans'])}")
    print(f"# setup_s per deployment: {[round(s, 3) for s in report['setup_s']]}")
    print(f"# close_s per deployment: {[round(s, 3) for s in report['close_s']]}")
    for kind, row in report.get("per_query_type", {}).items():
        top = sorted(row["self_ms"].items(), key=lambda kv: -kv[1])
        parts = ", ".join(f"{n} {v:.2f}" for n, v in top if v >= 0.005)
        print(
            f"# {kind}: {row['queries']} traced, wall {row['wall_ms']:.2f} ms, "
            f"layers cover {row['coverage']:.1%}, self times sum within "
            f"{row['additivity_error']:.3%} of wall; self ms: {parts}"
        )
    for err in report["errors"]:
        print(f"# error: {err}")
    for section in ("metrics", "report_only"):
        for key, m in report[section].items():
            print(f"{key} {m['value']!r} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
