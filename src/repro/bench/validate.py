"""One schema + gate validator for every report the benchmarks emit.

``python -m repro.bench.validate KIND FILE [FILE...]`` checks each file
against its kind's schema, then its kind's gates, and exits 1 on any
violation (2 on a usage error).  CI runs it after each benchmark smoke.
The kinds (:data:`KINDS`):

- ``cbo`` (``BENCH_cbo.json``): calibrated regret <= ``--max-regret``
  (default 0.15); the adaptive re-plan triggered with ``results_match``;
- ``cluster`` (``BENCH_cluster.json``): ``results_identical``, positive
  ratios, ``queries_per_type >= 1`` (latency itself is not gated);
- ``columnar`` (``BENCH_columnar.json``): schema only;
- ``metrics``: :func:`repro.obs.export.validate_snapshot`;
- ``stats`` (``repro stats``): :func:`repro.obs.stats.validate_workload_stats`.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Callable

from repro.obs.export import validate_snapshot
from repro.obs.stats import validate_workload_stats

DEFAULT_MAX_REGRET = 0.15

_PERCENTILES = {"p50_ms": float, "p99_ms": float}
_REGRET = {"regret": float, "picked_best": int, "cbo_mean_ms": float, "oracle_mean_ms": float}
_CLUSTER_QUERIES = ("trq", "srq")

CBO_SCHEMA = {
    "profile": str,
    "smoke": bool,
    "n_trajectories": int,
    "max_regret_gate": float,
    "tr_vs_interval": {
        "queries": int,
        "tr": _PERCENTILES,
        "interval": _PERCENTILES,
        "tr_windows_p50": int,
        "interval_windows_p50": int,
        "p50_speedup": float,
        "cbo_picks_interval": bool,
    },
    "planner_regret": {
        "queries": int,
        "calibration_samples": int,
        "default": _REGRET,
        "calibrated": _REGRET,
        "costs": dict.fromkeys(("rows_scanned", "range_scans", "point_gets", "decode_rows"), float),
    },
    "adaptive_replan": {
        "estimate": float,
        "observed": int,
        "stale_plan": str,
        "final_plan": str,
        "triggered": bool,
        "results_match": bool,
        "stale_completed_ms": float,
        "adaptive_ms": float,
        "final_plan_alone_ms": float,
        "speedup_vs_stale": float,
    },
}

CLUSTER_SCHEMA = {
    "profile": str,
    "smoke": bool,
    "n_trajectories": int,
    "queries_per_type": int,
    "nodes": int,
    "replication_factor": int,
    "modes": {
        mode: {q: _PERCENTILES for q in _CLUSTER_QUERIES}
        for mode in ("threads", "processes_r1", "processes_r2")
    },
    "process_over_thread_p50": dict.fromkeys(_CLUSTER_QUERIES, float),
    "quorum_read_overhead_p50": dict.fromkeys(_CLUSTER_QUERIES, float),
    "results_identical": bool,
}

COLUMNAR_SCHEMA = {
    "profile": str,
    "smoke": bool,
    "n_trajectories": int,
    "points_per_trajectory": int,
    "storage": {"v2_row_bytes_per_traj": float, "v2_sstable_bytes_per_traj": float},
    "decode": {"columnar": {"rows_per_s": float, "ms_per_row": float}},
    "kernels": {
        name: {"vectorized": _PERCENTILES, "reference": _PERCENTILES, "p50_speedup": float}
        for name in ("frechet", "dtw", "hausdorff")
    },
    "topk_similarity": {
        "k": int,
        "queries": int,
        "after": _PERCENTILES,
        "before": _PERCENTILES,
        "p50_speedup": float,
    },
    "regression_guard": {"profile": str},
}


def validate_report(doc: object, schema: dict, path: str = "") -> list[str]:
    """Violations of a nested ``{key: type | sub-schema}`` schema.

    Every schema key must be present with a value of the given type
    (``float`` accepts any non-bool number); extra keys are allowed.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"{path or '<root>'}: expected object, got {type(doc).__name__}"]
    for key, expected in schema.items():
        here = f"{path}.{key}" if path else key
        if key not in doc:
            errors.append(f"{here}: missing")
            continue
        value = doc[key]
        if isinstance(expected, dict):
            errors.extend(validate_report(value, expected, here))
        elif expected is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors.append(f"{here}: expected number, got {type(value).__name__}")
        elif not isinstance(value, expected) or (expected is int and isinstance(value, bool)):
            errors.append(f"{here}: expected {expected.__name__}, got {type(value).__name__}")
    return errors


# -- gates: run once the schema holds; (doc, options) -> violations ---------


def _regret_gate(doc: dict, opts: argparse.Namespace) -> list[str]:
    regret = doc["planner_regret"]["calibrated"]["regret"]
    if regret > opts.max_regret:
        return [f"planner_regret.calibrated.regret: {regret} exceeds {opts.max_regret}"]
    return []


def _replan_gate(doc: dict, opts: argparse.Namespace) -> list[str]:
    replan = doc["adaptive_replan"]
    errors = []
    if not replan["triggered"]:
        errors.append("adaptive_replan.triggered: divergence guard never fired")
    if not replan["results_match"]:
        errors.append("adaptive_replan.results_match: re-planned results diverged")
    return errors


def _cluster_gate(doc: dict, opts: argparse.Namespace) -> list[str]:
    errors = []
    if not doc["results_identical"]:
        errors.append("results_identical: process-mode or quorum-read results diverged")
    for section in ("process_over_thread_p50", "quorum_read_overhead_p50"):
        for qtype, ratio in doc[section].items():
            if ratio <= 0:
                errors.append(f"{section}.{qtype}: non-positive ratio {ratio}")
    if doc["queries_per_type"] < 1:
        errors.append("queries_per_type: empty workload")
    return errors


Check = Callable[[object], list[str]]
Gate = Callable[[dict, argparse.Namespace], list[str]]

#: Report kind -> (schema check, gates).
KINDS: dict[str, tuple[Check, tuple[Gate, ...]]] = {
    "cbo": (partial(validate_report, schema=CBO_SCHEMA), (_regret_gate, _replan_gate)),
    "cluster": (partial(validate_report, schema=CLUSTER_SCHEMA), (_cluster_gate,)),
    "columnar": (partial(validate_report, schema=COLUMNAR_SCHEMA), ()),
    "metrics": (validate_snapshot, ()),
    "stats": (validate_workload_stats, ()),
}


def check_file(path: str, opts: argparse.Namespace) -> list[str]:
    """Schema violations of one file, else the failures of its kind's gates."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable ({exc})"]
    check, gates = KINDS[opts.kind]
    return check(doc) or [error for gate in gates for error in gate(doc, opts)]


def main(argv: list[str] | None = None) -> int:
    """Validate each report file; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.validate",
        description="Schema + gate check for benchmark and observability reports.",
    )
    parser.add_argument("kind", choices=sorted(KINDS))
    parser.add_argument("paths", nargs="+", metavar="FILE")
    parser.add_argument(
        "--max-regret",
        type=float,
        default=DEFAULT_MAX_REGRET,
        help=f"cbo: fail when calibrated regret exceeds this "
        f"(default {DEFAULT_MAX_REGRET})",
    )
    opts = parser.parse_args(sys.argv[1:] if argv is None else argv)
    failed = False
    for path in opts.paths:
        errors = check_file(path, opts)
        failed = failed or bool(errors)
        for error in errors:
            print(f"{path}: {error}", file=sys.stderr)
        if not errors:
            print(f"{path}: schema-valid {opts.kind} report, gates passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
