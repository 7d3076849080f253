"""The one report validator: every schema and every gate exits 1 on violation."""

from __future__ import annotations

import json

import pytest

from repro.bench.validate import (
    CBO_SCHEMA,
    CLUSTER_SCHEMA,
    COLUMNAR_SCHEMA,
    KINDS,
    main,
    validate_report,
)
from repro.obs import MetricsRegistry, WorkloadStatsCollector


def _valid(schema: dict) -> dict:
    """The smallest document satisfying a nested schema."""
    sample = {float: 1.0, int: 1, bool: True, str: "smoke"}
    return {
        key: _valid(kind) if isinstance(kind, dict) else sample[kind]
        for key, kind in schema.items()
    }


def _cbo() -> dict:
    doc = _valid(CBO_SCHEMA)
    doc["planner_regret"]["calibrated"]["regret"] = 0.1
    return doc


def _cluster() -> dict:
    return _valid(CLUSTER_SCHEMA)


def _run(tmp_path, kind, doc, *extra) -> int:
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    return main([kind, str(path), *extra])


def _set(doc: dict, dotted: str, value) -> dict:
    *parents, leaf = dotted.split(".")
    node = doc
    for part in parents:
        node = node[part]
    node[leaf] = value
    return doc


def test_every_kind_is_covered():
    assert sorted(KINDS) == ["cbo", "cluster", "columnar", "metrics", "stats"]


@pytest.mark.parametrize(
    "kind, doc",
    [
        ("cbo", _cbo()),
        ("cluster", _cluster()),
        ("columnar", _valid(COLUMNAR_SCHEMA)),
    ],
)
def test_valid_reports_pass(tmp_path, capsys, kind, doc):
    assert _run(tmp_path, kind, doc) == 0
    assert "schema-valid" in capsys.readouterr().out


def test_valid_metrics_and_stats_pass(tmp_path):
    reg = MetricsRegistry()
    reg.counter("c").inc()
    assert _run(tmp_path, "metrics", reg.snapshot()) == 0
    assert _run(tmp_path, "stats", WorkloadStatsCollector().snapshot()) == 0


@pytest.mark.parametrize(
    "dotted, value",
    [
        ("planner_regret.calibrated.regret", 0.16),
        ("adaptive_replan.triggered", False),
        ("adaptive_replan.results_match", False),
    ],
)
def test_cbo_gates(tmp_path, capsys, dotted, value):
    assert _run(tmp_path, "cbo", _set(_cbo(), dotted, value)) == 1
    assert dotted in capsys.readouterr().err


def test_cbo_max_regret_option(tmp_path):
    assert _run(tmp_path, "cbo", _cbo(), "--max-regret", "0.05") == 1
    assert _run(tmp_path, "cbo", _cbo(), "--max-regret", "0.1") == 0


@pytest.mark.parametrize(
    "dotted, value",
    [
        ("results_identical", False),
        ("process_over_thread_p50.trq", 0.0),
        ("quorum_read_overhead_p50.srq", -1.0),
        ("queries_per_type", 0),
    ],
)
def test_cluster_gates(tmp_path, capsys, dotted, value):
    assert _run(tmp_path, "cluster", _set(_cluster(), dotted, value)) == 1
    assert dotted in capsys.readouterr().err


@pytest.mark.parametrize("kind, schema", [
    ("cbo", CBO_SCHEMA), ("cluster", CLUSTER_SCHEMA), ("columnar", COLUMNAR_SCHEMA),
])
def test_schema_violations(tmp_path, kind, schema):
    missing = _valid(schema)
    del missing["smoke"]
    assert _run(tmp_path, kind, missing) == 1
    wrong_type = _set(_valid(schema), "n_trajectories", "many")
    assert _run(tmp_path, kind, wrong_type) == 1


def test_schema_violation_skips_gates():
    doc = _cbo()
    del doc["adaptive_replan"]
    assert validate_report(doc, CBO_SCHEMA) == ["adaptive_replan: missing"]


def test_bad_metrics_and_stats_fail(tmp_path):
    assert _run(tmp_path, "metrics", {"schema": "wrong"}) == 1
    assert _run(tmp_path, "stats", {"schema": "wrong", "groups": []}) == 1


def test_unreadable_file_fails(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["columnar", str(path), str(tmp_path / "absent.json")]) == 1
    assert capsys.readouterr().err.count(": unreadable (") == 2


def test_usage_errors_exit_2():
    for argv in ([], ["cbo"], ["bogus", "x.json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
