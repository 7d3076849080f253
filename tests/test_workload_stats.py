"""WorkloadStatsCollector: aggregation, schema, and export validation."""

from __future__ import annotations

import json

import pytest

from repro.obs.dashboard import render_dashboard
from repro.obs.profile import QueryProfile
from repro.obs.stats import (
    CELL_GRID,
    ESTIMATE_RECENT,
    MAX_MAP_KEYS,
    OVERFLOW_KEY,
    SELECTIVITY_BINS,
    WORKLOAD_STATS_SCHEMA,
    WorkloadStatsCollector,
    validate_workload_stats,
)


def _profile(qtype="TemporalRangeQuery", plan="tr/primary", scanned=100,
             returned=10, elapsed=5.0):
    profile = QueryProfile(qtype, plan)
    profile.add(rows_scanned=scanned, rows_returned=returned)
    profile.finish(elapsed)
    return profile


class TestCollector:
    def test_groups_by_type_and_plan(self):
        ws = WorkloadStatsCollector()
        ws.record(_profile(plan="tr/primary"))
        ws.record(_profile(plan="tr/secondary"))
        ws.record(_profile(qtype="SpatialRangeQuery", plan="tshape/primary"))
        doc = ws.snapshot()
        keys = {(g["query_type"], g["plan"]) for g in doc["groups"]}
        assert keys == {
            ("TemporalRangeQuery", "tr/primary"),
            ("TemporalRangeQuery", "tr/secondary"),
            ("SpatialRangeQuery", "tshape/primary"),
        }
        assert doc["total_queries"] == 3

    def test_selectivity_histogram_bins(self):
        ws = WorkloadStatsCollector()
        ws.record(_profile(scanned=100, returned=0))    # bin 0
        ws.record(_profile(scanned=100, returned=95))   # last bin
        ws.record(_profile(scanned=100, returned=50))   # middle
        (group,) = ws.snapshot()["groups"]
        hist = group["selectivity_hist"]
        assert len(hist) == SELECTIVITY_BINS
        assert hist[0] == 1
        assert hist[-1] == 1
        assert sum(hist) == 3

    def test_latency_percentiles(self):
        ws = WorkloadStatsCollector()
        for ms in (1.0, 2.0, 3.0, 4.0, 100.0):
            ws.record(_profile(elapsed=ms))
        (group,) = ws.snapshot()["groups"]
        lat = group["latency_ms"]
        assert lat["p50"] == 3.0
        assert lat["p99"] == 100.0
        assert lat["mean"] == pytest.approx(22.0)

    def test_period_histogram_uses_time_range(self):
        ws = WorkloadStatsCollector()
        ws.record(_profile(), time_range=(0.0, 7000.0), period_seconds=3600.0)
        (group,) = ws.snapshot()["groups"]
        assert set(group["periods"]) == {"0", "1"}
        assert group["periods"]["0"]["observations"] == 1

    def test_cell_histogram_uses_window_and_boundary(self):
        ws = WorkloadStatsCollector()
        boundary = (0.0, 0.0, 100.0, 100.0)
        ws.record(_profile(), window=(10.0, 10.0, 20.0, 20.0), boundary=boundary)
        ws.record(_profile(), window=(90.0, 90.0, 99.0, 99.0), boundary=boundary)
        (group,) = ws.snapshot()["groups"]
        cells = group["cells"]
        assert len(cells) == 2
        for key in cells:
            gx, gy = key.split(",")
            assert 0 <= int(gx) < CELL_GRID
            assert 0 <= int(gy) < CELL_GRID

    def test_exemplar_tracks_slowest_query(self):
        ws = WorkloadStatsCollector()
        fast = _profile(elapsed=1.0)
        slow = _profile(elapsed=50.0)
        ws.record(fast)
        ws.record(slow)
        ws.record(_profile(elapsed=2.0))
        (group,) = ws.snapshot()["groups"]
        assert group["slowest"]["query_id"] == slow.query_id
        assert group["slowest"]["elapsed_ms"] == 50.0

    def test_estimate_ratio_tracking(self):
        ws = WorkloadStatsCollector()
        ws.record_estimate("TRQ", "tr/primary", observed=50, estimated=100.0)
        ws.record_estimate("TRQ", "tr/primary", observed=200, estimated=100.0)
        ws.record(_profile(qtype="TRQ", plan="tr/primary"))
        (group,) = ws.snapshot()["groups"]
        ratio = group["estimate_ratio"]
        assert ratio["count"] == 2
        assert ratio["min"] == 0.5
        assert ratio["max"] == 2.0

    def test_estimate_ratio_recent_window(self):
        ws = WorkloadStatsCollector()
        for i in range(ESTIMATE_RECENT + 10):
            ws.record_estimate("TRQ", "tr/primary", observed=i, estimated=10.0)
        ws.record(_profile(qtype="TRQ", plan="tr/primary"))
        (group,) = ws.snapshot()["groups"]
        recent = group["estimate_ratio"]["recent"]
        assert len(recent) == ESTIMATE_RECENT  # bounded, newest kept
        assert recent[-1] == pytest.approx((ESTIMATE_RECENT + 9) / 10.0)

    def test_map_key_overflow_collapses(self):
        ws = WorkloadStatsCollector()
        for i in range(MAX_MAP_KEYS + 50):
            ws.record(
                _profile(),
                time_range=(i * 3600.0, i * 3600.0 + 10.0),
                period_seconds=3600.0,
            )
        (group,) = ws.snapshot()["groups"]
        assert len(group["periods"]) <= MAX_MAP_KEYS + 1
        assert OVERFLOW_KEY in group["periods"]

    def test_clear(self):
        ws = WorkloadStatsCollector()
        ws.record(_profile())
        ws.clear()
        assert ws.total_queries == 0
        assert ws.snapshot()["groups"] == []


class TestValidation:
    def test_valid_snapshot_passes(self):
        ws = WorkloadStatsCollector()
        ws.record(_profile(), time_range=(0.0, 100.0),
                  window=(1.0, 1.0, 2.0, 2.0), boundary=(0.0, 0.0, 10.0, 10.0))
        doc = ws.snapshot()
        assert doc["schema"] == WORKLOAD_STATS_SCHEMA
        assert validate_workload_stats(doc) == []

    def test_json_round_trip_stays_valid(self):
        ws = WorkloadStatsCollector()
        ws.record(_profile())
        doc = json.loads(json.dumps(ws.snapshot()))
        assert validate_workload_stats(doc) == []

    def test_rejects_bad_schema(self):
        assert validate_workload_stats({"schema": "nope"})
        assert validate_workload_stats([])
        assert validate_workload_stats(
            {"schema": WORKLOAD_STATS_SCHEMA, "total_queries": "x", "groups": []}
        )

    def test_rejects_corrupt_group(self):
        ws = WorkloadStatsCollector()
        ws.record(_profile())
        doc = ws.snapshot()
        doc["groups"][0]["selectivity_hist"] = [1, 2]  # wrong length
        assert validate_workload_stats(doc)

    def test_validate_cli_stats_mode(self, tmp_path, capsys):
        from repro.bench.validate import main

        ws = WorkloadStatsCollector()
        ws.record(_profile())
        good = tmp_path / "ws.json"
        good.write_text(json.dumps(ws.snapshot()))
        assert main(["stats", str(good)]) == 0
        assert "schema-valid" in capsys.readouterr().out

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope", "groups": []}))
        assert main(["stats", str(bad)]) == 1


class TestDashboardPlanPanel:
    def _frame(self, workload):
        return render_dashboard({"metrics": []}, workload=workload)

    def test_panel_lists_plans_with_sparkline(self):
        ws = WorkloadStatsCollector()
        ws.record(_profile(qtype="TemporalRangeQuery", plan="interval/secondary"))
        ws.record(_profile(qtype="TemporalRangeQuery", plan="tr/secondary"))
        for obs_n in (5, 20, 10):
            ws.record_estimate(
                "TemporalRangeQuery", "tr/secondary", observed=obs_n, estimated=10.0
            )
        frame = self._frame(ws.snapshot())
        assert "-- plans" in frame
        assert "interval/secondary" in frame
        plan_line = next(
            line for line in frame.splitlines() if "tr/secondary" in line
        )
        # mean ratio (5+20+10)/3/10 = 1.17 and a 3-sample sparkline
        assert "1.17" in plan_line
        assert sum(plan_line.count(c) for c in "▁▂▃▄▅▆▇█") == 3

    def test_panel_omitted_without_workload(self):
        assert "-- plans" not in render_dashboard({"metrics": []})

    def test_panel_empty_placeholder(self):
        frame = self._frame(WorkloadStatsCollector().snapshot())
        assert "(no plan choices observed)" in frame
