"""Tests for the I/O cost model: pricing, fitting, and pinned plans."""

import json
import random
from pathlib import Path

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.kvstore.stats import StatsSnapshot
from repro.model import MBR, TimeRange
from repro.query.cost import (
    HBASE_COSTS,
    MIN_CALIBRATION_SAMPLES,
    PLANNER_COSTS,
    CostModel,
    calibrate,
)
from repro.query.types import (
    IDTemporalQuery,
    KNNPointQuery,
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
    ThresholdSimilarityQuery,
    TopKSimilarityQuery,
)

GOLDEN_PLANS = Path(__file__).parent / "fixtures" / "golden_plans.json"


def synth_profiles(n, seq=0.01, get=0.05, win=0.2, dec=0.004):
    """Synthetic ledgers following elapsed = seq*R + get*G + win*W + dec*D."""
    out = []
    for i in range(n):
        scanned = 100 + 37 * i
        gets = (i * 13) % 90
        scans = 1 + i % 7
        decodes = (i * 29) % 50
        out.append(
            {
                "rows_scanned": scanned,
                "point_gets": gets,
                "range_scans": scans,
                "decode_rows": decodes,
                "elapsed_ms": seq * scanned + get * gets + win * scans + dec * decodes,
            }
        )
    return out


class TestCostConstants:
    def test_linear_combination(self):
        c = CostModel(rows_scanned=1.0, point_gets=4.0, range_scans=8.0, decode_rows=0.5)
        assert c.cost(
            rows_scanned=10, range_scans=2, point_gets=3, decode_rows=4
        ) == pytest.approx(10 + 16 + 12 + 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(rows_scanned=-1.0)
        with pytest.raises(ValueError):
            CostModel(point_gets=-1.0)

    def test_rpc_charged_once_for_any_store_access(self):
        c = CostModel(rows_scanned=1.0, rpc=5.0)
        assert c.cost() == 0.0
        assert c.cost(rows_scanned=3) == 3.0  # no scan or get opened
        assert c.cost(rows_scanned=3, range_scans=4) == 8.0
        assert c.cost(point_gets=2) == 5.0

    def test_hbase_prices_match_the_millisecond_formula(self):
        # simulated_ms is priced exactly as the HBase-like latency model
        # documents it: seek + per-row scan/transfer + bandwidth + RPC.
        rng = random.Random(5)
        for _ in range(200):
            snap = StatsSnapshot(
                rows_scanned=rng.randrange(10**6),
                rows_returned=rng.randrange(10**5),
                range_scans=rng.randrange(5000),
                bytes_transferred=rng.randrange(10**9),
                point_gets=rng.randrange(3),
            )
            want = (
                snap.range_scans * 8.0
                + snap.rows_scanned * 4.0 / 1000
                + snap.rows_returned * 20.0 / 1000
                + snap.bytes_transferred / (200.0 * 1_000_000) * 1000
                + (1.0 if (snap.range_scans or snap.point_gets) else 0.0)
            )
            assert HBASE_COSTS.simulate_ms(snap) == pytest.approx(want, rel=1e-9, abs=0)
        assert HBASE_COSTS.simulate_ms(StatsSnapshot()) == 0.0

    def test_planner_defaults(self):
        assert PLANNER_COSTS == CostModel(
            rows_scanned=1.0, range_scans=8.0, point_gets=4.0, decode_rows=0.5
        )


class TestCalibrate:
    def test_recovers_planted_constants(self):
        fitted = calibrate(synth_profiles(32))
        # Normalized to rows_scanned == 1: point_gets = 0.05/0.01 etc.
        assert isinstance(fitted, CostModel)
        assert fitted.rows_scanned == 1.0
        assert fitted.point_gets == pytest.approx(5.0, rel=1e-3)
        assert fitted.range_scans == pytest.approx(20.0, rel=1e-3)
        assert fitted.decode_rows == pytest.approx(0.4, rel=1e-3)

    def test_too_few_samples_keeps_defaults(self):
        defaults = PLANNER_COSTS
        assert calibrate(synth_profiles(MIN_CALIBRATION_SAMPLES - 1), defaults) is defaults

    def test_unused_column_keeps_default(self):
        # A workload that never resolved through point gets can't calibrate
        # the point_gets price; the default must survive.
        profiles = synth_profiles(32, get=0.0)
        for p in profiles:
            p["point_gets"] = 0
        fitted = calibrate(profiles)
        assert fitted.point_gets == PLANNER_COSTS.point_gets
        assert fitted.range_scans == pytest.approx(20.0, rel=1e-3)

    def test_accepts_profile_objects(self):
        class Ledger:
            def __init__(self, d):
                self.__dict__.update(d)

        fitted = calibrate([Ledger(d) for d in synth_profiles(16)])
        assert fitted.point_gets == pytest.approx(5.0, rel=1e-3)

    def test_degenerate_latencies_keep_defaults(self):
        profiles = [
            {"rows_scanned": 10, "elapsed_ms": 0.0} for _ in range(32)
        ]
        defaults = PLANNER_COSTS
        assert calibrate(profiles, defaults) is defaults


class TestGoldenPlans:
    """Plans, plan costs and simulated_ms of a seeded deployment, pinned.

    ``fixtures/golden_plans.json`` was captured while the planner and the
    simulated-latency model were still two separate cost classes; the
    single :class:`CostModel` must reproduce both.
    """

    @pytest.fixture(scope="class")
    def deployment(self):
        data = tdrive_like(150, seed=77)
        config = TManConfig(
            boundary=TDRIVE_SPEC.boundary,
            max_resolution=12,
            num_shards=2,
            kv_workers=2,
            split_rows=500,
            secondary_indexes=("tr", "idt", "interval"),
        )
        probe = data[11]
        t0 = probe.time_range.start
        pm = probe.mbr
        win = MBR(pm.x1 - 0.01, pm.y1 - 0.01, pm.x1 + 0.03, pm.y1 + 0.03)
        queries = {
            "temporal": TemporalRangeQuery(TimeRange(t0, t0 + 3600)),
            "spatial": SpatialRangeQuery(win),
            "st": STRangeQuery(win, TimeRange(t0, t0 + 7200)),
            "idt": IDTemporalQuery(probe.oid, TimeRange(t0 - 86400, t0 + 86400)),
            "threshold": ThresholdSimilarityQuery(probe, 0.2, "frechet"),
            "topk": TopKSimilarityQuery(probe, 5, "frechet"),
            "knn": KNNPointQuery(pm.x1, pm.y1, 5),
        }
        with TMan(config) as tman:
            tman.bulk_load(data)
            tman.flush()
            yield tman, queries

    @pytest.mark.parametrize(
        "qname", ["temporal", "spatial", "st", "idt", "threshold", "topk", "knn"]
    )
    def test_plans_costs_and_simulated_ms(self, deployment, qname):
        tman, queries = deployment
        want = json.loads(GOLDEN_PLANS.read_text())[qname]
        res = tman.query(queries[qname])
        got_plans = tman.explain_plans(queries[qname])
        assert [(p["index"], p["route"], p["chosen"]) for p in got_plans] == [
            (p["index"], p["route"], p["chosen"]) for p in want["plans"]
        ]
        for got, exp in zip(got_plans, want["plans"]):
            assert got["cost"] == pytest.approx(exp["cost"], rel=1e-12, abs=0)
            assert got["est_rows"] == pytest.approx(exp["est_rows"], rel=1e-12, abs=0)
        assert res.plan == want["chosen"]
        assert [t.tid for t in res.trajectories] == want["tids"]
        assert res.simulated_ms == pytest.approx(want["simulated_ms"], rel=1e-9, abs=0)
