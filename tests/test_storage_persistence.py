"""Tests for saving and reopening TMan deployments."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.kvstore import simfault
from repro.storage.persistence import (
    CONFIG_FILE,
    RETIRED_FIELDS,
    UNSAVED_FIELDS,
    open_tman,
    save_tman,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def dataset():
    return tdrive_like(100, seed=121)


@pytest.fixture()
def saved_dir(tmp_path, dataset):
    config = TManConfig(
        boundary=TDRIVE_SPEC.boundary, max_resolution=14, num_shards=2, kv_workers=1
    )
    with TMan(config) as tman:
        tman.bulk_load(dataset)
        save_tman(tman, tmp_path / "deploy")
    return tmp_path / "deploy"


class TestSaveOpen:
    def test_directory_layout(self, saved_dir):
        assert (saved_dir / "config.json").exists()
        assert (saved_dir / "tables.snap").exists()
        assert (saved_dir / "cache.rdb").exists()

    def test_config_restored(self, saved_dir):
        with open_tman(saved_dir) as tman:
            assert tman.config.alpha == 3
            assert tman.config.primary_index == "tshape"
            assert tman.config.boundary == TDRIVE_SPEC.boundary

    def test_row_count_and_statistics_rebuilt(self, saved_dir, dataset):
        with open_tman(saved_dir) as tman:
            assert tman.row_count == len(dataset)
            assert tman.planner.stats is not None
            assert tman.planner.stats.row_count == len(dataset)

    def test_queries_work_after_reopen(self, saved_dir, dataset):
        with open_tman(saved_dir) as tman:
            target = dataset[3]
            res = tman.spatial_range_query(target.mbr)
            assert target.tid in {t.tid for t in res.trajectories}
            res = tman.temporal_range_query(target.time_range)
            assert target.tid in {t.tid for t in res.trajectories}
            res = tman.id_temporal_query(target.oid, target.time_range)
            assert target.tid in {t.tid for t in res.trajectories}

    def test_shape_mappings_survive(self, saved_dir):
        with open_tman(saved_dir) as tman:
            elements = tman.index_cache.known_elements()
            assert elements
            mapping = tman.index_cache.get_mapping(elements[0])
            assert mapping

    def test_inserts_after_reopen(self, saved_dir):
        extra = tdrive_like(20, seed=500)
        with open_tman(saved_dir) as tman:
            before = tman.row_count
            tman.insert(extra)
            assert tman.row_count == before + 20
            res = tman.spatial_range_query(extra[0].mbr)
            assert extra[0].tid in {t.tid for t in res.trajectories}

    def test_save_reopen_save_roundtrip(self, saved_dir, tmp_path, dataset):
        with open_tman(saved_dir) as tman:
            save_tman(tman, tmp_path / "again")
        with open_tman(tmp_path / "again") as tman2:
            assert tman2.row_count == len(dataset)


# A value different from the default for every TManConfig field (all
# valid together in thread mode).  A new field fails
# test_every_field_round_trips until it is listed here.
NON_DEFAULT = dict(
    primary_index="st",
    secondary_indexes=("tr", "idt", "interval"),
    alpha=2,
    beta=4,
    max_resolution=11,
    shape_encoding="bitmap",
    use_index_cache=False,
    index_cache_capacity=128,
    tr_period_seconds=900.0,
    tr_max_periods=24,
    time_origin=60.0,
    num_shards=3,
    codec="columnar",
    dp_epsilon=0.004,
    buffer_shape_threshold=64,
    push_down=False,
    st_window_budget=1024,
    kv_workers=1,
    split_rows=1000,
    scan_batch_rows=32,
    coalesce_windows=False,
    window_parallel=False,
    window_concurrency=2,
    multi_get_batch=16,
    block_cache_bytes=1 << 20,
    retry_max_attempts=2,
    retry_base_ms=0.5,
    retry_max_ms=20.0,
    retry_deadline_ms=5000.0,
    breaker_failure_threshold=3,
    breaker_reset_s=1.0,
    fault_rate=0.01,
    fault_seed=7,
    admission_max_inflight=4,
    admission_max_queue=8,
    admission_queue_timeout_ms=500.0,
    memtable_soft_bytes=1 << 22,
    memtable_hard_bytes=1 << 23,
    write_stall_timeout_ms=500.0,
    write_throttle_ms=0.5,
    default_deadline_ms=60_000.0,
    cluster_nodes=4,
    replication_factor=3,
    read_quorum=2,
    write_quorum=2,
    cluster_page_rows=128,
    cluster_start_method="fork",
    cluster_data_dir="/nonexistent/worker-data",
    adaptive_replan=True,
    replan_divergence_ratio=2.0,
    replan_min_candidates=16,
)


class TestConfigFields:
    def test_every_field_round_trips(self, tmp_path):
        default = TManConfig(boundary=TDRIVE_SPEC.boundary)
        # cluster_mode is saved pinned to "threads"; the process topology
        # fields are kept but inert in thread mode.
        names = {f.name for f in dataclasses.fields(TManConfig)}
        assert set(NON_DEFAULT) == names - {"boundary", "cluster_mode"}
        for name, value in NON_DEFAULT.items():
            assert value != getattr(default, name), name
        config = TManConfig(boundary=TDRIVE_SPEC.boundary, **NON_DEFAULT)
        # A scoped no-op injector keeps the config's fault_rate from
        # installing a process-wide one.
        with simfault.fault_injection(simfault.FaultConfig()):
            with TMan(config) as tman:
                tman.bulk_load(tdrive_like(5, seed=3))
                save_tman(tman, tmp_path / "deploy")
            with open_tman(tmp_path / "deploy") as reopened:
                restored = reopened.config
        assert UNSAVED_FIELDS == ("cluster_data_dir",)
        assert restored == dataclasses.replace(config, cluster_data_dir=None)

    def test_opens_config_with_retired_knobs(self, tmp_path):
        # config.json as written before row_format_version/columnar_decode
        # were removed; its deployment: tdrive_like(12, seed=5), 1 shard.
        doc = json.loads((FIXTURES / "config_with_retired_knobs.json").read_text())
        assert set(RETIRED_FIELDS) <= set(doc)
        config = TManConfig(
            boundary=TDRIVE_SPEC.boundary, max_resolution=10, num_shards=1, kv_workers=1
        )
        data = tdrive_like(12, seed=5)
        with TMan(config) as tman:
            tman.bulk_load(data)
            save_tman(tman, tmp_path / "deploy")
        (tmp_path / "deploy" / CONFIG_FILE).write_text(json.dumps(doc))
        with open_tman(tmp_path / "deploy") as tman:
            assert tman.config == config
            assert tman.row_count == 12
            res = tman.id_temporal_query(data[4].oid, data[4].time_range)
            assert data[4].tid in {t.tid for t in res.trajectories}

    def test_unknown_key_is_rejected(self, saved_dir):
        path = saved_dir / CONFIG_FILE
        doc = json.loads(path.read_text())
        doc["turbo_mode"] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="turbo_mode"):
            open_tman(saved_dir)
