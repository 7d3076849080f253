"""Columnar decode and the v2 row format change nothing observable.

One dataset, four deployments — columnar or scalar point decode × v2 or
v1 rows — and all seven query types plus the similarity self-join run
against each.  The library writes only v2 rows and decodes only into
columnar blocks; the v1 rows and the scalar decode come from the
test-only :class:`tests.legacy_rows.LegacyRowSerializer`.  Results must
be identical (same tids in the same order, bit-identical distances): the
columnar representation is a representation change, not a semantics
change, and v1 rows still read back exactly through every query type.
"""

from __future__ import annotations

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.model import MBR, TimeRange
from repro.model.trajectory import Trajectory
from repro.similarity.join import threshold_self_join
from tests.legacy_rows import LegacyRowSerializer

N_TRAJS = 80
SEED = 4242


def _make(dataset, **legacy):
    config = TManConfig(
        boundary=TDRIVE_SPEC.boundary,
        max_resolution=12,
        num_shards=2,
        kv_workers=2,
        split_rows=500,
    )
    tman = TMan(config)
    if legacy:
        serializer = tman.serializer
        tman.serializer = LegacyRowSerializer(
            serializer.codec, serializer.dp_epsilon, **legacy
        )
    tman.bulk_load(dataset)
    return tman


@pytest.fixture(scope="module")
def dataset():
    return tdrive_like(N_TRAJS, seed=SEED)


@pytest.fixture(scope="module")
def deployments(dataset):
    variants = {
        "columnar_v2": dict(),
        "legacy_decode_v2": dict(scalar_decode=True),
        "columnar_v1": dict(write_v1=True),
        "legacy_decode_v1": dict(scalar_decode=True, write_v1=True),
    }
    tmans = {name: _make(dataset, **kw) for name, kw in variants.items()}
    yield tmans
    for tman in tmans.values():
        tman.close()


def _queries(dataset):
    span = TDRIVE_SPEC.boundary
    mid_x = (span.x1 + span.x2) / 2
    mid_y = (span.y1 + span.y2) / 2
    window = MBR(span.x1, span.y1, mid_x, mid_y)
    probe = dataset[7]
    t0 = probe.time_range.start
    return {
        "temporal": lambda t: t.temporal_range_query(TimeRange(t0, t0 + 5400)),
        "spatial": lambda t: t.spatial_range_query(window),
        "st": lambda t: t.st_range_query(window, TimeRange(t0, t0 + 7200)),
        "idt": lambda t: t.id_temporal_query(
            probe.oid, TimeRange(t0, t0 + 3600)
        ),
        "threshold": lambda t: t.threshold_similarity_query(
            probe, 0.2, measure="frechet"
        ),
        "topk": lambda t: t.top_k_similarity_query(probe, 5, measure="frechet"),
        "knn": lambda t: t.knn_point_query(mid_x, mid_y, 5),
    }


QUERY_NAMES = ["temporal", "spatial", "st", "idt", "threshold", "topk", "knn"]
VARIANTS = ["legacy_decode_v2", "columnar_v1", "legacy_decode_v1"]


@pytest.mark.parametrize("qname", QUERY_NAMES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_is_order_identical(deployments, dataset, qname, variant):
    run = _queries(dataset)[qname]
    base = run(deployments["columnar_v2"])
    other = run(deployments[variant])
    assert [t.tid for t in base.trajectories] == [
        t.tid for t in other.trajectories
    ]
    # Distances must be bit-identical, not merely approximately equal:
    # both decode paths produce the same dequantized floats and both
    # kernel generations compute the same per-cell float operations.
    if base.distances is not None:
        assert base.distances == other.distances


@pytest.mark.parametrize("qname", QUERY_NAMES)
def test_results_are_nonempty(deployments, dataset, qname):
    # Guard against the equivalence above passing vacuously.
    res = _queries(dataset)[qname](deployments["columnar_v2"])
    assert len(res.trajectories) > 0


@pytest.mark.parametrize("measure", ["frechet", "dtw", "hausdorff"])
def test_self_join_identical_for_block_and_list_inputs(dataset, measure):
    subset = dataset[:30]
    as_lists = [Trajectory(t.oid, t.tid, list(t.points)) for t in subset]
    # DTW sums per-point distances, so its qualifying threshold is far
    # larger than the max-style measures'.
    threshold = 30.0 if measure == "dtw" else 0.25
    joined_blocks = threshold_self_join(subset, threshold, measure=measure)
    joined_lists = threshold_self_join(as_lists, threshold, measure=measure)
    assert joined_blocks == joined_lists
    assert len(joined_blocks) > 0


def test_stored_points_identical_across_matrix(deployments, dataset):
    # The decoded geometry itself (not just query verdicts) must agree.
    probe = dataset[3]
    t0 = probe.time_range.start
    results = {
        name: t.id_temporal_query(probe.oid, TimeRange(t0, t0 + 1800))
        for name, t in deployments.items()
    }
    base = results["columnar_v2"].trajectories
    assert base
    for name, res in results.items():
        for got, want in zip(res.trajectories, base):
            assert got.tid == want.tid
            assert list(got.points) == list(want.points)
