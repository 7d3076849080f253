"""Golden row bytes pin both row layouts.

``fixtures/golden_rows.json`` holds the rows the library wrote for a
seeded ``tdrive_like`` sample while it still had a v1 writer: each
trajectory as a v1 row and as a v2 row (default ``simple8b`` codec,
``dp_epsilon=0.002``, the TR value of a default ``TRIndex``).  The
current writer must reproduce the v2 rows byte for byte, the reader must
decode the v1 rows to the same trajectories, and the test-only v1 writer
other tests use must reproduce the v1 rows.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.temporal import TRIndex
from repro.datasets import tdrive_like
from repro.storage.serializer import RowSerializer
from tests.legacy_rows import LegacyRowSerializer

FIXTURE = Path(__file__).parent / "fixtures" / "golden_rows.json"


@pytest.fixture(scope="module")
def golden():
    doc = json.loads(FIXTURE.read_text())
    ds = doc["dataset"]
    sample = tdrive_like(ds["n"], seed=ds["seed"], max_points=ds["max_points"])
    rows = [
        (r, bytes.fromhex(r["v1"]), bytes.fromhex(r["v2"])) for r in doc["rows"]
    ]
    return sample, rows


def test_fixture_matches_its_sample(golden):
    sample, rows = golden
    assert len(sample) == len(rows)
    tr_index = TRIndex(1800.0, 48, 0.0)
    for traj, (meta, _, _) in zip(sample, rows):
        assert (meta["oid"], meta["tid"], meta["points"]) == (
            traj.oid, traj.tid, len(traj)
        )
        assert meta["tr_value"] == tr_index.index_time_range(traj.time_range)


def test_v2_writer_is_byte_identical(golden):
    sample, rows = golden
    writer = RowSerializer()
    for traj, (meta, _, v2) in zip(sample, rows):
        assert writer.encode(traj, meta["tr_value"]) == v2


def test_test_only_v1_writer_is_byte_identical(golden):
    sample, rows = golden
    writer = LegacyRowSerializer(write_v1=True)
    for traj, (meta, v1, _) in zip(sample, rows):
        assert writer.encode(traj, meta["tr_value"]) == v1


def test_v1_rows_decode_to_the_sample(golden):
    sample, rows = golden
    reader = RowSerializer()
    for traj, (meta, v1, v2) in zip(sample, rows):
        header = reader.decode_header(v1)
        assert header.version == 1
        assert (header.oid, header.tid, header.tr_value) == (
            traj.oid, traj.tid, meta["tr_value"]
        )
        assert header.time_range == traj.time_range
        assert header.mbr == traj.mbr
        old, new = reader.decode(v1), reader.decode(v2)
        # The point blob is the same codec either way: bit-identical points,
        # within the codec's quantization of the original fixes.
        assert list(old.trajectory.points) == list(new.trajectory.points)
        assert list(reader.decode_points(v1)) == list(old.trajectory.points)
        assert list(reader.decode_trajectory(v1).trajectory.points) == list(
            old.trajectory.points
        )
        for got, want in zip(old.trajectory.points, traj.points):
            assert got.t == pytest.approx(want.t, abs=1e-3)
            assert got.lng == pytest.approx(want.lng, abs=1e-6)
            assert got.lat == pytest.approx(want.lat, abs=1e-6)
        # v1 features are raw float64: the reps are the sample's own fixes.
        feature = reader.decode_feature(v1)
        assert feature == old.feature
        assert [traj.points[i] for i in feature.rep_indexes] == list(
            feature.rep_points
        )
        assert feature.rep_indexes == new.feature.rep_indexes


def test_v2_rows_are_smaller_than_v1(golden):
    _, rows = golden
    assert sum(len(v2) for _, _, v2 in rows) < sum(len(v1) for _, v1, _ in rows)
