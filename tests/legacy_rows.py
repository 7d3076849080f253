"""Test-only oracles for row paths the library no longer carries.

The library writes only v2 rows and decodes point blobs only into
columnar :class:`~repro.model.pointblock.PointBlock` columns, but it must
keep reading v1 rows, and its columnar decode must agree with the scalar
per-point codec.  :class:`LegacyRowSerializer` brings back, for tests
only:

- ``write_v1`` — the v1 row writer (raw float64 DP features, point blob
  from the ``STPoint`` list).  ``tests/test_row_format_golden.py`` checks
  it byte for byte against ``tests/fixtures/golden_rows.json``, which the
  library's own v1 writer produced before it was removed;
- ``scalar_decode`` — point blobs decoded through
  :meth:`TrajectoryCodec.decode_points` into ``STPoint`` lists.

A deployment is switched over by assigning ``tman.serializer`` before
it writes any row.
"""

from __future__ import annotations

import struct

from repro.compression.varint import decode_varint, encode_varint
from repro.geometry.dp import extract_dp_feature
from repro.model.trajectory import Trajectory
from repro.storage.serializer import _HEADER, MAGIC, RowHeader, RowSerializer


class LegacyRowSerializer(RowSerializer):
    """A :class:`RowSerializer` that may write v1 and decode scalar."""

    def __init__(self, codec=None, dp_epsilon=0.002, *, write_v1=False,
                 scalar_decode=False):
        super().__init__(codec, dp_epsilon)
        self.write_v1 = write_v1
        self.scalar_decode = scalar_decode

    def encode(self, traj: Trajectory, tr_value: int) -> bytes:
        if not self.write_v1:
            return super().encode(traj, tr_value)
        out = bytearray([MAGIC, 1])
        tr = traj.time_range
        m = traj.mbr
        out += _HEADER.pack(tr.start, tr.end, m.x1, m.y1, m.x2, m.y2)
        encode_varint(tr_value, out)
        for text in (traj.oid, traj.tid):
            raw = text.encode("utf-8")
            encode_varint(len(raw), out)
            out += raw
        feature = extract_dp_feature(traj.points, self.dp_epsilon)
        encode_varint(len(feature.rep_points), out)
        for idx in feature.rep_indexes:
            encode_varint(idx, out)
        for p in feature.rep_points:
            out += struct.pack(">ddd", p.t, p.lng, p.lat)
        for box in feature.span_boxes:
            out += struct.pack(">dddd", *box.as_tuple())
        blob = self.codec.encode_points(traj.points)
        encode_varint(len(blob), out)
        out += blob
        return bytes(out)

    def _decode_trajectory_at(self, buf: bytes, pos: int, header: RowHeader) -> Trajectory:
        if not self.scalar_decode:
            return super()._decode_trajectory_at(buf, pos, header)
        blob_len, pos = decode_varint(buf, pos)
        points = self.codec.decode_points(buf[pos : pos + blob_len])
        return Trajectory(header.oid, header.tid, points)

    def decode_points(self, buf: bytes):
        if not self.scalar_decode:
            return super().decode_points(buf)
        return list(self.decode_trajectory(buf).trajectory.points)

