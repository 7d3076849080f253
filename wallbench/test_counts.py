"""Thread-mode layer counts repeat exactly across two runs at one seed.

A later change may rest a claim on a count (scan windows, TShape ranges,
rows decoded, rows scanned per result, stored bytes) only if the count is
deterministic; this test pins that.  Run from the root of a checkout::

    python3 -m pytest wallbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS, Bench  # noqa: E402


def _counts(workload: str, out_dir: Path):
    bench = Bench(
        WORKLOADS[workload], seed=5, seconds=0.0, trace=True, out_dir=out_dir,
        setups=1, max_cycles=6,
    )
    try:
        bench.setup()
        bench.loop()
        sizes = bench.sizes()
    finally:
        bench.teardown()
    assert not bench.errors
    per_op = [
        (
            o.kind,
            o.results,
            o.candidates,
            o.plan,
            o.io,
            sorted((name, rec[1], rec[2]) for name, rec in o.layers.items()),
        )
        for o in bench.ops
        if o.traced
    ]
    assert any(kind != "load" for kind, *_ in per_op)
    return per_op, sizes["stored_bytes"], sizes["points"]


@pytest.mark.parametrize("workload", ["temporal", "spatial"])
def test_thread_mode_counts_repeat(workload: str, tmp_path: Path) -> None:
    assert _counts(workload, tmp_path / "a") == _counts(workload, tmp_path / "b")
