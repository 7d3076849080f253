"""Opt-in emulation of remote region-server RPC latency.

The kvstore is an in-process stand-in for the paper's HBase cluster,
where every region scan and point get is a network RPC.  On local
hardware those calls complete in microseconds, which hides exactly the
costs the multi-range scheduler and ``multi_get`` batching exist to
overlap.  This module injects the modeled per-call latency as real
(GIL-releasing) sleeps, so wall-clock benchmarks measure scheduling the
way :data:`~repro.query.cost.HBASE_COSTS` models it.

Disabled by default: the knob is process-global, ``None`` unless a
benchmark or test enables it, and every call site guards with one
attribute read, so production paths pay nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True)
class SimulatedRPC:
    """Per-call latencies (milliseconds) of an emulated remote kvstore.

    ``scan_ms`` is paid once per region scan (HBASE_COSTS' seek+RPC);
    ``get_ms`` once per point get *request* — a batched ``multi_get``
    pays it per region batch, which is precisely the saving it claims.
    """

    scan_ms: float = 0.0
    get_ms: float = 0.0


_model: Optional[SimulatedRPC] = None


def set_simulated_rpc(model: Optional[SimulatedRPC]) -> None:
    """Install (or with ``None`` remove) the process-wide latency model."""
    global _model
    _model = model


def simulated_rpc() -> Optional[SimulatedRPC]:
    """The active latency model, or ``None`` when emulation is off."""
    return _model


@contextmanager
def rpc_latency(model: SimulatedRPC) -> Iterator[None]:
    """Enable the model for a scope, restoring the previous one after."""
    global _model
    prior = _model
    _model = model
    try:
        yield
    finally:
        _model = prior


def scan_delay() -> None:
    """Sleep one region-scan RPC if emulation is on (else free)."""
    model = _model
    if model is not None and model.scan_ms > 0.0:
        time.sleep(model.scan_ms / 1000.0)


def get_delay() -> None:
    """Sleep one point-get RPC if emulation is on (else free)."""
    model = _model
    if model is not None and model.get_ms > 0.0:
        time.sleep(model.get_ms / 1000.0)
