"""An embedded, range-partitioned key-value store with push-down filters.

This package is the reproduction's stand-in for HBase: byte-ordered keys,
LSM-tree storage (memtable + immutable SSTables + compaction), range
*regions* hosted on region servers, ordered scans with start/stop keys,
server-side (push-down) filters, and detailed I/O accounting.  Everything the
paper's experiments measure — rows retrieved, ranges scanned, data
transferred — is surfaced through :class:`~repro.kvstore.stats.IOStats`.
"""

from repro.kvstore.cluster import Cluster
from repro.kvstore.durable import DurableLSMStore
from repro.kvstore.errors import (
    KVError,
    RegionError,
    RetryExhaustedError,
    TableExistsError,
    TableNotFoundError,
    TransientError,
    TransientIOError,
    TransientRPCError,
)
from repro.kvstore.filters import Filter, FilterChain, PrefixFilter, TrueFilter
from repro.kvstore.lsm import LSMStore
from repro.kvstore.retry import CircuitBreaker, RetryPolicy
from repro.kvstore.scan import Scan
from repro.kvstore.simfault import FaultConfig, FaultInjector, fault_injection
from repro.kvstore.snapshot import load_cluster, save_cluster
from repro.kvstore.stats import ExecutionTrace, IOStats, StageStats
from repro.kvstore.table import Table

__all__ = [
    "Cluster",
    "Table",
    "Scan",
    "LSMStore",
    "DurableLSMStore",
    "save_cluster",
    "load_cluster",
    "Filter",
    "FilterChain",
    "TrueFilter",
    "PrefixFilter",
    "IOStats",
    "ExecutionTrace",
    "StageStats",
    "RetryPolicy",
    "CircuitBreaker",
    "FaultConfig",
    "FaultInjector",
    "fault_injection",
    "KVError",
    "TableNotFoundError",
    "TableExistsError",
    "RegionError",
    "TransientError",
    "TransientRPCError",
    "TransientIOError",
    "RetryExhaustedError",
]
