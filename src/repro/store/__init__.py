"""Content-addressed persistent result store (see :mod:`repro.store.store`).

The durable, shareable successor of the per-run flat JSON cache: sharded
content-addressed entries under ``objects/``, atomic lock-free writes, a
versioned on-disk schema with an explicit migrate/reject path, embedded
provenance manifests and generation-guarded temp-file hygiene.  The
sweep runner reads and writes through it, so every execution path —
sweeps, figure 7, resilience, workloads — shares one store.  Replaying
entries bit-for-bit (``hexamesh store verify``) needs the simulator and
lives in :mod:`repro.core.verify`; this package imports nothing above it.
"""

from repro.store.store import (
    KEY_SCHEMA,
    LEGACY_FLAT_SCHEMA,
    STORE_SCHEMA,
    ResultStore,
    StoreCounters,
    StoreEntry,
    StoreGCResult,
    StoreSchemaError,
    StoreStats,
    is_result_key,
    result_key,
)

__all__ = [
    "KEY_SCHEMA",
    "LEGACY_FLAT_SCHEMA",
    "STORE_SCHEMA",
    "ResultStore",
    "StoreCounters",
    "StoreEntry",
    "StoreGCResult",
    "StoreSchemaError",
    "StoreStats",
    "is_result_key",
    "result_key",
]
