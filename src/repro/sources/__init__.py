"""Source wrappers, access bookkeeping and the cache database.

This package models the data-extraction half of Figure 5 of the paper:

* :class:`~repro.sources.access.AccessTuple` — the binding with which a
  source is accessed (one value per input argument);
* :class:`~repro.sources.backend.SourceBackend` — the physical store behind
  one wrapper (in-memory instance, SQLite table, arbitrary callable);
* :class:`~repro.sources.wrapper.SourceWrapper` — wraps a source backend
  and serves accesses while counting them and charging a configurable
  latency;
* :class:`~repro.sources.wrapper.SourceRegistry` — the set of wrappers for a
  database instance;
* :class:`~repro.sources.log.AccessLog` — global record of the accesses
  performed during an execution;
* :class:`~repro.sources.cache.CacheDatabase` — the cache tables (one per
  plan cache predicate) and the per-relation meta-caches.

Fault injection (:mod:`repro.sources.faults`) and the loopback lookup
server (:mod:`repro.sources.fixture_server`) are test tooling: they are
imported from their own modules, never by ``import repro``.
"""

from repro.sources.access import AccessRecord, AccessTuple
from repro.sources.backend import (
    BACKEND_KINDS,
    CallableBackend,
    InMemoryBackend,
    SourceBackend,
    SQLiteBackend,
    build_backend,
)
from repro.sources.cache import CacheDatabase, CacheTable, MetaCache
from repro.sources.log import AccessLog
from repro.sources.resilience import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    ResilienceConfig,
    ResilienceContext,
    RetryPolicy,
    RetryStats,
    SourceFault,
    SourceTimeoutError,
    SourceUnavailableError,
    TransientSourceError,
)
from repro.sources.wrapper import SourceRegistry, SourceWrapper

__all__ = [
    "AccessLog",
    "AccessRecord",
    "AccessTuple",
    "BACKEND_KINDS",
    "BreakerConfig",
    "BreakerState",
    "CacheDatabase",
    "CacheTable",
    "CallableBackend",
    "CircuitBreaker",
    "CircuitOpenError",
    "InMemoryBackend",
    "MetaCache",
    "ResilienceConfig",
    "ResilienceContext",
    "RetryPolicy",
    "RetryStats",
    "SQLiteBackend",
    "SourceBackend",
    "SourceFault",
    "SourceRegistry",
    "SourceTimeoutError",
    "SourceUnavailableError",
    "SourceWrapper",
    "TransientSourceError",
    "build_backend",
]
