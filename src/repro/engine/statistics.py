"""Per-relation runtime statistics mined from the session's access logs.

The observability surface of a session: what each relation has cost so
far.  The inputs are observables the engine already produces as a side
effect of running queries: every counted access is an
:class:`~repro.sources.access.AccessRecord` in the execution's
:class:`~repro.sources.log.AccessLog`, every deduplicated access is a hit
on a session :class:`~repro.sources.cache.MetaCache`, and every retry is
accounted in the run's :class:`~repro.sources.resilience.RetryStats`.
:class:`StatisticsCollector` folds those streams into one
:class:`RelationStatistics` per relation — rows returned per access
(fanout), observed fanout per bound-position pattern, empty-access rate,
meta-hit counts, and retry-stretched per-access latency — and lives on the
:class:`~repro.engine.engine.EngineSession`, so the statistics accumulate
across the queries of a session.  They are *read* by
``session.stats()["relations"]``, the server's ``/metrics`` and
``python -m repro workload``; nothing in the engine plans with them
(``optimizer="cost"`` decides with the exact pending-binding counts of the
run itself, see :class:`repro.runtime.policy.OrderedFastFail`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sources.cache import MetaCache
    from repro.sources.log import AccessLog
    from repro.sources.resilience import RetryStats
    from repro.sources.wrapper import SourceRegistry


@dataclass
class RelationStatistics:
    """Aggregated observables of one relation.

    Attributes:
        relation: the relation name.
        accesses: counted source accesses observed.
        rows: total rows returned across those accesses.
        empty_accesses: accesses that returned no rows.
        max_rows: largest single-access result observed.
        latency: total simulated latency charged, stretched by the run's
            retry factor (a relation behind a flaky source is priced by
            what its accesses really cost, attempts included).
        meta_hits: accesses answered by the session meta-cache instead of
            the source.
        fanout_by_arity: ``{bound-position count: (accesses, rows)}`` —
            the observed fanout split by how many input positions the
            binding bound (free accesses retrieve whole extensions and
            would otherwise skew the per-binding fanout).
    """

    relation: str
    accesses: int = 0
    rows: int = 0
    empty_accesses: int = 0
    max_rows: int = 0
    latency: float = 0.0
    meta_hits: int = 0
    fanout_by_arity: Dict[int, tuple] = field(default_factory=dict)

    @property
    def rows_per_access(self) -> float:
        """Observed mean fanout: rows returned per counted access."""
        return (self.rows / self.accesses) if self.accesses else 0.0

    @property
    def empty_rate(self) -> float:
        """Fraction of accesses that returned no rows (observed selectivity)."""
        return (self.empty_accesses / self.accesses) if self.accesses else 0.0

    @property
    def avg_latency(self) -> float:
        """Mean retry-stretched simulated latency per access."""
        return (self.latency / self.accesses) if self.accesses else 0.0

    def fanout(self, bound_arity: Optional[int] = None) -> float:
        """Observed fanout, optionally restricted to one binding arity."""
        if bound_arity is None:
            return self.rows_per_access
        accesses, rows = self.fanout_by_arity.get(bound_arity, (0, 0))
        return (rows / accesses) if accesses else self.rows_per_access

    def to_dict(self) -> Dict[str, object]:
        return {
            "accesses": self.accesses,
            "rows": self.rows,
            "rows_per_access": round(self.rows_per_access, 4),
            "empty_rate": round(self.empty_rate, 4),
            "max_rows": self.max_rows,
            "avg_latency": round(self.avg_latency, 6),
            "meta_hits": self.meta_hits,
            "fanout_by_arity": {
                str(arity): round(rows / accesses, 4) if accesses else 0.0
                for arity, (accesses, rows) in sorted(self.fanout_by_arity.items())
            },
        }


class StatisticsCollector:
    """Thread-safe accumulator of :class:`RelationStatistics`.

    One collector lives on each :class:`~repro.engine.engine.EngineSession`;
    concurrently finishing queries fold their logs in under the collector's
    own lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._relations: Dict[str, RelationStatistics] = {}
        #: Per-relation hit counts inherited from a persistent cache store
        #: (accumulated by previous processes); added on top of the live
        #: meta-cache counters by :meth:`sync_meta_hits`.
        self._hit_base: Dict[str, int] = {}
        #: Execution logs folded in so far.
        self.observations = 0

    def _stats_locked(self, relation: str) -> RelationStatistics:
        stats = self._relations.get(relation)
        if stats is None:
            stats = RelationStatistics(relation=relation)
            self._relations[relation] = stats
        return stats

    def observe_log(
        self,
        log: "AccessLog",
        registry: Optional["SourceRegistry"] = None,
        default_latency: float = 0.0,
        retry_stats: Optional["RetryStats"] = None,
    ) -> None:
        """Fold one execution's access log into the per-relation statistics,
        from the log's own per-relation totals — the records are not walked
        again.

        ``retry_stats`` stretches the charged latencies by the run's mean
        attempts-per-counted-access ratio: retries are not individually
        attributable to relations, so the stretch is applied uniformly —
        a deliberate approximation that still makes flaky runs price their
        accesses above the nominal wrapper latency.
        """
        totals = log.totals()
        if not totals:
            return
        stretch = 1.0
        if retry_stats is not None and retry_stats.attempts > log.total_accesses:
            stretch = retry_stats.attempts / log.total_accesses
        with self._lock:
            self.observations += 1
            for relation, observed in totals.items():
                stats = self._stats_locked(relation)
                stats.accesses += observed.accesses
                stats.rows += observed.returned
                stats.empty_accesses += observed.empty
                stats.max_rows = max(stats.max_rows, observed.largest)
                for arity, (accesses, rows) in observed.by_arity.items():
                    known = stats.fanout_by_arity.get(arity, (0, 0))
                    stats.fanout_by_arity[arity] = (known[0] + accesses, known[1] + rows)
                latency = (
                    registry.latency_of(relation, default_latency)
                    if registry is not None
                    else default_latency
                )
                stats.latency += observed.accesses * latency * stretch

    def preload_store_hits(self, counters: Dict[str, int]) -> None:
        """Seed hit counters persisted by previous processes' cache store.

        A persistent store survives restarts; the hits it accumulated before
        this process started become the base the live meta-cache counters
        are added to, so ``meta_hits`` keeps counting across restarts.
        """
        with self._lock:
            for relation, hits in counters.items():
                if hits:
                    self._hit_base[relation] = self._hit_base.get(relation, 0) + hits
                    stats = self._stats_locked(relation)
                    stats.meta_hits = self._hit_base[relation]

    def sync_meta_hits(self, meta: Dict[str, "MetaCache"]) -> None:
        """Mirror the session meta-caches' cumulative hit counters.

        Counters inherited from a persistent store (see
        :meth:`preload_store_hits`) stay included as a base.
        """
        with self._lock:
            relations, hit_base = self._relations, self._hit_base
            for relation, cache in meta.items():
                stats = relations.get(relation) or self._stats_locked(relation)
                stats.meta_hits = hit_base.get(relation, 0) + cache.hits

    def get(self, relation: str) -> Optional[RelationStatistics]:
        """The statistics of one relation (None when never observed)."""
        with self._lock:
            return self._relations.get(relation)

    def relations(self) -> Dict[str, RelationStatistics]:
        """A snapshot of the per-relation statistics, sorted by relation."""
        with self._lock:
            return {name: self._relations[name] for name in sorted(self._relations)}

    def per_relation_summary(self) -> Dict[str, Dict[str, object]]:
        """JSON-friendly per-relation view (used by ``stats()`` and the CLI)."""
        return {name: stats.to_dict() for name, stats in self.relations().items()}

    def reset(self) -> None:
        with self._lock:
            self._relations.clear()
            self._hit_base.clear()
            self.observations = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatisticsCollector({len(self._relations)} relations, {self.observations} logs)"
