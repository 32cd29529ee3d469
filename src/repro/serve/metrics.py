"""The serving front end's observability surface.

Everything ``GET /metrics`` reports lives here: request/status counters,
admission rejection counters, bounded-memory latency histograms with
quantile estimates, folded resilience accounting, per-tenant usage, the
cyclic collector's per-generation counters, and a per-relation
:class:`SourceHealthBoard`.

The health board deserves a note.  The engine's circuit breakers
(:class:`repro.sources.resilience.CircuitBreaker`) are *per run*: each
execution prices time on its own clock, so a breaker cannot meaningfully
outlive the run that tripped it.  A serving process still wants a
cross-run view of which sources are currently failing, so the board folds
each :class:`~repro.engine.result.Result`'s ``failed_relations`` and
``retry_stats`` into wall-clock per-relation states — ``closed`` (healthy),
``degraded`` (recent failures), ``open`` (failing consecutively) — which is
what the ``/metrics`` ``sources`` section exposes.
"""

from __future__ import annotations

import bisect
import gc
import threading
from typing import Dict, List, Optional, Tuple

#: Histogram bucket upper bounds in seconds: 50µs .. ~105s, ×2 per bucket
#: (a warm point query is served in a few hundred microseconds).
_BUCKET_BOUNDS: Tuple[float, ...] = tuple(0.00005 * (2**i) for i in range(22))

#: Consecutive failed runs after which a source's serve-level state opens.
OPEN_AFTER = 3


class LatencyHistogram:
    """Fixed-bucket latency histogram with quantile estimates.

    Memory is O(#buckets) regardless of traffic, so the server can keep one
    per endpoint forever.  Quantiles are read as the upper bound of the
    bucket holding the requested rank — an overestimate by at most one
    bucket width, which is the standard trade for bounded memory.
    """

    def __init__(self) -> None:
        self.counts = [0] * (len(_BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        self.counts[bisect.bisect_left(_BUCKET_BOUNDS, seconds)] += 1
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def quantile(self, q: float) -> float:
        if not self.count:
            return 0.0
        rank = max(1, int(q * self.count + 0.999999))
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                if index < len(_BUCKET_BOUNDS):
                    return min(_BUCKET_BOUNDS[index], self.max)
                return self.max
        return self.max

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "mean_seconds": round(self.total / self.count, 6) if self.count else 0.0,
            "max_seconds": round(self.max, 6),
            "p50": round(self.quantile(0.50), 6),
            "p95": round(self.quantile(0.95), 6),
            "p99": round(self.quantile(0.99), 6),
        }


class SourceHealthBoard:
    """Cross-run, wall-clock per-relation health derived from results."""

    def __init__(self, open_after: int = OPEN_AFTER) -> None:
        self.open_after = open_after
        self._lock = threading.Lock()
        self._relations: Dict[str, Dict[str, int]] = {}

    def _entry(self, relation: str) -> Dict[str, int]:
        return self._relations.setdefault(
            relation, {"failed_runs": 0, "ok_runs": 0, "consecutive_failures": 0}
        )

    def record(self, accessed: List[str], failed: Tuple[str, ...]) -> None:
        """Fold one execution: which relations it touched, which failed."""
        failed_set = set(failed)
        with self._lock:
            for relation in failed_set:
                entry = self._entry(relation)
                entry["failed_runs"] += 1
                entry["consecutive_failures"] += 1
            for relation in accessed:
                if relation in failed_set:
                    continue
                entry = self._entry(relation)
                entry["ok_runs"] += 1
                entry["consecutive_failures"] = 0

    def state_of(self, entry: Dict[str, int]) -> str:
        if entry["consecutive_failures"] >= self.open_after:
            return "open"
        if entry["consecutive_failures"] > 0:
            return "degraded"
        return "closed"

    def to_dict(self) -> Dict[str, object]:
        with self._lock:
            return {
                relation: {**entry, "state": self.state_of(entry)}
                for relation, entry in sorted(self._relations.items())
            }


class ServerMetrics:
    """Every counter the server keeps, behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests: Dict[str, Dict[str, int]] = {}
        self.rejections = {"admission": 0, "rate_limit": 0, "budget": 0, "draining": 0}
        self.latency: Dict[str, LatencyHistogram] = {}
        self.results = {
            "completed": 0,
            "degraded": 0,
            "total_accesses": 0,
            "answers": 0,
        }
        self.retry = {
            "attempts": 0,
            "retries": 0,
            "failures": 0,
            "transient_faults": 0,
            "timeouts": 0,
            "breaker_trips": 0,
            "short_circuited": 0,
        }
        self.sources = SourceHealthBoard()
        self.in_flight = 0
        self.peak_in_flight = 0

    # -- request lifecycle -------------------------------------------------
    def enter(self) -> None:
        with self._lock:
            self.in_flight += 1
            if self.in_flight > self.peak_in_flight:
                self.peak_in_flight = self.in_flight

    def leave(self) -> None:
        with self._lock:
            self.in_flight -= 1

    def observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        with self._lock:
            per_status = self.requests.setdefault(endpoint, {})
            key = str(status)
            per_status[key] = per_status.get(key, 0) + 1
            self.latency.setdefault(endpoint, LatencyHistogram()).observe(seconds)

    def observe_rejection(self, reason: str) -> None:
        with self._lock:
            self.rejections[reason] = self.rejections.get(reason, 0) + 1

    def observe_result(self, result) -> None:
        """Fold one execution's Result into the serving counters."""
        with self._lock:
            if result.complete:
                self.results["completed"] += 1
            else:
                self.results["degraded"] += 1
            self.results["total_accesses"] += result.total_accesses
            self.results["answers"] += len(result.answers)
            stats = result.retry_stats
            self.retry["attempts"] += stats.attempts
            self.retry["retries"] += stats.retries
            self.retry["failures"] += stats.failures
            self.retry["transient_faults"] += stats.transient_faults
            self.retry["timeouts"] += stats.timeouts
            self.retry["breaker_trips"] += stats.breaker_trips
            self.retry["short_circuited"] += stats.short_circuited
        self.sources.record(result.accessed_relations(), result.failed_relations)

    # -- rendering ---------------------------------------------------------
    def to_dict(
        self,
        draining: bool,
        max_concurrent: int,
        tenants: Dict[str, object],
        session_stats: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        with self._lock:
            payload: Dict[str, object] = {
                "server": {
                    "in_flight": self.in_flight,
                    "peak_in_flight": self.peak_in_flight,
                    "max_concurrent": max_concurrent,
                    "draining": draining,
                },
                "requests": {
                    endpoint: dict(sorted(statuses.items()))
                    for endpoint, statuses in sorted(self.requests.items())
                },
                "rejections": dict(self.rejections),
                "latency": {
                    endpoint: histogram.to_dict()
                    for endpoint, histogram in sorted(self.latency.items())
                },
                "results": dict(self.results),
                "retry": dict(self.retry),
                "tenants": tenants,
            }
        payload["sources"] = self.sources.to_dict()
        # The cyclic collector, per generation: a run leaves it nothing to
        # find, so ``collections`` per request says how much garbage the rest
        # of the process makes (and ``count`` how close the next pass is).
        payload["gc"] = {"generations": gc.get_stats(), "count": list(gc.get_count())}
        if session_stats is not None:
            payload["session"] = session_stats
        return payload
