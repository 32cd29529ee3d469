"""Admission control: concurrency bounds, rate limits, tenant budgets.

A request is admitted only when all three gates pass, checked cheapest
first:

1. **Tenant access budget** — each tenant may consume at most
   ``tenant_budget`` source accesses over the server's lifetime.  Budgets
   are enforced at admission and accounted after execution from
   ``Result.total_accesses`` (a cache-served answer costs zero), so one
   in-flight query can overshoot by its own access count — the standard
   admission-time trade; the overshoot is bounded by the engine's
   per-query ``max_accesses``.
2. **Tenant token bucket** — sustained request rate ``tenant_rate`` with
   burst capacity ``tenant_burst``; a request gate 3 refuses gets its token
   back, so only admitted requests spend the tenant's rate.
3. **Server concurrency** — at most ``max_concurrent`` queries executing
   at once, globally.

A failed gate yields a :class:`Rejection` carrying the HTTP reason and a
``Retry-After`` hint; the server turns it into a 429 (or 503 while
draining) without touching the engine.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional


@dataclass
class Rejection:
    """Why admission said no; maps onto one 429 response."""

    reason: str  # 'admission' | 'rate_limit' | 'budget'
    retry_after: Optional[float]  # seconds hint, None when retrying won't help
    detail: str


class TokenBucket:
    """The classic token bucket on a monotonic clock."""

    def __init__(
        self, rate: float, burst: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.rate = rate
        self.burst = burst
        self.clock = clock
        self.tokens = burst
        self.updated = clock()

    def try_take(self) -> Optional[float]:
        """Take one token; None on success, else seconds until one exists."""
        now = self.clock()
        self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return None
        if self.rate <= 0:
            return None if self.burst >= 1.0 else float("inf")
        return (1.0 - self.tokens) / self.rate

    def refund(self) -> None:
        """Give back a token taken for a request that did not run."""
        self.tokens = min(self.burst, self.tokens + 1.0)


@dataclass
class TenantState:
    """Lifetime accounting for one tenant."""

    bucket: Optional[TokenBucket]
    accesses_used: int = 0
    admitted: int = 0
    rejected: int = 0
    queries: int = 0
    degraded: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class AdmissionController:
    """The three admission gates plus per-tenant accounting.

    Thread-safe: the server's event loop is single-threaded, but metrics
    are also read from test threads and the in-process handle.
    """

    def __init__(
        self,
        max_concurrent: int = 16,
        tenant_rate: Optional[float] = None,
        tenant_burst: Optional[float] = None,
        tenant_budget: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.max_concurrent = max_concurrent
        self.tenant_rate = tenant_rate
        self.tenant_burst = tenant_burst if tenant_burst is not None else (
            max(1.0, tenant_rate) if tenant_rate else None
        )
        self.tenant_budget = tenant_budget
        self.clock = clock
        self._lock = threading.Lock()
        self._tenants: Dict[str, TenantState] = {}
        self.executing = 0

    def _tenant(self, name: str) -> TenantState:
        with self._lock:
            state = self._tenants.get(name)
            if state is None:
                bucket = None
                if self.tenant_rate is not None:
                    bucket = TokenBucket(
                        self.tenant_rate, self.tenant_burst or 1.0, clock=self.clock
                    )
                state = TenantState(bucket=bucket)
                self._tenants[name] = state
            return state

    # -- the gates ---------------------------------------------------------
    def admit(self, tenant_name: str) -> Optional[Rejection]:
        """Pass all gates or explain the refusal.  Admission counts the
        query as executing; callers must pair with :meth:`release`."""
        tenant = self._tenant(tenant_name)
        with tenant.lock:
            if (
                self.tenant_budget is not None
                and tenant.accesses_used >= self.tenant_budget
            ):
                tenant.rejected += 1
                return Rejection(
                    reason="budget",
                    retry_after=None,
                    detail=(
                        f"tenant {tenant_name!r} has used {tenant.accesses_used} of "
                        f"its {self.tenant_budget}-access budget"
                    ),
                )
            if tenant.bucket is not None:
                wait = tenant.bucket.try_take()
                if wait is not None:
                    tenant.rejected += 1
                    return Rejection(
                        reason="rate_limit",
                        retry_after=round(max(wait, 0.001), 3),
                        detail=f"tenant {tenant_name!r} exceeded {self.tenant_rate}/s",
                    )
        with self._lock:
            if self.executing >= self.max_concurrent:
                with tenant.lock:
                    tenant.rejected += 1
                    # The request never runs, so its rate token is returned:
                    # only admitted requests count against the tenant's rate.
                    if tenant.bucket is not None:
                        tenant.bucket.refund()
                return Rejection(
                    reason="admission",
                    retry_after=0.05,
                    detail=(
                        f"{self.executing} queries in flight (limit "
                        f"{self.max_concurrent})"
                    ),
                )
            self.executing += 1
        with tenant.lock:
            tenant.admitted += 1
        return None

    def release(self, tenant_name: str, result=None) -> None:
        """Return the concurrency slot and bill the tenant for the run."""
        with self._lock:
            self.executing -= 1
        tenant = self._tenant(tenant_name)
        with tenant.lock:
            tenant.queries += 1
            if result is not None:
                tenant.accesses_used += result.total_accesses
                if not result.complete:
                    tenant.degraded += 1

    # -- rendering ---------------------------------------------------------
    def tenants_dict(self) -> Dict[str, object]:
        with self._lock:
            names = sorted(self._tenants)
        payload: Dict[str, object] = {}
        for name in names:
            tenant = self._tenants[name]
            with tenant.lock:
                payload[name] = {
                    "accesses_used": tenant.accesses_used,
                    "budget": self.tenant_budget,
                    "admitted": tenant.admitted,
                    "rejected": tenant.rejected,
                    "queries": tenant.queries,
                    "degraded": tenant.degraded,
                }
        return payload
