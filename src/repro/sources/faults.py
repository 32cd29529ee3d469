"""Deterministic fault injection: test tooling over any source backend.

:class:`FlakyBackend` decorates a
:class:`~repro.sources.backend.SourceBackend` and injects faults from a
*deterministic, seeded* :class:`FaultSchedule`.  Whether (and how) an access
fails depends only on ``(seed, relation, binding, attempt)``, never on
thread interleaving or process hash salt, so fuzzing runs are exactly
reproducible and a fault-free schedule (all rates zero) is byte-identical
to the undecorated backend.  What the runtime *does* about the faults —
retry, timeout, circuit breakers — is :mod:`repro.sources.resilience`;
nothing a served query runs imports this module.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.sources.backend import SourceBackend
from repro.sources.resilience import (
    SourceTimeoutError,
    SourceUnavailableError,
    TransientSourceError,
)

Row = Tuple[object, ...]
Binding = Tuple[object, ...]


def _stable_rng_seed(*parts: object) -> int:
    """A process-independent seed for ``random``-free fault planning.

    Python's builtin ``hash`` is salted per process; fault schedules must
    not be, or two fuzzing runs (or the two processes of a differential
    comparison) would inject different faults.
    """
    digest = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class _StableRandom:
    """A tiny splitmix64-style generator seeded from a stable digest.

    Only ``random()`` (uniform in [0, 1)) is needed; using our own generator
    keeps fault plans identical across Python versions regardless of
    ``random.Random``'s internal seeding of non-int objects.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & 0xFFFFFFFFFFFFFFFF

    def random(self) -> float:
        self._state = (self._state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        z = z ^ (z >> 31)
        return (z >> 11) / float(1 << 53)


@dataclass(frozen=True)
class FaultSchedule:
    """A seeded, deterministic plan of which accesses fail, and how.

    For every ``(relation, binding)`` pair the schedule derives — purely
    from ``seed`` — a sequence of *leading faults* (transient errors and
    timeouts the first attempts hit before one succeeds) and whether the
    eventually-successful call is *slow*.  A permanent outage
    (``outage_after``) kills the backend after that many total lookups.

    Attributes:
        seed: the schedule's seed; same seed, same faults, every run.
        transient_rate: probability that an attempt hits a transient error.
        timeout_rate: probability that an attempt hits an injected timeout.
        slow_rate: probability that the successful call is slow.
        slow_seconds: real ``time.sleep`` injected into slow calls.
        outage_after: total lookups (across all bindings) after which the
            source is permanently down; ``None`` disables the outage.
        max_consecutive: cap on leading faults per binding, so a fault rate
            below 1.0 always leaves the binding eventually servable.
    """

    seed: int = 0
    transient_rate: float = 0.0
    timeout_rate: float = 0.0
    slow_rate: float = 0.0
    slow_seconds: float = 0.0
    outage_after: Optional[int] = None
    max_consecutive: int = 3

    def __post_init__(self) -> None:
        for name in ("transient_rate", "timeout_rate", "slow_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"FaultSchedule.{name} must be in [0, 1], got {rate!r}")
        if self.max_consecutive < 0:
            raise ValueError("FaultSchedule.max_consecutive must be >= 0")

    @property
    def fault_free(self) -> bool:
        """True when the schedule can never inject anything."""
        return (
            self.transient_rate == 0.0
            and self.timeout_rate == 0.0
            and self.slow_rate == 0.0
            and self.outage_after is None
        )

    def plan_for(self, relation: str, binding: Binding) -> Tuple[Tuple[str, ...], bool]:
        """The (leading fault kinds, slow?) plan of one binding's attempts."""
        rng = _StableRandom(_stable_rng_seed(self.seed, relation, tuple(binding)))
        faults: List[str] = []
        while len(faults) < self.max_consecutive:
            roll = rng.random()
            if roll < self.transient_rate:
                faults.append("transient")
            elif roll < self.transient_rate + self.timeout_rate:
                faults.append("timeout")
            else:
                break
        slow = rng.random() < self.slow_rate
        return tuple(faults), slow


class FlakyBackend(SourceBackend):
    """Wraps any backend with a deterministic fault schedule.

    Attempt counters are kept per binding (under a lock — the real
    dispatcher reads from worker threads), so the *n*-th attempt at a
    binding deterministically hits the *n*-th planned fault regardless of
    what other bindings or threads are doing.  With an all-zero schedule
    the wrapper is pass-through: same rows, same call counts, no sleeps.
    """

    kind = "flaky"

    def __init__(self, inner: SourceBackend, schedule: FaultSchedule) -> None:
        self.inner = inner
        self.schedule = schedule
        self.schema = inner.schema
        #: The in-memory instance when the inner backend has one (keeps
        #: SourceWrapper's back-compat ``instance`` attribute working).
        self.instance = getattr(inner, "instance", None)
        self._lock = threading.Lock()
        self._attempts: Dict[Binding, int] = {}
        self._total_lookups = 0
        self._closed = False

    def lookup(self, binding: Binding) -> FrozenSet[Row]:
        if self.schedule.fault_free:
            # A schedule that can never inject anything is pure passthrough:
            # no fault planning, no attempt counting, no lock — the
            # zero-fault overhead of the resilience stack stays negligible.
            return self.inner.lookup(tuple(binding))
        binding = tuple(binding)
        relation = self.schema.name
        with self._lock:
            attempt = self._attempts.get(binding, 0)
            self._attempts[binding] = attempt + 1
            self._total_lookups += 1
            total = self._total_lookups
        outage = self.schedule.outage_after
        if outage is not None and total > outage:
            raise SourceUnavailableError(relation, binding, "permanent outage injected")
        faults, slow = self.schedule.plan_for(relation, binding)
        if attempt < len(faults):
            kind = faults[attempt]
            if kind == "timeout":
                raise SourceTimeoutError(relation, binding, "injected timeout")
            raise TransientSourceError(relation, binding, "injected transient fault")
        if slow and self.schedule.slow_seconds > 0:
            time.sleep(self.schedule.slow_seconds)
        return self.inner.lookup(binding)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.inner.close()


def make_flaky(registry: object, schedule: FaultSchedule) -> None:
    """Alias for :meth:`~repro.sources.wrapper.SourceRegistry.inject_faults`
    for callers holding only this module (avoids the circular import)."""
    registry.inject_faults(schedule)  # type: ignore[attr-defined]
