"""The resilience layer: deterministic fault injection, retries, breakers.

The paper's execution model assumes every access eventually succeeds; a
production deployment cannot.  This module supplies the three pieces the
runtime uses to keep a query alive when a source flakes, times out or goes
down mid-execution:

* :class:`FlakyBackend` — a decorator over any
  :class:`~repro.sources.backend.SourceBackend` that injects faults from a
  *deterministic, seeded* :class:`FaultSchedule`.  Whether (and how) an
  access fails depends only on ``(seed, relation, binding, attempt)``, never
  on thread interleaving or process hash salt, so fuzzing runs are exactly
  reproducible and a fault-free schedule (all rates zero) is byte-identical
  to the undecorated backend.
* :class:`RetryPolicy` — bounded attempts with exponential backoff.  The
  backoff is *priced through the run's authoritative clock*: simulated
  dispatchers charge it to the simulated clock, the async (wall-clock)
  dispatcher actually sleeps.
* :class:`CircuitBreaker` — the classic closed → open → half-open machine,
  one per relation.  After ``failure_threshold`` consecutive failures the
  breaker opens: further accesses to the relation are short-circuited (and
  the scheduling policies stop offering its bindings) until ``cooldown``
  has elapsed on the run's clock, at which point one probe is let through.

:class:`ResilienceContext` ties the three together for one kernel run: the
dispatchers route every source read through :meth:`ResilienceContext.
perform`, which owns the retry loop, the breaker bookkeeping, timeout
classification and the :class:`RetryStats` counters that end up on the
:class:`~repro.engine.result.Result`.
"""

from __future__ import annotations

import enum
import hashlib
import threading
import time
from dataclasses import dataclass, replace
from typing import Awaitable, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.exceptions import AccessError
from repro.sources.backend import SourceBackend

Row = Tuple[object, ...]
Binding = Tuple[object, ...]


# -- failure taxonomy -----------------------------------------------------------
class SourceFault(AccessError):
    """A source access failed for an operational (non-logic) reason.

    ``retryable`` distinguishes transient conditions (worth retrying) from
    permanent ones (the relation is down for the rest of the run).
    """

    retryable: bool = True

    def __init__(self, relation: str, binding: Binding, detail: str = "") -> None:
        self.relation = relation
        self.binding = tuple(binding)
        self.detail = detail
        super().__init__(
            f"{type(self).__name__} accessing {relation!r} with {self.binding!r}"
            + (f": {detail}" if detail else "")
        )


class TransientSourceError(SourceFault):
    """The source hiccuped (connection reset, 5xx, ...); a retry may succeed."""

    retryable = True


class SourceTimeoutError(SourceFault):
    """The access took longer than the configured (or injected) timeout."""

    retryable = True


class SourceUnavailableError(SourceFault):
    """The source is down for good; no retry within this run can succeed."""

    retryable = False


class CircuitOpenError(SourceFault):
    """The relation's circuit breaker rejected the access without trying it."""

    retryable = False


# -- deterministic fault injection ----------------------------------------------
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

    def with_seed(self, seed: int) -> "FaultSchedule":
        return replace(self, seed=seed)


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

    def lookup_many(self, bindings: Sequence[Binding]) -> List[FrozenSet[Row]]:
        # Each binding must be individually faultable, so no bulk delegation.
        return [self.lookup(binding) for binding in bindings]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.inner.close()


def make_flaky(registry: object, schedule: FaultSchedule) -> None:
    """Alias for :meth:`~repro.sources.wrapper.SourceRegistry.inject_faults`
    for callers holding only this module (avoids the circular import)."""
    registry.inject_faults(schedule)  # type: ignore[attr-defined]


# -- retry policy ----------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with capped exponential backoff.

    ``max_attempts`` counts the initial try: 3 means one try plus two
    retries.  The delay before retry ``n`` (1-based) is
    ``min(base_delay * multiplier ** (n - 1), max_delay)``.  Delays are
    deterministic (no jitter) so simulated runs stay reproducible.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("RetryPolicy.max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.multiplier < 1:
            raise ValueError("RetryPolicy delays must be >= 0 and multiplier >= 1")

    def delay_before(self, retry: int) -> float:
        """Backoff before the ``retry``-th retry (1-based)."""
        if retry < 1:
            return 0.0
        return min(self.base_delay * self.multiplier ** (retry - 1), self.max_delay)

    def total_backoff(self, retries: int) -> float:
        """Cumulative backoff of the first ``retries`` retries."""
        return sum(self.delay_before(n) for n in range(1, retries + 1))


# -- circuit breaker -------------------------------------------------------------
class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning of one relation's circuit breaker.

    Attributes:
        failure_threshold: consecutive failures that trip a closed breaker.
        cooldown: clock time an open breaker waits before letting a
            half-open probe through.
        half_open_probes: concurrent probes allowed while half-open.
    """

    failure_threshold: int = 5
    cooldown: float = 30.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("BreakerConfig.failure_threshold must be >= 1")
        if self.cooldown < 0:
            raise ValueError("BreakerConfig.cooldown must be >= 0")
        if self.half_open_probes < 1:
            raise ValueError("BreakerConfig.half_open_probes must be >= 1")


class CircuitBreaker:
    """Closed → open → half-open, on an injected clock.

    The clock is whatever the run's dispatcher is authoritative for — the
    simulated clock of the sequential/discrete-event dispatchers, the wall
    clock of the async dispatcher — so cool-downs are priced in the
    same units as everything else in the run.
    """

    def __init__(self, config: BreakerConfig, clock: Callable[[], float]) -> None:
        self.config = config
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        #: How many times the breaker tripped open (closed/half-open → open).
        self.trips = 0

    @property
    def state(self) -> BreakerState:
        with self._lock:
            return self._state

    def blocked(self) -> bool:
        """Non-mutating probe used by offer passes: is the relation
        currently excluded (open, cool-down not yet elapsed)?"""
        with self._lock:
            return (
                self._state is BreakerState.OPEN
                and self._clock() - self._opened_at < self.config.cooldown
            )

    def try_acquire(self) -> bool:
        """Ask permission to perform one access (mutating).

        Closed: always granted.  Open: denied until the cool-down elapses,
        then the breaker half-opens and grants probe slots.  Half-open:
        granted while probe slots remain.

        The closed check is lock-free (a stale read merely lets one extra
        access through while another thread is tripping the breaker — the
        standard benign race of circuit breakers); state transitions are
        serialized.
        """
        if self._state is BreakerState.CLOSED:
            return True
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                if self._clock() - self._opened_at < self.config.cooldown:
                    return False
                self._state = BreakerState.HALF_OPEN
                self._probes_in_flight = 0
            if self._probes_in_flight < self.config.half_open_probes:
                self._probes_in_flight += 1
                return True
            return False

    def record_success(self) -> None:
        if self._state is BreakerState.CLOSED and not self._consecutive_failures:
            return  # hot path: nothing to reset
        with self._lock:
            self._consecutive_failures = 0
            if self._state is BreakerState.HALF_OPEN:
                self._state = BreakerState.CLOSED
                self._probes_in_flight = 0

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state is BreakerState.HALF_OPEN:
                self._trip()
            elif (
                self._state is BreakerState.CLOSED
                and self._consecutive_failures >= self.config.failure_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = self._clock()
        self._probes_in_flight = 0
        self.trips += 1


# -- the per-run context ---------------------------------------------------------
@dataclass(frozen=True)
class ResilienceConfig:
    """The knobs one execution turns on: retry, timeout, breaker."""

    retry: Optional[RetryPolicy] = None
    timeout: Optional[float] = None
    breaker: Optional[BreakerConfig] = None


@dataclass
class RetryStats:
    """Aggregate resilience accounting of one execution.

    Attributes:
        attempts: source reads attempted, including retries.
        retries: attempts beyond the first, across all accesses.
        failures: accesses that permanently failed (retries exhausted,
            non-retryable fault, or short-circuited by an open breaker).
        transient_faults: transient errors observed (retried or not).
        timeouts: timed-out attempts observed (injected or measured).
        breaker_trips: times a circuit breaker opened during the run.
        short_circuited: accesses rejected by an open breaker untried.
        refunded: budget grants returned because the access failed.
        backoff_seconds: total retry backoff charged to the run's clock.
    """

    attempts: int = 0
    retries: int = 0
    failures: int = 0
    transient_faults: int = 0
    timeouts: int = 0
    breaker_trips: int = 0
    short_circuited: int = 0
    refunded: int = 0
    backoff_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "failures": self.failures,
            "transient_faults": self.transient_faults,
            "timeouts": self.timeouts,
            "breaker_trips": self.breaker_trips,
            "short_circuited": self.short_circuited,
            "refunded": self.refunded,
            "backoff_seconds": round(self.backoff_seconds, 6),
        }


@dataclass(frozen=True)
class PerformOutcome:
    """What one resilient read produced (or didn't).

    ``fault`` is None on success; on failure ``rows`` is empty and the
    fault explains why.  ``attempts`` counts source reads actually made
    (0 when the breaker short-circuited the access); ``backoff`` is the
    retry delay to charge to a simulated clock (the real dispatcher has
    already slept it).
    """

    rows: FrozenSet[Row]
    read_seconds: float
    attempts: int
    backoff: float
    fault: Optional[SourceFault] = None

    @property
    def failed(self) -> bool:
        return self.fault is not None


class ResilienceContext:
    """Failure handling for one kernel run, shared by its dispatcher(s).

    The context is cheap enough to always exist: with no retry policy, no
    timeout and no breaker config it only adds a try/except around each
    backend read — faults are then reported after a single attempt instead
    of killing the run, which is the new baseline semantics.

    ``clock`` is bound by the kernel to the dispatcher's authoritative
    clock; ``real_sleep`` tells :meth:`perform` whether to actually sleep
    retry backoffs (wall-clock dispatch) or merely report them for the
    caller to charge to a simulated clock.
    """

    def __init__(
        self,
        config: Optional[ResilienceConfig] = None,
        clock: Callable[[], float] = lambda: 0.0,
        real_sleep: bool = False,
    ) -> None:
        self.config = config if config is not None else ResilienceConfig()
        self.clock = clock
        self.real_sleep = real_sleep
        self.stats = RetryStats()
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}
        #: Relations that permanently failed at least one access this run.
        self.failed_relations: Set[str] = set()
        #: Relations observed permanently down (no further reads attempted).
        self._dead: Set[str] = set()

    # -- wiring ---------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float], real_sleep: bool) -> None:
        self.clock = clock
        self.real_sleep = real_sleep

    def breaker_for(self, relation: str) -> Optional[CircuitBreaker]:
        if self.config.breaker is None:
            return None
        with self._lock:
            breaker = self._breakers.get(relation)
            if breaker is None:
                breaker = CircuitBreaker(self.config.breaker, self.clock)
                self._breakers[relation] = breaker
            return breaker

    def breakers(self) -> Dict[str, CircuitBreaker]:
        with self._lock:
            return dict(self._breakers)

    # -- offer-side exclusion --------------------------------------------------
    def excluded(self, relation: str) -> bool:
        """True while the relation must not be offered: its breaker is open
        (cool-down pending) or the source is known permanently down."""
        with self._lock:
            if relation in self._dead:
                return True
            breaker = self._breakers.get(relation)
        return breaker is not None and breaker.blocked()

    # -- the resilient read ----------------------------------------------------
    def perform(
        self, relation: str, binding: Binding, read: Callable[[], FrozenSet[Row]]
    ) -> PerformOutcome:
        """Run one backend read under retry/timeout/breaker policy.

        Never raises for operational faults — the outcome carries them —
        so dispatchers have one uniform failure path.  Non-fault exceptions
        (programming errors) propagate unchanged.

        The hot path (healthy source, closed breaker) is engineered for
        near-zero overhead: dead-set and breaker reads are lock-free (the
        GIL makes them safe; a stale read is the standard benign breaker
        race), stats are flushed under one lock acquisition per access,
        and reads are only timed when someone consumes the timing (a
        configured timeout, or a wall-clock dispatcher's sequential
        accounting).
        """
        breaker: Optional[CircuitBreaker] = None
        if self.config.breaker is not None:
            breaker = self._breakers.get(relation) or self.breaker_for(relation)
        dead = bool(self._dead) and relation in self._dead
        if dead or (breaker is not None and not breaker.try_acquire()):
            fault = (
                SourceUnavailableError(relation, binding, "source marked down")
                if dead
                else CircuitOpenError(relation, binding, "circuit breaker open")
            )
            with self._lock:
                self.stats.short_circuited += 1
                self.stats.failures += 1
                self.failed_relations.add(relation)
            return PerformOutcome(frozenset(), 0.0, attempts=0, backoff=0.0, fault=fault)

        retry = self.config.retry
        max_attempts = retry.max_attempts if retry is not None else 1
        timeout = self.config.timeout
        time_reads = timeout is not None or self.real_sleep
        attempts = 0
        retries = 0
        backoff = 0.0
        while True:
            attempts += 1
            started = time.perf_counter() if time_reads else 0.0
            fault: Optional[SourceFault] = None
            try:
                rows = read()
            except SourceFault as error:
                fault = error
            seconds = (time.perf_counter() - started) if time_reads else 0.0
            if fault is None and timeout is not None and seconds > timeout:
                fault = SourceTimeoutError(
                    relation, binding, f"read took {seconds:.4f}s > timeout {timeout:.4f}s"
                )
            if fault is None:
                if breaker is not None:
                    breaker.record_success()
                with self._lock:
                    self.stats.attempts += attempts
                    self.stats.retries += retries
                    self.stats.backoff_seconds += backoff
                return PerformOutcome(rows, seconds, attempts=attempts, backoff=backoff)

            # One attempt failed: classify, feed the breaker, decide on retry.
            tripped = False
            if breaker is not None:
                before = breaker.trips
                breaker.record_failure()
                tripped = breaker.trips > before
            with self._lock:
                if isinstance(fault, SourceTimeoutError):
                    self.stats.timeouts += 1
                elif isinstance(fault, TransientSourceError):
                    self.stats.transient_faults += 1
                if tripped:
                    self.stats.breaker_trips += 1
                if not fault.retryable:
                    self._dead.add(relation)
            if fault.retryable and not tripped and attempts < max_attempts:
                delay = retry.delay_before(attempts) if retry is not None else 0.0
                retries += 1
                backoff += delay
                if self.real_sleep and delay > 0:
                    time.sleep(delay)
                continue
            with self._lock:
                self.stats.attempts += attempts
                self.stats.retries += retries
                self.stats.backoff_seconds += backoff
                self.stats.failures += 1
                self.failed_relations.add(relation)
            return PerformOutcome(
                frozenset(), 0.0, attempts=attempts, backoff=backoff, fault=fault
            )

    async def aperform(
        self,
        relation: str,
        binding: Binding,
        aread: Callable[[], Awaitable[FrozenSet[Row]]],
    ) -> PerformOutcome:
        """:meth:`perform` for coroutine reads: same policy, awaited I/O.

        The retry/timeout/breaker decision tree is kept line-for-line
        identical to the sync path so the two dispatchers cannot drift;
        only the read is awaited and retry backoff uses ``asyncio.sleep``
        (the async dispatcher always runs on the wall clock, so backoff is
        really waited, never charged to a simulation).
        """
        import asyncio

        breaker: Optional[CircuitBreaker] = None
        if self.config.breaker is not None:
            breaker = self._breakers.get(relation) or self.breaker_for(relation)
        dead = bool(self._dead) and relation in self._dead
        if dead or (breaker is not None and not breaker.try_acquire()):
            fault = (
                SourceUnavailableError(relation, binding, "source marked down")
                if dead
                else CircuitOpenError(relation, binding, "circuit breaker open")
            )
            with self._lock:
                self.stats.short_circuited += 1
                self.stats.failures += 1
                self.failed_relations.add(relation)
            return PerformOutcome(frozenset(), 0.0, attempts=0, backoff=0.0, fault=fault)

        retry = self.config.retry
        max_attempts = retry.max_attempts if retry is not None else 1
        timeout = self.config.timeout
        time_reads = timeout is not None or self.real_sleep
        attempts = 0
        retries = 0
        backoff = 0.0
        while True:
            attempts += 1
            started = time.perf_counter() if time_reads else 0.0
            fault: Optional[SourceFault] = None
            try:
                rows = await aread()
            except SourceFault as error:
                fault = error
            seconds = (time.perf_counter() - started) if time_reads else 0.0
            if fault is None and timeout is not None and seconds > timeout:
                fault = SourceTimeoutError(
                    relation, binding, f"read took {seconds:.4f}s > timeout {timeout:.4f}s"
                )
            if fault is None:
                if breaker is not None:
                    breaker.record_success()
                with self._lock:
                    self.stats.attempts += attempts
                    self.stats.retries += retries
                    self.stats.backoff_seconds += backoff
                return PerformOutcome(rows, seconds, attempts=attempts, backoff=backoff)

            tripped = False
            if breaker is not None:
                before = breaker.trips
                breaker.record_failure()
                tripped = breaker.trips > before
            with self._lock:
                if isinstance(fault, SourceTimeoutError):
                    self.stats.timeouts += 1
                elif isinstance(fault, TransientSourceError):
                    self.stats.transient_faults += 1
                if tripped:
                    self.stats.breaker_trips += 1
                if not fault.retryable:
                    self._dead.add(relation)
            if fault.retryable and not tripped and attempts < max_attempts:
                delay = retry.delay_before(attempts) if retry is not None else 0.0
                retries += 1
                backoff += delay
                if delay > 0:
                    await asyncio.sleep(delay)
                continue
            with self._lock:
                self.stats.attempts += attempts
                self.stats.retries += retries
                self.stats.backoff_seconds += backoff
                self.stats.failures += 1
                self.failed_relations.add(relation)
            return PerformOutcome(
                frozenset(), 0.0, attempts=attempts, backoff=backoff, fault=fault
            )

    # -- bookkeeping hooks used by dispatchers ----------------------------------
    def note_refund(self, count: int = 1) -> None:
        with self._lock:
            self.stats.refunded += count

    def snapshot_failed_relations(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self.failed_relations))


#: Shared default used by CLI/benchmarks when faults are injected without an
#: explicit retry policy: three attempts with fast, capped backoff.
DEFAULT_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, multiplier=2.0, max_delay=0.1)
