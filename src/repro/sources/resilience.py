"""The resilience layer: retries, timeouts, circuit breakers.

The paper's execution model assumes every access eventually succeeds; a
production deployment cannot.  This module supplies what the runtime uses
to keep a query alive when a source flakes, times out or goes down
mid-execution:

* the fault taxonomy (:class:`SourceFault` and its subclasses) a backend
  raises for operational — as opposed to programming — errors;
* :class:`RetryPolicy` — bounded attempts with exponential backoff.  The
  backoff is *priced through the run's authoritative clock*: simulated
  dispatchers charge it to the simulated clock, the async (wall-clock)
  dispatcher actually sleeps.
* :class:`CircuitBreaker` — the classic closed → open → half-open machine,
  one per relation.  After ``failure_threshold`` consecutive failures the
  breaker opens: further accesses to the relation are short-circuited (and
  the scheduling policies stop offering its bindings) until ``cooldown``
  has elapsed on the run's clock, at which point one probe is let through.

:class:`ResilienceContext` ties them together for one kernel run: every
source read goes through :meth:`ResilienceContext.perform`, the one retry
loop — a plain generator that owns the breaker bookkeeping, timeout
classification and the :class:`RetryStats` counters that end up on the
:class:`~repro.engine.result.Result`, and leaves the reading and the
sleeping to whoever drives it (:mod:`repro.runtime.dispatch`).  Injecting
faults to exercise all this is test tooling and lives in
:mod:`repro.sources.faults`.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Generator, NamedTuple, Optional, Set, Tuple

from repro.exceptions import AccessError

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


#: Retry, timeout and breaker all off (the config is frozen, so shared).
_NO_RESILIENCE = ResilienceConfig()


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


class AccessOutcome(NamedTuple):
    """How one access request resolved: what the access protocol returns.

    ``counted`` is True only for a successful, performed source read (the
    dispatcher must log it and charge its latency).  A request the session
    gate served has ``counted=False, failed=False``; a permanently failed
    access has ``counted=False, failed=True`` with empty rows.  ``attempts``
    is how many source reads were made (0 when the gate served the request
    or a breaker short-circuited it) and ``backoff`` the retry delay a
    simulated dispatcher must charge to its clock (the async dispatcher
    already slept it).
    """

    rows: FrozenSet[Row]
    counted: bool
    failed: bool = False
    attempts: int = 0
    backoff: float = 0.0
    read_seconds: float = 0.0


#: The effects :meth:`ResilienceContext.perform` yields to its driver, in
#: the ``(kind, payload)`` shape of the kernel's own machine: the driver
#: answers ``read`` with the rows (or raises what the read raised at the
#: ``yield``) and ``sleep`` — the payload is the backoff in seconds — with
#: nothing, after waiting it out on whatever clock it keeps.
READ = ("read", None)
Effect = Tuple[str, Optional[float]]


class ResilienceContext:
    """Failure handling for one kernel run, shared by its dispatcher(s).

    The context is cheap enough to always exist: with no retry policy, no
    timeout and no breaker config it only adds a try/except around each
    backend read — faults are then reported after a single attempt instead
    of killing the run, which is the new baseline semantics.

    ``clock`` is bound by the kernel to the dispatcher's authoritative
    clock; ``wall_clock`` says that clock is the real one, so reads are
    timed for the run's sequential-cost accounting even without a timeout.

    A context takes no lock: like the run's
    :class:`~repro.sources.log.AccessLog`, it has one writer, the run's
    coordinating thread (the sync trampoline's caller, or the loop thread of
    the async one — executor threads only run a blocking ``lookup``).
    """

    def __init__(
        self,
        config: Optional[ResilienceConfig] = None,
        clock: Callable[[], float] = lambda: 0.0,
        wall_clock: bool = False,
    ) -> None:
        self.config = config if config is not None else _NO_RESILIENCE
        self.clock = clock
        self.wall_clock = wall_clock
        self.stats = RetryStats()
        self._breakers: Dict[str, CircuitBreaker] = {}
        #: Relations that permanently failed at least one access this run.
        self.failed_relations: Set[str] = set()
        #: Relations observed permanently down (no further reads attempted).
        self._dead: Set[str] = set()

    # -- wiring ---------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float], wall_clock: bool) -> None:
        self.clock = clock
        self.wall_clock = wall_clock

    # -- offer-side exclusion --------------------------------------------------
    def excluded(self, relation: str) -> bool:
        """True while the relation must not be offered: its breaker is open
        (cool-down pending) or the source is known permanently down.

        Read by the thread that writes both, so never stale.
        """
        if self._dead and relation in self._dead:
            return True
        breaker = self._breakers.get(relation) if self._breakers else None
        return breaker is not None and breaker.blocked()

    # -- the resilient read ----------------------------------------------------
    def perform(
        self, relation: str, binding: Binding
    ) -> Generator[Effect, Optional[FrozenSet[Row]], AccessOutcome]:
        """One backend read under retry/timeout/breaker policy — the one
        retry loop, as a plain generator.

        It yields :data:`READ` for every attempt and ``("sleep", delay)``
        before every retry; the driver performs them its own way (a
        blocking ``lookup`` or an awaited ``alookup``; a simulated clock
        charges the outcome's ``backoff`` and does not wait, the wall clock
        sleeps) and the :class:`AccessOutcome` is the generator's return
        value.  Operational faults never escape — the outcome carries
        ``failed`` — so drivers have one uniform failure path; any other
        exception the read raised (a programming error, a cancellation)
        propagates unchanged.

        The hot path (healthy source, closed breaker) is engineered for
        near-zero overhead: it takes no lock (the context has one writer),
        flushes its stats once per access, and times reads only when
        someone consumes the timing (a configured timeout, or a wall-clock
        dispatcher's sequential accounting).
        """
        config = self.config
        breaker: Optional[CircuitBreaker] = None
        if config.breaker is not None:
            breaker = self._breakers.get(relation)
            if breaker is None:
                breaker = self._breakers[relation] = CircuitBreaker(config.breaker, self.clock)
        dead = bool(self._dead) and relation in self._dead
        stats = self.stats
        if dead or (breaker is not None and not breaker.try_acquire()):
            stats.short_circuited += 1
            stats.failures += 1
            self.failed_relations.add(relation)
            return AccessOutcome(frozenset(), False, failed=True)

        retry = config.retry
        max_attempts = retry.max_attempts if retry is not None else 1
        timeout = config.timeout
        time_reads = timeout is not None or self.wall_clock
        attempts = 0
        backoff = 0.0
        while True:
            attempts += 1
            started = time.perf_counter() if time_reads else 0.0
            fault: Optional[SourceFault] = None
            try:
                rows = yield READ
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
                outcome = AccessOutcome(rows, True, False, attempts, backoff, seconds)
                break

            # One attempt failed: classify, feed the breaker, decide on retry.
            tripped = False
            if breaker is not None:
                before = breaker.trips
                breaker.record_failure()
                tripped = breaker.trips > before
            if isinstance(fault, SourceTimeoutError):
                stats.timeouts += 1
            elif isinstance(fault, TransientSourceError):
                stats.transient_faults += 1
            if tripped:
                stats.breaker_trips += 1
            if not fault.retryable:
                self._dead.add(relation)
            if fault.retryable and not tripped and attempts < max_attempts:
                delay = retry.delay_before(attempts) if retry is not None else 0.0
                backoff += delay
                if delay > 0:
                    yield ("sleep", delay)
                continue
            stats.failures += 1
            self.failed_relations.add(relation)
            # The fault's traceback holds this frame (and, frame by frame, the
            # whole run): let go of it, or the two keep each other alive.
            del fault
            outcome = AccessOutcome(frozenset(), False, True, attempts, backoff)
            break
        stats.attempts += attempts
        stats.retries += attempts - 1
        stats.backoff_seconds += backoff
        return outcome

    # -- bookkeeping hooks used by dispatchers ----------------------------------
    def note_refund(self, count: int = 1) -> None:
        self.stats.refunded += count

    def snapshot_failed_relations(self) -> Tuple[str, ...]:
        return tuple(sorted(self.failed_relations))


#: Shared default used by CLI/benchmarks when faults are injected without an
#: explicit retry policy: three attempts with fast, capped backoff.
DEFAULT_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, multiplier=2.0, max_delay=0.1)
