"""The fixpoint runtime kernel shared by every execution strategy.

All three evaluation methods of the paper compute the least fixpoint of the
same process: *offer* every access tuple newly enabled by the values in the
caches, *dispatch* the offered accesses to the sources, *absorb* the
retrieved rows back into the caches (enabling further accesses), and stop
when nothing new can be offered.  :class:`FixpointKernel` is that loop,
written once.  Two collaborators parameterize it:

* a :class:`~repro.runtime.policy.SchedulingPolicy` decides *what* is
  offered (which relations/caches, in which phase, gated how) and how rows
  are absorbed;
* a :class:`~repro.runtime.dispatch.Dispatcher` decides *when* accesses run
  and on which clock (back-to-back simulated, discrete-event simulated
  parallel, or asyncio tasks on the wall clock).

Which dispatcher a policy runs on is the caller's choice, not the
policy's: the engine's execution driver (:mod:`repro.engine.strategies`)
pairs them and is the one place a kernel is constructed.

The kernel itself owns the pieces every mode shares: the offer-pass
fixpoint iteration, access-budget accounting (:class:`AccessBudget`), the
monotone completion clock (an execution can never absorb a completion
timestamped before one it already absorbed), and incremental answer
tracking/streaming (:class:`AnswerTracker`, Section V's result
pagination).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from time import perf_counter

from repro.exceptions import ExecutionError
from repro.runtime.profile import KernelProfile
from repro.sources.resilience import ResilienceConfig, RetryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.dispatch import Dispatcher
    from repro.runtime.policy import SchedulingPolicy

Row = Tuple[object, ...]


class AccessRequest(NamedTuple):
    """One unit of dispatchable work: access ``relation`` with ``binding``.

    ``target`` names the structure the rows are destined for — a cache
    predicate for the plan-driven policies, the relation itself for the
    naive policy.  The kernel treats it as opaque; only the policy's
    ``absorb`` interprets it.
    """

    target: str
    relation: str
    binding: Tuple[object, ...]


class Completion(NamedTuple):
    """One finished access, stamped with the dispatcher's authoritative clock.

    ``counted`` is False when the rows were served without touching the
    source (the session meta-cache answered the binding, possibly after
    waiting out another session's in-flight access): such completions still
    feed the caches but are not logged, charged to the budget, or timed.

    ``failed`` marks an access that permanently failed (retries exhausted,
    source down, or breaker open): its rows are empty, it is never counted,
    its budget grant has been refunded, and the kernel reports the run as
    incomplete.
    """

    request: AccessRequest
    rows: FrozenSet[Row]
    finish_time: float
    counted: bool = True
    failed: bool = False


class StreamedAnswer(NamedTuple):
    """One incremental answer produced by a streaming execution.

    Attributes:
        row: the answer tuple.
        simulated_time: the execution's clock at which the tuple became
            derivable (at the granularity of the answer-check interval).
    """

    row: Row
    simulated_time: float


class AnswerTracker:
    """Incremental answer bookkeeping shared by every kernel run.

    Evaluates the policy's query on demand, remembers every answer's first
    derivation time, and reports which rows are new — the rows to stream.
    ``now`` is whatever clock the run's dispatcher is authoritative for
    (the event-heap clock in simulation, the wall clock under async
    dispatch, the cumulative latency sum in sequential runs).

    A streaming run checks through the policy's *incremental* evaluator
    (:meth:`~repro.runtime.policy.PlanPolicy.evaluate_delta`), every check
    its last one included: each returns the answers that the rows added
    since the previous check made derivable, so a check costs what it adds
    and the union of the checks is the answer set.  A run that does not
    stream has no ``evaluate_delta`` and checks once, in full, at the end.
    """

    def __init__(
        self,
        evaluate: Callable[[], FrozenSet[Row]],
        evaluate_delta: Optional[Callable[[], Set[Row]]] = None,
    ) -> None:
        self._evaluate = evaluate
        self._evaluate_delta = evaluate_delta
        #: Every answer so far, with the time it was first derived.
        self.answer_times: Dict[Row, float] = {}
        self.first_answer_time: Optional[float] = None
        self.incremental_checks = 0
        self.full_checks = 0

    def check(self, now: float) -> List[StreamedAnswer]:
        """The rows derivable now and not before, timestamped ``now``."""
        if self._evaluate_delta is not None:
            self.incremental_checks += 1
            return self._register(self._evaluate_delta(), now)
        self.full_checks += 1
        return self._register(self._evaluate(), now)

    def _register(self, current: Iterable[Row], now: float) -> List[StreamedAnswer]:
        fresh: List[StreamedAnswer] = []
        answer_times = self.answer_times
        for row in current:
            if row not in answer_times:
                answer_times[row] = now
                fresh.append(StreamedAnswer(row, now))
        if fresh and self.first_answer_time is None:
            self.first_answer_time = now
        return fresh


class AccessBudget:
    """Kernel-owned accounting of the ``max_accesses`` bound.

    Every source access must be granted before it runs (the sequential and
    simulated dispatchers ask right before the read, the async dispatcher
    when it launches the access).  The budget flags ``denied`` only
    when a request could not be granted *at all* — a partially filled
    request is not a denial until the remainder is asked for again — which
    is exactly when an execution has work left it may not perform.

    The monotone counters ``total_granted`` and ``refunded`` support the
    refund invariant the resilience layer is audited against: every grant
    is either consumed by a counted (logged) access or refunded — a
    gate-served batch slot, or an access that permanently failed — so
    ``total_granted - refunded`` always equals the number of accesses
    recorded against the sources.
    """

    def __init__(self, limit: Optional[int]) -> None:
        self.limit = limit
        #: Net outstanding grants (refunds subtract); drives the limit math.
        self.granted = 0
        self.denied = False
        #: Monotone counters for the refund invariant.
        self.total_granted = 0
        self.refunded = 0

    def grant(self, want: int = 1) -> int:
        """Reserve up to ``want`` accesses; returns how many were granted."""
        if want <= 0:
            return 0
        if self.limit is None:
            self.total_granted += want
            return want
        allowance = min(want, self.limit - self.granted)
        if allowance <= 0:
            self.denied = True
            return 0
        self.granted += allowance
        self.total_granted += allowance
        return allowance

    def refund(self, count: int = 1) -> None:
        """Return unused grants (an access served locally after reservation,
        or one that failed and must not count against the bound)."""
        self.refunded += count
        if self.limit is not None:
            self.granted = max(0, self.granted - count)


@dataclass
class KernelOutcome:
    """Aggregate outcome of one kernel run (``Result.raw`` of the engine).

    Attributes:
        answers: the answers derived (all of them, or the ones derived so
            far when the budget stopped the run).
        answer_times: clock time at which each answer first derived.
        first_answer_time: clock time of the first answer (None when empty).
        total_time: the dispatcher's clock when the run finished (simulated
            makespan, or wall-clock duration under async dispatch).
        sequential_time: what the run would have cost with every access
            back to back (sum of per-access latencies / batch durations).
        budget_exhausted: True when ``max_accesses`` stopped the dispatch
            loop before the fixpoint was reached.
        failed_relations: relations with at least one permanently failed
            access this run (sorted); non-empty means the fixpoint may not
            have been reached and ``answers`` is a lower bound.
        retry_stats: the run's resilience accounting (attempts, retries,
            failures, breaker trips, refunds, backoff).
        gate_served: dispatched accesses that the claim gate resolved from
            the cache store (another execution — or, with a persistent
            store, another process — had already performed them) instead of
            a source read.  Offer-pass hits are counted separately, by the
            meta-caches.
        peak_in_flight: high-water mark of concurrently in-flight accesses
            (0 for dispatchers that do not track it).
    """

    answers: FrozenSet[Row]
    answer_times: Dict[Row, float] = field(default_factory=dict)
    first_answer_time: Optional[float] = None
    total_time: float = 0.0
    sequential_time: float = 0.0
    budget_exhausted: bool = False
    failed_relations: Tuple[str, ...] = ()
    retry_stats: RetryStats = field(default_factory=RetryStats)
    gate_served: int = 0
    peak_in_flight: int = 0
    #: Per-phase timings/counters of the run (see :mod:`repro.runtime.profile`).
    profile: Optional[KernelProfile] = None

    @property
    def source_failure(self) -> bool:
        """True when any access permanently failed during the run."""
        return bool(self.failed_relations)

    @property
    def parallel_speedup(self) -> float:
        """Ratio between sequential and parallel execution times.

        With degenerate zero-latency sources the makespan can be zero even
        though sequential work was done: the true ratio is then infinite,
        not ``1.0``.  Only a run with no work at all reports ``1.0``.
        """
        if self.total_time <= 0:
            return float("inf") if self.sequential_time > 0 else 1.0
        return self.sequential_time / self.total_time


class FixpointKernel:
    """The one event-driven fixpoint loop behind all execution strategies.

    The kernel iterates phases (most policies have one; the fast-failing
    policy has one per ordering position).  Within a phase it alternates
    offer passes — the policy enumerates newly enabled accesses, serving
    session meta-cache hits locally — with dispatcher steps, absorbing each
    completion through the policy so new values immediately enable further
    offers.  A phase ends when the policy has nothing left to offer and the
    dispatcher is drained; the run ends when the policy declines to start
    another phase, or the access budget runs dry.
    """

    def __init__(
        self,
        policy: "SchedulingPolicy",
        dispatcher: "Dispatcher",
        answer_check_interval: Optional[int] = None,
        resilience: Optional[ResilienceConfig] = None,
    ) -> None:
        """Wire a kernel run.

        Args:
            policy: the scheduling policy (owns the run's cache state).
            dispatcher: the dispatcher the policy's offers run on; it
                carries the source registry, the access log counted
                accesses are recorded in, and the run's
                :class:`AccessBudget` (the ``max_accesses`` bound).
            answer_check_interval: completed accesses between incremental
                answer checks; with ``None`` (the non-streaming strategies)
                the query is evaluated once, in full, at the end.
            resilience: retry/timeout/breaker configuration, installed on
                the dispatcher's own (still unused) context; with ``None``
                that context still resolves source faults to failure-flagged
                partial results instead of killing the run.
        """
        self.policy = policy
        self.dispatcher = dispatcher
        self.budget = dispatcher.budget
        self.answer_check_interval = answer_check_interval
        policy.bind_dispatcher(dispatcher)
        self.resilience = dispatcher.resilience
        if resilience is not None:
            self.resilience.config = resilience
        self.resilience.bind_clock(dispatcher.now, wall_clock=dispatcher.wall_clock)
        # A streaming run checks incrementally to the end, any other in full once.
        self.tracker = AnswerTracker(
            policy.evaluate,
            None if answer_check_interval is None else getattr(policy, "evaluate_delta", None),
        )
        #: Per-phase timings/counters of this run (always on; see
        #: :mod:`repro.runtime.profile`).
        self.profile = KernelProfile()
        #: The kernel's monotone clock: the latest completion absorbed.
        self.clock = 0.0
        #: The outcome of the most recent run (async generators cannot
        #: return a value, so :meth:`astream` parks it here).
        self.last_outcome: Optional[KernelOutcome] = None

    # ------------------------------------------------------------------------------
    def run(self) -> KernelOutcome:
        """Run to completion, discarding the incremental answer stream."""
        for _ in self.stream():
            pass
        return self.last_outcome

    def stream(self) -> Iterator[StreamedAnswer]:
        """Run the fixpoint loop, yielding answers as they become derivable.

        Returns (as the generator's ``StopIteration`` value) the
        :class:`KernelOutcome` of the run.  This is the *sync driver* over
        :meth:`_machine`: dispatcher steps block the calling thread.
        """
        machine = self._machine()
        reply: Optional[List[Completion]] = None
        try:
            while True:
                try:
                    kind, payload = machine.send(reply)
                except StopIteration as stop:
                    outcome = stop.value
                    break
                if kind == "step":
                    reply = self.dispatcher.step()
                else:
                    yield from payload
                    reply = None
        finally:
            self.dispatcher.close()
        self.last_outcome = outcome
        return outcome

    async def arun(self) -> KernelOutcome:
        """Async :meth:`run`: drain :meth:`astream`, return the outcome."""
        async for _ in self.astream():
            pass
        assert self.last_outcome is not None
        return self.last_outcome

    async def astream(self):
        """The *async driver* over :meth:`_machine`.

        Identical fixpoint logic to :meth:`stream` — both drivers send
        step results into the same generator, so the two execution modes
        cannot diverge semantically.  A dispatcher exposing ``astep`` is
        awaited (the async dispatcher's tasks run between awaits); any
        other dispatcher is stepped synchronously, so every concurrency
        mode is reachable from the async engine API.  The outcome lands in
        :attr:`last_outcome` (async generators cannot return values).
        """
        machine = self._machine()
        reply: Optional[List[Completion]] = None
        astep = getattr(self.dispatcher, "astep", None)
        try:
            while True:
                try:
                    kind, payload = machine.send(reply)
                except StopIteration as stop:
                    self.last_outcome = stop.value
                    break
                if kind == "step":
                    reply = await astep() if astep is not None else self.dispatcher.step()
                else:
                    for answer in payload:
                        yield answer
                    reply = None
        finally:
            aclose = getattr(self.dispatcher, "aclose", None)
            if aclose is not None:
                await aclose()
            self.dispatcher.close()

    # ------------------------------------------------------------------------------
    def _machine(self):
        """The driver-agnostic fixpoint state machine.

        A plain generator that yields ``("step", None)`` when it needs the
        driver to advance the dispatcher (the driver must ``send`` the
        step's completion batch back in) and ``("answers", batch)`` with each
        check's new :class:`StreamedAnswer` list; the :class:`KernelOutcome`
        is the generator's return value.  Keeping offer/absorb/budget/phase logic
        in one generator is what guarantees the sync and async drivers
        execute byte-identical fixpoint semantics.
        """
        completed_since_check = 0
        budget_exhausted = False
        gate_served = 0
        profile = self.profile
        dispatcher, absorb = self.dispatcher, self.policy.absorb
        interval = self.answer_check_interval

        # One clock read per phase boundary closes a phase and opens the next;
        # only the consumer's time between streamed answers is left out.
        mark = perf_counter()
        more_phases = self.policy.begin()
        now = perf_counter()
        profile.fast_fail_seconds += now - mark
        mark = now
        while more_phases and not budget_exhausted:
            while True:
                self._offer_fixpoint()
                now = perf_counter()
                profile.offer_seconds += now - mark
                mark = now
                dispatcher.refill(self.clock)
                if not dispatcher.has_work():
                    break
                batch = yield ("step", None)
                profile.dispatch_steps += 1
                now = perf_counter()
                profile.dispatch_seconds += now - mark
                mark = now
                if batch is None:
                    # The dispatcher has work it may not perform: the access
                    # budget ran dry.  Sequential strategies raise; the
                    # distillation strategies stop and keep what they have.
                    if self.policy.budget_action == "raise":
                        raise ExecutionError(self.policy.budget_message())
                    budget_exhausted = True
                    break
                if not batch:
                    continue
                batch_had_rows = False
                clock = self.clock
                for completion in batch:
                    _, rows, finish, counted, failed = completion
                    if finish < clock - 1e-12:
                        raise AssertionError(
                            f"simulated clock would move backwards ({finish:.6f} < "
                            f"{clock:.6f}); the dispatcher violated monotonicity"
                        )
                    if finish > clock:
                        clock = finish
                    if failed:  # no rows; only the clock advances
                        continue
                    if not counted:
                        gate_served += 1
                    if rows:
                        batch_had_rows = True
                        absorb(completion)
                self.clock = clock
                size = len(batch)
                completed_since_check += size
                profile.completions += size
                profile.completion_batches += 1
                if size > profile.max_batch:
                    profile.max_batch = size
                now = perf_counter()
                profile.absorb_seconds += now - mark
                mark = now
                if (
                    interval is not None
                    and batch_had_rows
                    and completed_since_check >= interval
                ):
                    completed_since_check = 0
                    streamed_batch = self.tracker.check(clock)
                    now = perf_counter()
                    profile.answer_check_seconds += now - mark
                    mark = now
                    if streamed_batch:
                        profile.answers_streamed += len(streamed_batch)
                        yield ("answers", streamed_batch)
                        mark = perf_counter()
            now = perf_counter()
            profile.dispatch_seconds += now - mark
            mark = now
            if not budget_exhausted:
                more_phases = self.policy.advance()
                now = perf_counter()
                profile.fast_fail_seconds += now - mark
                mark = now

        total_time = dispatcher.total_time()
        streamed_batch = self.tracker.check(total_time)
        profile.answer_check_seconds += perf_counter() - mark
        if streamed_batch:
            profile.answers_streamed += len(streamed_batch)
            yield ("answers", streamed_batch)
        profile.answer_checks = self.tracker.incremental_checks + self.tracker.full_checks
        profile.incremental_checks = self.tracker.incremental_checks
        profile.full_checks = self.tracker.full_checks
        profile.fast_fail_checks = self.policy.fast_fail_checks
        return KernelOutcome(
            answers=frozenset(self.tracker.answer_times),
            answer_times=self.tracker.answer_times,
            first_answer_time=self.tracker.first_answer_time,
            total_time=total_time,
            sequential_time=self.dispatcher.sequential_time,
            budget_exhausted=budget_exhausted,
            failed_relations=self.resilience.snapshot_failed_relations(),
            retry_stats=self.resilience.stats,
            gate_served=gate_served,
            peak_in_flight=getattr(self.dispatcher, "peak_in_flight", 0),
            profile=profile,
        )

    def _offer_fixpoint(self) -> None:
        """Offer every enabled access, to a fixpoint.

        Rows served from the (possibly session-shared) meta-caches can
        transitively enable further bindings without any source access, so
        one pass is not enough: iterate until nothing new is offered or
        served locally.
        """
        offer = self.policy.offer
        submit = self.dispatcher.submit
        passes = 1
        while offer(submit):
            passes += 1
        self.profile.offer_passes += passes
