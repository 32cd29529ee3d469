"""Pluggable dispatchers: when accesses run, and on which clock.

A dispatcher receives :class:`~repro.runtime.kernel.AccessRequest` work
units from the kernel's offer passes and turns them into
:class:`~repro.runtime.kernel.Completion` events, stamped with the clock it
is authoritative for:

* :class:`SequentialDispatcher` — one access at a time, back to back; the
  clock is the cumulative latency of the accesses made so far (the naive
  and fast-failing strategies);
* :class:`SimulatedParallelDispatcher` — the paper's distillation model as
  a deterministic discrete-event simulation: every wrapper processes its
  FIFO queue sequentially, wrappers run concurrently, and the clock is a
  heap of ``(finish_time, relation)`` completion events;
* :class:`AsyncDispatcher` — the production counterpart
  (``concurrency="async"``, every strategy): accesses really run on one
  event loop (bounded by ``max_in_flight``), stamped with the wall clock
  relative to the start of the run; a read costs what its source costs —
  one that never suspends (an in-memory probe) completes where it was
  launched, one that does (a socket, an executor's thread for a backend
  that may block) becomes a task.

The first two are the ``concurrency="simulated"`` clocks; which one a
strategy runs on is part of its declaration
(:mod:`repro.engine.strategies`).

**Who owns what per access.**  What happens to one request between the
offer and the completion is the *access protocol*, written once as a plain
generator (:meth:`Dispatcher._access`) in the style of the kernel's own
machine: offer the binding to the policy's *gate* — the per-relation
session meta-cache — where a recorded binding is served locally
(``Completion.counted=False``) and an unrecorded one is *claimed*, so that
two concurrent executions sharing a session never perform the same access
twice; charge the budget; read the backend through the run's
:class:`~repro.sources.resilience.ResilienceContext` (the one retry loop:
retries, timeouts, per-relation circuit breakers); then record the rows on
the meta-cache — or abandon the claim, on *every* failure path, so a racing
execution can retry instead of deadlocking on a dead claimant.  The
protocol touches no clock and does no I/O: it yields ``read``,
``sleep(d)`` and ``wait_claim`` effects to a *trampoline*.  The sync one
(:meth:`Dispatcher._resolve`, under both simulated clocks) reads with a
blocking ``lookup``, waits for a claim on the meta-cache's condition
variable and never sleeps — a simulated clock charges ``attempts × latency
+ backoff`` from the outcome; the async one
(:meth:`AsyncDispatcher._aresolve`) awaits ``alookup``, really sleeps the
backoff and awaits a contended claim's wake-up, because a coroutine must
never block the loop its fulfiller runs on.  The *coordinator* — each
dispatcher's ``step``/``astep``, on the kernel's thread — stamps the
outcome with its clock, counts and logs the performed accesses and builds
the completions.  All cache mutation stays with the kernel.

The meta-cache resolves a claim against the session's cache store
(:mod:`repro.sources.store`): with a persistent store the "recorded" check
spans prior processes (warm start) and the claim gate spans concurrent
ones, so every dispatcher honours one shared "never repeat an access"
domain without knowing which store backs it.

The backlogs the dispatchers keep between an offer and its read are the
paper's Figure 5 *access tables*: the access tuples that are ready to be
shipped to a wrapper.  An entry is one request per cache occurrence, not
one per relation, because two caches over one relation may legitimately
dispatch the same binding — the meta-cache gate, not the table, is what
keeps the source from seeing it twice.

An access that permanently fails refunds its budget grant and resolves to
a ``failed`` completion instead of raising — the run finishes with a
failure-flagged partial result.
"""

from __future__ import annotations

import abc
import asyncio
import contextlib
import functools
import heapq
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Awaitable,
    Callable,
    ClassVar,
    Coroutine,
    Deque,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.exceptions import ExecutionError
from repro.runtime.kernel import AccessBudget, AccessRequest, Completion
from repro.sources.resilience import AccessOutcome, Effect, ResilienceContext
from repro.sources.store import ClaimStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.policy import Gate
    from repro.sources.cache import MetaCache
    from repro.sources.log import AccessLog
    from repro.sources.wrapper import SourceRegistry, SourceWrapper

#: Access tuples that may wait at one simulated wrapper (Section V: a tuple
#: is delivered to its wrapper "provided its queue is not full"); further
#: tuples stay in the dispatcher's backlog until a slot frees up.
WRAPPER_QUEUE_CAPACITY = 64

#: Simulated latency of one access at a wrapper that declares none, charged
#: by the strategies that price their run on the parallel-wrapper model.
DEFAULT_LATENCY = 0.01


#: The effect the access protocol yields when another claimant holds the
#: binding: the trampoline waits the way its world allows and answers with
#: what :meth:`~repro.sources.cache.MetaCache.claim` would — the served
#: rows, or None once the caller owns the access.
WAIT_CLAIM = ("wait_claim", None)

#: What a dispatcher needs of one relation: the wrapper that reads it, the
#: session gate its accesses are recorded on (None: neither recorded nor
#: deduplicated) and what one access costs on a simulated clock.
Source = Tuple["SourceWrapper", Optional["MetaCache"], float]


class SimulatedClock:
    """A clock its dispatcher advances by assigning ``time``; the run's
    resilience context and circuit breakers read it by calling it.  It knows
    nothing of the dispatcher, so keeping the clock does not keep the run."""

    __slots__ = ("time",)

    def __init__(self) -> None:
        self.time = 0.0

    def __call__(self) -> float:
        return self.time


def _seconds_since(started: float) -> float:
    return time.perf_counter() - started


class Dispatcher(abc.ABC):
    """The execution side of the kernel: turns requests into completions."""

    #: True when the dispatcher's clock is the wall clock — retry backoff
    #: must then really sleep instead of being charged to a simulation.
    wall_clock: ClassVar[bool] = False
    #: Latency charged for wrappers that declare none.
    default_latency = 0.0

    def __init__(self, registry: "SourceRegistry", log: "AccessLog", budget: AccessBudget) -> None:
        self.registry = registry
        self.log = log
        self.budget = budget
        #: What this run's policy lets the dispatcher see of it — values,
        #: never the policy (bound by the kernel right after construction).
        self.gate: Optional["Gate"] = None
        #: Failure handling for this run's reads; the kernel installs the
        #: run's configuration on it and hands it :attr:`now`.
        self.resilience = ResilienceContext()
        #: The dispatcher's authoritative clock, read by calling it (breaker
        #: cool-downs and retry pricing run on it).
        self.now: Callable[[], float] = SimulatedClock()
        #: Cumulative cost of the performed accesses run back to back.
        self.sequential_time = 0.0
        #: ``relation -> Source``, filled at each relation's first access.
        self._sources: Dict[str, Source] = {}

    def _source(self, relation: str) -> Source:
        """The relation's :data:`Source`: resolved through the registry and
        the gate at its first access, a dictionary read after that."""
        source = self._sources.get(relation)
        if source is None:
            assert self.gate is not None, "dispatcher used before bind_dispatcher"
            source = self._sources[relation] = (
                self.registry.wrapper(relation),
                self.gate.meta_for(relation),
                self.registry.latency_of(relation, self.default_latency),
            )
        return source

    # -- kernel interface -----------------------------------------------------
    @abc.abstractmethod
    def submit(self, request: AccessRequest) -> None:
        """Queue one unit of work."""

    def refill(self, now: float) -> None:
        """Move queued work into execution slots (no-op by default)."""

    @abc.abstractmethod
    def has_work(self) -> bool:
        """True while anything is queued or in flight."""

    @abc.abstractmethod
    def step(self) -> Optional[List[Completion]]:
        """Advance until at least one completion (or nothing can run).

        Returns the completions of this step, ``[]`` when there was nothing
        to do, or ``None`` when work remains that the access budget refuses
        to fund — the kernel decides whether that raises or ends the run.
        """

    @abc.abstractmethod
    def total_time(self) -> float:
        """The dispatcher's clock at the end of the run."""

    def close(self) -> None:
        """Release execution resources (executor threads); idempotent."""

    # -- the access path --------------------------------------------------------
    def _access(
        self,
        request: AccessRequest,
        meta: Optional["MetaCache"],
        budget: Optional[AccessBudget],
    ) -> Generator[Effect, object, Optional[AccessOutcome]]:
        """The access protocol, written once: claim → budget → resilient
        read → record | abandon (see the module docstring), as a plain
        generator driven by :meth:`_resolve` or
        :meth:`AsyncDispatcher._aresolve`.

        ``budget`` is charged right before the read — None when the caller
        reserved the grant beforehand and settles it itself.  The claim is
        abandoned on every path that does not record: budget denial, a
        permanently failed access, and whatever the read raised that was
        not an operational fault (a programming error, a cancellation) —
        waiters re-contend and may retry the access themselves.

        Returns the :class:`~repro.sources.resilience.AccessOutcome`, or
        None when the budget denied the access; a failed outcome's grant
        is refunded here when it was taken here.
        """
        binding = request.binding
        owns_claim = False
        if meta is not None and self.gate.dedup_accesses:
            status, served = meta.try_claim(binding)
            if status is ClaimStatus.WAIT:
                served = yield WAIT_CLAIM
            if served is not None:
                return AccessOutcome(served, False)
            owns_claim = True
        outcome = None
        try:
            if budget is None or budget.grant(1):
                outcome = yield from self.resilience.perform(request.relation, binding)
        except BaseException:
            if owns_claim:
                meta.abandon(binding)
            raise
        if outcome is not None and outcome.counted:
            if meta is not None:
                meta.record(binding, outcome.rows)
            return outcome
        if owns_claim:
            meta.abandon(binding)
        if outcome is not None and budget is not None:
            budget.refund(1)
            self.resilience.note_refund()
        return outcome

    def _resolve(
        self, request: AccessRequest, wrapper: "SourceWrapper", meta: Optional["MetaCache"]
    ) -> Optional[AccessOutcome]:
        """The sync trampoline: run the access protocol on this thread.

        Reads block, a contended claim is waited for on the meta-cache's
        condition variable, and a backoff is not slept — both dispatchers
        this serves keep a simulated clock and charge it from the outcome.
        Whatever a read raises is raised inside the protocol, which decides
        what is a fault to retry and what must propagate.
        """
        steps = self._access(request, meta, self.budget)
        try:
            kind, _ = next(steps)
            while True:
                try:
                    if kind == "read":
                        reply = wrapper.lookup(request.binding)
                    elif kind == "wait_claim":
                        reply = meta.claim(request.binding)
                    else:  # "sleep": charged from the outcome, never waited
                        reply = None
                except BaseException as error:
                    kind, _ = steps.throw(error)
                else:
                    kind, _ = steps.send(reply)
        except StopIteration as stop:
            return stop.value


class SequentialDispatcher(Dispatcher):
    """One access at a time on a cumulative simulated clock.

    Accesses run back to back, so the authoritative clock is the cumulative
    latency of the accesses made so far; every access record is stamped
    with it (per-wrapper clocks would diverge as soon as two relations
    interleave).
    """

    def __init__(
        self,
        registry: "SourceRegistry",
        log: "AccessLog",
        budget: AccessBudget,
        default_latency: float = 0.0,
    ) -> None:
        super().__init__(registry, log, budget)
        self.default_latency = default_latency
        self._queue: Deque[AccessRequest] = deque()

    def submit(self, request: AccessRequest) -> None:
        self._queue.append(request)

    def has_work(self) -> bool:
        return bool(self._queue)

    def step(self) -> Optional[List[Completion]]:
        """Drain the whole queue back to back.

        One step performs every queued access (the offered bindings of the
        phase's latest delta pass): the kernel then absorbs the batch and
        offers again, so the per-access cost stays one claim + one read,
        not one full offer pass.  On budget denial, the completions made
        so far are returned first; the next step finds the surviving head
        denied again with nothing done and reports the stall.

        Retried accesses cost ``attempts × latency + backoff`` on the
        cumulative clock — every attempt occupied the source, every
        backoff waited in line.  Failed accesses charge the same but are
        never logged; short-circuited ones (open breaker) cost nothing.
        """
        queue = self._queue
        if not queue:
            return []
        completions: List[Completion] = []
        sources = self._sources
        clock = self.now
        while queue:
            request = queue[0]
            relation = request.relation
            wrapper, meta, latency = sources.get(relation) or self._source(relation)
            outcome = self._resolve(request, wrapper, meta)
            if outcome is None:
                return completions if completions else None
            queue.popleft()
            rows, counted, failed, attempts, backoff, _ = outcome
            if counted or failed:
                cost = attempts * latency + backoff
                clock.time += cost
                self.sequential_time += cost
                if counted:
                    wrapper.record_access(request.binding, rows, self.log, clock.time)
            completions.append(Completion(request, rows, clock.time, counted, failed))
        return completions

    def total_time(self) -> float:
        return self.now()


@dataclass(slots=True)
class _WrapperState:
    """Scheduling state of one wrapper during the simulation."""

    relation: str
    latency: float
    queue: Deque[AccessRequest] = field(default_factory=deque)
    busy_until: float = 0.0
    #: True while the head of the queue has a completion event in the heap.
    scheduled: bool = False
    #: A resolved access (rows already read, retries already priced) whose
    #: extended finish time is still in the event heap; delivered — and, if
    #: counted, logged — when that event pops, so completions leave the
    #: heap in monotone clock order even when retries stretch an access.
    pending: Optional[Completion] = None
    #: True once the budget denied this wrapper's head: the queue stays (it
    #: is the work the budget refuses to fund) but is never re-scheduled —
    #: grants can only shrink for the rest of the run.
    stalled: bool = False


class SimulatedParallelDispatcher(Dispatcher):
    """The deterministic discrete-event simulation of parallel wrappers.

    Every wrapper processes its FIFO queue sequentially, each access taking
    the wrapper's latency, and wrappers run concurrently on the simulated
    clock.  The earliest-finishing in-flight access is popped from the
    event heap in O(log w); the clock is the finish time of the last
    completed access and the kernel asserts it never decreases (answers can
    never be timestamped before the accesses that derived them).
    """

    def __init__(
        self,
        registry: "SourceRegistry",
        log: "AccessLog",
        budget: AccessBudget,
        relations: Iterable[str],
        default_latency: float = DEFAULT_LATENCY,
    ) -> None:
        super().__init__(registry, log, budget)
        self.default_latency = default_latency
        self._wrappers: Dict[str, _WrapperState] = {}
        for name in relations:
            if name in self._wrappers:
                continue
            latency = registry.latency_of(name, default_latency)
            self._wrappers[name] = _WrapperState(name, latency)
        #: Unbounded per-relation backlog feeding the bounded wrapper queues.
        self._pending: Dict[str, Deque[AccessRequest]] = {
            name: deque() for name in self._wrappers
        }
        #: Completion events of the in-flight accesses: ``(finish, relation)``.
        self._events: List[Tuple[float, str]] = []
        #: Completions resolved without wrapper work (meta-cache hits found
        #: at schedule time), delivered by the next :meth:`step`.
        self._ready: List[Completion] = []
        #: Requests submitted and not yet delivered as completions — in a
        #: backlog, a wrapper queue, a parked retry or the ready list.
        self._outstanding = 0
        #: Wrappers whose state changed since they were last refilled: only
        #: these are touched by :meth:`refill` (submit and event delivery
        #: mark them; a quiescent wrapper is never re-scanned or re-probed).
        self._dirty: Set[str] = set()
        #: Wrappers whose queue head the budget denied (stall memo, so the
        #: drained-heap check does not scan every wrapper per step).
        self._stalled: Set[str] = set()
        #: ``(relation, binding) ->`` submitted more than once (by two caches
        #: over one relation): only then can it be recorded between its offer
        #: and its schedule.
        self._repeated: Dict[Tuple[str, Tuple[object, ...]], bool] = {}

    def submit(self, request: AccessRequest) -> None:
        self._pending[request.relation].append(request)
        self._dirty.add(request.relation)
        self._outstanding += 1
        access = request[1:]
        self._repeated[access] = access in self._repeated

    def refill(self, now: float) -> None:
        """Move backlog into free queue slots and schedule idle wrappers.

        A queue head whose binding is already recorded on the meta-cache is
        served here, *before* an event is scheduled for it: a hit costs no
        wrapper time.  The offer pass probed every binding it submitted, so
        only a head submitted twice (by two caches over one relation, the
        first copy completed since) or a stalled one (a concurrent execution
        may record it) is probed again; another execution recording any
        other head serves it at its event, like a claim served there.

        Only dirty wrappers (new submissions, or an event delivered since
        their last refill) are processed, in registration order, so the
        delivery order of served hits is reproducible run to run.
        """
        clock = self.now
        if now > clock.time:
            clock.time = now
        dirty = self._dirty
        if not dirty:
            return
        probe = self.gate is not None and self.gate.dedup_accesses
        for name, state in self._wrappers.items():
            if name not in dirty:
                continue
            dirty.discard(name)
            backlog = self._pending[name]
            queue = state.queue
            while True:
                while backlog and len(queue) < WRAPPER_QUEUE_CAPACITY:
                    queue.append(backlog.popleft())
                if not queue or state.scheduled:
                    break
                # Non-claiming gate probe: the rows when the head's binding
                # is already recorded (counted as a hit).
                rows = None
                if probe and (state.stalled or self._repeated[queue[0][1:]]):
                    meta = (self._sources.get(name) or self._source(name))[1]
                    if meta is not None:
                        rows = meta.lookup(queue[0].binding)
                if rows is None:
                    # A stalled wrapper's head stays queued but is never
                    # re-scheduled: the budget that denied it cannot grow.
                    # It stays dirty, though — a concurrent execution may
                    # yet record the head's binding, which the probe above
                    # then serves for free.
                    if state.stalled:
                        dirty.add(name)
                    else:
                        start = max(state.busy_until, now)
                        state.scheduled = True
                        heapq.heappush(self._events, (start + state.latency, name))
                    break
                self._ready.append(Completion(queue.popleft(), rows, now, False))

    def has_work(self) -> bool:
        return self._outstanding > 0

    def step(self) -> Optional[List[Completion]]:
        """Deliver every completion of the next simulated-time tick.

        All events sharing the earliest finish time — necessarily distinct
        wrappers, each with at most one event in flight — are popped and
        resolved as one batch, so the kernel pays one absorb/offer round
        per *tick* instead of one per completion.  Within the tick, events
        resolve in heap order (time, then relation name): the same order
        the one-pop-per-step design produced, so budget denials, refunds
        and breaker state evolve identically.
        """
        if self._ready:
            ready, self._ready = self._ready, []
            self._outstanding -= len(ready)
            return ready
        if not self._events:
            # Nothing in flight: with a wrapper stalled, the work left (the
            # kernel only steps while there is some) is what the budget refuses.
            return None if self._stalled else []
        completions: List[Completion] = []
        events = self._events
        finish = events[0][0]
        if finish > self.now.time:
            self.now.time = finish
        while events and events[0][0] == finish:
            _, relation = heapq.heappop(events)
            state = self._wrappers[relation]
            state.scheduled = False
            self._dirty.add(relation)
            wrapper, meta, _ = self._sources.get(relation) or self._source(relation)
            if state.pending is not None:
                # A retried access resolved earlier; its extended finish
                # event just popped, so deliver (and log) it now — in clock
                # order.
                completion, state.pending = state.pending, None
                if completion.counted:
                    wrapper.record_access(
                        completion.request.binding,
                        completion.rows,
                        self.log,
                        completion.finish_time,
                    )
                completions.append(completion)
                continue
            request = state.queue[0]
            outcome = self._resolve(request, wrapper, meta)
            if outcome is None:
                # The budget denied this wrapper's head: it stalls (it can
                # never be funded again), reported once the heap has drained
                # — the events still in it (retry-stretched accesses already
                # performed and recorded, notably) are delivered first.
                state.stalled = True
                self._stalled.add(relation)
                continue
            state.queue.popleft()
            if not outcome.counted and not outcome.failed:
                # A concurrent execution recorded the binding between
                # schedule and completion: the rows are served, the
                # wrapper's busy time and the budget stay untouched.
                completions.append(Completion(request, outcome.rows, finish, False))
                continue
            if outcome.attempts == 0:
                # Short-circuited by an open breaker: the wrapper did no
                # work, so its busy time and the sequential cost stay
                # untouched.
                completions.append(Completion(request, frozenset(), finish, False, True))
                continue
            # Retries stretch the access beyond its scheduled one-latency
            # slot: every attempt occupied the wrapper, every backoff waited
            # in line.
            extra = (outcome.attempts - 1) * state.latency + outcome.backoff
            completion_time = finish + extra
            state.busy_until = completion_time
            self.sequential_time += outcome.attempts * state.latency + outcome.backoff
            completion = Completion(
                request, outcome.rows, completion_time, outcome.counted, outcome.failed
            )
            if extra <= 0:
                if completion.counted:
                    # The heap clock is the authoritative one: the record is
                    # stamped with this event's finish time, not
                    # count × latency.
                    wrapper.record_access(
                        request.binding, completion.rows, self.log, completion_time
                    )
                completions.append(completion)
                continue
            # Deliver via the heap so later events of other wrappers cannot
            # be absorbed after this one with an earlier timestamp (the
            # kernel enforces a monotone clock).
            state.pending = completion
            state.scheduled = True
            heapq.heappush(events, (completion_time, relation))
        if completions:
            self._outstanding -= len(completions)
            return completions
        return [] if events else None

    def total_time(self) -> float:
        return max(
            (state.busy_until for state in self._wrappers.values()), default=0.0
        )


class _Launched:
    """A task's coroutine for an access that suspended on its first step.

    The task's first step gets back what the access yielded, so the task
    waits on it as if it had taken that step itself; every later step, and
    whatever the task throws in — a cancellation before its first step
    included — goes to the access, so the access protocol always runs its
    own clean-up.  No frame here keeps what passes through it: an
    exception's traceback holds the frames it crossed, and one of them
    holding the exception, or the future that carried it, is a cycle.
    """

    __slots__ = ("_access", "_pending", "_started")

    def __init__(self, access: Coroutine[object, None, AccessOutcome], pending: object) -> None:
        self._access, self._pending, self._started = access, pending, False

    def send(self, value: None) -> object:
        if self._started:
            return self._access.send(value)
        self._started = True
        pending, self._pending = self._pending, None
        return pending

    def throw(self, *error: object) -> object:
        if not self._started:
            self._started = True
            if self._pending is not None:
                self._pending.cancel()  # what a task does to the future it waits on
            self._pending = None
        try:
            return self._access.throw(*error)
        finally:
            del error

    def close(self) -> None:
        self._pending = None
        self._access.close()

    def __await__(self) -> "_Launched":
        return self

    def __next__(self) -> object:
        return self.send(None)


class AsyncDispatcher(Dispatcher):
    """Event-loop dispatch: accesses really run, overlapping on one loop.

    The dispatcher of real concurrency, for sources reached over real I/O.
    A backend with a native async read (``alookup``) is awaited on the loop
    thread: the HTTP backend awaits its socket, the in-memory one is a
    dictionary probe that never waits — neither costs a thread.  Any other
    backend (SQLite, a slow callable, injected faults, a user subclass) may
    sleep or lock, so its ``lookup`` runs on an executor this run builds the
    first time such a backend is actually read, and overlaps there.  Up to
    ``max_in_flight`` accesses are in flight across all relations.

    Division of labour: :meth:`refill` runs the async trampoline
    (:meth:`_aresolve`) over the one access protocol on the spot, up to its
    first real suspension — an access that never suspends (an in-memory
    read, a gate hit) finishes there and costs no task, one that suspends
    continues as a task (:class:`_Launched`).  So an in-memory run holds the
    loop between real suspensions, as ``execute`` holds its thread.  The
    **coordinator** (the kernel's async driver) counts and logs performed
    accesses on the wall clock and refunds the budget for gate-served or
    failed ones; the budget is charged one grant per access at launch, so
    ``total_granted - refunded`` equals recorded accesses, as everywhere.

    Only the async kernel driver (:meth:`~repro.runtime.kernel.
    FixpointKernel.astream`) can run this dispatcher; the sync ``step()``
    raises.
    """

    wall_clock: ClassVar[bool] = True

    def __init__(
        self,
        registry: "SourceRegistry",
        log: "AccessLog",
        budget: AccessBudget,
        max_in_flight: int = 64,
    ) -> None:
        super().__init__(registry, log, budget)
        self.max_in_flight = max(1, max_in_flight)
        self._backlog: Deque[AccessRequest] = deque()
        #: The accesses that suspended, as tasks, with their requests.
        self._tasks: Dict["asyncio.Task", AccessRequest] = {}
        #: ``(request, outcome)`` of the accesses that finished at launch.
        self._ready: List[Tuple[AccessRequest, AccessOutcome]] = []
        #: Pool for backends without a native async read; see :meth:`_pool`.
        self._executor: Optional[ThreadPoolExecutor] = None
        self.now = functools.partial(_seconds_since, time.perf_counter())
        #: High-water mark of accesses launched and not yet reaped.
        self.peak_in_flight = 0

    # ------------------------------------------------------------------------------
    def submit(self, request: AccessRequest) -> None:
        self._backlog.append(request)

    def refill(self, now: float) -> None:
        """Launch backlog up to ``max_in_flight``, within the budget: an
        access that finishes here waits for the next :meth:`astep`, one that
        suspends becomes a task; both are in flight until reaped."""
        backlog, tasks, ready = self._backlog, self._tasks, self._ready
        if not backlog or len(tasks) + len(ready) >= self.max_in_flight:
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            raise ExecutionError(
                "the async dispatcher must run on an event loop; use the "
                "async execution APIs (aexecute/astream) or a sync "
                "concurrency mode"
            ) from None
        while backlog and len(tasks) + len(ready) < self.max_in_flight:
            if self.budget.grant(1) < 1:
                break
            request = backlog.popleft()
            access = self._aresolve(request)
            try:
                launched = _Launched(access, access.send(None))
            except StopIteration as finished:
                ready.append((request, finished.value))
            else:
                tasks[loop.create_task(launched)] = request
        self.peak_in_flight = max(self.peak_in_flight, len(tasks) + len(ready))

    def has_work(self) -> bool:
        return bool(self._tasks or self._ready or self._backlog)

    def step(self) -> Optional[List[Completion]]:
        raise ExecutionError(
            "the async dispatcher has no synchronous step(); drive the kernel "
            "with astream()/arun()"
        )

    async def astep(self) -> Optional[List[Completion]]:
        """The accesses that finished at launch, without awaiting anything,
        else at least one task's; counted, logged and refunded here.

        Called right after a refill, nothing launched with a non-empty
        backlog can only mean the budget refused to fund the remaining
        work.
        """
        if self._ready:
            ready, self._ready = self._ready, []
            now = self.now()
            return [self._account(request, outcome, now) for request, outcome in ready]
        if not self._tasks:
            return None if self._backlog else []
        done, _ = await asyncio.wait(self._tasks, return_when=asyncio.FIRST_COMPLETED)
        now = self.now()
        return [self._reap(task, now) for task in done]

    def _reap(self, task: "asyncio.Task", now: float) -> Completion:
        """Account for one finished task at the coordinator."""
        request = self._tasks.pop(task)
        return self._account(request, task.result(), now)  # programming errors propagate

    def _account(self, request: AccessRequest, outcome: AccessOutcome, now: float) -> Completion:
        """Account for one finished access at the coordinator."""
        self.sequential_time += outcome.read_seconds
        if outcome.counted:
            self._source(request.relation)[0].record_access(
                request.binding, outcome.rows, self.log, now
            )
        else:
            # Served by the gate — or permanently failed — without a
            # recorded access: give the launch-time reservation back.
            self.budget.refund(1)
            if outcome.failed:
                self.resilience.note_refund()
        return Completion(request, outcome.rows, now, outcome.counted, outcome.failed)

    def total_time(self) -> float:
        return self.now()

    async def aclose(self) -> None:
        """Cancel what is still in flight and await it out; account for the rest.

        An access that already finished — performed and recorded on the
        meta-cache — but that no ``astep`` has reaped yet is logged like any
        other: the run's cost is what hit the sources, also when the
        consumer stops early.  Only tasks that never delivered an outcome
        (cancelled here — before their first step too — or dead of a
        programming error) get their launch-time budget grant back
        uncounted.
        """
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()  # a no-op on the finished ones
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        now = self.now()
        ready, self._ready = self._ready, []
        for request, outcome in ready:
            self._account(request, outcome, now)
        for task in tasks:
            if task.cancelled() or task.exception() is not None:
                self.budget.refund(1)
            else:
                self._reap(task, now)
        self._tasks.clear()

    def close(self) -> None:
        """Let go of the pool without joining it: this runs on the loop
        thread, and a cancelled query's blocking read may still occupy a
        worker — which finishes its read (the claim is already abandoned)
        and exits on its own."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # ------------------------------------------------------------------------------
    def _pool(self) -> ThreadPoolExecutor:
        """This run's pool, built the first time a wrapper asks for it —
        i.e. when a backend without a native async read is actually read."""
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=min(32, self.max_in_flight))
        return self._executor

    async def _aresolve(self, request: AccessRequest) -> AccessOutcome:
        """The async trampoline: one run of the access protocol.

        Reads are awaited, a backoff is really slept, and a contended claim
        is awaited until its owner's release wakes it
        (:meth:`~repro.sources.cache.MetaCache.aclaim`).  Whatever an await
        raises — a cancellation (``aclose`` mid-run) included — is raised
        inside the protocol, which abandons an owned claim before letting it
        through.  The budget grant was taken at launch and is settled by
        :meth:`_account`.
        """
        relation = request.relation
        wrapper, meta, _ = self._sources.get(relation) or self._source(relation)
        binding = request.binding
        steps = self._access(request, meta, None)
        try:
            kind, delay = next(steps)
            while True:
                try:
                    if kind == "read":
                        reply = await wrapper.alookup(binding, self._pool)
                    elif kind == "wait_claim":
                        reply = await meta.aclaim(binding)
                    else:
                        reply = await asyncio.sleep(delay)
                except BaseException as error:
                    kind, delay = steps.throw(error)
                else:
                    kind, delay = steps.send(reply)
        except StopIteration as stop:
            return stop.value


async def _settle(awaitable: Awaitable[object]) -> Tuple[object, Optional[BaseException]]:
    try:
        return await awaitable, None
    except BaseException as error:
        return None, error


def _complete(loop: asyncio.AbstractEventLoop, awaitable: Awaitable[object]) -> object:
    """``loop.run_until_complete(awaitable)``, raising from *here*: an
    exception that leaves ``run_until_complete`` is held by the finished
    future, which that frame holds, which the traceback holds — a cycle with
    the whole run hanging off it until the cyclic collector passes."""
    value, error = loop.run_until_complete(_settle(awaitable))
    if error is None:
        return value
    try:
        raise error
    finally:
        del error  # the traceback now holds this frame


@contextlib.contextmanager
def private_event_loop() -> Iterator[Callable[[Awaitable[object]], object]]:
    """The one sync-over-async bridge: a private loop for a sync caller.

    Only ``concurrency="async"`` reached through a sync entry point
    (``execute``/``stream``/``execute_many``) comes here; the default sync
    path never touches an event loop.  The caller steps the loop itself —
    what is yielded runs one awaitable to completion on it — which is what
    lets a sync ``stream()`` hand out answers one at a time.  Refused inside
    a running loop — before any coroutine exists, so nothing is left
    un-awaited.
    """
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        pass
    else:
        raise ExecutionError(
            "execute()/stream()/execute_many() cannot run inside a running "
            "event loop with concurrency='async'; await aexecute()/astream()/"
            "aexecute_many() instead"
        )
    loop = asyncio.new_event_loop()
    try:
        yield functools.partial(_complete, loop)
        loop.run_until_complete(loop.shutdown_asyncgens())
    finally:
        loop.close()
