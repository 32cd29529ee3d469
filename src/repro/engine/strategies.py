"""The execution driver and the three built-in strategies.

The paper's evaluation methods — naive extraction (Figure 1), fast-failing
execution (Section IV), distillation (Section V) — are one fixpoint loop
(:class:`~repro.runtime.kernel.FixpointKernel`) that differs only in *what*
is offered (a :class:`~repro.runtime.policy.SchedulingPolicy`) and *when* it
is dispatched (a :class:`~repro.runtime.dispatch.Dispatcher`).  A built-in
strategy is therefore a declaration — which policy, which simulated clock,
whether it streams, whether it consults the session caches, which few
:class:`~repro.engine.result.Result` fields it adds — over the one driver
written here, :class:`KernelStrategy`.

The driver builds log, cache database, policy, dispatcher and kernel,
pumps the kernel, and — whatever way the pump ends — folds what really
hit the sources into the engine session and builds the result
straight from the :class:`~repro.runtime.kernel.KernelOutcome`.  It pairs
the policy with its dispatcher: the strategy's simulated clock under
``concurrency="simulated"``, the :class:`~repro.runtime.dispatch.
AsyncDispatcher` for every strategy under ``concurrency="async"``.
"""

from __future__ import annotations

import abc
import contextlib
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING, AsyncIterator, ClassVar, Dict, Iterator, List, Optional, Tuple

from repro.engine.result import Result, SourceBreakdown, Termination
from repro.engine.strategy import ExecuteOptions, ExecutionStrategy, register_strategy
from repro.runtime.dispatch import (
    DEFAULT_LATENCY,
    AsyncDispatcher,
    Dispatcher,
    SequentialDispatcher,
    SimulatedParallelDispatcher,
    private_event_loop,
)
from repro.runtime.kernel import AccessBudget, FixpointKernel, KernelOutcome, StreamedAnswer
from repro.runtime.policy import (
    EagerAllRelations,
    EagerPlan,
    OrderedFastFail,
    PlanPolicy,
    SchedulingPolicy,
)
from repro.sources.cache import CacheDatabase
from repro.sources.log import AccessLog
from repro.sources.wrapper import SourceRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.prepared import PreparedPlan


def _breakdown(
    log: AccessLog, registry: SourceRegistry, default_latency: float
) -> Tuple[Tuple[SourceBreakdown, ...], float]:
    """Per-relation breakdown of a log, plus the sequential simulated latency.

    ``default_latency`` is charged for wrappers that declare none — the same
    substitution the run's dispatcher applied, so the per-source numbers
    stay consistent with its clock.
    """
    entries: List[SourceBreakdown] = []
    total_latency = 0.0
    # The log's per-relation summary iterates in first-access order, which
    # under concurrent dispatch varies run to run; the breakdown is sorted
    # so identical executions always serialize to identical payloads.
    for relation, (accesses, rows) in sorted(log.per_relation_summary().items()):
        latency = registry.latency_of(relation, default_latency)
        simulated = accesses * latency
        total_latency += simulated
        entries.append(
            SourceBreakdown(
                relation=relation,
                accesses=accesses,
                distinct_rows=rows,
                simulated_latency=simulated,
            )
        )
    return tuple(entries), total_latency


class KernelStrategy(ExecutionStrategy):
    """A built-in strategy: a *(policy, dispatcher)* declaration.

    Subclasses declare; they implement none of ``run``/``arun``/``stream``/
    ``astream``.  Those are thin pumps over the one driver,
    :meth:`_execution` — the sync pair over the kernel's sync driver, the
    async pair over its async driver — the shape the kernel itself has.
    """

    supports_async = True
    #: Consult and feed the session's shared meta-caches (subject to
    #: ``ExecuteOptions.share_session_cache``).
    consults_session_caches: ClassVar[bool] = True
    #: Price wrappers that declare no latency at
    #: :data:`~repro.runtime.dispatch.DEFAULT_LATENCY` (on the simulated clock
    #: and in the per-source breakdown) instead of zero.
    charges_default_latency: ClassVar[bool] = False

    # -- the declaration -------------------------------------------------------
    @abc.abstractmethod
    def policy(
        self,
        prepared: "PreparedPlan",
        options: ExecuteOptions,
        cache_db: Optional[CacheDatabase],
    ) -> SchedulingPolicy:
        """*What* is offered: the scheduling policy of one run."""

    def simulated_dispatcher(
        self, policy: SchedulingPolicy, default_latency: float, *wiring: object
    ) -> Dispatcher:
        """*When* it runs under ``concurrency="simulated"``: one access at a
        time, back to back, unless the strategy declares otherwise.
        ``wiring`` is the ``(registry, log, budget)`` every dispatcher takes."""
        return SequentialDispatcher(*wiring, default_latency)

    def result_fields(
        self, policy: SchedulingPolicy, outcome: KernelOutcome
    ) -> Dict[str, object]:
        """The :class:`Result` fields this strategy adds to the common ones."""
        return {}

    # -- the driver ------------------------------------------------------------
    @contextlib.contextmanager
    def _execution(
        self, prepared: "PreparedPlan", options: ExecuteOptions
    ) -> Iterator[SimpleNamespace]:
        """One execution, written once: set up, hand the ``kernel`` to a
        pump, and — however the pump ends — absorb and shape the ``result``
        (left None when the kernel produced no outcome: it raised, or the
        consumer stopped early).

        The ``finally`` keeps the session's access counts consistent with
        whatever really hit the sources, even when the run aborts (access
        budget exceeded) or a streaming consumer stops early.
        The run's log itself goes only to the ``Result``.
        """
        started = time.perf_counter()
        engine = prepared.engine
        registry = engine.registry
        default_latency = DEFAULT_LATENCY if self.charges_default_latency else 0.0
        log = AccessLog()
        cache_db = None
        if self.consults_session_caches:
            cache_db = (
                engine.session.new_cache_db()
                if options.share_session_cache
                else CacheDatabase()
            )
        policy = self.policy(prepared, options, cache_db)
        budget = AccessBudget(options.max_accesses)
        if options.concurrency == "async":
            dispatcher: Dispatcher = AsyncDispatcher(
                registry, log, budget, max_in_flight=options.max_in_flight
            )
        else:
            dispatcher = self.simulated_dispatcher(policy, default_latency, registry, log, budget)
        kernel = FixpointKernel(
            policy,
            dispatcher,
            answer_check_interval=(
                max(1, options.answer_check_interval) if self.supports_streaming else None
            ),
            resilience=options.resilience(),
        )
        run = SimpleNamespace(kernel=kernel, result=None)
        try:
            yield run
        finally:
            outcome = kernel.last_outcome
            engine.session.absorb(log, outcome.profile if outcome is not None else None)
            if outcome is not None:
                prepared.last_kernel_profile = outcome.profile
                elapsed = time.perf_counter() - started
                per_source, sequential = _breakdown(log, registry, default_latency)
                fields: Dict[str, object] = {
                    "simulated_latency": sequential,
                    **self.result_fields(policy, outcome),
                }
                # A source failure outranks everything: whatever else the
                # run concluded (fast-fail, budget, completion), a
                # permanently failed access means the answers may be a
                # lower bound and the result must say so.
                if outcome.failed_relations:
                    termination = Termination.SOURCE_FAILURE
                elif outcome.budget_exhausted:
                    termination = Termination.BUDGET_EXHAUSTED
                elif fields.get("failed_at_position") is not None:
                    termination = Termination.FAST_FAILED
                else:
                    termination = Termination.COMPLETED
                run.result = Result(
                    strategy=self.name,
                    answers=outcome.answers,
                    termination=termination,
                    total_accesses=log.total_accesses,
                    per_source=per_source,
                    elapsed_seconds=elapsed,
                    failed_relations=outcome.failed_relations,
                    retry_stats=outcome.retry_stats,
                    access_log=log,
                    raw=outcome,
                    kernel_profile=outcome.profile,
                    **fields,
                )

    # -- the pumps: sync over kernel.stream(), async over kernel.astream() --------
    # ``concurrency="async"`` called from sync code is the one case that
    # crosses the sync-over-async bridge: the async pump, on a private loop.
    def run(self, prepared: "PreparedPlan", options: ExecuteOptions) -> Result:
        if options.concurrency == "async":
            with private_event_loop() as complete:
                return complete(self.arun(prepared, options))
        with self._execution(prepared, options) as run:
            run.kernel.run()
        return run.result

    async def arun(self, prepared: "PreparedPlan", options: ExecuteOptions) -> Result:
        with self._execution(prepared, options) as run:
            await run.kernel.arun()
        return run.result

    def stream(
        self, prepared: "PreparedPlan", options: ExecuteOptions
    ) -> Iterator[StreamedAnswer]:
        if options.concurrency == "async":
            with private_event_loop() as complete:
                answers = self.astream(prepared, options)
                try:
                    while (answer := complete(anext(answers, None))) is not None:
                        yield answer
                    return
                finally:
                    # A consumer that stops early must not strand the
                    # in-flight access tasks on a closed loop.
                    complete(answers.aclose())
        # The stream's outcome, shaped as a Result once the stream is
        # exhausted, lets wire protocols report completeness after the
        # last answer.
        prepared.last_stream_result = None
        with self._execution(prepared, options) as run:
            yield from run.kernel.stream()
        prepared.last_stream_result = run.result

    async def astream(
        self, prepared: "PreparedPlan", options: ExecuteOptions
    ) -> AsyncIterator[StreamedAnswer]:
        prepared.last_stream_result = None
        with self._execution(prepared, options) as run:
            async with contextlib.aclosing(run.kernel.astream()) as answers:
                async for answer in answers:
                    yield answer
        prepared.last_stream_result = run.result


@register_strategy
class NaiveStrategy(KernelStrategy):
    """The all-relations extraction baseline of Figure 1.

    Deliberately does not consult the session meta-caches: it reproduces the
    paper's baseline exactly, which is what the benchmarks compare against.
    """

    name = "naive"
    consults_session_caches = False

    def policy(self, prepared, options, cache_db) -> EagerAllRelations:
        return EagerAllRelations(prepared.engine.schema, prepared.query)


@register_strategy
class FastFailStrategy(KernelStrategy):
    """The fast-failing, ⊂-minimal execution of Section IV."""

    name = "fast_fail"

    def policy(self, prepared, options, cache_db) -> OrderedFastFail:
        return OrderedFastFail(
            prepared.plan,
            cache_db,
            fast_fail=options.fast_fail,
            fewest_pending_first=options.optimizer == "cost",
        )

    def result_fields(self, policy: OrderedFastFail, outcome) -> Dict[str, object]:
        return {"failed_at_position": policy.failed_at}


@register_strategy
class DistillationStrategy(KernelStrategy):
    """The parallel, incremental-answer scheduler of Section V.

    Simulated, it runs on the deterministic discrete-event model of
    parallel wrappers; its clock is the parallel makespan, and the time of
    the first answer is part of the result.
    """

    name = "distillation"
    supports_streaming = True
    charges_default_latency = True

    def policy(self, prepared, options, cache_db) -> EagerPlan:
        return EagerPlan(prepared.plan, cache_db)

    def simulated_dispatcher(
        self, policy: PlanPolicy, default_latency, *wiring
    ) -> SimulatedParallelDispatcher:
        return SimulatedParallelDispatcher(
            *wiring, policy.plan_relations(), default_latency=default_latency
        )

    def result_fields(self, policy, outcome: KernelOutcome) -> Dict[str, object]:
        return {
            "simulated_latency": outcome.total_time,
            "time_to_first_answer": outcome.first_answer_time,
        }
