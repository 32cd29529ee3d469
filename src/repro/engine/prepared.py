"""A prepared plan: the engine-side handle on one planned query."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, AsyncIterator, Iterator, Optional, Tuple

from repro.datalog.program import DatalogProgram
from repro.engine.explain import Explanation, build_explanation
from repro.engine.result import Result
from repro.engine.strategy import (
    CONCURRENCY_MODES,
    ExecuteOptions,
    ExecutionStrategy,
    OPTIMIZERS,
    StrategyLike,
    async_unsupported,
    resolve_strategy,
    streaming_unsupported,
    unknown_concurrency,
    unknown_optimizer,
)
from repro.exceptions import ReproError
from repro.plan.plan import QueryPlan
from repro.query.conjunctive import ConjunctiveQuery
from repro.runtime.kernel import StreamedAnswer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine


@dataclass
class PreparedPlan:
    """A query that has been parsed, validated and planned by an engine.

    The prepared plan can be executed any number of times, with any
    registered strategy; repeated executions within one engine session share
    the session's meta-caches, so a prepared plan re-executed with a
    plan-based strategy costs no further source accesses.

    Every :meth:`Engine.plan` call returns a handle of its own — it carries
    the ``last_*`` state of its executions — while the immutable ``plan``
    may share its structure with every other query of the same shape (see
    :mod:`repro.engine.plan_cache`).
    """

    engine: "Engine"
    query: ConjunctiveQuery
    plan: QueryPlan
    #: The runtime kernel's per-phase profile of the most recent execution
    #: (None before any run; see :class:`repro.runtime.profile.KernelProfile`).
    last_kernel_profile: Optional[object] = None
    #: The normalized :class:`~repro.engine.result.Result` of the most recent
    #: *streaming* execution, shaped after the stream is exhausted (None
    #: before any stream, and when the consumer abandoned the stream before
    #: the kernel produced an outcome).  Servers streaming answers over a
    #: wire read it to append an honest completeness trailer.
    last_stream_result: Optional[Result] = None

    # -- execution -----------------------------------------------------------
    def _options(self, options: Optional[ExecuteOptions], overrides: dict) -> ExecuteOptions:
        base = options if options is not None else self.engine.default_options
        return base.override(**overrides) if overrides else base

    def _resolve(
        self,
        strategy: StrategyLike,
        options: Optional[ExecuteOptions],
        overrides: dict,
        *,
        streaming: bool = False,
        awaited: bool = False,
    ) -> Tuple[ExecutionStrategy, ExecuteOptions]:
        """Resolve one call's strategy and options — the single door every
        entry point enters by, so a bad strategy, option, concurrency mode
        or optimizer raises the same error (with query/plan context) at the call
        site of ``execute``, ``aexecute``, ``stream`` and ``astream`` alike.
        """
        try:
            resolved = resolve_strategy(strategy)
            opts = self._options(options, overrides)
            if opts.concurrency not in CONCURRENCY_MODES:
                raise unknown_concurrency(opts.concurrency)
            if opts.optimizer not in OPTIMIZERS:
                raise unknown_optimizer(opts.optimizer)
            if streaming and not resolved.supports_streaming:
                raise streaming_unsupported(resolved.name)
            if (awaited or opts.concurrency == "async") and not resolved.supports_async:
                raise async_unsupported(resolved.name)
        except ReproError as error:
            raise error.with_context(query=self.query, plan=self.plan)
        return resolved, opts

    def execute(
        self,
        strategy: StrategyLike = "fast_fail",
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> Result:
        """Execute the plan with the given strategy and return a :class:`Result`.

        Args:
            strategy: a registered strategy name (``naive``, ``fast_fail``,
                ``distillation``, ...) or an
                :class:`~repro.engine.strategy.ExecutionStrategy` instance.
            options: a full :class:`~repro.engine.strategy.ExecuteOptions`;
                defaults to the engine's options.
            **overrides: individual option fields to override, e.g.
                ``max_accesses=100``.

        With ``concurrency="async"`` the execution runs on a private event
        loop (await :meth:`aexecute` from async code instead).
        """
        resolved, opts = self._resolve(strategy, options, overrides)
        try:
            return resolved.run(self, opts)
        except ReproError as error:
            raise error.with_context(query=self.query, plan=self.plan)

    async def aexecute(
        self,
        strategy: StrategyLike = "fast_fail",
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> Result:
        """:meth:`execute` on the caller's event loop.

        With ``concurrency="async"`` the strategy's accesses overlap on the
        loop (a read that suspends runs as an asyncio task); the simulated
        mode is stepped inline by the kernel's async driver, so every
        strategy/mode combination is awaitable.
        """
        resolved, opts = self._resolve(strategy, options, overrides, awaited=True)
        try:
            return await resolved.arun(self, opts)
        except ReproError as error:
            raise error.with_context(query=self.query, plan=self.plan)

    def stream(
        self,
        strategy: StrategyLike = "distillation",
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> Iterator[StreamedAnswer]:
        """Yield answers incrementally from a streaming strategy.

        Defaults to the distillation scheduler, whose simulated parallel
        wrappers produce answers as soon as they are derivable (Section V).
        Resolution errors (unknown name, concurrency mode or optimizer,
        strategy without streaming support) are raised here, at the call site, not
        at first iteration.
        """
        return self._stream(*self._resolve(strategy, options, overrides, streaming=True))

    def _stream(self, resolved, opts: ExecuteOptions) -> Iterator[StreamedAnswer]:
        try:
            yield from resolved.stream(self, opts)
        except ReproError as error:
            raise error.with_context(query=self.query, plan=self.plan)

    def astream(
        self,
        strategy: StrategyLike = "distillation",
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> AsyncIterator[StreamedAnswer]:
        """:meth:`stream` as an async generator on the caller's event loop.

        Resolution errors are raised here, at the call site, not at first
        ``anext``.
        """
        return self._astream(
            *self._resolve(strategy, options, overrides, streaming=True, awaited=True)
        )

    async def _astream(
        self, resolved, opts: ExecuteOptions
    ) -> AsyncIterator[StreamedAnswer]:
        try:
            # Closing this generator must finish the run's clean-up (tasks,
            # claims, session absorb) before ``aclose()`` returns.
            async with contextlib.aclosing(resolved.astream(self, opts)) as answers:
                async for answer in answers:
                    yield answer
        except ReproError as error:
            raise error.with_context(query=self.query, plan=self.plan)

    # -- inspection ----------------------------------------------------------
    def explain(self) -> Explanation:
        """Structured account of the planning pipeline for this query."""
        return build_explanation(self)

    def to_datalog(self) -> DatalogProgram:
        """The plan as the Datalog program of Section IV."""
        return self.plan.to_datalog()

    @property
    def answerable(self) -> bool:
        return self.plan.answerable

    def __str__(self) -> str:
        return f"PreparedPlan({self.query})"
