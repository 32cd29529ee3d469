"""The :class:`Engine` façade: one public entry point for the whole pipeline.

The engine hides the seed's seven subpackages behind four calls::

    engine = Engine(schema, instance)
    prepared = engine.plan("q(N) <- r1(A, N, Y1), r2('volare', Y2, A)")
    result = prepared.execute(strategy="fast_fail")
    explanation = prepared.explain()

Behind the scenes it wires parsing → validation → minimization → constant
elimination → d-graph → greatest fixpoint → ordering → ⊂-minimal plan, and
executes plans through the pluggable strategy registry.  The engine also
owns a *session*: shared per-relation meta-caches, so that no access is
ever repeated across the queries of one session (the paper's "never repeat
an access" invariant, lifted from one plan to the whole workload), and the
counters of what its executions did.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import AsyncIterator, Dict, Iterator, List, Optional, Sequence, Union

from repro.engine.explain import Explanation
from repro.engine.plan_cache import PlanCache
from repro.engine.prepared import PreparedPlan
from repro.engine.result import Result
from repro.engine.strategy import ExecuteOptions, StrategyLike
from repro.exceptions import EngineError, ReproError
from repro.model.instance import DatabaseInstance
from repro.model.schema import Schema
from repro.plan.minimal import MinimalPlanGenerator
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.runtime.dispatch import private_event_loop
from repro.runtime.kernel import StreamedAnswer
from repro.runtime.profile import KernelProfile
from repro.sources.backend import BackendLike
from repro.sources.cache import CacheDatabase, MetaCache
from repro.sources.log import AccessLog
from repro.sources.store import CacheStore, MemoryCacheStore, build_store
from repro.sources.wrapper import SourceRegistry

CacheLike = Union[None, str, CacheStore]


class EngineSession:
    """Cross-query state shared by every execution of one engine.

    The session is safe to share between concurrently running queries: its
    own mutation is lock-protected, the shared meta-cache mapping is
    created under the same lock, and the meta-caches themselves serialize
    their claims internally (see
    :meth:`~repro.sources.cache.MetaCache.claim`), so two concurrent
    queries never perform the same access twice — the paper's "never
    repeat an access" invariant, lifted from one plan to the whole
    concurrent workload.

    Attributes:
        meta: the shared per-relation meta-caches.  Every execution created
            through :meth:`new_cache_db` reads and feeds these, so an access
            tuple already used by *any* earlier query of the session is
            answered locally instead of hitting the source again.
        total_accesses: source accesses of the executions absorbed so far —
            a count: each run's access log travels on its ``Result`` only.
            On a fresh store, ``total_accesses == known_accesses`` is the
            "never repeat an access" invariant.
        executions: number of executions absorbed so far.
        store: the :class:`~repro.sources.store.CacheStore` holding the
            meta-caches' records and claims.  The default is an in-memory
            store; a persistent store makes the session warm-start from
            prior processes.  Nothing is evicted: a store miss means the
            access was never performed in the store's domain.
        kernel_profile: cumulative per-phase kernel profile over every
            execution absorbed so far (see
            :class:`~repro.runtime.profile.KernelProfile`); surfaced as
            ``stats()["kernel"]``.
    """

    def __init__(self, store: Optional[CacheStore] = None) -> None:
        self._lock = threading.RLock()
        self.store: CacheStore = store if store is not None else MemoryCacheStore()
        self.meta: Dict[str, MetaCache] = {}
        self.total_accesses = 0
        self.executions = 0
        #: ``total_accesses`` split per relation; with the meta-caches' own
        #: ``hits`` and sizes it makes ``stats()["relations"]``.
        self._relation_accesses: Dict[str, int] = {}
        self.kernel_profile = KernelProfile()
        #: Meta-cache hits a persistent store accumulated in earlier
        #: processes, reported apart from this process's live ``hits``.
        self._hit_base: Dict[str, int] = {
            relation: hits
            for relation, hits in self.store.persisted_hit_counters().items()
            if hits
        }

    def new_cache_db(self) -> CacheDatabase:
        """A fresh cache database whose meta-caches are the session's."""
        with self._lock:
            return CacheDatabase(
                shared_meta=self.meta, meta_lock=self._lock, store=self.store
            )

    def absorb(
        self, log: AccessLog, kernel_profile: Optional[KernelProfile] = None
    ) -> None:
        """Count one execution and its accesses, in total and per relation;
        the log itself is not kept.  A ``kernel_profile`` is merged into the
        session's cumulative kernel profile."""
        totals = log.totals()
        with self._lock:
            self.total_accesses += log.total_accesses
            self.executions += 1
            counts = self._relation_accesses
            for relation, entry in totals.items():
                counts[relation] = counts.get(relation, 0) + entry.accesses
            if kernel_profile is not None:
                self.kernel_profile.merge(kernel_profile)

    @property
    def known_accesses(self) -> int:
        """Distinct accesses the session can answer without a source round-trip."""
        with self._lock:
            return sum(len(meta) for meta in self.meta.values())

    @property
    def meta_hits(self) -> int:
        """Accesses answered by the session meta-caches instead of a source."""
        with self._lock:
            return sum(meta.hits for meta in self.meta.values())

    def reset(self) -> None:
        """Forget everything the session learned — including the store.

        Clearing the store too keeps the session coherent: fresh meta-caches
        over retained records would silently warm-start.  For a persistent
        store this *erases the shared access domain on disk*; restart the
        engine instead to keep it.
        """
        with self._lock:
            self.meta.clear()
            self.total_accesses = 0
            self.executions = 0
            self._relation_accesses.clear()
            self._hit_base.clear()
            self.kernel_profile = KernelProfile()
            self.store.clear()

    def _relations(self) -> Dict[str, Dict[str, int]]:
        """``{relation: {"accesses", "meta_hits", "persisted_meta_hits",
        "known"}}`` for every relation absorbed, meta-cached or with
        persisted hits; caller holds the lock."""
        counts, meta, base = self._relation_accesses, self.meta, self._hit_base
        relations = {}
        for relation in sorted({*counts, *meta, *base}):
            cache = meta.get(relation)
            relations[relation] = {
                "accesses": counts.get(relation, 0),
                "meta_hits": cache.hits if cache is not None else 0,
                "persisted_meta_hits": base.get(relation, 0),
                "known": len(cache) if cache is not None else 0,
            }
        return relations

    def stats(self) -> Dict[str, object]:
        with self._lock:
            accesses = self.total_accesses
            hits = sum(meta.hits for meta in self.meta.values())
            served = accesses + hits
            return {
                "executions": self.executions,
                "total_accesses": accesses,
                "known_accesses": sum(len(meta) for meta in self.meta.values()),
                "meta_hits": hits,
                "hit_rate": (hits / served) if served else 0.0,
                "persisted_meta_hits": sum(self._hit_base.values()),
                "relations": self._relations(),
                "cache_store": self.store.stats(),
                "kernel": self.kernel_profile.to_dict(),
            }


class Engine:
    """The public query engine over a schema with access limitations.

    Args:
        schema: the database schema (with access patterns).  May be ``None``
            when ``source`` is given, in which case the source's schema is
            used.
        source: where accesses are answered from — either a
            :class:`~repro.model.instance.DatabaseInstance` (a registry of
            zero-latency wrappers is built over it) or a ready-made
            :class:`~repro.sources.wrapper.SourceRegistry` (e.g. with
            per-relation latencies).
        latency: default per-access simulated latency when building wrappers
            from a database instance.
        backend: how wrappers built from a database instance answer their
            accesses — a kind name (``memory``, ``sqlite``, ``callable``)
            or a ``RelationInstance -> SourceBackend`` factory (see
            :mod:`repro.sources.backend`).  Ignored when ``source`` is
            already a :class:`~repro.sources.wrapper.SourceRegistry`.
        minimize: run Chandra–Merlin minimization on queries before planning.
        join_first_heuristic: tie-break source orderings by join count.
        options: default :class:`~repro.engine.strategy.ExecuteOptions` for
            executions started from this engine.
        cache: where the session's meta-caches keep their records —
            ``None`` (an in-memory store), a spec string (``"memory"`` or
            ``"sqlite:PATH"``), or a ready
            :class:`~repro.sources.store.CacheStore` instance.  A
            persistent store warm-starts the session from prior processes
            and is fingerprint-checked against this engine's sources.
    """

    def __init__(
        self,
        schema: Optional[Schema],
        source: Union[DatabaseInstance, SourceRegistry],
        *,
        latency: float = 0.0,
        backend: BackendLike = "memory",
        minimize: bool = True,
        join_first_heuristic: bool = True,
        options: Optional[ExecuteOptions] = None,
        cache: CacheLike = None,
    ) -> None:
        if isinstance(source, SourceRegistry):
            self.registry = source
        elif isinstance(source, DatabaseInstance):
            self.registry = SourceRegistry(source, latency=latency, backend=backend)
        else:
            raise EngineError(
                f"source must be a DatabaseInstance or a SourceRegistry, got {type(source).__name__}"
            )
        self.schema: Schema = schema if schema is not None else self.registry.schema
        if self.schema != self.registry.schema:
            raise EngineError("the engine's schema differs from the source registry's schema")
        self.default_options = options if options is not None else ExecuteOptions()
        # Plans depend on the schema and the generator's flags only, so the
        # cache belongs to the engine, not to the session.
        self._plans = PlanCache(
            MinimalPlanGenerator(
                self.schema, minimize=minimize, join_first_heuristic=join_first_heuristic
            )
        )
        store = build_store(cache)
        # A persistent store must have been built over these same sources:
        # serving rows recorded for a different schema would be silent
        # corruption, so the store is bound to a schema fingerprint.
        store.check_fingerprint(self.registry.fingerprint())
        self.session = EngineSession(store=store)

    # -- construction shorthands ---------------------------------------------
    @classmethod
    def over(cls, instance: DatabaseInstance, **kwargs: object) -> "Engine":
        """Build an engine straight over a database instance."""
        return cls(instance.schema, instance, **kwargs)  # type: ignore[arg-type]

    # -- parsing and planning ------------------------------------------------
    def parse(self, text: str) -> ConjunctiveQuery:
        """Parse a textual conjunctive query (``q(X) <- r(X, Y), s(Y)``)."""
        try:
            return parse_query(text)
        except ReproError as error:
            raise error.with_context(query=text)

    def _coerce(self, query: Union[str, ConjunctiveQuery]) -> ConjunctiveQuery:
        if isinstance(query, ConjunctiveQuery):
            return query
        if isinstance(query, str):
            return self.parse(query)
        raise EngineError(f"cannot interpret {type(query).__name__} as a query", query=query)

    def plan(self, query: Union[str, ConjunctiveQuery]) -> PreparedPlan:
        """Parse (if needed), validate and plan a query.

        Planning is done once per query *shape* — the query with its
        constants abstracted to numbered parameters, see
        :mod:`repro.engine.plan_cache` — and the shape's plan is bound to
        this query's constants.  The cache is per engine, bounded (LRU),
        safe under concurrent calls and survives :meth:`reset_session`;
        failed plans are never cached.  It is invisible in the result:
        ``explain()``, ``to_datalog()``, answers and accesses are the same
        whether the shape had been planned before or not, which is why
        artificial relations are named after parameters (``c__1_Title``),
        not values.

        Raises:
            ParseError: the text could not be parsed.
            QueryError: the query is inconsistent with the schema.
            UnanswerableQueryError: the query mentions a non-queryable
                relation (Section II); no plan produces its certain answers.
            Each carries the offending query as ``error.query``.
        """
        parsed = self._coerce(query)
        try:
            plan = self._plans.plan(parsed)
        except ReproError as error:
            raise error.with_context(query=parsed)
        return PreparedPlan(engine=self, query=parsed, plan=plan)

    # -- one-call conveniences -----------------------------------------------
    def execute(
        self,
        query: Union[str, ConjunctiveQuery],
        strategy: StrategyLike = "fast_fail",
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> Result:
        """Plan and execute in one call: ``engine.execute(q, strategy="naive")``."""
        return self.plan(query).execute(strategy=strategy, options=options, **overrides)

    def stream(
        self,
        query: Union[str, ConjunctiveQuery],
        strategy: StrategyLike = "distillation",
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> Iterator[StreamedAnswer]:
        """Plan and stream incremental answers in one call."""
        return self.plan(query).stream(strategy=strategy, options=options, **overrides)

    async def aexecute(
        self,
        query: Union[str, ConjunctiveQuery],
        strategy: StrategyLike = "fast_fail",
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> Result:
        """Plan and execute on the caller's event loop.

        Pass ``concurrency="async"`` (per call or in the engine's default
        options) to overlap the query's source accesses on the loop; other
        modes are stepped inline by the kernel's async driver.
        """
        return await self.plan(query).aexecute(
            strategy=strategy, options=options, **overrides
        )

    def astream(
        self,
        query: Union[str, ConjunctiveQuery],
        strategy: StrategyLike = "distillation",
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> AsyncIterator[StreamedAnswer]:
        """Plan and stream incremental answers as an async generator."""
        return self.plan(query).astream(strategy=strategy, options=options, **overrides)

    def explain(self, query: Union[str, ConjunctiveQuery]) -> Explanation:
        """Plan and explain in one call."""
        return self.plan(query).explain()

    # -- concurrent workloads --------------------------------------------------
    def execute_many(
        self,
        queries: Sequence[Union[str, ConjunctiveQuery]],
        strategy: StrategyLike = "fast_fail",
        max_parallel: int = 4,
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> List[Result]:
        """Execute independent queries concurrently over the shared session.

        The queries run on a thread pool of ``max_parallel`` workers; all
        of them read and feed the session's meta-caches, so an access
        needed by several queries is performed exactly once — a query that
        would repeat an in-flight access waits for it and reads the rows
        for free.  Answers and the session's total access count are
        therefore deterministic regardless of thread interleaving.  With
        ``concurrency="async"`` the queries overlap as coroutines on one
        private event loop instead (see :meth:`aexecute_many`).

        Returns one result per query, in input order; what the batch cost
        is in :meth:`session_stats`.
        """
        effective = options if options is not None else self.default_options
        if overrides.get("concurrency", effective.concurrency) == "async":
            with private_event_loop() as complete:
                return complete(
                    self.aexecute_many(
                        queries,
                        strategy=strategy,
                        max_parallel=max_parallel,
                        options=options,
                        **overrides,
                    )
                )
        prepared = [self.plan(query) for query in queries]

        def run_one(plan: PreparedPlan) -> Result:
            return plan.execute(strategy=strategy, options=options, **overrides)

        if max_parallel <= 1 or len(prepared) <= 1:
            return [run_one(plan) for plan in prepared]
        with ThreadPoolExecutor(max_workers=max_parallel) as pool:
            return list(pool.map(run_one, prepared))

    async def aexecute_many(
        self,
        queries: Sequence[Union[str, ConjunctiveQuery]],
        strategy: StrategyLike = "fast_fail",
        max_parallel: int = 4,
        options: Optional[ExecuteOptions] = None,
        **overrides: object,
    ) -> List[Result]:
        """:meth:`execute_many` on the caller's event loop.

        The queries overlap as coroutines under an ``asyncio.Semaphore``
        of ``max_parallel`` — all on one loop, all sharing the session's
        meta-caches, so the never-repeat-an-access invariant holds across
        the raced queries exactly as in the threaded path.
        """
        prepared = [self.plan(query) for query in queries]
        semaphore = asyncio.Semaphore(max(1, max_parallel))

        async def run_one(plan: PreparedPlan) -> Result:
            async with semaphore:
                return await plan.aexecute(strategy=strategy, options=options, **overrides)

        return list(await asyncio.gather(*(run_one(plan) for plan in prepared)))

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Close every source backend and the cache store.

        Idempotent, and safe after a backend error mid-query: double close
        and close-after-failure are no-ops, so ``with Engine(...)`` tears
        down cleanly no matter how the last execution ended.
        """
        if getattr(self, "_closed", False):
            return
        self._closed = True
        self.registry.close()
        self.session.store.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        # Backends are torn down on every exit path, including errors.
        self.close()

    # -- session management --------------------------------------------------
    def reset_session(self) -> None:
        """Forget all shared meta-caches and the session's counters.

        Planned shapes stay: they hold no data, only the schema's structure.
        """
        self.session.reset()

    def session_stats(self) -> Dict[str, object]:
        """Counters of the current session (executions, accesses, meta hits).

        ``plan_cache`` reports the engine's plan reuse next to the session's
        access reuse; its counters run for the engine's lifetime.
        """
        return {**self.session.stats(), "plan_cache": self._plans.stats()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Engine({len(self.schema)} relations, "
            f"{self.session.executions} executions this session)"
        )
