"""Pluggable scheduling policies: what is offered to the dispatcher, when.

A policy owns the run's cache state and tells the
:class:`~repro.runtime.kernel.FixpointKernel` which accesses are newly
enabled at every offer pass.  The three strategies of the paper are three
policies over the same kernel:

* :class:`EagerAllRelations` — the naive baseline of Figure 1: every
  relation of the schema is offered every binding drawn from the value
  pool ``B``, relevance and meta-caches be damned;
* :class:`OrderedFastFail` — Section IV: one phase per ordering position
  of the ⊂-minimal plan, with the early non-emptiness test between phases
  and meta-cache dedup of repeated accesses;
* :class:`EagerPlan` — Section V (distillation): every cache of the plan
  is offered as soon as its providers supply a binding.

A policy never picks its dispatcher: the same offers run on a simulated
clock or as asyncio tasks, and the engine's execution driver
(:mod:`repro.engine.strategies`) decides which.

The plan-driven policies share the delta-driven binding generators of
:mod:`repro.plan.bindings`: each offer pass enumerates only the bindings
enabled by values that arrived since the previous pass, so a pass costs
time proportional to the *new* values, not the full provider cross
product.
"""

from __future__ import annotations

import abc
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.plan.bindings import CacheBindingGenerator, DeltaProduct, initialize_plan_caches
from repro.query.compiled import IncrementalJoin
from repro.runtime.dispatch import Dispatcher
from repro.runtime.kernel import AccessRequest, Completion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.domains import AbstractDomain
    from repro.model.schema import RelationSchema, Schema
    from repro.plan.plan import CachePredicate, QueryPlan
    from repro.query.conjunctive import ConjunctiveQuery
    from repro.sources.cache import CacheDatabase, MetaCache

Row = Tuple[object, ...]

#: Emit callback handed to :meth:`SchedulingPolicy.offer`.
Emit = Callable[[AccessRequest], None]


class Gate(NamedTuple):
    """What a dispatcher sees of the policy it runs: values, not the policy.
    The policy holds its dispatcher, so the dispatcher must not hold it back
    — a run's object graph is acyclic and dies with the run."""

    #: :attr:`SchedulingPolicy.dedup_accesses`.
    dedup_accesses: bool
    #: ``relation -> `` the meta-cache its accesses are recorded in, or None
    #: (neither recorded nor deduplicated).
    meta_for: Callable[[str], Optional["MetaCache"]]


def _no_meta_cache(relation: str) -> None:
    return None


class SchedulingPolicy(abc.ABC):
    """One way of deciding what the kernel dispatches, phase by phase."""

    #: What the kernel does when the access budget refuses work that is
    #: still pending: ``"raise"`` (sequential strategies) or ``"stop"``
    #: (distillation keeps the answers derived so far).
    budget_action: str = "stop"

    #: When True, dispatchers *claim* each binding on the relation's
    #: meta-cache before touching the source, so an access already made —
    #: or in flight on behalf of a concurrent execution of the session —
    #: is served locally instead of repeated.
    dedup_accesses: bool = True

    #: Fast-failing tests performed so far (only :class:`OrderedFastFail`
    #: makes any); the kernel reports it as ``fast_fail_checks``.
    fast_fail_checks: int = 0

    def bind_dispatcher(self, dispatcher: Dispatcher) -> None:
        """Called by the kernel once the dispatcher exists (for gating)."""
        self.dispatcher = dispatcher
        dispatcher.gate = self.gate()

    def gate(self) -> Gate:
        """The :class:`Gate` this policy hands its dispatcher."""
        return Gate(self.dedup_accesses, _no_meta_cache)

    def begin(self) -> bool:
        """Enter the first phase; False aborts before any work."""
        return True

    def advance(self) -> bool:
        """Enter the next phase; False ends the run."""
        return False

    @abc.abstractmethod
    def offer(self, emit: Emit) -> bool:
        """One offer pass: emit the newly enabled accesses of the phase.

        Accesses answerable from the session meta-cache are served locally
        instead of emitted; returns True when such local serving changed
        the cache state (enqueued work cannot enable further bindings, so
        it does not count), in which case the kernel offers again.
        """

    @abc.abstractmethod
    def absorb(self, completion: Completion) -> None:
        """Fold one completion's rows into the policy's cache state."""

    @abc.abstractmethod
    def evaluate(self) -> FrozenSet[Row]:
        """The query's answers over the current cache state."""

    def budget_message(self) -> str:
        return "execution exceeded the access budget"


# ------------------------------------------------------------------------------
class _ValuePool:
    """The naive pool ``B``: per-domain membership sets plus value logs."""

    def __init__(self) -> None:
        self.sets: Dict["AbstractDomain", Set[object]] = {}
        self._logs: Dict["AbstractDomain", List[object]] = {}

    def log(self, domain_: "AbstractDomain") -> List[object]:
        """The live, append-only log of one domain (created on first use)."""
        return self._logs.setdefault(domain_, [])

    def add(self, domain_: "AbstractDomain", value: object) -> bool:
        values = self.sets.setdefault(domain_, set())
        if value in values:
            return False
        values.add(value)
        self.log(domain_).append(value)
        return True


class EagerAllRelations(SchedulingPolicy):
    """The naive all-relations extraction of Figure 1.

    The algorithm of [3], reproduced in Figure 1, extracts *all* obtainable
    tuples from *all* relations of the schema, regardless of their
    relevance for the query:

    1. initialize a pool ``B`` of values with the constants of the query;
    2. while new accesses can be made, access every relation with every
       combination of values of ``B`` that matches the abstract domains of
       its input arguments, cache the retrieved tuples and pour the
       retrieved values back into ``B``;
    3. finally evaluate the query over the cache.

    This is the baseline the optimized plans are compared against in the
    experimental evaluation: it makes many unnecessary accesses (to
    relations irrelevant for the query, and to relevant relations with
    useless bindings).  It deliberately ignores the session meta-caches
    too, so the baseline is reproduced exactly.  When the access budget
    runs dry the run raises — the Cartesian products can grow quickly in
    randomized experiments.
    """

    budget_action = "raise"
    dedup_accesses = False

    def __init__(self, schema: "Schema", query: "ConjunctiveQuery") -> None:
        self.schema = schema
        self.query = query
        self.cache: Dict[str, Set[Row]] = {relation.name: set() for relation in schema}
        self.pool = _ValuePool()
        self._free_accessed: Set[str] = set()
        # One delta product per relation over the logs of its input
        # domains: each pass enumerates only the bindings not produced
        # before.
        self._products: Dict[str, DeltaProduct] = {
            relation.name: DeltaProduct(
                [self.pool.log(domain_) for domain_ in relation.input_domains]
            )
            for relation in schema
        }
        # The pool starts from the constants of the query, typed by the
        # abstract domains of the positions where they occur.
        for constant, domains in query.constant_domains(schema).items():
            for domain_ in domains:
                self.pool.add(domain_, constant.value)

    def offer(self, emit: Emit) -> bool:
        excluded = self.dispatcher.resilience.excluded
        for relation in self.schema:
            if excluded(relation.name):
                # Open breaker / dead source: leave the relation's delta
                # unconsumed so a half-open recovery can resume it.
                continue
            for binding in self._fresh_bindings(relation):
                emit(AccessRequest(relation.name, relation.name, binding))
        return False  # nothing is ever served locally

    def _fresh_bindings(self, relation: "RelationSchema"):
        if not relation.input_domains:
            # A free relation is accessed exactly once, with the empty binding.
            if relation.name in self._free_accessed:
                return iter(())
            self._free_accessed.add(relation.name)
            return iter(((),))
        return self._products[relation.name].fresh()

    def absorb(self, completion: Completion) -> None:
        rows = completion.rows
        if not rows:
            return
        relation = self.schema[completion.request.relation]
        self.cache[relation.name].update(rows)
        # Rows are poured in sorted order so the pool logs — and therefore
        # the binding enumeration order — never depend on set iteration
        # order.
        for row in sorted(rows, key=repr):
            for position, value in enumerate(row):
                self.pool.add(relation.domain_at(position), value)

    def evaluate(self) -> FrozenSet[Row]:
        return self.query.evaluate(self.cache)

    def budget_message(self) -> str:
        return (
            "naive evaluation exceeded the access budget of "
            f"{self.dispatcher.budget.limit}"
        )


# ------------------------------------------------------------------------------
class PlanPolicy(SchedulingPolicy):
    """Shared machinery of the plan-driven policies.

    Owns the plan's cache tables and delta-driven binding generators in a
    (possibly session-shared) :class:`~repro.sources.cache.CacheDatabase`,
    serves meta-cache hits at offer time, absorbs completions into the
    cache tables, and evaluates the rewritten query over them by running
    the shape's compiled join programs (``plan.compiled``, see
    :mod:`repro.query.compiled`) directly against the tables' indexes.

    Every admissible access order reaches the same least fixpoint: an
    order decides *when* accesses run, never *whether* — except where a
    fast-failing test between two phases ends the run early, which only
    :class:`OrderedFastFail` has.
    """

    def __init__(self, plan: "QueryPlan", cache_db: "CacheDatabase") -> None:
        self.plan = plan
        self.cache_db = cache_db
        self.generators: Dict[str, CacheBindingGenerator] = initialize_plan_caches(
            plan, cache_db
        )
        #: The body joined incrementally over this run's tables, bound by the
        #: first :meth:`evaluate_delta` (a run that never streams needs none).
        self._join: Optional[IncrementalJoin] = None
        #: Caches a provider origin of which has grown since they were last
        #: offered: the only ones an offer pass can find a fresh binding for.
        self._dirty: Set[str] = set(self.generators)
        self._dependents = plan.compiled.dependents

    def _offer_caches(self, caches: Sequence["CachePredicate"], emit: Emit) -> bool:
        """Offer the fresh bindings of the given caches; True when a
        meta-cache hit changed some cache's contents.

        A cache none of whose providers' origin tables grew since its last
        offer has nothing fresh and is skipped without a look (the dirty set:
        :meth:`absorb` and a meta-cache hit here mark a grown table's
        dependents).  Caches over a relation whose circuit breaker is open
        (or whose source is known permanently down) are skipped *without
        consuming their binding deltas* — they stay dirty: if the breaker
        half-opens later in the run (or a session-level retry succeeds), the
        pending bindings are offered then; otherwise the run ends incomplete
        with the relation in ``failed_relations``.
        """
        changed = False
        dirty = self._dirty
        excluded = self.dispatcher.resilience.excluded
        for cache in caches:
            name = cache.name
            if name not in dirty:
                continue
            relation_name = cache.relation.name
            if excluded(relation_name):
                continue
            dirty.discard(name)
            fresh = self.generators[name].fresh_bindings()
            meta = table = None
            # The generator yields each binding of this cache exactly once
            # over the whole run, so no dedup set is needed here.
            for binding in fresh:
                if meta is None:
                    meta = self.cache_db.meta_cache(cache.relation)
                    table = self.cache_db.cache(name)
                rows = meta.lookup(binding)
                if rows is not None:
                    if table.add_all(rows):
                        changed = True
                        dirty.update(self._dependents[name])
                    continue
                emit(AccessRequest(name, relation_name, binding))
        return changed

    def absorb(self, completion: Completion) -> None:
        target = completion.request.target
        if self.cache_db.cache(target).add_all(completion.rows):
            self._dirty.update(self._dependents[target])

    def evaluate(self) -> FrozenSet[Row]:
        plan = self.plan
        program = plan.compiled.full()
        return frozenset(
            program.bind(self.cache_db.find, plan.rewritten_query.head_terms).answers()
        )

    def evaluate_delta(self) -> Set[Row]:
        """Answers derivable now that use a row added since the previous call
        (the first call: every answer so far) — what the streaming checks run
        instead of :meth:`evaluate`, whose answers the calls add up to.  One
        :class:`~repro.query.compiled.IncrementalJoin` of the rewritten body
        per run builds each partial solution once: a call costs what it adds.
        """
        join = self._join
        if join is None:
            plan = self.plan
            join = self._join = plan.compiled.full().incremental(
                self.cache_db.find, plan.rewritten_query.head_terms
            )
        return join.delta()

    def gate(self) -> Gate:
        cache_db, schema = self.cache_db, self.plan.schema
        return Gate(
            self.dedup_accesses, lambda relation: cache_db.meta_cache(schema[relation])
        )

    def plan_relations(self) -> List[str]:
        """Accessed relations of the plan, in cache declaration order."""
        return list(self.plan.compiled.relations)


class OrderedFastFail(PlanPolicy):
    """Section IV: populate positions in order, failing fast in between.

    The caches of the plan are populated position by position, following
    the ordering of the sources of the optimized d-graph — one kernel phase
    per position:

    * before populating the caches of the next position, the sub-query
      made of the atoms whose caches are already fully populated is
      checked for satisfiability; if it fails, the answer is certainly
      empty and the execution stops without making any further access
      (``failed_at`` records the phase, counted from 1;
      ``fast_fail=False`` skips the test);
    * within a position, the cache rules are iterated to a fixpoint: an
      access is made only when all the domain providers of the cache
      supply a value for every input argument, and only if the same access
      (relation + binding) was not made before — possibly on behalf of a
      different occurrence of the same relation — which is checked against
      the per-relation meta-cache;
    * finally the rewritten query is evaluated over the caches.

    This computes the same answers as the least-fixpoint semantics of the
    plan's Datalog program, never repeats an access, and stops as soon as
    the answer is known to be empty; this is what makes the plan
    ⊂-minimal.  Under async dispatch the accesses *within* a phase
    overlap; the phase order — and the tests between phases — are
    unchanged, so the access set is identical.  When the access budget
    runs dry the run raises.

    **When several orderings are possible.**  The ordering constraints fix
    the order only up to the topological linearizations of the
    condensation DAG (a ∀-minimal plan exists iff there is exactly one),
    and every linearization reaches the same fixpoint: the one thing the
    choice changes is how early the test above fires on a query whose
    answer is empty.  The paper's heuristic — sources involved in more
    joins first — is static and is what the plan's positions encode
    (``optimizer="structural"``, the default).  With
    ``fewest_pending_first`` (``optimizer="cost"``) the linearization is
    chosen while running instead: at each phase boundary, among the
    positions whose predecessors are all populated, populate the one
    whose caches have the fewest fresh bindings to offer — the exact
    count the binding generators hold, not an estimate — ties broken by
    plan position.  A cheap group is populated, and tested, before an
    expensive sibling; if the cheap one comes back empty the expensive
    one is never accessed.  The rule has no parameter and nothing to warm
    up.  It is a greedy, so it can lose to the static order when that
    happens to place the empty group first.
    """

    budget_action = "raise"

    def __init__(
        self,
        plan: "QueryPlan",
        cache_db: "CacheDatabase",
        fast_fail: bool = True,
        fewest_pending_first: bool = False,
    ) -> None:
        super().__init__(plan, cache_db)
        self.fast_fail = fast_fail
        self.fewest_pending_first = fewest_pending_first
        self._positions = plan.compiled.positions
        self._accessed_at = plan.compiled.accessed_at
        #: The position being populated, and those fully populated before it.
        self._current: Optional[int] = None
        self._populated: FrozenSet[int] = frozenset()
        self.failed_at: Optional[int] = None

    def begin(self) -> bool:
        return self.advance()

    def advance(self) -> bool:
        if self._current is not None:
            self._populated |= {self._current}
        if len(self._populated) == len(self._positions):
            return False
        if self.fast_fail and not self._prefix_satisfiable():
            self.failed_at = self._positions[len(self._populated)]
            return False
        self._current = self._next_position()
        return True

    def _next_position(self) -> int:
        if not self.fewest_pending_first:
            return self._positions[len(self._populated)]
        predecessors_of = self.plan.ordering.predecessors_of
        ready = [
            position
            for position in self._positions
            if position not in self._populated
            and self._populated.issuperset(predecessors_of(position))
        ]
        return min(ready, key=lambda position: (self._pending(position), position))

    def _pending(self, position: int) -> int:
        """Fresh bindings the caches of ``position`` would be offered now."""
        return sum(
            self.generators[cache.name].pending() for cache in self._accessed_at[position]
        )

    def offer(self, emit: Emit) -> bool:
        return self._offer_caches(self._accessed_at[self._current], emit)

    def evaluate(self) -> FrozenSet[Row]:
        if self.failed_at is not None:
            return frozenset()
        return super().evaluate()

    def budget_message(self) -> str:
        return (
            "plan execution exceeded the access budget of "
            f"{self.dispatcher.budget.limit}"
        )

    def _prefix_satisfiable(self) -> bool:
        """Early non-emptiness test over the already-populated caches.

        Runs the sub-conjunction of the rewritten query restricted to the
        atoms whose cache was populated in an earlier phase; if it is
        unsatisfiable, the whole query is certainly empty.
        """
        program = self.plan.compiled.prefix(self._populated)
        if not program.steps:
            return True
        self.fast_fail_checks += 1
        return program.satisfiable(self.cache_db.find)


class EagerPlan(PlanPolicy):
    """Section V (distillation): offer every cache of the plan eagerly.

    Section V describes how Toorjah executes a plan in practice: as soon
    as an access tuple can be generated from the cache database, it is
    delivered to the wrapper of the corresponding source (provided its
    queue is not full), so that as many sources as possible are accessed
    in parallel and answers are produced as early as possible, to be
    streamed to the user incrementally.  Run on the event-heap simulation
    the offers meet one FIFO queue per wrapper; run on the event loop they
    become concurrent tasks.  Either way the run reports its total time
    and the time at which the first answer became available — the quantity
    the paper highlights when arguing that result pagination makes the
    system practical.

    Access minimality is the job of :class:`OrderedFastFail`; this policy
    deliberately trades a few extra accesses for latency, exactly like the
    prototype described in the paper.  When the access budget runs dry,
    dispatching stops and the answers already derived are kept.

    Every cache is offered as eagerly as possible, like the prototype: the
    ordering positions constrain the fast-failing strategy only.
    """

    budget_action = "stop"

    def __init__(self, plan: "QueryPlan", cache_db: "CacheDatabase") -> None:
        super().__init__(plan, cache_db)
        self._caches = plan.compiled.accessed

    def offer(self, emit: Emit) -> bool:
        return self._offer_caches(self._caches, emit)
