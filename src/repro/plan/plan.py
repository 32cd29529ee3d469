"""Query-plan data structures.

A query plan (Section IV) is a Datalog program over three families of
predicates:

* a **cache predicate** per source of the optimized d-graph (one per
  occurrence of a relation in the query plus one per relevant relation not in
  the query), defined as the source relation restricted to values supplied by
  the domain providers of its input arguments;
* a **domain-provider predicate** per input argument of every cache, defined
  as a disjunction (weak incoming arcs) or a conjunction (strong incoming
  arcs) of the caches from which the values flow;
* a fact per **artificial constant relation** introduced by preprocessing.

The rewritten query evaluates the original body over the caches.  The
structures below also record, for every cache, its ordering position and its
provider specifications, which is all the fast-failing policy needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.datalog.program import DatalogProgram, Rule
from repro.graph.ordering import SourceOrdering
from repro.graph.relevance import RelevanceAnalysis
from repro.model.schema import RelationSchema, Schema
from repro.query.atoms import Atom
from repro.query.compiled import JoinProgram
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.preprocess import PreprocessedQuery
from repro.query.terms import Constant, Variable


@dataclass(frozen=True)
class ProviderSpec:
    """How values for one input argument of a cache are produced.

    Attributes:
        cache_name: the cache this provider feeds.
        input_position: position (0-based) of the input argument in the
            relation.
        predicate: name of the domain-provider predicate.
        conjunctive: True when the origins must be joined (strong incoming
            arcs); False when any origin may supply values (weak incoming
            arcs).
        origins: ``(origin_cache_name, origin_position)`` pairs: the argument
            position of the origin cache from which values are projected.
    """

    cache_name: str
    input_position: int
    predicate: str
    conjunctive: bool
    origins: Tuple[Tuple[str, int], ...]

    def __str__(self) -> str:
        connector = " AND " if self.conjunctive else " OR "
        rendered = connector.join(f"{cache}[{pos}]" for cache, pos in self.origins)
        return f"{self.predicate} := {rendered}"


@dataclass(frozen=True)
class CachePredicate:
    """One cache predicate of the plan.

    Attributes:
        name: the cache predicate name (``r̂^(k)`` in the paper).
        source_id: the d-graph source the cache corresponds to.
        relation: the source relation schema.
        occurrence: 1-based occurrence number for query atoms, None for
            relevant relations not occurring in the query.
        atom_index: index of the corresponding atom in the constant-free
            query body (None for non-query caches).
        position: the ordering position at which the cache is populated.
        providers: provider specification per input argument position.
        is_artificial: True when the relation is an artificial constant
            relation introduced by preprocessing (populated from facts, never
            accessed remotely).
    """

    name: str
    source_id: str
    relation: RelationSchema
    occurrence: Optional[int]
    atom_index: Optional[int]
    position: int
    providers: Tuple[ProviderSpec, ...]
    is_artificial: bool = False

    @property
    def is_query_cache(self) -> bool:
        return self.atom_index is not None

    @property
    def input_positions(self) -> Tuple[int, ...]:
        return self.relation.input_positions

    def provider_for(self, input_position: int) -> ProviderSpec:
        for provider in self.providers:
            if provider.input_position == input_position:
                return provider
        raise KeyError(
            f"cache {self.name!r} has no provider for input position {input_position}"
        )


class CompiledPlan:
    """What every execution of a plan *shape* derives from it, derived once.

    The rewritten query's body and the caches' positions and providers do
    not depend on the query's constants, so one holder — created with the
    shape's plan and carried by every
    :func:`~repro.engine.plan_cache.bind_plan` copy — serves every key of a
    template: what each run would otherwise re-derive from the caches (the
    position tables the fast-failing policy walks, the accessed caches and
    their providers per input position, the accessed relations), and the
    :class:`~repro.query.compiled.JoinProgram` of every conjunction a run
    evaluates.  Programs compile on first use.  Two threads may compile the
    same one; compilation is deterministic and a dict store is atomic, so
    whichever stores last changes nothing.
    """

    def __init__(self, rewritten: ConjunctiveQuery, caches: Dict[str, CachePredicate]) -> None:
        self._body = rewritten.body
        self._position_of = {cache.name: cache.position for cache in caches.values()}
        #: Ordering positions of the plan, ascending, and the caches at each.
        self.positions: List[int] = sorted(set(self._position_of.values()))
        self.caches_at: Dict[int, List[CachePredicate]] = {
            position: [cache for cache in caches.values() if cache.position == position]
            for position in self.positions
        }
        #: The caches a run accesses (an artificial one is seeded from the
        #: plan's facts instead), in declaration order and per position.
        self.accessed: Tuple[CachePredicate, ...] = tuple(
            cache for cache in caches.values() if not cache.is_artificial
        )
        self.accessed_at: Dict[int, Tuple[CachePredicate, ...]] = {
            position: tuple(cache for cache in at if not cache.is_artificial)
            for position, at in self.caches_at.items()
        }
        #: Per accessed cache, its providers in input-position order.
        self.providers: Dict[str, Tuple[ProviderSpec, ...]] = {
            cache.name: tuple(cache.provider_for(position) for position in cache.input_positions)
            for cache in self.accessed
        }
        #: The accessed relations, each once, in cache declaration order.
        self.relations: Tuple[str, ...] = tuple(
            dict.fromkeys(cache.relation.name for cache in self.accessed)
        )
        #: Whether the rewritten head copies a constant (rebound per query).
        self.head_constants = any(isinstance(term, Constant) for term in rewritten.head_terms)
        #: Per cache, the caches one of whose providers draws values from it:
        #: the only ones a row added to it can enable a fresh binding of.
        self.dependents: Dict[str, FrozenSet[str]] = {
            origin: frozenset(
                cache.name
                for cache in caches.values()
                if any(origin == name for provider in cache.providers for name, _ in provider.origins)
            )
            for origin in caches
        }
        self._everywhere = frozenset(self.positions)
        self._pivots: Dict[int, JoinProgram] = {}
        self._prefixes: Dict[FrozenSet[int], JoinProgram] = {}

    def full(self) -> JoinProgram:
        """The program of the whole body — every position populated: the
        query's answers."""
        return self.prefix(self._everywhere)

    def pivot(self, atom_index: int) -> JoinProgram:
        """The whole body with one atom scanned first (streaming checks)."""
        program = self._pivots.get(atom_index)
        if program is None:
            program = self._pivots[atom_index] = JoinProgram(self._body, pivot=atom_index)
        return program

    def prefix(self, populated: FrozenSet[int]) -> JoinProgram:
        """The atoms whose caches sit at the ``populated`` positions — the
        fast-failing test.  The structural order only ever asks for the first
        *k* positions; ``optimizer="cost"`` may ask for any down-closed set
        of the ordering."""
        program = self._prefixes.get(populated)
        if program is None:
            program = self._prefixes[populated] = JoinProgram(
                [atom for atom in self._body if self._position_of[atom.predicate] in populated]
            )
        return program


@dataclass(frozen=True)
class QueryPlan:
    """A complete ⊂-minimal query plan.

    Attributes:
        original_query: the query as posed by the user.
        minimized_query: the minimal equivalent CQ actually planned.
        preprocessed: result of constant elimination on the minimized query.
        analysis: the relevance analysis (d-graph, GFP solution, optimized
            d-graph).
        ordering: positions of the sources of the optimized d-graph.
        caches: all cache predicates, keyed by name.
        cache_of_atom: cache name of every atom of the constant-free query
            body (by atom index).
        constant_facts: extensions of the artificial constant relations.
        rewritten_query: the original query with every body atom replaced by
            its cache predicate.
        compiled: the shape's :class:`CompiledPlan` (shared, not compared).
        answerable: False when the query mentions a non-queryable relation;
            such plans are degenerate and always produce the empty answer.

    A plan obtained through :meth:`repro.engine.Engine.plan` was generated
    for the query's *shape*: ``preprocessed`` and ``analysis`` (and the
    artificial relation names throughout) mention parameters ``$1, $2, …``
    where the query has constants; the constants themselves are in
    ``original_query``, ``minimized_query``, ``constant_facts`` and
    ``rewritten_query``.
    """

    original_query: ConjunctiveQuery
    minimized_query: ConjunctiveQuery
    preprocessed: PreprocessedQuery
    analysis: RelevanceAnalysis
    ordering: SourceOrdering
    caches: Dict[str, CachePredicate]
    cache_of_atom: Dict[int, str]
    constant_facts: Dict[str, FrozenSet[Tuple[object, ...]]]
    rewritten_query: ConjunctiveQuery
    compiled: CompiledPlan = field(compare=False, repr=False)
    answerable: bool = True

    # -- derived views ------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """The extended schema (original relations plus artificial ones)."""
        return self.preprocessed.schema

    @property
    def relevant_relations(self) -> FrozenSet[str]:
        return self.analysis.relevant

    @property
    def irrelevant_relations(self) -> FrozenSet[str]:
        return self.analysis.irrelevant

    def caches_at(self, position: int) -> List[CachePredicate]:
        return list(self.compiled.caches_at.get(position, ()))

    def positions(self) -> List[int]:
        return list(self.compiled.positions)

    def accessed_relations(self) -> FrozenSet[str]:
        """Relations the plan may access (relevant, non-artificial)."""
        return frozenset(
            cache.relation.name
            for cache in self.caches.values()
            if not cache.is_artificial
        )

    @property
    def admits_forall_minimal_plan(self) -> bool:
        """True when a ∀-minimal plan exists (unique ordering, Section IV)."""
        return self.ordering.admits_forall_minimal_plan

    # -- Datalog rendering -------------------------------------------------------------
    def to_datalog(self) -> DatalogProgram:
        """Render the plan as the Datalog program of Section IV.

        The program is semantically equivalent to the fast-failing execution
        (same answers under the least-fixpoint semantics); it is used for
        documentation, testing and as an executable specification.
        """
        program = DatalogProgram()
        # Rewritten query over the caches.
        program.add_rule(
            Rule(
                head=Atom(self.rewritten_query.head_predicate, self.rewritten_query.head_terms),
                body=self.rewritten_query.body,
            )
        )
        # Cache rules: one per cache predicate.
        for cache in sorted(self.caches.values(), key=lambda c: (c.position, c.name)):
            variables = tuple(
                Variable(f"V_{cache.name}_{position}") for position in range(cache.relation.arity)
            )
            body: List[Atom] = [Atom(cache.relation.name, variables)]
            for provider in cache.providers:
                body.append(Atom(provider.predicate, (variables[provider.input_position],)))
            program.add_rule(Rule(head=Atom(cache.name, variables), body=tuple(body)))
            # Provider rules.
            for provider in cache.providers:
                value_variable = Variable(f"V_{provider.predicate}")
                if provider.conjunctive:
                    atoms: List[Atom] = []
                    for origin_cache, origin_position in provider.origins:
                        origin_arity = self.caches[origin_cache].relation.arity
                        terms = tuple(
                            value_variable
                            if position == origin_position
                            else Variable(f"W_{origin_cache}_{len(atoms)}_{position}")
                            for position in range(origin_arity)
                        )
                        atoms.append(Atom(origin_cache, terms))
                    program.add_rule(Rule(head=Atom(provider.predicate, (value_variable,)), body=tuple(atoms)))
                else:
                    for origin_index, (origin_cache, origin_position) in enumerate(provider.origins):
                        origin_arity = self.caches[origin_cache].relation.arity
                        terms = tuple(
                            value_variable
                            if position == origin_position
                            else Variable(f"W_{origin_cache}_{origin_index}_{position}")
                            for position in range(origin_arity)
                        )
                        program.add_rule(
                            Rule(head=Atom(provider.predicate, (value_variable,)), body=(Atom(origin_cache, terms),))
                        )
        # Facts for the artificial constant relations.
        for relation_name, rows in self.constant_facts.items():
            program.add_facts(relation_name, rows)
        return program

    def describe(self) -> str:
        """Human-readable multi-line description of the plan."""
        lines: List[str] = []
        lines.append(f"query        : {self.original_query}")
        if str(self.minimized_query) != str(self.original_query):
            lines.append(f"minimized    : {self.minimized_query}")
        lines.append(f"answerable   : {self.answerable}")
        lines.append(f"relevant     : {sorted(self.relevant_relations)}")
        lines.append(f"irrelevant   : {sorted(self.irrelevant_relations)}")
        lines.append(f"ordering     : {self.ordering}")
        lines.append(f"forall-minimal plan exists: {self.admits_forall_minimal_plan}")
        lines.append("caches:")
        for cache in sorted(self.caches.values(), key=lambda c: (c.position, c.name)):
            flavour = "artificial" if cache.is_artificial else (
                "query atom" if cache.is_query_cache else "auxiliary relation"
            )
            lines.append(
                f"  pos {cache.position}: {cache.name} over {cache.relation.name} ({flavour})"
            )
            for provider in cache.providers:
                lines.append(f"      arg {provider.input_position}: {provider}")
        lines.append("datalog program:")
        for line in str(self.to_datalog()).splitlines():
            lines.append(f"  {line}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()
