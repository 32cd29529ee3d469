"""Generation of ⊂-minimal query plans from the optimized d-graph.

The construction follows Section IV of the paper:

1. the query is minimized (Chandra–Merlin) so that no redundant atom causes
   redundant accesses;
2. constants are eliminated (artificial output-only relations with a single
   fact each);
3. the d-graph is built, the GFP solution computed and the optimized d-graph
   derived; relations not occurring in it are irrelevant and excluded from
   the plan;
4. the sources of the optimized d-graph are ordered (weak arcs give ``⪯``
   constraints, strong arcs give ``≺`` constraints, cyclic d-paths share a
   position);
5. for every source a cache predicate is created; every input argument gets
   a domain-provider predicate defined as a disjunction (weak incoming arcs)
   or conjunction (strong incoming arcs) of the caches providing the values;
6. the query is rewritten over the caches and the facts of the artificial
   relations are added.

The resulting plan, executed with the fast-failing policy
(:class:`~repro.runtime.policy.OrderedFastFail`), never repeats an access and stops as soon as the
answer is known to be empty — which is what makes it ⊂-minimal.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.exceptions import PlanError, UnanswerableQueryError
from repro.graph.dgraph import Source
from repro.graph.gfp import ArcMark
from repro.graph.ordering import SourceOrdering, compute_ordering
from repro.graph.queryability import analyze_queryability
from repro.graph.relevance import RelevanceAnalysis, analyze_relevance
from repro.model.schema import Schema
from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.minimize import minimize_query
from repro.plan.plan import CachePredicate, CompiledPlan, ProviderSpec, QueryPlan


def _cache_name(source: Source) -> str:
    """Name of the cache predicate of a source (``r̂^(k)`` in the paper)."""
    if source.occurrence is not None:
        return f"{source.relation.name}_hat_{source.occurrence}"
    return f"{source.relation.name}_hat"


def _provider_name(cache_name: str, input_position: int) -> str:
    return f"s_{cache_name}_{input_position}"


class MinimalPlanGenerator:
    """Generates ⊂-minimal query plans for conjunctive queries."""

    def __init__(
        self,
        schema: Schema,
        minimize: bool = True,
        join_first_heuristic: bool = True,
    ) -> None:
        """Create a generator for queries over ``schema``.

        Args:
            schema: the database schema (with access patterns).
            minimize: run Chandra–Merlin minimization on the query first.
            join_first_heuristic: tie-break the source ordering by placing
                sources involved in more joins first.
        """
        self.schema = schema
        self.minimize = minimize
        self.join_first_heuristic = join_first_heuristic

    # ------------------------------------------------------------------------------
    def generate(self, query: ConjunctiveQuery) -> QueryPlan:
        """Build a ⊂-minimal plan for ``query``.

        Raises:
            UnanswerableQueryError: when the query mentions a relation that is
                not queryable; callers that prefer an empty answer over an
                exception (such as the Toorjah engine) should check
                answerability first via :func:`repro.graph.queryability.is_answerable`.
        """
        query.validate_against(self.schema)

        queryability = analyze_queryability(query, self.schema)
        if not queryability.answerable:
            raise UnanswerableQueryError(
                "query is not answerable: atoms over non-queryable relations: "
                + ", ".join(queryability.offending_atoms)
            )

        minimized = minimize_query(query) if self.minimize else query
        analysis = analyze_relevance(minimized, self.schema)
        optimized = analysis.optimized
        ordering = compute_ordering(
            optimized,
            analysis.preprocessed.query,
            join_first_heuristic=self.join_first_heuristic,
        )

        caches, cache_of_atom = self._build_caches(analysis, ordering)
        rewritten = self._rewrite_query(analysis.preprocessed.query, cache_of_atom)

        return QueryPlan(
            original_query=query,
            minimized_query=minimized,
            preprocessed=analysis.preprocessed,
            analysis=analysis,
            ordering=ordering,
            caches=caches,
            cache_of_atom=cache_of_atom,
            constant_facts=dict(analysis.preprocessed.constant_facts),
            rewritten_query=rewritten,
            compiled=CompiledPlan(rewritten, caches),
            answerable=True,
        )

    # ------------------------------------------------------------------------------
    def _build_caches(
        self,
        analysis: RelevanceAnalysis,
        ordering: SourceOrdering,
    ) -> Tuple[Dict[str, CachePredicate], Dict[int, str]]:
        """Create one cache predicate per source of the optimized d-graph."""
        optimized = analysis.optimized
        artificial = set(analysis.preprocessed.artificial_relations)

        cache_name_of_source: Dict[str, str] = {
            source.source_id: _cache_name(source) for source in optimized.sources
        }

        caches: Dict[str, CachePredicate] = {}
        cache_of_atom: Dict[int, str] = {}
        for source in optimized.sources:
            name = cache_name_of_source[source.source_id]
            providers = self._providers_for_source(
                source, optimized, cache_name_of_source, name
            )
            cache = CachePredicate(
                name=name,
                source_id=source.source_id,
                relation=source.relation,
                occurrence=source.occurrence,
                atom_index=source.atom_index,
                position=ordering.position_of(source.source_id),
                providers=providers,
                is_artificial=source.relation.name in artificial,
            )
            caches[name] = cache
            if source.atom_index is not None:
                cache_of_atom[source.atom_index] = name
        return caches, cache_of_atom

    def _providers_for_source(
        self,
        source: Source,
        optimized,
        cache_name_of_source: Dict[str, str],
        cache_name: str,
    ) -> Tuple[ProviderSpec, ...]:
        """Build the provider specification for every input argument of a source.

        When every surviving incoming arc of the input node is strong, the
        provider is the *conjunction* of the origin caches (only their join can
        supply useful values); otherwise it is the *disjunction* of all the
        origins of surviving arcs, which is always complete.
        """
        providers: List[ProviderSpec] = []
        for node in source.input_nodes:
            incoming = sorted(optimized.arcs_into(node))
            if not incoming:
                if source.is_black:
                    raise PlanError(
                        f"input node {node} of source {source.source_id} has no provider; "
                        "the query should have been rejected as non-answerable"
                    )
                # A surviving auxiliary (white) source may have an input argument
                # for which no value can ever be produced: it simply never gets
                # accessed.  An empty provider keeps the plan well formed.
                providers.append(
                    ProviderSpec(
                        cache_name=cache_name,
                        input_position=node.position,
                        predicate=_provider_name(cache_name, node.position),
                        conjunctive=False,
                        origins=(),
                    )
                )
                continue
            marks = {optimized.mark_of(arc) for arc in incoming}
            conjunctive = marks == {ArcMark.STRONG}
            origins = tuple(
                (cache_name_of_source[arc.tail.source_id], arc.tail.position)
                for arc in incoming
            )
            providers.append(
                ProviderSpec(
                    cache_name=cache_name,
                    input_position=node.position,
                    predicate=_provider_name(cache_name, node.position),
                    conjunctive=conjunctive,
                    origins=origins,
                )
            )
        return tuple(providers)

    def _rewrite_query(
        self,
        constant_free_query: ConjunctiveQuery,
        cache_of_atom: Dict[int, str],
    ) -> ConjunctiveQuery:
        """Replace every body atom by an atom over its cache predicate."""
        new_body: List[Atom] = []
        for atom_index, atom in enumerate(constant_free_query.body):
            cache_name = cache_of_atom.get(atom_index)
            if cache_name is None:
                raise PlanError(
                    f"atom {atom} (index {atom_index}) has no cache; every query atom "
                    "must survive in the optimized d-graph"
                )
            new_body.append(Atom(cache_name, atom.terms))
        return ConjunctiveQuery(
            constant_free_query.head_predicate,
            constant_free_query.head_terms,
            tuple(new_body),
        )


def generate_minimal_plan(
    query: ConjunctiveQuery,
    schema: Schema,
    minimize: bool = True,
    join_first_heuristic: bool = True,
) -> QueryPlan:
    """Convenience wrapper around :class:`MinimalPlanGenerator`."""
    generator = MinimalPlanGenerator(
        schema, minimize=minimize, join_first_heuristic=join_first_heuristic
    )
    return generator.generate(query)
