"""Relevance of relations.

A relation may be *irrelevant* for a query: accessing it can never contribute
values that lead to additional obtainable answers, regardless of the database
instance (Example 3 of the paper).  Relevance is read off the optimized
d-graph: a relation ``r`` of a schema ``R`` is relevant for a CQ ``q`` over
``R`` iff

* ``r`` is nullary and occurs in ``q``, or
* ``r`` occurs in the optimized d-graph of ``q``.

This module bundles the whole pipeline (constant elimination → d-graph →
GFP → optimized d-graph) into a single analysis object: the plan generator
(:mod:`repro.plan.minimal`) builds it, the plan keeps it, ``explain()``
reads its arcs and marks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set

from repro.graph.dgraph import DependencyGraph, build_dependency_graph
from repro.graph.gfp import (
    MarkedDependencyGraph,
    OptimizedDependencyGraph,
    Solution,
    greatest_fixpoint,
)
from repro.model.schema import Schema
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.preprocess import PreprocessedQuery, eliminate_constants


@dataclass(frozen=True)
class RelevanceAnalysis:
    """The full relevance pipeline for one query over one schema.

    Attributes:
        preprocessed: the constant-free query, extended schema and constant
            facts.
        graph: the d-graph of the constant-free query.
        solution: the maximal GFP solution.
        marked: the marked d-graph (graph + solution).
        optimized: the optimized d-graph.
        relevant: names of the *original* schema relations that are relevant.
        irrelevant: names of the original schema relations that are not.
    """

    preprocessed: PreprocessedQuery
    graph: DependencyGraph
    solution: Solution
    marked: MarkedDependencyGraph
    optimized: OptimizedDependencyGraph
    relevant: FrozenSet[str]
    irrelevant: FrozenSet[str]

    @property
    def query(self) -> ConjunctiveQuery:
        return self.preprocessed.original_query

    @property
    def schema(self) -> Schema:
        return self.preprocessed.schema

    def arc_statistics(self) -> Dict[str, int]:
        """Arc counts by mark plus graph size (the raw material of Figure 10)."""
        counts = self.marked.counts()
        counts["sources"] = len(self.graph.sources)
        counts["relevant_relations"] = len(self.relevant)
        counts["irrelevant_relations"] = len(self.irrelevant)
        return counts


def analyze_relevance(query: ConjunctiveQuery, schema: Schema) -> RelevanceAnalysis:
    """Run constant elimination, d-graph construction, GFP and relevance detection."""
    preprocessed = eliminate_constants(query, schema)
    graph = build_dependency_graph(preprocessed)
    solution = greatest_fixpoint(graph)
    marked = MarkedDependencyGraph(graph, solution)
    optimized = OptimizedDependencyGraph(marked)

    occurring = optimized.relation_names()
    artificial = set(preprocessed.artificial_relations)
    relevant: Set[str] = set()
    for relation in schema:
        if relation.name in artificial:
            continue
        if relation.is_nullary and relation.name in query.predicate_set():
            relevant.add(relation.name)
        elif relation.name in occurring:
            relevant.add(relation.name)
    irrelevant = {relation.name for relation in schema if relation.name not in relevant} - artificial

    return RelevanceAnalysis(
        preprocessed=preprocessed,
        graph=graph,
        solution=solution,
        marked=marked,
        optimized=optimized,
        relevant=frozenset(relevant),
        irrelevant=frozenset(irrelevant),
    )


def relevant_relations(query: ConjunctiveQuery, schema: Schema) -> FrozenSet[str]:
    """Names of the schema relations relevant for ``query`` (Definition in §III)."""
    return analyze_relevance(query, schema).relevant


def irrelevant_relations(query: ConjunctiveQuery, schema: Schema) -> FrozenSet[str]:
    """Names of the schema relations that are irrelevant for ``query``."""
    return analyze_relevance(query, schema).irrelevant
