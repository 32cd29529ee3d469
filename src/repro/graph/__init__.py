"""Dependency graphs (d-graphs) and their optimization.

This package implements Section III of the paper and the ordering analysis of
Section IV:

* :class:`~repro.graph.dgraph.DependencyGraph` — the d-graph of a
  constant-free query over a schema with access limitations;
* :mod:`~repro.graph.queryability` — queryable relations and answerability;
* :mod:`~repro.graph.gfp` — the greatest-fixpoint algorithm of Figure 3, the
  marked d-graph and the optimized d-graph;
* :mod:`~repro.graph.relevance` — relevant relations;
* :mod:`~repro.graph.ordering` — the ordering of the sources of an optimized
  d-graph, positions and the ∀-minimality condition.

``explain()`` lists a plan's arcs and marks itself; the d-paths and the
free-reachability invariant the GFP solution keeps are checked by the
tests, which hold their own reference of them.
"""

from repro.graph.dgraph import Arc, DependencyGraph, Node, Source, build_dependency_graph
from repro.graph.gfp import (
    ArcMark,
    MarkedDependencyGraph,
    OptimizedDependencyGraph,
    Solution,
    greatest_fixpoint,
    optimize,
)
from repro.graph.ordering import SourceOrdering, compute_ordering
from repro.graph.queryability import is_answerable, queryable_relations
from repro.graph.relevance import RelevanceAnalysis, analyze_relevance, relevant_relations

__all__ = [
    "Arc",
    "ArcMark",
    "DependencyGraph",
    "MarkedDependencyGraph",
    "Node",
    "OptimizedDependencyGraph",
    "RelevanceAnalysis",
    "Solution",
    "Source",
    "SourceOrdering",
    "analyze_relevance",
    "build_dependency_graph",
    "compute_ordering",
    "greatest_fixpoint",
    "is_answerable",
    "optimize",
    "queryable_relations",
    "relevant_relations",
]
