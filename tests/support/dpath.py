"""D-paths and free-reachability.

A *d-path* traverses sources of a d-graph: it enters a source through an arc
incoming in one of its input (bound) nodes and leaves it through an arc
outgoing from one of its output (free) nodes.  D-paths describe the chains of
accesses needed to reach sources that are not free, starting from free
sources.

In a *marked* d-graph, an input node ``v`` is *free-reachable* when either

* (i) there is a weak arc ``u → v`` such that all input nodes of ``u``'s
  source are free-reachable, or
* (ii) ``v`` has at least one incoming strong arc and every strong arc
  ``uᵢ → v`` is such that all input nodes of ``uᵢ``'s source are
  free-reachable.

Whenever the query is constant-free, a relation keeps its queryability only
if all of its input nodes are free-reachable; the GFP solution preserves this
invariant.  :func:`all_black_inputs_free_reachable` is the tests' GFP check
on generated cases (``tests/test_generated_oracle.py``); the engine itself
never walks d-paths.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.dgraph import Arc, DependencyGraph, Node, Source
from repro.graph.gfp import ArcMark, MarkedDependencyGraph


def _source_satisfied(source: Source, free_reachable: Set[Node]) -> bool:
    """A source can be accessed when all of its input nodes are free-reachable."""
    return all(node in free_reachable for node in source.input_nodes)


def free_reachable_nodes(marked: MarkedDependencyGraph) -> FrozenSet[Node]:
    """Compute the set of free-reachable input nodes of a marked d-graph.

    Deleted arcs are ignored; the computation is a least fixpoint seeded by
    the input nodes of free sources (trivially none: free sources have no
    input nodes, so they are immediately "satisfied" and can start providing
    values).
    """
    graph = marked.graph
    reachable: Set[Node] = set()
    changed = True
    while changed:
        changed = False
        for node in graph.input_nodes():
            if node in reachable:
                continue
            weak_arcs = [
                arc for arc in graph.arcs_into(node) if marked.mark_of(arc) is ArcMark.WEAK
            ]
            strong_arcs = [
                arc for arc in graph.arcs_into(node) if marked.mark_of(arc) is ArcMark.STRONG
            ]
            via_weak = any(
                _source_satisfied(graph.source_of(arc.tail), reachable) for arc in weak_arcs
            )
            via_strong = bool(strong_arcs) and all(
                _source_satisfied(graph.source_of(arc.tail), reachable) for arc in strong_arcs
            )
            if via_weak or via_strong:
                reachable.add(node)
                changed = True
    return frozenset(reachable)


def all_black_inputs_free_reachable(marked: MarkedDependencyGraph) -> bool:
    """Check that every input node of every black source is free-reachable.

    This is the queryability-preservation invariant the GFP solution must
    satisfy for answerable queries.
    """
    reachable = free_reachable_nodes(marked)
    for source in marked.graph.black_sources():
        for node in source.input_nodes:
            if node not in reachable:
                return False
    return True


def unreachable_black_inputs(marked: MarkedDependencyGraph) -> List[Node]:
    """Black input nodes that are not free-reachable (empty for answerable queries)."""
    reachable = free_reachable_nodes(marked)
    return [
        node
        for source in marked.graph.black_sources()
        for node in source.input_nodes
        if node not in reachable
    ]


def d_paths_from_free_sources(
    graph: DependencyGraph,
    arcs: Optional[Iterable[Arc]] = None,
    max_paths: int = 10_000,
) -> List[Tuple[Arc, ...]]:
    """Enumerate simple d-paths that start at free sources.

    A d-path is returned as the tuple of its arcs.  Only paths that never
    revisit a source are enumerated (cyclic continuations are cut), and the
    enumeration stops after ``max_paths`` paths to stay cheap on dense graphs.
    The function is used by tests, not by the optimizer itself.
    """
    usable = set(arcs if arcs is not None else graph.arcs)
    arcs_by_tail_source: Dict[str, List[Arc]] = {}
    for arc in usable:
        arcs_by_tail_source.setdefault(arc.tail.source_id, []).append(arc)

    paths: List[Tuple[Arc, ...]] = []

    def extend(path: List[Arc], visited_sources: Set[str]) -> None:
        if len(paths) >= max_paths:
            return
        last_source = path[-1].head.source_id
        extensions = arcs_by_tail_source.get(last_source, [])
        for arc in extensions:
            if arc.head.source_id in visited_sources:
                continue
            new_path = path + [arc]
            paths.append(tuple(new_path))
            extend(new_path, visited_sources | {arc.head.source_id})

    for source in graph.free_sources():
        for arc in arcs_by_tail_source.get(source.source_id, []):
            if len(paths) >= max_paths:
                break
            paths.append((arc,))
            extend([arc], {source.source_id, arc.head.source_id})
    return paths


def reaches_black_node(path: Sequence[Arc]) -> bool:
    """True when the d-path ends (or passes through) a black node."""
    return any(arc.head.is_black for arc in path)
