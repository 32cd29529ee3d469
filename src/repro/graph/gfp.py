"""The greatest-fixpoint (GFP) marking algorithm and the optimized d-graph.

Every arc of a d-graph ends up with one of three marks:

* **strong** — both endpoints are black, they carry the same join variable,
  and the head's source need not provide arbitrary values to other relations:
  all useful tuples of the head's relation can be extracted using only the
  values flowing along the strong arc(s);
* **deleted** — the arc is never needed to extract an obtainable answer;
* **weak** — every other arc.

The unique maximal solution (maximal sets of strong and deleted arcs) is
computed by the algorithm of Figure 3: start from the optimistic solution
``S = cand(G) \\ cycl(G)``, ``D = arcs(G) \\ cand(G)`` and repeatedly apply
two monotone "unmarking" operators until a fixpoint is reached.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from repro.graph.dgraph import Arc, DependencyGraph, Node, Source


class ArcMark(enum.Enum):
    """The mark of an arc in a marked d-graph."""

    STRONG = "strong"
    WEAK = "weak"
    DELETED = "deleted"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Solution:
    """A solution ``(S, D)`` for a d-graph: disjoint sets of strong and deleted arcs."""

    strong: FrozenSet[Arc]
    deleted: FrozenSet[Arc]

    def __post_init__(self) -> None:
        overlap = self.strong & self.deleted
        if overlap:
            raise ValueError(
                f"a solution must have disjoint strong and deleted sets; overlap: {overlap}"
            )

    def mark_of(self, arc: Arc) -> ArcMark:
        if arc in self.strong:
            return ArcMark.STRONG
        if arc in self.deleted:
            return ArcMark.DELETED
        return ArcMark.WEAK

    def dominates(self, other: "Solution") -> bool:
        """True when this solution is at least as large as ``other`` on both components."""
        return self.strong >= other.strong and self.deleted >= other.deleted


def unmark_strong(
    strong: FrozenSet[Arc], deleted: FrozenSet[Arc], graph: DependencyGraph
) -> FrozenSet[Arc]:
    """One application of the ``unmarkStr`` operator of Figure 3.

    A strong arc ``u → v`` survives only if every arc leaving ``v``'s source
    is itself strong or deleted: otherwise ``v``'s source is still needed to
    provide arbitrary values to some other relation, and the join on the arc
    cannot be used to restrict the accesses to ``v``'s relation.
    """
    surviving: Set[Arc] = set(strong)
    marked = strong | deleted
    for arc in strong:
        for outgoing in graph.out_arcs(arc.head):
            if outgoing not in marked:
                surviving.discard(arc)
                break
    return frozenset(surviving)


def unmark_deleted(
    strong: FrozenSet[Arc], deleted: FrozenSet[Arc], graph: DependencyGraph
) -> FrozenSet[Arc]:
    """One application of the ``unmarkDel`` operator of Figure 3.

    An arc ``u → v`` into a black node stays deleted only while some strong
    arc into ``v`` dominates it.  An arc into a white node stays deleted only
    while every arc leaving ``v``'s source is deleted (the white source is
    useless exactly when nothing can flow out of it).
    """
    surviving: Set[Arc] = set(deleted)
    strong_heads = {arc.head for arc in strong}
    for arc in deleted:
        if arc.head.is_black:
            if arc.head not in strong_heads:
                surviving.discard(arc)
        else:
            if graph.out_arcs(arc.head) - deleted:
                surviving.discard(arc)
    return frozenset(surviving)


def greatest_fixpoint(graph: DependencyGraph) -> Solution:
    """Compute the unique maximal solution for ``graph`` (function ``GFP`` of Figure 3).

    The two unmarking operators only ever shrink their argument sets, so the
    iteration reaches a fixpoint after at most ``|arcs|`` rounds; the overall
    complexity is polynomial in the size of the d-graph.
    """
    candidates = graph.candidate_strong_arcs()
    cyclic = graph.cyclic_candidate_arcs()
    strong: FrozenSet[Arc] = frozenset(candidates - cyclic)
    deleted: FrozenSet[Arc] = frozenset(graph.arcs - candidates)
    while True:
        previous = (strong, deleted)
        strong = unmark_strong(previous[0], previous[1], graph)
        deleted = unmark_deleted(previous[0], previous[1], graph)
        if (strong, deleted) == previous:
            break
    return Solution(strong=strong, deleted=deleted)


class MarkedDependencyGraph:
    """A d-graph together with a solution, i.e. a mark on every arc."""

    def __init__(self, graph: DependencyGraph, solution: Solution) -> None:
        self.graph = graph
        self.solution = solution

    # -- marks -----------------------------------------------------------------
    def mark_of(self, arc: Arc) -> ArcMark:
        return self.solution.mark_of(arc)

    @property
    def strong_arcs(self) -> FrozenSet[Arc]:
        return self.solution.strong

    @property
    def deleted_arcs(self) -> FrozenSet[Arc]:
        return self.solution.deleted

    @property
    def weak_arcs(self) -> FrozenSet[Arc]:
        return frozenset(self.graph.arcs - self.solution.strong - self.solution.deleted)

    @property
    def surviving_arcs(self) -> FrozenSet[Arc]:
        """Arcs that are not deleted (i.e. strong or weak)."""
        return frozenset(self.graph.arcs - self.solution.deleted)

    def counts(self) -> Dict[str, int]:
        """Arc counts by mark, used by the Figure 10 harness."""
        return {
            "arcs": len(self.graph.arcs),
            "strong": len(self.strong_arcs),
            "weak": len(self.weak_arcs),
            "deleted": len(self.deleted_arcs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = self.counts()
        return (
            f"MarkedDependencyGraph(strong={counts['strong']}, weak={counts['weak']}, "
            f"deleted={counts['deleted']})"
        )


class OptimizedDependencyGraph:
    """The optimized d-graph: deleted arcs and useless white nodes removed.

    Visually (and operationally) the optimized d-graph is obtained from the
    marked d-graph by removing all deleted arcs, all white nodes with no
    remaining incoming or outgoing arc, and all sources left with no nodes.
    The sources that remain are exactly the relevant occurrences/relations the
    plan generator must consider.
    """

    def __init__(self, marked: MarkedDependencyGraph) -> None:
        self.marked = marked
        self.graph = marked.graph
        self.arcs: FrozenSet[Arc] = marked.surviving_arcs
        touched_nodes = {arc.tail for arc in self.arcs} | {arc.head for arc in self.arcs}
        self._sources: Dict[str, Source] = {
            source.source_id: source
            for source in self.graph.sources
            if source.is_black or any(node in touched_nodes for node in source.nodes)
        }

    # -- sources -------------------------------------------------------------------
    @property
    def sources(self) -> List[Source]:
        return list(self._sources.values())

    def has_source(self, source_id: str) -> bool:
        return source_id in self._sources

    def source(self, source_id: str) -> Source:
        return self._sources[source_id]

    def black_sources(self) -> List[Source]:
        return [source for source in self.sources if source.is_black]

    def white_sources(self) -> List[Source]:
        return [source for source in self.sources if source.is_white]

    def relation_names(self) -> Set[str]:
        """Names of the relations occurring in the optimized d-graph."""
        return {source.relation.name for source in self.sources}

    # -- arcs -----------------------------------------------------------------------
    def mark_of(self, arc: Arc) -> ArcMark:
        return self.marked.mark_of(arc)

    @property
    def strong_arcs(self) -> FrozenSet[Arc]:
        return frozenset(arc for arc in self.arcs if self.mark_of(arc) is ArcMark.STRONG)

    @property
    def weak_arcs(self) -> FrozenSet[Arc]:
        return frozenset(arc for arc in self.arcs if self.mark_of(arc) is ArcMark.WEAK)

    def arcs_into(self, node: Node) -> FrozenSet[Arc]:
        return frozenset(arc for arc in self.arcs if arc.head == node)

    def arcs_into_source(self, source_id: str) -> FrozenSet[Arc]:
        return frozenset(arc for arc in self.arcs if arc.head.source_id == source_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OptimizedDependencyGraph({len(self._sources)} sources, {len(self.arcs)} arcs)"
        )


def optimize(graph: DependencyGraph, solution: Optional[Solution] = None) -> OptimizedDependencyGraph:
    """Run GFP (unless a solution is supplied) and build the optimized d-graph."""
    if solution is None:
        solution = greatest_fixpoint(graph)
    return OptimizedDependencyGraph(MarkedDependencyGraph(graph, solution))
