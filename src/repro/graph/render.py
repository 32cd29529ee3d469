"""Rendering of d-graphs.

The paper shows d-graphs and optimized d-graphs as drawings (Figures 2, 4,
7–9); this module produces textual equivalents for a library caller who
wants to look at one (the engine itself never renders; ``explain()`` lists
arcs and marks on its own, and ``tests/test_render_datalog.py`` pins these):

* :func:`render_ascii` — a compact, deterministic, line-oriented description
  of the sources and arcs (with marks when a solution is available);
* :func:`render_dot` — Graphviz DOT output (double-headed arrows become
  ``color=black:black`` edges, deleted arcs are dashed grey), handy when a
  local Graphviz installation is available.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.graph.dgraph import Arc, DependencyGraph, Node, Source
from repro.graph.gfp import ArcMark, MarkedDependencyGraph, OptimizedDependencyGraph

GraphLike = Union[DependencyGraph, MarkedDependencyGraph, OptimizedDependencyGraph]


def _underlying(graph: GraphLike) -> DependencyGraph:
    if isinstance(graph, DependencyGraph):
        return graph
    return graph.graph


def _sources_of(graph: GraphLike) -> List[Source]:
    if isinstance(graph, OptimizedDependencyGraph):
        return graph.sources
    return _underlying(graph).sources


def _arcs_of(graph: GraphLike) -> List[Arc]:
    if isinstance(graph, DependencyGraph):
        return sorted(graph.arcs)
    if isinstance(graph, MarkedDependencyGraph):
        return sorted(graph.graph.arcs)
    return sorted(graph.arcs)


def _mark_of(graph: GraphLike, arc: Arc) -> Optional[ArcMark]:
    if isinstance(graph, DependencyGraph):
        return None
    return graph.mark_of(arc)


def _node_label(node: Node) -> str:
    color = "●" if node.is_black else "○"
    term = f" {node.term}" if node.term is not None else ""
    return f"    {color} [{node.position}] {node.domain.name}/{node.mode}{term}"


def render_ascii(graph: GraphLike, title: str = "") -> str:
    """Render a d-graph (plain, marked or optimized) as indented text."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("sources:")
    for source in sorted(_sources_of(graph), key=lambda s: s.source_id):
        kind = "black" if source.is_black else "white"
        free = ", free" if source.is_free else ""
        lines.append(f"  {source.source_id} ({source.relation.signature()}; {kind}{free})")
        for node in source.nodes:
            lines.append(_node_label(node))
    lines.append("arcs:")
    arrow_by_mark = {
        ArcMark.STRONG: "==>",
        ArcMark.WEAK: "-->",
        ArcMark.DELETED: "-x>",
        None: "-->",
    }
    for arc in _arcs_of(graph):
        mark = _mark_of(graph, arc)
        arrow = arrow_by_mark[mark]
        mark_text = f"  [{mark}]" if mark is not None else ""
        lines.append(
            f"  {arc.tail.source_id}[{arc.tail.position}] {arrow} "
            f"{arc.head.source_id}[{arc.head.position}]{mark_text}"
        )
    if not _arcs_of(graph):
        lines.append("  (none)")
    return "\n".join(lines)


def render_dot(graph: GraphLike, name: str = "dgraph") -> str:
    """Render a d-graph in Graphviz DOT syntax.

    Sources become clusters, nodes become record-shaped nodes labelled with
    their domain and mode, strong arcs are drawn as double edges and deleted
    arcs as dashed grey edges.
    """
    lines: List[str] = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=record];"]
    for index, source in enumerate(sorted(_sources_of(graph), key=lambda s: s.source_id)):
        lines.append(f"  subgraph cluster_{index} {{")
        lines.append(f"    label=\"{source.source_id}\";")
        fill = "black" if source.is_black else "white"
        font = "white" if source.is_black else "black"
        for node in source.nodes:
            node_id = f"\"{node.source_id}_{node.position}\""
            label = f"{node.domain.name}/{node.mode}"
            lines.append(
                f"    {node_id} [label=\"{label}\", style=filled, "
                f"fillcolor={fill}, fontcolor={font}];"
            )
        lines.append("  }")
    for arc in _arcs_of(graph):
        tail = f"\"{arc.tail.source_id}_{arc.tail.position}\""
        head = f"\"{arc.head.source_id}_{arc.head.position}\""
        mark = _mark_of(graph, arc)
        if mark is ArcMark.STRONG:
            attributes = " [color=\"black:invis:black\"]"
        elif mark is ArcMark.DELETED:
            attributes = " [style=dashed, color=grey]"
        else:
            attributes = ""
        lines.append(f"  {tail} -> {head}{attributes};")
    lines.append("}")
    return "\n".join(lines)


def describe_optimization(
    before: DependencyGraph, after: OptimizedDependencyGraph
) -> Dict[str, object]:
    """Summarize the effect of the optimization (used for Figures 7–9)."""
    removed_sources = sorted(
        {source.source_id for source in before.sources}
        - {source.source_id for source in after.sources}
    )
    return {
        "sources_before": len(before.sources),
        "sources_after": len(after.sources),
        "removed_sources": removed_sources,
        "arcs_before": len(before.arcs),
        "arcs_after": len(after.arcs),
        "strong_arcs": len(after.strong_arcs),
        "weak_arcs": len(after.weak_arcs),
    }
