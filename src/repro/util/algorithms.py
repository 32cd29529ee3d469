"""Graph algorithms used by the d-graph machinery.

The library deliberately implements its own strongly-connected-component,
condensation and topological-order routines instead of depending on an
external graph package: the graphs involved (d-graphs and their source-level
projections) are tiny, and keeping the algorithms local makes the plan
generator fully self-contained.

Graphs are represented as adjacency mappings ``{node: iterable_of_successors}``
over hashable nodes.  Nodes that only appear as successors are handled as
nodes with no outgoing edges.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Sequence, Set, Tuple

Node = Hashable
Graph = Mapping[Node, Iterable[Node]]


def _normalize(graph: Graph) -> Dict[Node, List[Node]]:
    """Return an adjacency dict in which every mentioned node is a key."""
    adjacency: Dict[Node, List[Node]] = {}
    for node, successors in graph.items():
        adjacency.setdefault(node, [])
        for successor in successors:
            adjacency[node].append(successor)
            adjacency.setdefault(successor, [])
    return adjacency


def strongly_connected_components(graph: Graph) -> List[FrozenSet[Node]]:
    """Compute the strongly connected components of ``graph``.

    Uses an iterative version of Tarjan's algorithm (no recursion, so large
    chains do not hit the interpreter recursion limit).  The components are
    returned in reverse topological order of the condensation, i.e. a
    component is emitted only after all components it can reach.
    """
    adjacency = _normalize(graph)
    index_counter = 0
    indices: Dict[Node, int] = {}
    lowlinks: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    components: List[FrozenSet[Node]] = []

    for root in adjacency:
        if root in indices:
            continue
        # Each work item is (node, iterator over successors).
        work: List[Tuple[Node, int]] = [(root, 0)]
        while work:
            node, successor_index = work.pop()
            if successor_index == 0:
                indices[node] = index_counter
                lowlinks[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            successors = adjacency[node]
            while successor_index < len(successors):
                successor = successors[successor_index]
                successor_index += 1
                if successor not in indices:
                    work.append((node, successor_index))
                    work.append((successor, 0))
                    recurse = True
                    break
                if successor in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[successor])
            if recurse:
                continue
            if lowlinks[node] == indices[node]:
                component: Set[Node] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(frozenset(component))
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
    return components


def condensation(
    graph: Graph,
) -> Tuple[List[FrozenSet[Node]], Dict[FrozenSet[Node], Set[FrozenSet[Node]]]]:
    """Return the condensation (DAG of SCCs) of ``graph``.

    Returns a pair ``(components, dag)`` where ``components`` is the list of
    SCCs and ``dag`` maps each component to the set of distinct components it
    has an edge to (self-edges are dropped).
    """
    adjacency = _normalize(graph)
    components = strongly_connected_components(adjacency)
    component_of: Dict[Node, FrozenSet[Node]] = {}
    for component in components:
        for node in component:
            component_of[node] = component
    dag: Dict[FrozenSet[Node], Set[FrozenSet[Node]]] = {c: set() for c in components}
    for node, successors in adjacency.items():
        for successor in successors:
            source_component = component_of[node]
            target_component = component_of[successor]
            if source_component is not target_component:
                dag[source_component].add(target_component)
    return components, dag


def has_unique_topological_order(graph: Graph) -> bool:
    """Check whether a DAG admits exactly one topological order.

    A DAG has a unique topological order if and only if, during Kahn's
    algorithm, the ready set never contains more than one node — equivalently,
    its topological order is a Hamiltonian path of the DAG.

    Raises:
        ValueError: if the graph contains a cycle.
    """
    adjacency = _normalize(graph)
    in_degree: Dict[Node, int] = {node: 0 for node in adjacency}
    for successors in adjacency.values():
        for successor in successors:
            in_degree[successor] += 1
    ready = [node for node in adjacency if in_degree[node] == 0]
    emitted = 0
    while ready:
        if len(ready) > 1:
            return False
        node = ready.pop()
        emitted += 1
        for successor in adjacency[node]:
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                ready.append(successor)
    if emitted != len(adjacency):
        raise ValueError("graph contains a cycle; topological order is undefined")
    return True


def edges_on_cycles(graph: Graph, edges: Sequence[Tuple[Node, Node]]) -> Set[Tuple[Node, Node]]:
    """Return the subset of ``edges`` that lie on some directed cycle of ``graph``.

    An edge ``(u, v)`` lies on a cycle if and only if ``u`` and ``v`` belong to
    the same strongly connected component and either the component has more
    than one node or the edge is a self-loop.
    """
    components = strongly_connected_components(graph)
    component_of: Dict[Node, FrozenSet[Node]] = {}
    for component in components:
        for node in component:
            component_of[node] = component
    cyclic: Set[Tuple[Node, Node]] = set()
    for u, v in edges:
        if u not in component_of or v not in component_of:
            continue
        if component_of[u] is not component_of[v]:
            continue
        if len(component_of[u]) > 1 or u == v:
            cyclic.add((u, v))
    return cyclic
