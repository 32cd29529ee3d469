"""Ordering of the sources of an optimized d-graph.

Some relations must be accessed before others: an arc ``u → v`` says that
``v``'s source consumes values produced by ``u``'s source.  Section IV of the
paper derives, from the optimized d-graph, an ordering constraint system:

* a weak arc ``u → v`` imposes ``src(u) ⪯ src(v)``;
* a strong arc ``u → v`` imposes ``src(u) ≺ src(v)``;
* sources traversed by a cyclic d-path share the same order; all sources
  outside the cycle get distinct orders.

Operationally the sources are grouped by the strongly connected components of
the source-level constraint graph, the condensation is topologically sorted,
and each group receives a position ``pos(s) ∈ {1, ..., k}``.  A ∀-minimal
query plan exists iff exactly one ordering is possible, i.e. iff the
condensation has a unique topological order.

When several orderings are possible, the paper suggests the heuristic of
placing sources involved in more joins first (they are more likely to make
the fast-failing test fail early); this is implemented as a tie-break.

:func:`ordering_constraints` exposes the constraint system itself — the
condensation groups and their precedence DAG, in a canonical, hash-seed
independent shape.  Every topological linearization of the condensation is
an *admissible* access order: each group's providers lie in its DAG
predecessors, so the access limitations are respected.
:class:`SourceOrdering` keeps, next to the one linearization it chose, each
position's predecessor positions, so a consumer that linearizes at run time
(``optimizer="cost"``, :class:`repro.runtime.policy.OrderedFastFail`) reads
the DAG from the plan instead of recomputing the condensation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import OrderingError
from repro.graph.dgraph import Source
from repro.graph.gfp import ArcMark, OptimizedDependencyGraph
from repro.query.conjunctive import ConjunctiveQuery
from repro.util.algorithms import (
    condensation,
    has_unique_topological_order,
)

#: One condensation group: the source ids of a strongly connected component
#: of the constraint graph, sorted.
Group = Tuple[str, ...]


@dataclass(frozen=True)
class OrderingConstraints:
    """The source-level ordering constraint system, in canonical form.

    The groups are the strongly connected components of the constraint
    graph (sources on a cyclic d-path share a group); ``successors`` is the
    condensation DAG.  Every container is sorted, so two runs — and two
    interpreter processes with different ``PYTHONHASHSEED`` — produce
    byte-identical structures: :func:`repro.util.algorithms.condensation`
    returns successor *sets*, whose iteration order depends on string
    hashing, and this type is where that wobble is normalized away.

    Attributes:
        groups: every condensation group, sorted by their member tuples.
        successors: ``{group: groups that must come strictly or weakly
            after}``, each successor tuple sorted.
        strict_edges: the source-id pairs connected by a strong arc
            (``tail ≺ head``), sorted.
    """

    groups: Tuple[Group, ...]
    successors: Dict[Group, Tuple[Group, ...]]
    strict_edges: Tuple[Tuple[str, str], ...] = ()
    _group_of: Dict[str, Group] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        for group in self.groups:
            for source_id in group:
                self._group_of[source_id] = group

    def group_of(self, source_id: str) -> Group:
        """The condensation group a source belongs to."""
        return self._group_of[source_id]

    def predecessors(self) -> Dict[Group, Tuple[Group, ...]]:
        """The reversed DAG: ``{group: groups that must come before}``."""
        reversed_dag: Dict[Group, List[Group]] = {group: [] for group in self.groups}
        for group, successors in self.successors.items():
            for successor in successors:
                reversed_dag[successor].append(group)
        return {group: tuple(sorted(befores)) for group, befores in reversed_dag.items()}

    def is_admissible(self, sequence: Sequence[Group]) -> bool:
        """True when ``sequence`` is a topological linearization of the DAG.

        Such a linearization is exactly an *admissible* access order: every
        group's domain providers lie in groups placed before it, so every
        access's input positions are bindable from the prefix.
        """
        if sorted(sequence) != sorted(self.groups):
            return False
        rank = {group: index for index, group in enumerate(sequence)}
        for group, successors in self.successors.items():
            for successor in successors:
                if rank[group] > rank[successor]:
                    return False
        return True


@dataclass(frozen=True)
class SourceOrdering:
    """The positions assigned to the sources of an optimized d-graph.

    Attributes:
        positions: ``{source_id: position}`` with positions in ``1..k``.
        groups: the source ids of each position, in position order (sources
            sharing a position belong to a cyclic d-path).
        is_unique: True when the ordering constraints admit exactly one
            ordering — the condition under which a ∀-minimal plan exists.
        predecessors: per position (``predecessors[position - 1]``), the
            positions whose groups precede it in the condensation DAG.  A
            sequence of positions is an admissible access order iff every
            position comes after all of its predecessors.
    """

    positions: Dict[str, int]
    groups: Tuple[Tuple[str, ...], ...]
    is_unique: bool
    predecessors: Tuple[Tuple[int, ...], ...] = ()

    @property
    def number_of_positions(self) -> int:
        return len(self.groups)

    def position_of(self, source_id: str) -> int:
        return self.positions[source_id]

    def sources_at(self, position: int) -> Tuple[str, ...]:
        return self.groups[position - 1]

    def predecessors_of(self, position: int) -> Tuple[int, ...]:
        return self.predecessors[position - 1]

    @property
    def admits_forall_minimal_plan(self) -> bool:
        """A ∀-minimal plan exists iff the ordering is unique (Section IV)."""
        return self.is_unique

    def __str__(self) -> str:
        rendered = " < ".join("{" + ", ".join(group) + "}" for group in self.groups)
        return rendered or "(empty ordering)"


def _join_count(source: Source, query: ConjunctiveQuery) -> int:
    """Join-variable occurrences of the source's atom (0 for white sources)."""
    if source.atom_index is None:
        return 0
    return query.join_count_of_atom(source.atom_index)


def ordering_constraints(optimized: OptimizedDependencyGraph) -> OrderingConstraints:
    """Extract the canonical ordering constraint system of an optimized d-graph.

    Raises:
        OrderingError: if a strong arc is found inside a cycle of the
            constraint graph (impossible for GFP solutions; kept as a guard).
    """
    source_ids = [source.source_id for source in optimized.sources]
    constraint_graph: Dict[str, List[str]] = {source_id: [] for source_id in source_ids}
    strict_edges: List[Tuple[str, str]] = []
    for arc in optimized.arcs:
        tail_id, head_id = arc.tail.source_id, arc.head.source_id
        if tail_id == head_id:
            continue
        constraint_graph[tail_id].append(head_id)
        if optimized.mark_of(arc) is ArcMark.STRONG:
            strict_edges.append((tail_id, head_id))

    components, dag = condensation(constraint_graph)
    normalized: Dict[object, Group] = {
        component: tuple(sorted(component)) for component in components
    }
    groups = tuple(sorted(normalized.values()))
    successors = {
        normalized[component]: tuple(sorted(normalized[successor] for successor in dag[component]))
        for component in components
    }

    constraints = OrderingConstraints(
        groups=groups,
        successors=successors,
        strict_edges=tuple(sorted(set(strict_edges))),
    )

    # Guard: a strong arc must never connect two sources of the same group.
    for tail_id, head_id in constraints.strict_edges:
        if constraints.group_of(tail_id) == constraints.group_of(head_id):
            raise OrderingError(
                f"strong arc between {tail_id} and {head_id} lies inside a cyclic "
                "d-path; the GFP solution should have prevented this"
            )
    return constraints


def compute_ordering(
    optimized: OptimizedDependencyGraph,
    query: Optional[ConjunctiveQuery] = None,
    join_first_heuristic: bool = True,
) -> SourceOrdering:
    """Compute a position for every source of the optimized d-graph.

    Args:
        optimized: the optimized d-graph.
        query: the (constant-free) query, needed by the join-first heuristic;
            defaults to the query stored in the d-graph.
        join_first_heuristic: when several sources could take the next
            position, prefer those whose atoms contain more join variables
            (and break remaining ties by source id for determinism).

    Raises:
        OrderingError: if a strong arc is found inside a cycle of the
            constraint graph (impossible for GFP solutions; kept as a guard).
    """
    if query is None:
        query = optimized.graph.query

    constraints = ordering_constraints(optimized)

    # Uniqueness of the ordering (∀-minimality condition) is a property of the
    # condensation DAG alone, independent of the tie-breaking heuristic.
    dag_adjacency = {group: list(successors) for group, successors in constraints.successors.items()}
    unique = has_unique_topological_order(dag_adjacency) if dag_adjacency else True

    # Deterministic topological sort of the condensation with the join-first
    # tie-break: larger join counts first, then lexicographic source id.
    def group_key(group: Group) -> Tuple[int, str]:
        joins = max(
            (_join_count(optimized.source(source_id), query) for source_id in group),
            default=0,
        )
        return (-joins if join_first_heuristic else 0, group[0])

    in_degree: Dict[Group, int] = {group: 0 for group in constraints.groups}
    for group, successors in constraints.successors.items():
        for successor in successors:
            in_degree[successor] += 1
    ready = [group for group in constraints.groups if in_degree[group] == 0]
    ordered_groups: List[Group] = []
    while ready:
        ready.sort(key=group_key)
        group = ready.pop(0)
        ordered_groups.append(group)
        for successor in constraints.successors[group]:
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                ready.append(successor)
    if len(ordered_groups) != len(constraints.groups):  # pragma: no cover - cycle-free by construction
        raise OrderingError("could not linearize the source ordering constraints")

    positions: Dict[str, int] = {}
    for position, group in enumerate(ordered_groups, start=1):
        for source_id in group:
            positions[source_id] = position
    before = constraints.predecessors()
    predecessors = tuple(
        tuple(sorted(positions[predecessor[0]] for predecessor in before[group]))
        for group in ordered_groups
    )

    return SourceOrdering(
        positions=positions,
        groups=tuple(ordered_groups),
        is_unique=unique,
        predecessors=predecessors,
    )
