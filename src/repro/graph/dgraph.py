"""Dependency graphs (d-graphs).

The d-graph ``G^R_q`` of a constant-free conjunctive query ``q`` over a schema
``R`` is built as follows (Section III of the paper):

* every atom of ``q`` contributes a *source* of **black** nodes, one node per
  argument of the corresponding relation;
* every relation of ``R`` not occurring in ``q`` contributes a *source* of
  **white** nodes, again one per argument — unless it is not queryable:
  a relation no database instance lets us access can never contribute a
  value, so it is irrelevant by definition and stays out of the graph;
* every node carries two labels: the access mode (``i``/``o``) and the
  abstract domain of the corresponding argument;
* there is an arc from node ``u`` to node ``v`` whenever (i) ``u`` and ``v``
  have the same abstract domain, (ii) ``u`` is an output node and (iii) ``v``
  is an input node.

Arcs denote dependencies: a relation with limited capabilities needs values
that can be retrieved from other relations (or from the artificial constant
relations introduced by preprocessing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import QueryError
from repro.graph.queryability import queryable_relations
from repro.model.access import AccessMode
from repro.model.domains import AbstractDomain
from repro.model.schema import RelationSchema, Schema
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.preprocess import PreprocessedQuery
from repro.query.terms import Term, Variable
from repro.util.algorithms import edges_on_cycles


@dataclass(frozen=True, order=True)
class Node:
    """A node of a d-graph: one argument position of one source.

    Attributes:
        source_id: identifier of the source the node belongs to.
        position: zero-based argument position within the relation.
        mode: access mode of the argument (input or output).
        domain: abstract domain of the argument.
        is_black: True for nodes of query-atom sources, False for nodes of
            relations not occurring in the query.
        term: the term at this position of the query atom (black nodes only).
    """

    source_id: str
    position: int
    mode: AccessMode = field(compare=False)
    domain: AbstractDomain = field(compare=False)
    is_black: bool = field(compare=False)
    term: Optional[Term] = field(compare=False, default=None)

    @property
    def is_input(self) -> bool:
        return self.mode.is_input

    @property
    def is_output(self) -> bool:
        return self.mode.is_output

    @property
    def is_white(self) -> bool:
        return not self.is_black

    def __str__(self) -> str:
        term = f"={self.term}" if self.term is not None else ""
        return f"{self.source_id}[{self.position}]:{self.domain.name}/{self.mode}{term}"


@dataclass(frozen=True, order=True)
class Arc:
    """A directed arc of a d-graph, from an output node to an input node."""

    tail: Node
    head: Node

    def __str__(self) -> str:
        return f"{self.tail} -> {self.head}"

    @property
    def is_black_black(self) -> bool:
        return self.tail.is_black and self.head.is_black


@dataclass(frozen=True)
class Source:
    """A source of a d-graph: the set of nodes of one atom occurrence or relation.

    Attributes:
        source_id: unique identifier; for query atoms it is
            ``<relation>#<occurrence>`` and for relations not in the query it
            is simply the relation name.
        relation: the relation schema the source corresponds to.
        occurrence: 1-based occurrence number of the atom in the query body
            (``None`` for white sources).
        nodes: the nodes of the source, in argument order.
        atom_index: index of the corresponding atom in the query body
            (``None`` for white sources).
    """

    source_id: str
    relation: RelationSchema
    occurrence: Optional[int]
    nodes: Tuple[Node, ...]
    atom_index: Optional[int] = None

    @property
    def is_black(self) -> bool:
        return self.occurrence is not None

    @property
    def is_white(self) -> bool:
        return self.occurrence is None

    @property
    def is_free(self) -> bool:
        """A source is free when none of its nodes has input access mode."""
        return all(node.is_output for node in self.nodes)

    @property
    def input_nodes(self) -> Tuple[Node, ...]:
        return tuple(node for node in self.nodes if node.is_input)

    def __str__(self) -> str:
        return self.source_id

    def __len__(self) -> int:
        return len(self.nodes)


class DependencyGraph:
    """The d-graph of a constant-free query over a schema."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        schema: Schema,
        sources: Sequence[Source],
        arcs: Iterable[Arc],
    ) -> None:
        self.query = query
        self.schema = schema
        self._sources: Dict[str, Source] = {source.source_id: source for source in sources}
        self.arcs: FrozenSet[Arc] = frozenset(arcs)
        self._out_arcs_by_source: Dict[str, FrozenSet[Arc]] = {}
        self._in_arcs_by_node: Dict[Node, FrozenSet[Arc]] = {}
        self._index_arcs()

    def _index_arcs(self) -> None:
        out_arcs: Dict[str, Set[Arc]] = {source_id: set() for source_id in self._sources}
        in_arcs: Dict[Node, Set[Arc]] = {}
        for arc in self.arcs:
            out_arcs[arc.tail.source_id].add(arc)
            in_arcs.setdefault(arc.head, set()).add(arc)
        self._out_arcs_by_source = {key: frozenset(value) for key, value in out_arcs.items()}
        self._in_arcs_by_node = {key: frozenset(value) for key, value in in_arcs.items()}

    # -- sources and nodes ---------------------------------------------------
    @property
    def sources(self) -> List[Source]:
        return list(self._sources.values())

    def source(self, source_id: str) -> Source:
        return self._sources[source_id]

    def has_source(self, source_id: str) -> bool:
        return source_id in self._sources

    def source_of(self, node: Node) -> Source:
        return self._sources[node.source_id]

    def black_sources(self) -> List[Source]:
        return [source for source in self._sources.values() if source.is_black]

    def white_sources(self) -> List[Source]:
        return [source for source in self._sources.values() if source.is_white]

    def free_sources(self) -> List[Source]:
        return [source for source in self._sources.values() if source.is_free]

    def nodes(self) -> List[Node]:
        return [node for source in self._sources.values() for node in source.nodes]

    def input_nodes(self) -> List[Node]:
        return [node for node in self.nodes() if node.is_input]

    # -- arcs --------------------------------------------------------------------
    def out_arcs(self, node: Node) -> FrozenSet[Arc]:
        """``outArcs(u, G)``: arcs leaving any node in the same source as ``u``."""
        return self._out_arcs_by_source.get(node.source_id, frozenset())

    def arcs_into(self, node: Node) -> FrozenSet[Arc]:
        """Arcs whose head is exactly ``node``."""
        return self._in_arcs_by_node.get(node, frozenset())

    def arcs_into_source(self, source_id: str) -> FrozenSet[Arc]:
        return frozenset(arc for arc in self.arcs if arc.head.source_id == source_id)

    # -- candidate strong arcs ------------------------------------------------------
    def candidate_strong_arcs(self) -> FrozenSet[Arc]:
        """Arcs whose endpoints are both black and carry the same query variable.

        These are the only arcs that may become strong (``cand(G)`` in the
        paper): the join between the two occurrences guarantees that every
        useful tuple of the head's relation can be extracted using only the
        values flowing along the arc.
        """
        candidates = set()
        for arc in self.arcs:
            if not arc.is_black_black:
                continue
            if arc.tail.term is None or arc.head.term is None:
                continue
            if not isinstance(arc.tail.term, Variable):
                continue
            if arc.tail.term == arc.head.term:
                candidates.add(arc)
        return frozenset(candidates)

    def cyclic_candidate_arcs(self) -> FrozenSet[Arc]:
        """Candidate strong arcs lying on a cyclic d-path made of candidate arcs only.

        A d-path enters a source through an input node and leaves it from an
        output node of the same source, so at the source level a cyclic d-path
        is simply a directed cycle of the source graph whose edges are induced
        by the candidate arcs.
        """
        candidates = self.candidate_strong_arcs()
        source_graph: Dict[str, List[str]] = {source_id: [] for source_id in self._sources}
        for arc in candidates:
            source_graph[arc.tail.source_id].append(arc.head.source_id)
        edges = [(arc.tail.source_id, arc.head.source_id) for arc in candidates]
        cyclic_edges = edges_on_cycles(source_graph, edges)
        return frozenset(
            arc
            for arc in candidates
            if (arc.tail.source_id, arc.head.source_id) in cyclic_edges
        )

    # -- rendering ----------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DependencyGraph({len(self._sources)} sources, {len(self.arcs)} arcs, "
            f"query={self.query.head_string()})"
        )


def _source_id_for(relation_name: str, occurrence: Optional[int]) -> str:
    if occurrence is None:
        return relation_name
    return f"{relation_name}#{occurrence}"


def build_dependency_graph(preprocessed: PreprocessedQuery) -> DependencyGraph:
    """Build the d-graph of a preprocessed (constant-free) query.

    The input must come from
    :func:`repro.query.preprocess.eliminate_constants`, which guarantees that
    the query body has no constants and that the schema contains the
    artificial relations.
    """
    query = preprocessed.query
    schema = preprocessed.schema
    # Head constants are copied into every answer and play no role here.
    if query.body_constants():
        raise QueryError("d-graphs are built from constant-free queries; run preprocessing first")

    sources: List[Source] = []
    occurrence_counter: Dict[str, int] = {}

    # Black sources: one per atom occurrence of the query body.
    for atom_index, atom in enumerate(query.body):
        relation = schema[atom.predicate]
        occurrence_counter[atom.predicate] = occurrence_counter.get(atom.predicate, 0) + 1
        occurrence = occurrence_counter[atom.predicate]
        source_id = _source_id_for(atom.predicate, occurrence)
        nodes = tuple(
            Node(
                source_id=source_id,
                position=position,
                mode=relation.mode_at(position),
                domain=relation.domain_at(position),
                is_black=True,
                term=atom.terms[position],
            )
            for position in range(relation.arity)
        )
        sources.append(
            Source(
                source_id=source_id,
                relation=relation,
                occurrence=occurrence,
                nodes=nodes,
                atom_index=atom_index,
            )
        )

    # White sources: one per queryable schema relation not occurring in the
    # query (the artificial relations of the constants are free, so they
    # seed the obtainable domains exactly as the constants do).
    query_predicates = query.predicate_set()
    queryable = queryable_relations(query, schema)
    for relation in schema:
        if relation.name in query_predicates or relation.name not in queryable:
            continue
        source_id = _source_id_for(relation.name, None)
        nodes = tuple(
            Node(
                source_id=source_id,
                position=position,
                mode=relation.mode_at(position),
                domain=relation.domain_at(position),
                is_black=False,
                term=None,
            )
            for position in range(relation.arity)
        )
        sources.append(
            Source(
                source_id=source_id,
                relation=relation,
                occurrence=None,
                nodes=nodes,
                atom_index=None,
            )
        )

    # Arcs: output node -> input node with the same abstract domain.
    all_nodes = [node for source in sources for node in source.nodes]
    output_nodes_by_domain: Dict[AbstractDomain, List[Node]] = {}
    input_nodes_by_domain: Dict[AbstractDomain, List[Node]] = {}
    for node in all_nodes:
        if node.is_output:
            output_nodes_by_domain.setdefault(node.domain, []).append(node)
        else:
            input_nodes_by_domain.setdefault(node.domain, []).append(node)
    arcs: List[Arc] = []
    for domain_, inputs in input_nodes_by_domain.items():
        for head in inputs:
            for tail in output_nodes_by_domain.get(domain_, ()):  # same domain only
                arcs.append(Arc(tail=tail, head=head))

    return DependencyGraph(query=query, schema=schema, sources=sources, arcs=arcs)
