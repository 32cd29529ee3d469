"""Queryability and answerability analysis.

A relation is *queryable* w.r.t. a query when it can be accessed at least
once for at least one database instance, starting from the constants of the
query (Section II).  Values can only be obtained from the constants of the
query or from tuples extracted from other relations, so a relation is
queryable exactly when values for all of its input abstract domains are
obtainable: this is computed by a simple fixpoint on the set of *obtainable
domains*.

A query is *answerable* if and only if no non-queryable relation occurs in
it; plans are generated only for answerable queries, and the Toorjah engine
returns the empty answer immediately for non-answerable ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Set, Tuple

from repro.model.domains import AbstractDomain
from repro.model.schema import Schema
from repro.query.conjunctive import ConjunctiveQuery


def _fixpoint(
    query: ConjunctiveQuery, schema: Schema
) -> Tuple[FrozenSet[AbstractDomain], FrozenSet[str]]:
    """The obtainable domains and the queryable relations, computed together.

    The computation starts from the domains of the constants occurring in the
    query and repeatedly adds the output domains of every relation whose
    input domains are already obtainable (free relations seed the fixpoint
    immediately); a relation is queryable once it has been added.
    """
    available: Set[AbstractDomain] = set()
    for domains in query.constant_domains(schema).values():
        available.update(domains)
    queryable: List[str] = []
    waiting = list(schema)
    while True:
        blocked = []
        for relation in waiting:
            if available.issuperset(relation.input_domains):
                available.update(relation.output_domains)
                queryable.append(relation.name)
            else:
                blocked.append(relation)
        if len(blocked) == len(waiting):
            return frozenset(available), frozenset(queryable)
        waiting = blocked


def obtainable_domains(query: ConjunctiveQuery, schema: Schema) -> FrozenSet[AbstractDomain]:
    """Fixpoint of the abstract domains for which at least one value is obtainable."""
    return _fixpoint(query, schema)[0]


def queryable_relations(query: ConjunctiveQuery, schema: Schema) -> FrozenSet[str]:
    """Names of the relations of ``schema`` that are queryable w.r.t. ``query``."""
    return _fixpoint(query, schema)[1]


def non_queryable_relations(query: ConjunctiveQuery, schema: Schema) -> FrozenSet[str]:
    """Complement of :func:`queryable_relations` within the schema."""
    queryable = queryable_relations(query, schema)
    return frozenset(relation.name for relation in schema if relation.name not in queryable)


def is_answerable(query: ConjunctiveQuery, schema: Schema) -> bool:
    """A query is answerable iff no non-queryable relation occurs in it."""
    queryable = queryable_relations(query, schema)
    return all(predicate in queryable for predicate in query.predicate_set())


@dataclass(frozen=True)
class QueryabilityReport:
    """Detailed outcome of the queryability analysis of a query over a schema."""

    obtainable_domains: FrozenSet[AbstractDomain]
    queryable_relations: FrozenSet[str]
    non_queryable_relations: FrozenSet[str]
    answerable: bool
    offending_atoms: Tuple[str, ...]

    def __str__(self) -> str:
        status = "answerable" if self.answerable else "NOT answerable"
        return (
            f"query is {status}; queryable relations: "
            f"{sorted(self.queryable_relations)}; non-queryable: "
            f"{sorted(self.non_queryable_relations)}"
        )


def analyze_queryability(query: ConjunctiveQuery, schema: Schema) -> QueryabilityReport:
    """Run the full queryability analysis and package the outcome.

    The schema fixpoint is computed once; both relation sets derive from it.
    """
    domains, queryable = _fixpoint(query, schema)
    non_queryable = frozenset(
        relation.name for relation in schema if relation.name not in queryable
    )
    offending = tuple(
        str(atom) for atom in query.body if atom.predicate in non_queryable
    )
    return QueryabilityReport(
        obtainable_domains=domains,
        queryable_relations=queryable,
        non_queryable_relations=non_queryable,
        answerable=not offending,
        offending_atoms=offending,
    )
