"""Query classification: connection queries.

Section VI of the paper compares against earlier work ([3], [4], [9]) that
only handles *connection queries*, a proper subclass of conjunctive queries:
in a connection query, the body positions sharing the same abstract domain
must carry the same term (they are all in join), and that term must either be
a constant at all of them or a non-selected variable at all of them.

The classifier below is used to reproduce the statistic reported in the
paper (roughly 70% of the randomly generated queries are *not* connection
queries) and to document why the paper's technique covers strictly more
queries than [4].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.model.domains import AbstractDomain
from repro.model.schema import Schema
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.terms import Constant, Term


@dataclass(frozen=True)
class ConnectionQueryReport:
    """Detailed outcome of the connection-query test.

    Attributes:
        is_connection: overall verdict.
        violating_domains: abstract domains whose positions break the
            connection-query conditions, with a human-readable reason each.
    """

    is_connection: bool
    violating_domains: Tuple[Tuple[AbstractDomain, str], ...]


def analyze_connection_query(query: ConjunctiveQuery, schema: Schema) -> ConnectionQueryReport:
    """Analyze whether ``query`` is a connection query over ``schema``."""
    terms_by_domain: Dict[AbstractDomain, List[Term]] = {}
    for atom in query.body:
        relation = schema[atom.predicate]
        for position, term in enumerate(atom.terms):
            terms_by_domain.setdefault(relation.domain_at(position), []).append(term)

    violations: List[Tuple[AbstractDomain, str]] = []
    for domain_, terms in terms_by_domain.items():
        distinct = set(terms)
        if len(distinct) > 1:
            violations.append(
                (domain_, "positions of this domain carry different terms (not all in join)")
            )
            continue
        kinds = {isinstance(term, Constant) for term in distinct}
        if len(kinds) > 1:  # pragma: no cover - unreachable with a single distinct term
            violations.append((domain_, "positions mix constants and variables"))
    return ConnectionQueryReport(
        is_connection=not violations, violating_domains=tuple(violations)
    )


def is_connection_query(query: ConjunctiveQuery, schema: Schema) -> bool:
    """True when ``query`` is a connection query in the sense of [4]."""
    return analyze_connection_query(query, schema).is_connection
