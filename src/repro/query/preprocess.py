"""Constant elimination: the preprocessing step of Section III.

Dependency graphs are built from constant-free queries.  Every constant ``a``
occurring in the body of the query is replaced by a fresh variable, and an
*artificial relation* ``ℓ_a`` — a single-attribute, output-only relation whose
extension is exactly ``{⟨a⟩}`` — is added to the schema together with an atom
over it.  For example ``q(Y) ← r(a, Y)`` becomes
``q(Y) ← r(X, Y), ℓ_a(X)``.

Artificial relations are created per (constant, abstract domain) pair: the
same constant used at positions of two different domains gives rise to two
distinct artificial relations, because values of different abstract domains
never feed each other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.model.access import AccessPattern
from repro.model.domains import AbstractDomain
from repro.model.schema import RelationSchema, Schema
from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.terms import Constant, Term, Variable

#: Prefix of the artificial relations introduced by constant elimination.
ARTIFICIAL_PREFIX = "c_"


def _sanitize(value: object) -> str:
    """Turn a constant value into a name fragment usable in a relation name."""
    text = str(value)
    sanitized = re.sub(r"[^A-Za-z0-9]", "_", text)
    return sanitized or "const"


@dataclass(frozen=True)
class PreprocessedQuery:
    """The result of eliminating constants from a conjunctive query.

    Attributes:
        original_query: the query as given by the user.
        query: the equivalent constant-free query (artificial atoms appended
            after the original body atoms, which keep their indices).
        schema: the original schema extended with the artificial relations.
        constant_facts: extension of every artificial relation —
            ``{relation_name: frozenset({(value,)})}``.
        artificial_relations: names of the artificial relations, in creation
            order.
        variable_for_constant: the fresh variable introduced for every
            ``(constant, domain)`` pair.
    """

    original_query: ConjunctiveQuery
    query: ConjunctiveQuery
    schema: Schema
    constant_facts: Dict[str, FrozenSet[Tuple[object, ...]]]
    artificial_relations: Tuple[str, ...]
    variable_for_constant: Dict[Tuple[Constant, AbstractDomain], Variable]

    def is_artificial(self, relation_name: str) -> bool:
        return relation_name in set(self.artificial_relations)


def _fresh_variable(base: str, used: Set[str]) -> Variable:
    """Create a variable named after ``base`` that does not clash with ``used``."""
    candidate = base
    counter = 0
    while candidate in used:
        counter += 1
        candidate = f"{base}_{counter}"
    used.add(candidate)
    return Variable(candidate)


def _fresh_relation_name(base: str, schema: Schema, used: Set[str]) -> str:
    """Create an artificial relation name that does not clash with the schema."""
    candidate = base
    counter = 0
    while candidate in schema or candidate in used:
        counter += 1
        candidate = f"{base}_{counter}"
    used.add(candidate)
    return candidate


def eliminate_constants(query: ConjunctiveQuery, schema: Schema) -> PreprocessedQuery:
    """Rewrite ``query`` into an equivalent constant-free query over an extended schema.

    Only constants in the *body* are eliminated; constants in the head (if
    any) are preserved, since they are simply copied into every answer and
    play no role in the access-limitation analysis.
    """
    query.validate_against(schema)

    used_variable_names: Set[str] = {variable.name for variable in query.variables()}
    used_relation_names: Set[str] = set()
    variable_for_constant: Dict[Tuple[Constant, AbstractDomain], Variable] = {}
    relation_for_constant: Dict[Tuple[Constant, AbstractDomain], str] = {}
    constant_facts: Dict[str, FrozenSet[Tuple[object, ...]]] = {}
    artificial_schemas: List[RelationSchema] = []
    artificial_order: List[str] = []

    new_body: List[Atom] = []
    for atom in query.body:
        relation = schema[atom.predicate]
        new_terms: List[Term] = []
        for position, term in enumerate(atom.terms):
            if not isinstance(term, Constant):
                new_terms.append(term)
                continue
            domain_ = relation.domain_at(position)
            key = (term, domain_)
            if key not in variable_for_constant:
                fresh_var = _fresh_variable(
                    f"X_{_sanitize(term.value)}_{domain_.name}", used_variable_names
                )
                relation_name = _fresh_relation_name(
                    f"{ARTIFICIAL_PREFIX}{_sanitize(term.value)}_{domain_.name}",
                    schema,
                    used_relation_names,
                )
                variable_for_constant[key] = fresh_var
                relation_for_constant[key] = relation_name
                artificial_schemas.append(
                    RelationSchema(relation_name, AccessPattern.parse("o"), (domain_,))
                )
                constant_facts[relation_name] = frozenset({(term.value,)})
                artificial_order.append(relation_name)
            new_terms.append(variable_for_constant[key])
        new_body.append(Atom(atom.predicate, tuple(new_terms)))

    # Append one artificial atom per (constant, domain) pair, in creation order.
    for key, relation_name in relation_for_constant.items():
        new_body.append(Atom(relation_name, (variable_for_constant[key],)))

    constant_free = ConjunctiveQuery(query.head_predicate, query.head_terms, tuple(new_body))
    extended_schema = schema.extended_with(artificial_schemas)

    return PreprocessedQuery(
        original_query=query,
        query=constant_free,
        schema=extended_schema,
        constant_facts=constant_facts,
        artificial_relations=tuple(artificial_order),
        variable_for_constant=variable_for_constant,
    )
