"""Chandra–Merlin minimization of conjunctive queries.

Section IV of the paper assumes the input CQ is *minimal*: no equivalent CQ
exists whose body atoms are a proper subset of its body atoms.  Minimization
(computing the core of the query) is NP-complete in general, but queries have
a handful of atoms, so the simple fold-and-check procedure below is perfectly
adequate: repeatedly try to drop a body atom and keep the reduced query when
it is still equivalent to the original.
"""

from __future__ import annotations

from typing import Tuple

from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.homomorphism import is_equivalent_to


def _is_safe_body(query: ConjunctiveQuery, body: Tuple[Atom, ...]) -> bool:
    """Check that dropping atoms kept every head variable in the body."""
    remaining_variables = set()
    for atom in body:
        remaining_variables.update(atom.variable_set())
    return all(variable in remaining_variables for variable in query.head_variables())


def minimize_query(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Return an equivalent minimal conjunctive query.

    The result is obtained by greedily removing redundant atoms; the classical
    result that all cores of a CQ are isomorphic guarantees that greedy
    removal reaches a minimal equivalent query regardless of the removal
    order.
    """
    current = query
    changed = True
    while changed and len(current.body) > 1:
        changed = False
        for index in range(len(current.body)):
            candidate_body = current.body[:index] + current.body[index + 1:]
            if not _is_safe_body(current, candidate_body):
                continue
            candidate = current.with_body(candidate_body)
            if is_equivalent_to(candidate, query):
                current = candidate
                changed = True
                break
    return current
