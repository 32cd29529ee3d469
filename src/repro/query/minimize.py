"""Chandra–Merlin minimization of conjunctive queries.

Section IV of the paper assumes the input CQ is *minimal*: no equivalent CQ
exists whose body atoms are a proper subset of its body atoms.  Minimization
(computing the core of the query) is NP-complete in general, but queries have
a handful of atoms, so the simple fold-and-check procedure below is perfectly
adequate: repeatedly try to drop a body atom and keep the reduced query when
it is still equivalent to the original.

Containment is the classical Chandra–Merlin test: ``q1 ⊆ q2`` if and only if
``q2``'s body, with its head as one more atom, has a solution over the
*canonical database* of ``q1`` — ``q1``'s atoms and head as rows, every
variable standing for itself and every constant for its value.  Such a
solution is a homomorphism from ``q2`` to ``q1`` that maps head onto head.
It runs on the engine's one join program
(:class:`~repro.query.compiled.JoinProgram`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.query.atoms import Atom
from repro.query.compiled import JoinProgram, Row, RowTable
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.terms import Constant, Term

#: The predicate of the head's atom in a containment test: the parser
#: accepts no such relation name.
_HEAD = "<head>"


def _containment_program(query: ConjunctiveQuery) -> JoinProgram:
    """``query``'s body and head, compiled: it is satisfiable over a query's
    canonical database exactly when that query is contained in ``query``."""
    return JoinProgram((*query.body, Atom.trusted(_HEAD, query.head_terms)))


def _canonical_database(head_terms: Tuple[Term, ...], body: Sequence[Atom]) -> Dict[str, RowTable]:
    """The canonical database of ``q(head_terms) <- body``, its head included."""
    rows: Dict[str, List[Row]] = {}
    for atom in (*body, Atom.trusted(_HEAD, head_terms)):
        rows.setdefault(atom.predicate, []).append(
            tuple([term.value if type(term) is Constant else term for term in atom.terms])
        )
    return {predicate: RowTable(table) for predicate, table in rows.items()}


def is_contained_in(query1: ConjunctiveQuery, query2: ConjunctiveQuery) -> bool:
    """Chandra–Merlin containment test: ``query1 ⊆ query2``."""
    database = _canonical_database(query1.head_terms, query1.body)
    return _containment_program(query2).satisfiable(database.get)


def is_equivalent_to(query1: ConjunctiveQuery, query2: ConjunctiveQuery) -> bool:
    """Equivalence of CQs: mutual containment."""
    return is_contained_in(query1, query2) and is_contained_in(query2, query1)


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
    order.  A candidate's body is part of ``query``'s, so ``query`` is
    contained in it; it is equivalent when it is contained in ``query``,
    which one program, compiled at the first candidate, tests for all.
    """
    current = query
    program = None
    changed = True
    while changed and len(current.body) > 1:
        changed = False
        for index, dropped in enumerate(current.body):
            candidate_body = current.body[:index] + current.body[index + 1:]
            if not _is_safe_body(current, candidate_body):
                continue
            if all(atom.predicate != dropped.predicate for atom in candidate_body):
                continue  # ``dropped`` has no atom to map onto
            if program is None:
                program = _containment_program(query)
            if program.satisfiable(_canonical_database(query.head_terms, candidate_body).get):
                current = current.with_body(candidate_body)
                changed = True
                break
    return current
