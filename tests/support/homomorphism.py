"""Homomorphisms, containment and equivalence of conjunctive queries.

The classical Chandra–Merlin characterization is used: a CQ ``q1`` is
contained in a CQ ``q2`` (``q1 ⊆ q2``) if and only if there is a
homomorphism from ``q2`` to ``q1``, i.e. a mapping of the terms of ``q2`` to
the terms of ``q1`` that is the identity on constants, maps the head of
``q2`` onto the head of ``q1`` and maps every body atom of ``q2`` onto some
body atom of ``q1``.

This is the reference search the engine's containment test
(:mod:`repro.query.minimize`, one join program over a canonical database)
is held to: a backtracking over atom mappings that shares no code with it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.terms import Constant, Term
from support.substitution import Substitution


def _unify_terms(
    source_term: Term, target_term: Term, substitution: Substitution
) -> Optional[Substitution]:
    """Extend ``substitution`` so that ``source_term`` maps to ``target_term``.

    Constants only map to equal constants; variables map to any term but must
    be mapped consistently.
    """
    if isinstance(source_term, Constant):
        return substitution if source_term == target_term else None
    return substitution.extended(source_term, target_term)


def _map_atom(source_atom: Atom, target_atom: Atom, substitution: Substitution) -> Optional[Substitution]:
    """Try to map ``source_atom`` onto ``target_atom`` under ``substitution``."""
    if source_atom.predicate != target_atom.predicate:
        return None
    if source_atom.arity != target_atom.arity:
        return None
    current = substitution
    for source_term, target_term in zip(source_atom.terms, target_atom.terms):
        extended = _unify_terms(source_term, target_term, current)
        if extended is None:
            return None
        current = extended
    return current


def find_atom_mapping(
    source_atoms: Sequence[Atom],
    target_atoms: Sequence[Atom],
    initial: Optional[Substitution] = None,
) -> Optional[Substitution]:
    """Find a substitution mapping every source atom onto some target atom.

    Backtracking search over the source atoms; returns the first substitution
    found or ``None``.
    """
    return _search(source_atoms, target_atoms, 0, initial or Substitution())


def _search(
    source_atoms: Sequence[Atom],
    target_atoms: Sequence[Atom],
    index: int,
    substitution: Substitution,
) -> Optional[Substitution]:
    if index == len(source_atoms):
        return substitution
    source_atom = source_atoms[index]
    for target_atom in target_atoms:
        extended = _map_atom(source_atom, target_atom, substitution)
        if extended is not None:
            result = _search(source_atoms, target_atoms, index + 1, extended)
            if result is not None:
                return result
    return None


def find_homomorphism(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> Optional[Substitution]:
    """Find a homomorphism from ``source`` to ``target``.

    The homomorphism must map the head of ``source`` onto the head of
    ``target`` positionally, and every body atom of ``source`` onto some body
    atom of ``target``.  Returns the substitution, or ``None`` when no
    homomorphism exists (including when the head arities differ).
    """
    if source.arity != target.arity:
        return None
    substitution: Optional[Substitution] = Substitution()
    for source_term, target_term in zip(source.head_terms, target.head_terms):
        substitution = _unify_terms(source_term, target_term, substitution)
        if substitution is None:
            return None
    return find_atom_mapping(source.body, target.body, substitution)


def is_contained_in(query1: ConjunctiveQuery, query2: ConjunctiveQuery) -> bool:
    """Chandra–Merlin containment test: ``query1 ⊆ query2``."""
    return find_homomorphism(query2, query1) is not None


def is_equivalent_to(query1: ConjunctiveQuery, query2: ConjunctiveQuery) -> bool:
    """Equivalence of CQs: mutual containment."""
    return is_contained_in(query1, query2) and is_contained_in(query2, query1)
