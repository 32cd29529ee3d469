"""Conjunctive queries and related algorithms.

The package provides:

* terms (:class:`~repro.query.terms.Variable`,
  :class:`~repro.query.terms.Constant`) and atoms;
* :class:`~repro.query.conjunctive.ConjunctiveQuery`;
* a small textual parser (:func:`~repro.query.parser.parse_query`);
* homomorphisms, containment and Chandra–Merlin minimization;
* the constant-elimination preprocessing step of Section III of the paper;
* the connection-query classifier used in the related-work comparison.
"""

from repro.query.atoms import Atom
from repro.query.classify import is_connection_query
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.homomorphism import find_homomorphism, is_contained_in, is_equivalent_to
from repro.query.minimize import minimize_query
from repro.query.parser import parse_atom, parse_query
from repro.query.preprocess import PreprocessedQuery, eliminate_constants
from repro.query.substitution import Substitution
from repro.query.terms import Constant, Term, Variable

__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "Constant",
    "PreprocessedQuery",
    "Substitution",
    "Term",
    "Variable",
    "eliminate_constants",
    "find_homomorphism",
    "is_connection_query",
    "is_contained_in",
    "is_equivalent_to",
    "minimize_query",
    "parse_atom",
    "parse_query",
]
