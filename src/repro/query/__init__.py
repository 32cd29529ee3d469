"""Conjunctive queries and related algorithms.

The package provides:

* terms (:class:`~repro.query.terms.Variable`,
  :class:`~repro.query.terms.Constant`) and atoms;
* :class:`~repro.query.conjunctive.ConjunctiveQuery`;
* a small textual parser (:func:`~repro.query.parser.parse_query`);
* Chandra–Merlin containment and minimization;
* the constant-elimination preprocessing step of Section III of the paper;
* the compiled join programs (:mod:`repro.query.compiled`), the one way
  the engine evaluates a conjunction — over a run's cache tables, over
  plain relation contents, over a query's canonical database.  The tests
  hold them to a reference evaluator of their own.
"""

from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.minimize import is_contained_in, is_equivalent_to, minimize_query
from repro.query.parser import parse_atom, parse_query
from repro.query.preprocess import PreprocessedQuery, eliminate_constants
from repro.query.terms import Constant, Term, Variable

__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "Constant",
    "PreprocessedQuery",
    "Term",
    "Variable",
    "eliminate_constants",
    "is_contained_in",
    "is_equivalent_to",
    "minimize_query",
    "parse_atom",
    "parse_query",
]
