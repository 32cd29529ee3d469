"""Substitutions: finite mappings from variables to terms.

The bindings of the reference evaluator (:mod:`support.evaluate`) and of
the reference homomorphism search (:mod:`support.homomorphism`).
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional

from repro.query.terms import Constant, Term, Variable


class Substitution:
    """An immutable-by-convention mapping from variables to terms.

    The class supports the operations needed by homomorphism search and rule
    evaluation: consistent extension, composition and application.
    """

    def __init__(self, mapping: Optional[Mapping[Variable, Term]] = None) -> None:
        self._mapping: Dict[Variable, Term] = dict(mapping or {})

    # -- mapping interface ----------------------------------------------------
    def __getitem__(self, variable: Variable) -> Term:
        return self._mapping[variable]

    def get(self, variable: Variable, default: Optional[Term] = None) -> Optional[Term]:
        return self._mapping.get(variable, default)

    def __contains__(self, variable: Variable) -> bool:
        return variable in self._mapping

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._mapping)

    def __len__(self) -> int:
        return len(self._mapping)

    def items(self):
        return self._mapping.items()

    def as_dict(self) -> Dict[Variable, Term]:
        return dict(self._mapping)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._mapping == other._mapping

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{var}→{term}" for var, term in sorted(self._mapping.items()))
        return f"Substitution({{{inner}}})"

    # -- operations --------------------------------------------------------------
    def extended(self, variable: Variable, term: Term) -> Optional["Substitution"]:
        """Return a new substitution with ``variable → term`` added.

        Returns ``None`` when the binding conflicts with an existing one,
        which is the signal backtracking search uses to prune a branch.
        """
        existing = self._mapping.get(variable)
        if existing is not None:
            return self if existing == term else None
        extended = dict(self._mapping)
        extended[variable] = term
        return Substitution(extended)

    def apply(self, term: Term) -> Term:
        """Apply the substitution to a single term."""
        if isinstance(term, Variable):
            return self._mapping.get(term, term)
        return term

    def compose(self, other: "Substitution") -> "Substitution":
        """Return the composition ``other ∘ self`` (apply self first, then other)."""
        composed: Dict[Variable, Term] = {}
        for variable, term in self._mapping.items():
            composed[variable] = other.apply(term)
        for variable, term in other.items():
            composed.setdefault(variable, term)
        return Substitution(composed)

    def is_ground(self) -> bool:
        """True when every variable is mapped to a constant."""
        return all(isinstance(term, Constant) for term in self._mapping.values())
