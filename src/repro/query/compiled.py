"""Join programs: a conjunction compiled once, then only run.

A plan-driven execution evaluates the same few conjunctions over its cache
tables again and again — the answer checks, the fast-failing tests between
phases, the streaming checks — and the rewritten query's body is the same
for every query of a shape.  A :class:`JoinProgram` therefore fixes, once,
everything that does not depend on the rows: the bound-first join order
(the greedy of :func:`~repro.query.evaluate.evaluate_conjunction`: most
ground terms first, ties by the order so far), an integer *slot* per
variable and per constant, and per atom the positions to probe on, the
slots that form the probe key, the positions that bind a slot and those
that must agree with one (a variable repeated inside the atom).  A run is
one mutable slot list assigned in place while backtracking over the
tables' persistent hash indexes — no snapshot of the tables, no
re-sorting, no per-row substitution objects.

A program compiled with a *pivot* scans that atom first, and the caller
may hand in the rows to scan (``first_rows``).  This is the semi-naive step
of the streaming answer checks: an answer that became derivable since the
previous check uses at least one row that arrived since then, so running
every atom's pivot program over that atom's new rows — against the other
atoms' full tables — finds every new answer.  One whose rows span several
deltas is found once per such pivot; the caller's dedup absorbs that.

A program holds no per-run state, so concurrent runs share it safely.
:func:`~repro.query.evaluate.evaluate_conjunction` stays the reference
semantics the programs are tested against; nothing here calls it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.query.atoms import Atom
from repro.query.terms import Constant, Term, Variable

Row = Tuple[object, ...]

#: ``(position in the row, slot)``.
_At = Tuple[int, int]

#: ``predicate -> table`` (None: no such table, i.e. empty).  A table offers
#: ``index_for(positions)`` — a ``{key: rows}`` grouping, up to date — and
#: ``row_log()``; :class:`~repro.sources.cache.CacheTable` does.
TableLookup = Callable[[str], Optional[object]]


class _Step(NamedTuple):
    """One atom of a program, at its place in the join order."""

    predicate: str
    arity: int
    #: Positions ground when the step runs (constants, variables bound by an
    #: earlier step) and the slots holding their values: the probe key.
    key_positions: Tuple[int, ...]
    key_slots: Tuple[int, ...]
    #: First occurrences of the variables this step binds.
    binds: Tuple[_At, ...]
    #: Positions a candidate row must agree on with an already assigned slot.
    checks: Tuple[_At, ...]


class JoinProgram:
    """The conjunction of ``atoms``, compiled to a fixed join order over slots.

    With ``pivot``, ``atoms[pivot]`` is scanned first (see the module
    docstring) and the greedy orders the rest.
    """

    __slots__ = ("steps", "_slot_of", "_initial")

    def __init__(self, atoms: Sequence[Atom], pivot: Optional[int] = None) -> None:
        self._slot_of: Dict[Term, int] = {}
        #: The slot list a run starts from: constants in place, variables unset.
        self._initial: List[object] = []
        remaining = list(atoms)
        bound: Set[Variable] = set()
        steps: List[_Step] = []
        if pivot is not None:
            steps.append(self._compile(remaining.pop(pivot), bound, scan=True))
        while remaining:
            remaining.sort(
                key=lambda atom: -sum(
                    isinstance(term, Constant) or term in bound for term in atom.terms
                )
            )
            steps.append(self._compile(remaining.pop(0), bound, scan=False))
        self.steps: Tuple[_Step, ...] = tuple(steps)

    def _slot(self, term: Term) -> int:
        slot = self._slot_of.get(term)
        if slot is None:
            slot = self._slot_of[term] = len(self._initial)
            self._initial.append(term.value if isinstance(term, Constant) else None)
        return slot

    def _compile(self, atom: Atom, bound: Set[Variable], scan: bool) -> _Step:
        """Compile ``atom`` given the variables ``bound`` before it (updated).

        A scanned step probes nothing: its ground positions become checks.
        """
        keys: List[_At] = []
        binds: List[_At] = []
        checks: List[_At] = []
        fresh: Set[Variable] = set()
        for position, term in enumerate(atom.terms):
            at = (position, self._slot(term))
            if isinstance(term, Constant) or term in bound:
                (checks if scan else keys).append(at)
            elif term in fresh:
                checks.append(at)
            else:
                fresh.add(term)
                binds.append(at)
        bound |= fresh
        return _Step(
            atom.predicate,
            atom.arity,
            tuple(position for position, _ in keys),
            tuple(slot for _, slot in keys),
            tuple(binds),
            tuple(checks),
        )

    # -- running ---------------------------------------------------------------
    def satisfiable(self, tables: TableLookup) -> bool:
        """True when the conjunction has a solution (stops at the first)."""
        return self._run(tables, None, None, None)

    def answers(
        self,
        tables: TableLookup,
        head_terms: Sequence[Term],
        first_rows: Optional[Sequence[Row]] = None,
    ) -> Set[Row]:
        """Every solution projected on ``head_terms`` (constants are copied).

        ``first_rows`` replaces the first step's table scan; the program must
        have been compiled with a pivot.
        """
        if first_rows is not None and self.steps and self.steps[0].key_positions:
            raise ValueError("first_rows needs a program compiled with a pivot")
        out: Set[Row] = set()
        self._run(tables, head_terms, first_rows, out)
        return out

    def _run(
        self,
        lookup: TableLookup,
        head_terms: Optional[Sequence[Term]],
        first_rows: Optional[Sequence[Row]],
        out: Optional[Set[Row]],
    ) -> bool:
        """Backtrack over the steps; ``out`` None means stop at the first solution."""
        steps = self.steps
        slots = self._initial.copy()
        head: List[int] = []
        if out is not None:
            for term in head_terms:
                if isinstance(term, Constant):
                    head.append(len(slots))
                    slots.append(term.value)
                else:
                    head.append(self._slot_of[term])
        if not steps:  # the empty conjunction has exactly one (empty) solution
            if out is not None:
                out.add(tuple([slots[slot] for slot in head]))
            return True
        sources: List[object] = []
        for step in steps:
            table = lookup(step.predicate)
            if table is None:
                return False
            sources.append(
                table.index_for(step.key_positions) if step.key_positions else table.row_log()
            )
        if first_rows is not None:
            sources[0] = first_rows
        last = len(steps) - 1

        def search(depth: int) -> bool:
            _, arity, _, key_slots, binds, checks = steps[depth]
            rows = sources[depth]
            if len(key_slots) == 1:  # the common probe, without the comprehension
                rows = rows.get((slots[key_slots[0]],), ())
            elif key_slots:
                rows = rows.get(tuple([slots[slot] for slot in key_slots]), ())
            for row in rows:
                if len(row) != arity:
                    continue
                for position, slot in binds:
                    slots[slot] = row[position]
                for position, slot in checks:
                    if row[position] != slots[slot]:
                        break
                else:
                    if depth < last:
                        if search(depth + 1):
                            return True
                    elif out is None:
                        return True
                    else:
                        out.add(tuple([slots[slot] for slot in head]))
            return False

        return search(0)
