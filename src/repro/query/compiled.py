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

A program holds no per-run state, so concurrent runs share it safely.  A
run *binds* the programs it uses to its own tables once
(:meth:`JoinProgram.bind`: per step the live index dictionary or row log)
and after that only runs them (:class:`BoundProgram`).
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
#: ``index_for(positions)`` — a ``{key: rows}`` grouping it keeps up to date
#: in place — and ``row_log()``; :class:`~repro.sources.cache.CacheTable` does.
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

    __slots__ = ("steps", "_slot_of", "_variable_slot", "_initial")

    def __init__(self, atoms: Sequence[Atom], pivot: Optional[int] = None) -> None:
        self._slot_of: Dict[Term, int] = {}
        #: The slot of each variable by name (a ``str`` key hashes in C).
        self._variable_slot: Dict[str, int] = {}
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
            if isinstance(term, Constant):
                self._initial.append(term.value)
            else:
                self._initial.append(None)
                self._variable_slot[term.name] = slot
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

    # -- binding and running -----------------------------------------------------
    def bind(
        self, tables: TableLookup, head_terms: Optional[Sequence[Term]] = None
    ) -> "BoundProgram":
        """Resolve the program against one run's tables, once: per step the
        index dictionary (for a scan, the row log) it reads.  Both grow in
        place, so the bound program stays current for the tables' life.
        ``head_terms`` is what :meth:`BoundProgram.answers` projects on
        (constants are copied); without it only ``satisfiable`` is asked.
        """
        slots = self._initial
        head: Optional[List[int]] = None
        if head_terms is not None:
            slots, head = slots.copy(), []
            for term in head_terms:
                if type(term) is Constant:
                    head.append(len(slots))
                    slots.append(term.value)
                else:
                    head.append(self._variable_slot[term.name])
        return BoundProgram(self.steps, self._sources(tables), slots, head)

    def _sources(self, tables: TableLookup) -> Optional[List[object]]:
        """Per step what it reads in ``tables``; None when a table is missing."""
        sources: List[object] = []
        for step in self.steps:
            table = tables(step.predicate)
            if table is None:  # no such table: the conjunction is empty
                return None
            sources.append(
                table.index_for(step.key_positions) if step.key_positions else table.row_log()
            )
        return sources

    def satisfiable(self, tables: TableLookup) -> bool:
        """True when the conjunction has a solution over ``tables`` (stops at
        the first) — :meth:`BoundProgram.satisfiable` for a program asked once."""
        sources = self._sources(tables)
        if sources is None:
            return False
        return not self.steps or _search(self.steps, sources, self._initial.copy(), 0, None, None)

    def answers(
        self,
        tables: TableLookup,
        head_terms: Sequence[Term],
        first_rows: Optional[Sequence[Row]] = None,
    ) -> Set[Row]:
        """Every solution projected on ``head_terms``; see :class:`BoundProgram`."""
        return self.bind(tables, head_terms).answers(first_rows)


class BoundProgram(NamedTuple):
    """A :class:`JoinProgram` bound to one run's tables: it only runs."""

    steps: Tuple[_Step, ...]
    #: Per step what it reads; None when some table does not exist.
    sources: Optional[List[object]]
    #: The slot list a run starts from (head constants appended).
    initial: List[object]
    #: The head terms' slots; None when bound for ``satisfiable`` alone.
    head: Optional[List[int]]

    def satisfiable(self) -> bool:
        """True when the conjunction has a solution (stops at the first)."""
        if self.sources is None:
            return False
        return not self.steps or _search(
            self.steps, self.sources, self.initial.copy(), 0, None, None
        )

    def answers(self, first_rows: Optional[Sequence[Row]] = None) -> Set[Row]:
        """Every solution projected on the head terms the program was bound with.

        ``first_rows`` replaces the first step's table scan; the program must
        have been compiled with a pivot.
        """
        steps, sources, initial, head = self
        if first_rows is not None and steps and steps[0].key_positions:
            raise ValueError("first_rows needs a program compiled with a pivot")
        if sources is None:
            return set()
        if not steps:  # the empty conjunction has exactly one (empty) solution
            return {tuple([initial[slot] for slot in head])}
        if first_rows is not None:
            sources = [first_rows, *sources[1:]]
        out: Set[Row] = set()
        _search(steps, sources, initial.copy(), 0, head, out)
        return out


def _search(
    steps: Tuple[_Step, ...],
    sources: Sequence[object],
    slots: List[object],
    depth: int,
    head: Optional[List[int]],
    out: Optional[Set[Row]],
) -> bool:
    """Backtrack from step ``depth`` on, assigning ``slots`` in place; ``out``
    None means stop at the first solution.  A plain function over explicit
    arguments (not a closure, which would sit in its own cell): a run leaves
    nothing behind for the cyclic collector.
    """
    _, arity, _, key_slots, binds, checks = steps[depth]
    rows = sources[depth]
    if len(key_slots) == 1:  # the common probe, without the comprehension
        rows = rows.get((slots[key_slots[0]],), ())
    elif key_slots:
        rows = rows.get(tuple([slots[slot] for slot in key_slots]), ())
    deeper = depth + 1
    last = deeper == len(steps)
    for row in rows:
        if len(row) != arity:
            continue
        for position, slot in binds:
            slots[slot] = row[position]
        for position, slot in checks:
            if row[position] != slots[slot]:
                break
        else:
            if not last:
                if _search(steps, sources, slots, deeper, head, out):
                    return True
            elif out is None:
                return True
            else:
                out.add(tuple([slots[slot] for slot in head]))
    return False
