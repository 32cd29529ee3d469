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

A streaming run asks, after nearly every completion, which answers became
derivable since its previous check: it runs its program *incrementally*
(:class:`IncrementalJoin`), keeping the partial solutions built so far and
joining only the rows the tables appended since — the semi-naive split,
each step's new rows in turn the pivot — so each partial solution is built
once over the run and a check costs what it adds.

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
    """The conjunction of ``atoms``, compiled to a fixed join order over slots."""

    __slots__ = ("steps", "_slot_of", "_variable_slot", "_initial")

    def __init__(self, atoms: Sequence[Atom]) -> None:
        self._slot_of: Dict[Term, int] = {}
        #: The slot of each variable by name (a ``str`` key hashes in C).
        self._variable_slot: Dict[str, int] = {}
        #: The slot list a run starts from: constants in place, variables unset.
        self._initial: List[object] = []
        remaining = list(atoms)
        bound: Set[Variable] = set()
        steps: List[_Step] = []
        while remaining:
            remaining.sort(
                key=lambda atom: -sum(
                    isinstance(term, Constant) or term in bound for term in atom.terms
                )
            )
            steps.append(self._compile(remaining.pop(0), bound))
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

    def _compile(self, atom: Atom, bound: Set[Variable]) -> _Step:
        """Compile ``atom`` given the variables ``bound`` before it (updated)."""
        keys: List[_At] = []
        binds: List[_At] = []
        checks: List[_At] = []
        fresh: Set[Variable] = set()
        for position, term in enumerate(atom.terms):
            at = (position, self._slot(term))
            if isinstance(term, Constant) or term in bound:
                keys.append(at)
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
        index dictionary (with no probe key, the row log) it reads.  Both grow
        in place, so the bound program stays current for the tables' life.
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

    def answers(self, tables: TableLookup, head_terms: Sequence[Term]) -> Set[Row]:
        """Every solution projected on ``head_terms``; see :class:`BoundProgram`."""
        return self.bind(tables, head_terms).answers()

    def incremental(self, tables: TableLookup, head_terms: Sequence[Term]) -> "IncrementalJoin":
        """The program bound to ``tables`` as an :class:`IncrementalJoin`."""
        bound = self.bind(tables, head_terms)
        logs = None
        if bound.sources is not None:
            logs = [tables(step.predicate).row_log() for step in self.steps]
        return IncrementalJoin(bound, logs)


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

    def answers(self) -> Set[Row]:
        """Every solution projected on the head terms the program was bound with."""
        steps, sources, initial, head = self
        if sources is None:
            return set()
        if not steps:  # the empty conjunction has exactly one (empty) solution
            return {tuple([initial[slot] for slot in head])}
        out: Set[Row] = set()
        _search(steps, sources, initial.copy(), 0, head, out)
        return out


class IncrementalJoin:
    """A :class:`BoundProgram` run semi-naively over its tables' row logs.

    ``levels[k]`` holds the partial solutions of steps ``0 … k−1`` built so
    far, grouped on step ``k``'s probe key.  :meth:`delta` walks the steps
    in join order: the old partials of a level join the step's new rows, the
    partials just built at the level before join all its rows and then join
    the level.  A partial is thus built by the call that reads the last of
    its rows, and only then (``partials`` counts them, complete ones too).
    The empty partial — the initial slot list — is new at the first call.
    ``logs`` are the steps' row logs (None when a table does not exist),
    ``marks`` how much of each the previous calls have joined.
    """

    __slots__ = ("program", "logs", "marks", "levels", "partials", "_seed")

    def __init__(self, program: BoundProgram, logs: Optional[List[List[Row]]]) -> None:
        self.program = program
        self.logs = logs
        self.marks = [0] * len(program.steps)
        self.levels: List[Dict[Row, List[List[object]]]] = [{} for _ in program.steps]
        self.partials = 0
        self._seed = [program.initial]

    def delta(self) -> Set[Row]:
        """The answers of the solutions that use a row added since the
        previous call (the first call: every answer).  The union of all calls
        is :meth:`BoundProgram.answers`; two solutions found by different
        calls may project on the same answer."""
        (steps, sources, _, head), logs, marks = self.program, self.logs, self.marks
        if logs is None:
            return set()
        fresh, self._seed = self._seed, []  # the partials built at the level before
        for depth, (_, arity, key_positions, key_slots, binds, checks) in enumerate(steps):
            log, low = logs[depth], marks[depth]
            high = marks[depth] = len(log)
            if low == high and not fresh:
                continue  # no new row here, no new partial to extend
            level = self.levels[depth]
            single = len(key_slots) == 1  # the common probe, without the comprehension
            pairs = []
            for row in log[low:high]:  # old partials x new rows
                if len(row) == arity:
                    if single:
                        key = (row[key_positions[0]],)
                    else:
                        key = tuple([row[position] for position in key_positions])
                    for partial in level.get(key, ()):
                        pairs.append((partial, row))
            source = sources[depth]
            for partial in fresh:  # new partials x every row; then they join the level
                key = (partial[key_slots[0]],) if single else tuple([partial[s] for s in key_slots])
                level.setdefault(key, []).append(partial)
                for row in source.get(key, ()) if key_slots else source:
                    if len(row) == arity:
                        pairs.append((partial, row))
            fresh = []
            for partial, row in pairs:
                slots = partial.copy()
                for position, slot in binds:
                    slots[slot] = row[position]
                for position, slot in checks:
                    if row[position] != slots[slot]:
                        break
                else:
                    fresh.append(slots)
            self.partials += len(fresh)
        return {tuple([slots[slot] for slot in head]) for slots in fresh}


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
