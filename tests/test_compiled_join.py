"""Compiled join programs against the reference evaluator.

Every plan-driven execution evaluates conjunctions through
:class:`~repro.query.compiled.JoinProgram`; the reference semantics is
:func:`~repro.query.evaluate.evaluate_conjunction`, which shares no code
with it.  The differential cases here are drawn at random rather than from
the scenario family, so they reach what no planned query does: a variable
repeated inside one atom, body constants, atoms sharing no variable,
nullary atoms, a predicate with no table, empty tables and rows of the
wrong arity.  A stream runs the same programs incrementally
(:class:`~repro.query.compiled.IncrementalJoin`): the union of its deltas
is held to the reference after every round of rows, and it must build each
partial solution exactly once.
"""

from __future__ import annotations

import itertools
import random
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import pytest

from repro import Engine
from repro.examples import make_scenario
from repro.model.instance import DatabaseInstance
from repro.model.schema import Schema
from repro.query.atoms import Atom
from repro.query.compiled import JoinProgram
from repro.query.evaluate import evaluate_conjunction
from repro.query.terms import Constant, Term, Variable
from repro.runtime.policy import EagerPlan
from repro.sources.cache import CacheDatabase, CacheTable

Row = Tuple[object, ...]

DOMAIN = (0, 1, 2)
VARIABLES = [Variable(f"X{i}") for i in range(5)]


def _table(name: str, arity: int) -> CacheTable:
    # A cache table only reads its relation's arity.
    return CacheTable(name, SimpleNamespace(arity=arity))  # type: ignore[arg-type]


def _random_rows(rng: random.Random, arity: int, count: int) -> List[Row]:
    return [tuple(rng.choice(DOMAIN) for _ in range(arity)) for _ in range(count)]


def _random_conjunction(
    rng: random.Random,
) -> Tuple[List[Atom], Tuple[Term, ...], Dict[str, int]]:
    """1–5 atoms over ``p0…p4`` (arities 0–4, ``p4`` never has a table) and a head."""
    arities = {f"p{i}": rng.randint(0, 4) for i in range(5)}
    atoms: List[Atom] = []
    for _ in range(rng.randint(1, 5)):
        predicate = rng.choice(sorted(arities)[: 5 if rng.random() < 0.1 else 4])
        terms: List[Term] = []
        for _ in range(arities[predicate]):
            if terms and rng.random() < 0.2:
                terms.append(rng.choice(terms))  # r(X, X), r(1, 1)
            elif rng.random() < 0.2:
                terms.append(Constant(rng.choice(DOMAIN)))
            else:
                terms.append(rng.choice(VARIABLES))
        atoms.append(Atom(predicate, tuple(terms)))
    body_variables = sorted({v for atom in atoms for v in atom.variables()})
    head: List[Term] = rng.sample(body_variables, rng.randint(0, len(body_variables)))
    if rng.random() < 0.3:
        head.insert(rng.randint(0, len(head)), Constant("tag"))
    return atoms, tuple(head), arities


def _reference(
    atoms: Sequence[Atom], head: Sequence[Term], tables: Dict[str, CacheTable]
) -> Set[Row]:
    contents = {name: list(table.row_log()) for name, table in tables.items()}
    return {
        tuple(substitution.apply(term).value for term in head)
        for substitution in evaluate_conjunction(atoms, contents)
    }


def _partials_of_a_search(program: JoinProgram, tables: Dict[str, CacheTable]) -> int:
    """How many partial solutions a backtracking search in ``program``'s join
    order passes through: the solutions of each prefix of its steps, per the
    reference evaluator (none when a table is missing: the program does not
    search).  Each step's atom is read back from its slots."""
    if any(step.predicate not in tables for step in program.steps):
        return 0
    term_of = {slot: term for term, slot in program._slot_of.items()}
    contents = {name: list(table.row_log()) for name, table in tables.items()}
    atoms: List[Atom] = []
    total = 0
    for step in program.steps:
        placed = [*zip(step.key_positions, step.key_slots), *step.binds, *step.checks]
        atoms.append(Atom(step.predicate, tuple(term_of[slot] for _, slot in sorted(placed))))
        total += sum(1 for _ in evaluate_conjunction(atoms, contents))
    return total


# -- (a) random conjunctions over random tables -----------------------------------
@pytest.mark.parametrize("seed", range(300))
def test_program_matches_the_reference_on_random_conjunctions(seed: int) -> None:
    rng = random.Random(seed)
    atoms, head, arities = _random_conjunction(rng)
    tables: Dict[str, CacheTable] = {}
    for name, arity in arities.items():
        if name == "p4":
            continue  # a predicate with no table is empty
        tables[name] = _table(name, arity)
        if rng.random() < 0.15:
            continue  # an empty table
        tables[name].add_all(_random_rows(rng, arity, rng.randint(1, 8)))
        if rng.random() < 0.3:  # rows of the wrong arity are skipped, not matched
            tables[name].add_all(_random_rows(rng, arity + 1, 2))
            tables[name].add_all(_random_rows(rng, max(arity - 1, 0), 1))
    expected = _reference(atoms, head, tables)
    program = JoinProgram(atoms)
    assert program.answers(tables.get, head) == expected, atoms
    assert program.satisfiable(tables.get) == bool(expected), atoms
    # Joined incrementally in one go, the same solutions, each partial once.
    join = program.incremental(tables.get, head)
    assert join.delta() == expected, atoms
    assert join.partials == _partials_of_a_search(program, tables), atoms
    assert join.delta() == set()


@pytest.mark.parametrize("seed", range(300))
def test_a_program_bound_once_stays_current_while_its_tables_grow(seed: int) -> None:
    # The same conjunctions, the way a run evaluates them: every program is
    # bound before its tables hold a row and never again — the bound indexes
    # are maintained by ``CacheTable.add`` — and must agree with the reference
    # (which snapshots the tables each time) after every round of growth.
    rng = random.Random(seed)
    atoms, head, arities = _random_conjunction(rng)
    tables = {name: _table(name, arity) for name, arity in arities.items() if name != "p4"}
    program = JoinProgram(atoms)
    full = program.bind(tables.get, head)
    test = program.bind(tables.get)  # no head: satisfiability only
    join = program.incremental(tables.get, head)
    seen: Set[Row] = set()
    for _ in range(5):
        for name in rng.sample(sorted(tables), rng.randint(0, len(tables))):
            tables[name].add_all(_random_rows(rng, arities[name], rng.randint(0, 4)))
            if rng.random() < 0.2:  # rows of the wrong arity are skipped, not matched
                tables[name].add_all(_random_rows(rng, arities[name] + 1, 1))
                tables[name].add_all(_random_rows(rng, max(arities[name] - 1, 0), 1))
        expected = _reference(atoms, head, tables)
        assert full.answers() == expected, atoms
        assert test.satisfiable() == bool(expected), atoms
        # The union of the deltas is the answer set after every round, and
        # the join has built exactly the partials a search from scratch
        # passes through now: none twice, however the rows were split.
        seen |= join.delta()
        assert seen == expected, atoms
        assert join.partials == _partials_of_a_search(program, tables), atoms


def test_the_empty_conjunction_has_one_solution() -> None:
    program = JoinProgram([])
    assert program.satisfiable({}.get)
    assert program.answers({}.get, (Constant("tag"),)) == {("tag",)}
    join = program.incremental({}.get, (Constant("tag"),))
    assert join.delta() == {("tag",)} and join.delta() == set()


def test_a_join_over_one_predicate_read_twice_builds_each_partial_once() -> None:
    # r(X, Y), r(Y, Z): every row arrives for both steps, one row per call,
    # in a random order, alongside rows of the wrong arity.
    x, y, z = (Variable(name) for name in "XYZ")
    atoms = [Atom("r", (x, y)), Atom("r", (y, z))]
    rows = [(a, b) for a in range(4) for b in range(4) if a != b] + [(0,), (1, 2, 3)]
    random.Random(7).shuffle(rows)
    tables = {"r": _table("r", 2)}
    program = JoinProgram(atoms)
    join = program.incremental(tables.get, (x, z))
    seen: Set[Row] = set()
    for row in rows:
        tables["r"].add(row)
        seen |= join.delta()
        assert seen == _reference(atoms, (x, z), tables)
    assert join.partials == _partials_of_a_search(program, tables) == 12 + 12 * 3


def test_a_join_over_a_missing_table_stays_empty() -> None:
    atoms = [Atom("r", (Variable("X"),)), Atom("absent", (Variable("X"),))]
    tables = {"r": _table("r", 1)}
    join = JoinProgram(atoms).incremental(tables.get, (Variable("X"),))
    tables["r"].add_all([(1,), (2,)])
    assert join.delta() == set() and join.partials == 0


# -- (b) the semi-naive contract ------------------------------------------------------
@pytest.mark.parametrize("seed", range(60))
def test_pivot_runs_over_the_deltas_add_up_to_the_full_answers(seed: int) -> None:
    # The semi-naive contract of ``IncrementalJoin.delta``: in each call every
    # step's new rows are the pivot once — joined with the partials built
    # before the call — so each call finds only answers of the current
    # tables, and the calls together find all of them.
    rng = random.Random(f"delta/{seed}")
    atoms, head, arities = _random_conjunction(rng)
    tables = {name: _table(name, arity) for name, arity in arities.items() if name != "p4"}
    join = JoinProgram(atoms).incremental(tables.get, head)
    seen: Set[Row] = set()
    for _ in range(6):
        for name in rng.sample(sorted(tables), rng.randint(1, len(tables))):
            tables[name].add_all(_random_rows(rng, arities[name], rng.randint(0, 3)))
        found = join.delta()
        assert found <= _reference(atoms, head, tables)
        seen |= found
        assert seen == _reference(atoms, head, tables), atoms
    # No new row, no new partial: the last call reads nothing and finds nothing.
    partials = join.partials
    assert join.delta() == set() and join.partials == partials


def test_policy_deltas_add_up_to_the_full_evaluation(chain) -> None:
    with Engine(chain.schema, chain.instance) as engine:
        plan = engine.plan(chain.query_text).plan
    policy = EagerPlan(plan, CacheDatabase())
    rows = [
        (cache.name, row)
        for cache in plan.caches.values()
        for row in sorted(chain.instance[cache.relation.name].as_set())
    ]
    random.Random(5).shuffle(rows)
    seen: Set[Row] = set()
    for start in range(0, len(rows), 3):
        for name, row in rows[start : start + 3]:
            policy.cache_db.cache(name).add(row)
        seen |= policy.evaluate_delta()
        assert seen == policy.evaluate()
    assert seen == chain.expected_answers
    assert policy.evaluate_delta() == set()  # nothing new, nothing joined


# -- (c) every fast-failing test a plan can ask for -----------------------------------
#: The schema and the six templates of ``benchmarks/e2e/catalog.py``, restated
#: so the tests do not import the harness.
E2E_SIGNATURES = {
    "artist": ("ioo", ["Artist", "Nation", "Year"]),
    "song": ("ioo", ["Song", "Year", "Artist"]),
    "by_nation": ("io", ["Nation", "Artist"]),
    "discography": ("io", ["Artist", "Album"]),
    "track": ("io", ["Album", "Song"]),
    "signed": ("io", ["Artist", "Label"]),
    "roster": ("io", ["Label", "Artist"]),
    "label_city": ("io", ["Label", "City"]),
    "chart": ("oo", ["Year", "Song"]),
}
E2E_TEMPLATES = {
    "nation": "q(N) <- artist(A, N, Y1), song('k', Y2, A)",
    "disc": "q(Al, N) <- song('k', Y, A), artist(A, N, Y1), discography(A, Al)",
    "city": "q(L, C) <- song('k', Y, A), artist(A, N, Y1), signed(A, L), label_city(L, C)",
    "redundant": (
        "q(N) <- artist(A, N, Y1), song('k', Y2, A), song('k', Y3, A2), "
        "artist(A2, N2, Y4), artist(A2, N3, Y5)"
    ),
    "albumcity": (
        "q(Al, C) <- song('k', Y, A), artist(A, N, Y1), discography(A, Al), "
        "signed(A, L), label_city(L, C)"
    ),
    "roster": (
        "q(S2) <- song('k', Y, A), signed(A, L), roster(L, A2), "
        "discography(A2, Al), track(Al, S2)"
    ),
}


def _plan_of(name: str):
    if name in E2E_TEMPLATES:
        schema = Schema.from_signatures(E2E_SIGNATURES)
        return Engine(schema, DatabaseInstance(schema)).plan(E2E_TEMPLATES[name]).plan
    example = make_scenario(name)
    return Engine(example.schema, example.instance).plan(example.query_text).plan


@pytest.mark.parametrize("name", [*E2E_TEMPLATES, "chaos", "empty-branch"])
def test_prefix_programs_match_the_reference_on_every_subset_of_positions(name: str) -> None:
    plan = _plan_of(name)
    body = plan.rewritten_query.body
    positions = plan.positions()
    rng = random.Random(name)
    for fill in range(4):
        tables: Dict[str, CacheTable] = {}
        for cache in plan.caches.values():
            tables[cache.name] = _table(cache.name, cache.relation.arity)
            if fill and rng.random() < 0.85:  # the first fill leaves every table empty
                tables[cache.name].add_all(
                    _random_rows(rng, cache.relation.arity, rng.randint(1, 6))
                )
        for size in range(len(positions) + 1):
            for populated in itertools.combinations(positions, size):
                atoms = [a for a in body if plan.caches[a.predicate].position in populated]
                contents = {name_: list(t.row_log()) for name_, t in tables.items()}
                expected: Optional[object] = next(evaluate_conjunction(atoms, contents), None)
                program = plan.compiled.prefix(frozenset(populated))
                assert len(program.steps) == len(atoms)
                assert program.satisfiable(tables.get) == (expected is not None), (
                    name,
                    populated,
                )
