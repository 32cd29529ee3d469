"""Chandra–Merlin minimization and containment on small CQs.

The engine tests containment with its join program over a canonical
database (:mod:`repro.query.minimize`); on generated queries it is held to
the reference homomorphism search of :mod:`support.homomorphism`, which
shares no code with it: the same containments, and the same greedy fold.
"""

from __future__ import annotations

import pytest
from support.generated import generate
from support.homomorphism import find_homomorphism

from repro.query import (
    ConjunctiveQuery,
    is_contained_in,
    is_equivalent_to,
    minimize_query,
    parse_query,
)


def test_redundant_atom_removed() -> None:
    query = parse_query("q(X) <- r(X, Y), r(X, Z)")
    minimal = minimize_query(query)
    assert len(minimal.body) == 1
    assert is_equivalent_to(minimal, query)


def test_head_variable_blocks_collapse() -> None:
    # Y is distinguished, so r(X, Y) cannot be folded onto r(X, 'a').
    query = parse_query("q(X, Y) <- r(X, Y), r(X, 'a')")
    minimal = minimize_query(query)
    assert len(minimal.body) == 2


def test_distinct_constants_not_collapsed() -> None:
    query = parse_query("q(X) <- r(X, 'a'), r(X, 'b')")
    minimal = minimize_query(query)
    assert len(minimal.body) == 2


def test_non_distinguished_variable_folds_onto_constant() -> None:
    # Y → 'a' is a valid homomorphism: the query IS equivalent to its core.
    query = parse_query("q(X) <- r(X, Y), r(X, 'a')")
    minimal = minimize_query(query)
    assert len(minimal.body) == 1


def test_already_minimal_query_unchanged() -> None:
    query = parse_query("q(N) <- r1(A, N, Y1), r2('volare', Y2, A)")
    minimal = minimize_query(query)
    assert minimal == query


def test_containment_direction() -> None:
    specific = parse_query("q(X) <- r(X, 'a')")
    general = parse_query("q(X) <- r(X, Y)")
    assert is_contained_in(specific, general)
    assert not is_contained_in(general, specific)


@pytest.mark.parametrize(
    "text1, text2",
    [
        ("q(X, X) <- r(X, Y)", "q(X, Y) <- r(X, Y)"),  # a head variable repeated
        ("q(X, 'a') <- r(X, Y)", "q(X, Y) <- r(X, Y)"),  # a head constant
        ("q(X) <- r(X, Y)", "q(X, Y) <- r(X, Y)"),  # heads of different arity
        ("q() <- r(X, Y)", "q() <- r(X, X)"),  # empty heads
        ("q(X) <- r(X, Y), r(Y, Z)", "q(X) <- r(X, Y, Z)"),  # one name, two arities
        ("q(X) <- r(X, X)", "q(X) <- r(X, Y), r(Y, X)"),
        ("q(X) <- r(X, 1)", "q(X) <- r(X, '1')"),  # an integer is not its string
    ],
)
def test_containment_corner_cases_match_the_reference(text1: str, text2: str) -> None:
    query1, query2 = parse_query(text1), parse_query(text2)
    for a, b in [(query1, query2), (query2, query1)]:
        assert is_contained_in(a, b) == _contained_per_reference(a, b), (a, b)


def test_minimized_query_used_by_engine_plan() -> None:
    from repro import Engine
    from repro.examples import running_example

    example = running_example()
    engine = Engine(example.schema, example.instance)
    # Duplicate atom: the planner must minimize it away before planning.
    prepared = engine.plan("q(N) <- r1(A, N, Y1), r1(A, N, Y1), r2('volare', Y2, A)")
    assert len(prepared.plan.minimized_query.body) == 2
    result = prepared.execute(strategy="fast_fail")
    assert result.answers == example.expected_answers


# -- generated queries against the reference homomorphism search ----------------
def _contained_per_reference(query1: ConjunctiveQuery, query2: ConjunctiveQuery) -> bool:
    return find_homomorphism(query2, query1) is not None


def _sub_queries(query: ConjunctiveQuery) -> list:
    """``query`` without one of its atoms, each way that keeps it safe, in
    the order :func:`minimize_query` tries them."""
    subs = []
    for index in range(len(query.body)):
        body = query.body[:index] + query.body[index + 1 :]
        if body and {*query.head_variables()} <= {v for atom in body for v in atom.variables()}:
            subs.append(query.with_body(body))
    return subs


def _minimized_per_reference(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The greedy fold of :func:`minimize_query`, each candidate checked for
    equivalence by the reference search."""
    current = query
    while len(current.body) > 1:
        for candidate in _sub_queries(current):
            if _contained_per_reference(candidate, query) and _contained_per_reference(
                query, candidate
            ):
                current = candidate
                break
        else:
            break
    return current


def _disagreements(seed: int) -> list:
    """Where minimization and containment on the query of ``seed`` differ
    from the reference (nothing: ``[]``).  Containment is asked both ways
    between the query and its minimized form, each query one atom shorter,
    and the query of ``seed + 1`` (other relations of the same names)."""
    query = parse_query(generate(seed).text)
    minimal = minimize_query(query)
    wrong = []
    if str(minimal) != str(_minimized_per_reference(query)):
        wrong.append(f"{query}: minimized to {minimal}")
    for other in [minimal, *_sub_queries(query), parse_query(generate(seed + 1).text)]:
        for query1, query2 in [(query, other), (other, query)]:
            if is_contained_in(query1, query2) != _contained_per_reference(query1, query2):
                wrong.append(f"{query1} ⊆ {query2}: {is_contained_in(query1, query2)}")
    return wrong


@pytest.mark.parametrize("seed", range(300))
def test_minimization_and_containment_match_the_reference(seed: int) -> None:
    assert _disagreements(seed) == []


@pytest.mark.slow
def test_minimization_and_containment_match_the_reference_on_5000_queries() -> None:
    failing = {seed: wrong for seed in range(5000) if (wrong := _disagreements(seed))}
    assert failing == {}


def test_generated_queries_shrink_and_their_sub_queries_both_hold_and_fail() -> None:
    # Neither check above is vacuous: some generated queries lose atoms, and
    # a query one atom shorter is contained in the query on some seeds and
    # not on others.
    shrunk = contained = not_contained = 0
    for seed in range(300):
        query = parse_query(generate(seed).text)
        shrunk += len(minimize_query(query).body) < len(query.body)
        for sub in _sub_queries(query):
            if is_contained_in(sub, query):
                contained += 1
            else:
                not_contained += 1
    assert min(shrunk, contained, not_contained) >= 20, (shrunk, contained, not_contained)
