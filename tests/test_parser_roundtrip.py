"""Property-style parser round-trip: parse → render → parse is a fixpoint.

Random queries mix quoted constants containing the separators the parser
must not split on (``:-``, ``<-``, commas), numeric constants, repeated
anonymous ``_`` terms and mixed arities.  For every generated query the
first render must reparse to an equal query and render identically again,
and anonymous variables must stay pairwise distinct (no silent equi-join).

The same generator checks the parse memo (``parse_query`` parses each text
*skeleton* once): whatever the memo holds, ``parse_query`` returns what the
uncached grammar returns, for the text that filled an entry and for every
later text that hits it.
"""

from __future__ import annotations

import random
from typing import Optional

import pytest

from repro.query import parser
from repro.query.parser import PARSE_MEMO_ENTRIES, parse_query
from repro.query.terms import Constant, Variable

#: Constants deliberately containing the tokens the tokenizer must treat as
#: data when quoted.
TRICKY_CONSTANTS = [
    "a:-b",
    "x,y",
    "<- arrow",
    "volare :- nel blu",
    "trailing,",
    ":-",
    "plain",
    "it's",
]

VARIABLE_POOL = ["X", "Y", "Z", "W1", "Long_Var", "V2"]

PREDICATE_POOL = ["r", "s", "t", "edge", "rel3"]


def _random_query_text(rng: random.Random, literals: Optional[random.Random] = None) -> str:
    """``rng`` draws the structure, ``literals`` (default: ``rng`` too) the
    constants' values — one structure under two literal draws is two texts
    of one skeleton."""
    literals = literals or rng
    body_atoms = []
    body_variables = []
    for _ in range(rng.randint(1, 4)):
        predicate = rng.choice(PREDICATE_POOL)
        terms = []
        for _ in range(rng.randint(1, 4)):  # mixed arities
            kind = rng.random()
            if kind < 0.35:
                variable = rng.choice(VARIABLE_POOL)
                body_variables.append(variable)
                terms.append(variable)
            elif kind < 0.55:
                terms.append("_")
            elif kind < 0.8:
                terms.append(str(Constant(literals.choice(TRICKY_CONSTANTS))))
            elif kind < 0.9:
                terms.append(str(literals.randint(-50, 50)))
            else:
                terms.append(str(literals.randint(0, 9)) + ".5")
        body_atoms.append(f"{predicate}({', '.join(terms)})")
    if body_variables and rng.random() < 0.9:
        head_count = rng.randint(1, min(3, len(body_variables)))
        head_terms = rng.sample(body_variables, head_count)
    else:
        head_terms = []  # boolean query
    separator = rng.choice(["<-", ":-"])
    return f"q({', '.join(head_terms)}) {separator} {', '.join(body_atoms)}"


@pytest.mark.parametrize("seed", range(8))
def test_parse_render_parse_is_a_fixpoint(seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(50):
        text = _random_query_text(rng)
        first = parse_query(text)
        rendered = str(first)
        second = parse_query(rendered)
        # The render is a fixpoint of parse∘render, and parsing it loses
        # nothing: the queries are structurally identical.
        assert second == first, text
        assert str(second) == rendered, text


@pytest.mark.parametrize("seed", range(8))
def test_anonymous_variables_stay_pairwise_distinct(seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(50):
        text = _random_query_text(rng)
        query = parse_query(text)
        anonymous = [
            term
            for atom in query.body
            for term in atom.terms
            if isinstance(term, Variable) and term.name.startswith("_anon")
        ]
        # One fresh variable per `_` token: none of them may ever coincide
        # (a shared variable would silently equi-join unrelated positions).
        assert len(anonymous) == text.count("_,") + text.count("_)") == len(set(anonymous))


def test_anonymous_variables_do_not_equi_join_in_evaluation() -> None:
    query = parse_query("q(X) <- r(X, _), r(_, X)")
    contents = {"r": {(1, 2), (3, 1)}}
    # With distinct anonymous variables, X=1 satisfies r(1, 2) and r(3, 1).
    # A parser that reused one `_` variable would demand r(X, A), r(A, X)
    # and find nothing.
    assert query.evaluate(contents) == frozenset({(1,)})


def test_quoted_separators_round_trip_exactly() -> None:
    text = "q(X) :- r(X, 'a:-b'), s('x,y', X), t(X, '<- arrow')"
    query = parse_query(text)
    assert len(query.body) == 3
    rendered = str(query)
    assert parse_query(rendered) == query
    constants = {
        term.value
        for atom in query.body
        for term in atom.terms
        if not isinstance(term, Variable)
    }
    assert constants == {"a:-b", "x,y", "<- arrow"}


# -- the parse memo ---------------------------------------------------------------
@pytest.fixture()
def memo(monkeypatch: pytest.MonkeyPatch) -> dict:
    """An empty memo for one test (the real one is shared by the process)."""
    fresh: dict = {}
    monkeypatch.setattr(parser, "_MEMO", fresh)
    return fresh


def _grammar_calls(monkeypatch: pytest.MonkeyPatch) -> list:
    calls: list = []
    grammar = parser._parse_uncached

    def counting(text: str):
        calls.append(text)
        return grammar(text)

    monkeypatch.setattr(parser, "_parse_uncached", counting)
    return calls


@pytest.mark.parametrize("seed", range(200))
def test_memo_hits_and_misses_parse_like_the_grammar(seed: int, memo: dict) -> None:
    texts = [
        _random_query_text(random.Random(seed), random.Random(f"{seed}/{draw}"))
        for draw in ("a", "b", "a")
    ]
    for text in texts:
        cached, reference = parse_query(text), parser._parse_uncached(text)
        assert cached == reference, text
        assert str(cached) == str(reference), text
    assert len(memo) <= 1  # one structure, one skeleton (none at all with a `_`)


def test_the_second_text_of_a_skeleton_never_enters_the_grammar(memo, monkeypatch) -> None:
    calls = _grammar_calls(monkeypatch)
    first = parse_query("q(N) <- r1(A, N, 1958), r2('volare', Y2, A)")
    assert len(memo) == 1 and calls
    del calls[:]
    second = parse_query('q(N) <- r1(A, N, -7), r2("nel blu, dipinto", Y2, A)')
    assert calls == []
    assert str(first) == "q(N) <- r1(A, N, 1958), r2('volare', Y2, A)"
    assert str(second) == "q(N) <- r1(A, N, -7), r2('nel blu, dipinto', Y2, A)"
    # Bare lower-case constants are part of the skeleton, not literals.
    assert parse_query("q(N) <- r1(A, N, 1958), r2(volare, Y2, A)") == first
    assert len(memo) == 2


def test_literal_types_survive_a_hit(memo) -> None:
    values = [
        parse_query(f"q(X) <- r(X, {literal})").body[0].terms[1].value
        for literal in ("1", "1.0", "'1'", "007", "1.50", "-0", '"1.0"')
    ]
    assert len(memo) == 1
    assert [(type(value), value) for value in values] == [
        (int, 1), (float, 1.0), (str, "1"), (int, 7), (float, 1.5), (int, 0), (str, "1.0")
    ]  # fmt: skip


@pytest.mark.parametrize(
    "text",
    [
        "q(X) <- r(X, _), s(_, 'a')",  # fresh names depend on the whole text
        "q(X) <- r(X, 'a' 'b')",  # two quoted regions, one constant
        "q(X) <- r(X, a-1)",  # the 1 is part of a bare constant
    ],
)
def test_texts_the_memo_cannot_vouch_for_are_never_stored(text, memo, monkeypatch) -> None:
    calls = _grammar_calls(monkeypatch)
    for _ in range(2):
        assert parse_query(text) == parser._parse_uncached(text)
    assert memo == {}
    assert calls.count(text) == 4  # both calls of each round reached the grammar


def test_anonymous_names_still_avoid_quoted_text_on_every_call(memo) -> None:
    assert str(parse_query("q(X) <- r(X, _), s('_anon1')")) == "q(X) <- r(X, _anon2), s('_anon1')"
    assert str(parse_query("q(X) <- r(X, _), s('_anon2')")) == "q(X) <- r(X, _anon1), s('_anon2')"


def _rekeyed(text: str, literal) -> str:
    """``text`` with every lifted literal replaced by ``literal(index)``."""
    numbers = iter(range(1000))
    return parser._LITERAL_RE.sub(lambda _: literal(next(numbers)), text)


def _with_head_constants(text: str) -> str:
    """``text`` whose head also copies a string and a number constant."""
    head, _, body = text.partition(")")
    return f"{head}{', ' if not head.endswith('(') else ''}'tag', 3){body}"


def _terms_are_terms(query) -> bool:
    return all(
        type(term) in (Variable, Constant)
        for terms in (query.head_terms, *(atom.terms for atom in query.body))
        for term in terms
    )


@pytest.mark.parametrize("seed", range(25))
def test_memo_hits_build_the_grammars_query_over_the_fuzz_queries(seed, memo, monkeypatch) -> None:
    """A hit skips the checked constructors (the template vouches for them),
    so what it builds must be the grammar's query in every respect: ``==``,
    ``str`` and the type of every term — for the fuzz seeds' queries keyed
    by a constant (in place of their most-joined non-head variable, so it
    repeats), with their literals re-keyed (distinct, all one repeated
    literal, a string where a number was), with and without constants in
    the head."""
    from behaviour_fingerprint import generate_case

    grammar = parser._parse_uncached
    calls = _grammar_calls(monkeypatch)
    query = grammar(generate_case(seed)[0].query_text)
    occurrences = [term for atom in query.body for term in atom.terms]
    keyed = max(
        (term for term in occurrences if term not in query.head_terms),
        key=occurrences.count,
    )
    base = str(query.substitute({keyed: Constant("k")}))
    for text in (base, _with_head_constants(base)):
        variants = [
            text,
            _rekeyed(text, lambda i: f"'k{i}'"),
            _rekeyed(text, lambda i: "'same'"),
            _rekeyed(text, lambda i: str(40 + i)),
            _rekeyed(text, lambda i: "7" if i % 2 else "'7'"),
        ]
        del calls[:]
        for variant in variants:
            cached, reference = parse_query(variant), grammar(variant)
            assert cached == reference, variant
            assert str(cached) == str(reference), variant
            assert _terms_are_terms(cached), variant
            assert cached.head_terms == reference.head_terms, variant
        assert calls.count(text) == 1  # the first text filled the memo...
        assert not set(variants[1:]) & set(calls)  # ...and every other one hit it
    assert len(memo) == 2


def test_the_memo_is_bounded(memo) -> None:
    for index in range(PARSE_MEMO_ENTRIES + 40):
        parse_query(f"q(X{index}) <- r(X{index}, 'k')")
        assert len(memo) <= PARSE_MEMO_ENTRIES
    assert len(memo) == PARSE_MEMO_ENTRIES
    # The oldest skeletons went first; a dropped one parses (and is stored) again.
    assert "q(X0) <- r(X0, \x00)" not in memo
    assert str(parse_query("q(X0) <- r(X0, 'again')")) == "q(X0) <- r(X0, 'again')"
