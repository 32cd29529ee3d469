"""Parser round-trips and rejection of malformed queries."""

from __future__ import annotations

import pytest

from repro.exceptions import ParseError, ReproError
from repro.query import Constant, Variable, parse_atom, parse_query

ROUND_TRIP_QUERIES = [
    "q(N) <- r1(A, N, Y1), r2('volare', Y2, A)",
    "q(X, Y) <- r(X, 'a b'), s(Y, X), t(X, 3)",
    "q() <- r(X, Y)",
    "q(X) <- r(X, -2, 3.5)",
    'q(X) <- r(X, "double quoted")',
]


@pytest.mark.parametrize("text", ROUND_TRIP_QUERIES)
def test_parse_str_round_trip(text: str) -> None:
    query = parse_query(text)
    assert parse_query(str(query)) == query


def test_term_classification() -> None:
    atom = parse_atom("r(X, _y, 'Lit', bare, 42)")
    assert atom.terms[0] == Variable("X")
    assert atom.terms[1] == Variable("_y")
    assert atom.terms[2] == Constant("Lit")
    assert atom.terms[3] == Constant("bare")
    assert atom.terms[4] == Constant(42)


def test_quoted_commas_and_parens_survive() -> None:
    query = parse_query("q(X) <- r(X, 'a, (b)'), s(X)")
    assert len(query.body) == 2
    assert query.body[0].terms[1] == Constant("a, (b)")


@pytest.mark.parametrize(
    "bad",
    [
        "q(X) r(X)",  # no separator
        "q(X) <- r(X",  # unbalanced parens
        "q(X) <- r(X,)lol",  # trailing junk
    ],
)
def test_parse_errors(bad: str) -> None:
    with pytest.raises(ParseError) as info:
        parse_query(bad)
    assert isinstance(info.value, ReproError)


@pytest.mark.parametrize(
    "bad",
    [
        # An empty slot used to be dropped, shifting every later position.
        "q(X) <- r(X,,Y)",
        "q(X) <- r(X,), s(X)",
        "q(X,) <- r(X)",
        "q(X) <- r(,)",
        "q(X) <- r(X),, s(X)",
        "q(X) <- r(X),",
        "q(X) <- , r(X)",
        # A bare term is one token: these used to parse with a variable
        # named "Y Z", resp. die as an "unsafe query" about "X) s(X".
        "q(Y) <- r(Y), s(Y Z)",
        "q(X) <- r(X) s(X)",
        "q(X) <- r(X, a'b)",
        "q(X) <- r(X, 'a'b)",
    ],
)
def test_empty_slots_and_multi_token_terms_are_parse_errors(bad: str) -> None:
    with pytest.raises(ParseError):
        parse_query(bad)


def test_no_argument_is_not_an_empty_argument() -> None:
    assert parse_query("q() <- r( )").body[0].terms == ()
    assert parse_query("q <- r(X)").head_terms == ()
    assert parse_atom("r(a-1, b.c)").terms == (Constant("a-1"), Constant("b.c"))


def test_a_constant_holding_a_single_quote_renders_reparseable() -> None:
    assert str(Constant("it's")) == '"it\'s"'
    query = parse_query('q(X) <- r(X, "it\'s")')
    assert query.body[0].terms[1] == Constant("it's")
    assert parse_query(str(query)) == query


def test_empty_body_is_query_error() -> None:
    from repro.exceptions import QueryError

    with pytest.raises(QueryError):
        parse_query("q(X) <- ")


def test_unsafe_head_variable_rejected() -> None:
    with pytest.raises(ReproError):
        parse_query("q(Z) <- r(X, Y)")


@pytest.mark.parametrize("separator", ["<-", ":-"])
def test_separator_inside_quoted_constant_is_not_split_on(separator: str) -> None:
    # A plain substring search used to split inside the quoted constant.
    query = parse_query(f"q(X) :- r(X, '{separator}')")
    assert len(query.body) == 1
    assert query.body[0].terms[1] == Constant(separator)


def test_separator_search_skips_quotes_until_the_real_one() -> None:
    query = parse_query("q(X) <- r(X, ':- tricky <- text'), s(X)")
    assert len(query.body) == 2
    assert query.body[0].terms[1] == Constant(":- tricky <- text")


def test_each_anonymous_variable_is_fresh() -> None:
    # Two `_` used to parse to the same Variable("_"), silently equi-joining
    # positions the author meant to be independent.
    query = parse_query("q(X) <- r(X, _), s(X, _)")
    first = query.body[0].terms[1]
    second = query.body[1].terms[1]
    assert first != second
    atom = parse_atom("r(_, _, _)")
    assert len(set(atom.terms)) == 3


def test_anonymous_variables_do_not_capture_written_names() -> None:
    query = parse_query("q(X) <- r(X, _anon1), s(X, _)")
    written = query.body[0].terms[1]
    generated = query.body[1].terms[1]
    assert written == Variable("_anon1")
    assert generated != written


def test_anonymous_variables_change_join_semantics() -> None:
    from repro import Engine
    from repro.model.instance import DatabaseInstance
    from repro.model.schema import Schema

    schema = Schema.from_signatures(
        {"free": ("oo", ["D", "E"]), "r": ("io", ["D", "E"]), "s": ("io", ["D", "E"])}
    )
    instance = DatabaseInstance(
        schema,
        {"free": [("a", "x")], "r": [("a", "e1")], "s": [("a", "e2")]},
    )
    engine = Engine(schema, instance)
    # r and s disagree on the second column, so joining the two `_` (the old
    # aliasing bug) would wrongly produce no answers.
    result = engine.execute("q(X) <- free(X, _), r(X, _), s(X, _)")
    assert result.answers == frozenset({("a",)})


@pytest.mark.parametrize(
    "bad",
    [
        "q(X) <- r(X, 'oops)",
        "q(X) <- r(X, 'a), s(Y)",
        'q(X) <- r(X, "unclosed)',
    ],
)
def test_unterminated_quote_is_a_parse_error(bad: str) -> None:
    with pytest.raises(ParseError):
        parse_query(bad)
