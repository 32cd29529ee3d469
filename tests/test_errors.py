"""The unified error surface: every public engine failure is a ReproError
subclass carrying the offending query (and plan, when one exists).
"""

from __future__ import annotations

import pytest

from repro import Engine
from repro.exceptions import (
    AccessError,
    EngineError,
    ExecutionError,
    ParseError,
    QueryError,
    ReproError,
    StrategyError,
    UnanswerableQueryError,
)


def test_parse_error_carries_query_text(engine) -> None:
    with pytest.raises(ParseError) as info:
        engine.plan("this is not a query")
    assert isinstance(info.value, ReproError)
    assert info.value.query == "this is not a query"


def test_unknown_relation_carries_query(engine) -> None:
    with pytest.raises(QueryError) as info:
        engine.plan("q(X) <- nosuch(X)")
    assert str(info.value.query) == "q(X) <- nosuch(X)"


def test_arity_mismatch_is_query_error(engine) -> None:
    with pytest.raises(QueryError):
        engine.plan("q(X) <- r1(X)")


def test_unanswerable_query_raises_with_query_attached(engine) -> None:
    # r1 needs an Artist as input and nothing in the query can supply one.
    with pytest.raises(UnanswerableQueryError) as info:
        engine.plan("q(N) <- r1(A, N, Y)")
    assert info.value.query is not None
    assert "r1" in str(info.value)


def test_invalid_binding_is_access_error(engine, example) -> None:
    # Direct illegal access at the wrapper layer: wrong number of inputs.
    with pytest.raises(AccessError) as info:
        engine.registry.wrapper("r1").lookup(("too", "many"))
    assert isinstance(info.value, ReproError)
    with pytest.raises(AccessError):
        engine.registry.wrapper("nosuch").lookup(())


def test_unknown_strategy_lists_available(engine, example) -> None:
    prepared = engine.plan(example.query_text)
    with pytest.raises(StrategyError) as info:
        prepared.execute(strategy="warp_drive")
    message = str(info.value)
    assert "warp_drive" in message and "fast_fail" in message


def test_access_budget_exceeded_carries_plan(engine, example) -> None:
    prepared = engine.plan(example.query_text)
    with pytest.raises(ExecutionError) as info:
        prepared.execute(strategy="fast_fail", max_accesses=0, share_session_cache=False)
    assert info.value.plan is prepared.plan
    assert info.value.query is prepared.query


@pytest.mark.parametrize("strategy", ["naive", "fast_fail"])
def test_access_budget_enforced_by_every_strategy(engine, example, strategy) -> None:
    with pytest.raises(ExecutionError):
        engine.execute(
            example.query_text, strategy=strategy, max_accesses=1, share_session_cache=False
        )


def test_distillation_budget_returns_partial_result_instead_of_raising(
    engine, example
) -> None:
    # The distillation scheduler streams answers; running out of budget must
    # not discard what was already derived (it stops dispatching instead).
    from repro.engine import Termination

    result = engine.execute(
        example.query_text, strategy="distillation", max_accesses=1, share_session_cache=False
    )
    assert result.budget_exhausted
    assert result.termination is Termination.BUDGET_EXHAUSTED
    assert result.total_accesses == 1


def test_engine_rejects_bad_source(example) -> None:
    with pytest.raises(EngineError):
        Engine(example.schema, source="not a database")  # type: ignore[arg-type]


def test_engine_rejects_non_query_object(engine) -> None:
    with pytest.raises(EngineError):
        engine.plan(12345)  # type: ignore[arg-type]


def test_everything_is_catchable_as_repro_error(engine) -> None:
    for bad_call in (
        lambda: engine.plan("nope"),
        lambda: engine.plan("q(X) <- nosuch(X)"),
        lambda: engine.plan("q(N) <- r1(A, N, Y)"),
        lambda: engine.execute("q(N) <- r1(A, N, Y1), r2('volare', Y2, A)", strategy="bogus"),
    ):
        with pytest.raises(ReproError):
            bad_call()
