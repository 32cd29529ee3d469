"""The one execution driver, through every door.

Every built-in strategy is a (policy, dispatcher) declaration over the
driver in :mod:`repro.engine.strategies`; these tests pin what that driver
owes every ``strategy × concurrency × entry point`` cell alike: the same
answers and accesses, the ``last_*`` handles, a session that absorbs
exactly what hit the sources — also when the run raises or the consumer
walks away — one error for an unknown concurrency mode or optimizer, and a
sync-over-async bridge that refuses to run inside a running loop without leaking a
coroutine.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import warnings

import pytest

from repro import Engine, ExecuteOptions
from repro.examples import chaos_example, star_example
from repro.exceptions import ExecutionError, ReproError, StrategyError
from repro.runtime import KernelOutcome
from repro.sources.wrapper import SourceRegistry

STRATEGIES = ("naive", "fast_fail", "distillation")
MODES = ("simulated", "async")
ENTRIES = ("execute", "aexecute", "stream", "astream")


def _enter(prepared, entry: str, **overrides):
    """Run ``prepared`` through one entry point; returns (result, streamed rows)."""
    if entry == "execute":
        return prepared.execute(**overrides), None
    if entry == "aexecute":
        return asyncio.run(prepared.aexecute(**overrides)), None
    if entry == "stream":
        rows = [answer.row for answer in prepared.stream(**overrides)]
        return prepared.last_stream_result, rows

    async def drain():
        return [answer.row async for answer in prepared.astream(**overrides)]

    rows = asyncio.run(drain())
    return prepared.last_stream_result, rows


def _cells():
    for strategy in STRATEGIES:
        for concurrency in MODES:
            for entry in ENTRIES:
                if entry in ("stream", "astream") and strategy != "distillation":
                    continue
                yield strategy, concurrency, entry


@pytest.mark.parametrize("strategy,concurrency,entry", list(_cells()))
def test_every_door_leads_to_the_same_execution(strategy, concurrency, entry) -> None:
    example = chaos_example(width=5, rays=2)

    def run(concurrency: str, entry: str, optimizer: str):
        engine = Engine(example.schema, example.instance)
        prepared = engine.plan(example.query_text)
        result, rows = _enter(
            prepared, entry, strategy=strategy, concurrency=concurrency, optimizer=optimizer
        )
        return engine, prepared, result, rows

    # The answer is not empty, so the access order cannot matter either.
    _, _, reference, _ = run("simulated", "execute", "structural")
    engine, prepared, result, rows = run(concurrency, entry, "cost")

    assert result.answers == reference.answers == example.expected_answers
    assert result.total_accesses == reference.total_accesses > 0
    assert [(b.relation, b.accesses, b.distinct_rows) for b in result.per_source] == [
        (b.relation, b.accesses, b.distinct_rows) for b in reference.per_source
    ]
    assert result.termination is reference.termination
    assert result.strategy == strategy and result.complete
    # Result is built straight from the kernel's outcome.
    assert isinstance(result.raw, KernelOutcome)
    assert result.raw.answers == result.answers
    assert result.kernel_profile is result.raw.profile is prepared.last_kernel_profile
    if rows is not None:
        assert set(rows) == result.answers and len(rows) == len(result.answers)
        assert prepared.last_stream_result is result
    else:
        assert prepared.last_stream_result is None
    # The session counted exactly this run's accesses.
    assert len(result.access_log) == result.total_accesses
    assert engine.session.total_accesses == result.total_accesses
    assert engine.session.executions == 1
    assert engine.registry.total_access_count() == result.total_accesses


@pytest.mark.parametrize("strategy", ["naive", "fast_fail"])
@pytest.mark.parametrize("concurrency", MODES)
@pytest.mark.parametrize("entry", ["execute", "aexecute"])
def test_session_absorbs_what_hit_the_sources_when_the_budget_raises(
    strategy, concurrency, entry
) -> None:
    example = star_example(rays=3, width=4)
    engine = Engine(example.schema, example.instance)
    prepared = engine.plan(example.query_text)
    with pytest.raises(ExecutionError, match="access budget"):
        _enter(prepared, entry, strategy=strategy, concurrency=concurrency, max_accesses=2)
    assert engine.session.executions == 1
    assert engine.session.total_accesses == engine.registry.total_access_count() == 2


@pytest.mark.parametrize("concurrency", MODES)
@pytest.mark.parametrize("entry", ["stream", "astream"])
def test_session_absorbs_what_hit_the_sources_when_the_consumer_stops(
    concurrency, entry
) -> None:
    example = star_example(rays=3, width=6)
    engine = Engine(example.schema, example.instance, latency=0.01)
    prepared = engine.plan(example.query_text)
    overrides = {"concurrency": concurrency, "answer_check_interval": 1}

    if entry == "stream":
        stream = prepared.stream(**overrides)
        first = next(stream)
        stream.close()
    else:

        async def first_only():
            stream = prepared.astream(**overrides)
            answer = await stream.__anext__()
            await stream.aclose()
            return answer

        first = asyncio.run(first_only())

    assert first.row in example.expected_answers
    assert prepared.last_stream_result is None  # no outcome to shape
    session = engine.session
    assert session.executions == 1
    assert 0 < session.total_accesses < len(example.expected_answers) * 4
    if concurrency == "simulated":
        # Every read of the simulation is logged the moment it is made.
        assert session.total_accesses == engine.registry.total_access_count()
        assert session.total_accesses == session.known_accesses
    # The abandoned run left the session usable: a full run completes and
    # performs only the accesses the first one did not.
    result = prepared.execute(strategy="distillation")
    assert result.answers == example.expected_answers
    assert session.executions == 2


@pytest.mark.parametrize("mode", ["bogus", "real"])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("entry", ENTRIES)
def test_unknown_concurrency_is_one_error_everywhere(mode, strategy, entry) -> None:
    # ``real`` was the thread-pool mode; it is now as unknown as ``bogus``.
    # The mode is checked before anything else, so even a strategy that
    # cannot stream reports the bad mode — at the call site, not at the
    # first ``next``.
    example = star_example(rays=2, width=3)
    engine = Engine(example.schema, example.instance)
    prepared = engine.plan(example.query_text)
    call = getattr(prepared, entry)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ReproError) as raised:
            outcome = call(strategy=strategy, concurrency=mode)
            if entry == "aexecute":
                asyncio.run(outcome)
    assert str(raised.value).startswith(
        f"unknown concurrency mode {mode!r}; use 'simulated' or 'async'"
    )
    assert isinstance(raised.value, ExecutionError)
    assert raised.value.query is prepared.query
    assert engine.session.executions == 0
    # The engine's one-call conveniences and default options go the same way.
    with pytest.raises(ExecutionError, match="unknown concurrency mode"):
        Engine(
            example.schema, example.instance, options=ExecuteOptions(concurrency=mode)
        ).execute(example.query_text, strategy=strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("entry", ENTRIES)
def test_unknown_optimizer_is_one_error_everywhere(strategy, entry) -> None:
    # Same door, same rule: raised at the call site (a stream raises before
    # its first ``next``), before the strategy's streaming support is asked.
    example = star_example(rays=2, width=3)
    engine = Engine(example.schema, example.instance)
    prepared = engine.plan(example.query_text)
    call = getattr(prepared, entry)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StrategyError) as raised:
            outcome = call(strategy=strategy, optimizer="voodoo")
            if entry == "aexecute":
                asyncio.run(outcome)
    assert str(raised.value).startswith(
        "unknown optimizer 'voodoo'; use 'structural' or 'cost'"
    )
    assert raised.value.query is prepared.query
    assert engine.session.executions == 0
    with pytest.raises(StrategyError, match="unknown optimizer"):
        Engine(
            example.schema, example.instance, options=ExecuteOptions(optimizer="voodoo")
        ).execute(example.query_text, strategy=strategy)


def test_sync_entries_refuse_a_running_loop_without_leaking_a_coroutine() -> None:
    # Regression: execute() and execute_many() used to call asyncio.run()
    # here — a bare RuntimeError plus a never-awaited coroutine.  All three
    # sync doors now cross one bridge, which refuses before any coroutine
    # exists; warnings are errors so a leak cannot come back.
    example = star_example(rays=2, width=3)
    engine = Engine(example.schema, example.instance)
    prepared = engine.plan(example.query_text)

    async def inside_a_loop():
        errors = []
        for call in (
            lambda: prepared.execute(concurrency="async"),
            lambda: list(prepared.stream(concurrency="async")),
            lambda: engine.execute_many([example.query_text] * 2, concurrency="async"),
        ):
            with pytest.raises(ExecutionError) as raised:
                call()
            errors.append(raised.value)
        assert engine.session.executions == 0  # refused before any set-up
        # The awaitable doors work on this very loop.
        result = await prepared.aexecute(concurrency="async")
        return errors, result

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        errors, result = asyncio.run(inside_a_loop())
        gc.collect()  # a leaked coroutine warns when collected
    assert result.answers == example.expected_answers
    for error in errors:
        assert "running event loop" in str(error)
        assert "aexecute()/astream()/aexecute_many()" in str(error)
    # execute/stream carry the query context of every engine error.
    assert errors[0].query is prepared.query and errors[1].query is prepared.query


def test_execute_options_has_ten_fields() -> None:
    # The option count is part of the design: a knob nobody sets is a
    # constant (see WRAPPER_QUEUE_CAPACITY and DEFAULT_LATENCY), and the
    # thread-pool knobs went with the thread pool.
    assert sorted(field.name for field in dataclasses.fields(ExecuteOptions)) == [
        "answer_check_interval",
        "breaker",
        "concurrency",
        "fast_fail",
        "max_accesses",
        "max_in_flight",
        "optimizer",
        "retry",
        "share_session_cache",
        "timeout",
    ]


def test_elapsed_seconds_spans_the_whole_driver_for_every_strategy() -> None:
    # One perf_counter pair for all three strategies: set-up, kernel and
    # session absorb — so the kernel's own phases always fit inside it.
    example = star_example(rays=3, width=6)
    registry = SourceRegistry(example.instance, backend="callable", real_latency=0.001)
    with Engine(example.schema, registry) as engine:
        for strategy in STRATEGIES:
            result = engine.execute(
                example.query_text, strategy=strategy, share_session_cache=False
            )
            profile = result.kernel_profile
            kernel_seconds = (
                profile.offer_seconds
                + profile.dispatch_seconds
                + profile.absorb_seconds
                + profile.answer_check_seconds
            )
            assert result.elapsed_seconds >= kernel_seconds > 0
            assert result.elapsed_seconds >= 0.001 * result.total_accesses
