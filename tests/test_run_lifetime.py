"""Nothing of a run outlives it but what the caller holds.

A run's object graph is acyclic — kernel → policy → dispatcher → resilience
context → clock, one way, and the join runner is a plain function — so once
the caller drops the ``Result`` / iterator / exception, reference counting
frees every per-run structure and the cyclic collector has nothing to find.
The tests switch the collector off, run each door a number of times under
``gc.DEBUG_SAVEALL`` and require that a final ``gc.collect()`` finds nothing
at all unreachable — not an object of a ``repro`` type, not a function or
closure cell of ``repro`` code, not a row list kept alive by one.  (At PR
23 every case here found 184–2,261 objects per run.)
"""

from __future__ import annotations

import asyncio
import gc
import types
from collections import Counter
from typing import Callable, List

import pytest

from repro import Engine
from repro.examples import Example, make_scenario
from repro.exceptions import ExecutionError
from repro.runtime.dispatch import AsyncDispatcher
from repro.runtime.kernel import AccessBudget, AccessRequest
from repro.runtime.policy import Gate
from repro.sources.backend import CallableBackend, InMemoryBackend
from repro.sources.cache import CacheDatabase
from repro.sources.faults import FaultSchedule
from repro.sources.log import AccessLog
from repro.sources.resilience import BreakerConfig, RetryPolicy
from repro.sources.store import ClaimStatus
from repro.sources.wrapper import SourceRegistry

RUNS = 20
STRATEGIES = ("naive", "fast_fail", "distillation")
SCENARIOS = {
    "wide-fanout": dict(width=5, fanout=4),
    "chain": dict(length=3, width=4),
}


def _unreachable(run: Callable[[], None], repeat: int = RUNS) -> List[str]:
    """What ``gc.collect()`` finds after ``repeat`` calls of ``run`` made with
    the collector off: one description per unreachable object."""
    run()  # warm: plan cache, parse memo, lazily compiled programs, imports
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(repeat):
            run()
        gc.collect()
        return [_describe(leaked) for leaked in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _describe(leaked: object) -> str:
    if isinstance(leaked, types.FunctionType):
        return f"function {leaked.__module__}.{leaked.__qualname__}"
    return f"{type(leaked).__module__}.{type(leaked).__qualname__}"


def _assert_nothing_outlives(run: Callable[[], None], repeat: int = RUNS) -> None:
    # No object of a ``repro`` type, no function or cell of ``repro`` code —
    # and nobody else's cycle hanging off a run either.
    leaked = _unreachable(run, repeat)
    assert not leaked, Counter(leaked).most_common(10)


@pytest.fixture(params=sorted(SCENARIOS))
def scenario(request) -> Example:
    return make_scenario(request.param, **SCENARIOS[request.param])


@pytest.fixture
def loop():
    loop = asyncio.new_event_loop()
    try:
        yield loop
    finally:
        loop.close()


async def _drain(stream) -> int:
    count = 0
    async for _ in stream:
        count += 1
    return count


# -- every door × strategy, run to completion -----------------------------------
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_execute_leaves_nothing(scenario: Example, strategy: str) -> None:
    with Engine(scenario.schema, scenario.instance) as engine:

        def run() -> None:
            engine.reset_session()
            result = engine.execute(scenario.query_text, strategy=strategy)
            assert result.answers == scenario.expected_answers

        _assert_nothing_outlives(run)


@pytest.mark.parametrize("concurrency", ["simulated", "async"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_aexecute_leaves_nothing(scenario: Example, strategy: str, concurrency: str, loop) -> None:
    with Engine(scenario.schema, scenario.instance) as engine:

        def run() -> None:
            engine.reset_session()
            result = loop.run_until_complete(
                engine.aexecute(scenario.query_text, strategy=strategy, concurrency=concurrency)
            )
            assert result.answers == scenario.expected_answers

        _assert_nothing_outlives(run)


# Only distillation streams; the other two refuse at the call site.
@pytest.mark.parametrize("concurrency", ["simulated", "async"])
def test_stream_leaves_nothing(scenario: Example, concurrency: str) -> None:
    with Engine(scenario.schema, scenario.instance) as engine:

        def run() -> None:
            engine.reset_session()
            rows = {a.row for a in engine.stream(scenario.query_text, concurrency=concurrency)}
            assert rows == scenario.expected_answers

        _assert_nothing_outlives(run)


@pytest.mark.parametrize("concurrency", ["simulated", "async"])
def test_astream_leaves_nothing(scenario: Example, concurrency: str, loop) -> None:
    with Engine(scenario.schema, scenario.instance) as engine:

        def run() -> None:
            engine.reset_session()
            stream = engine.astream(scenario.query_text, concurrency=concurrency)
            assert loop.run_until_complete(_drain(stream)) == len(scenario.expected_answers)

        _assert_nothing_outlives(run)


# -- the other endings --------------------------------------------------------------
@pytest.mark.parametrize("strategy", ["naive", "fast_fail"])
def test_a_budget_that_raises_leaves_nothing(scenario: Example, strategy: str) -> None:
    with Engine(scenario.schema, scenario.instance) as engine:

        def run() -> None:
            engine.reset_session()
            with pytest.raises(ExecutionError):
                engine.execute(scenario.query_text, strategy=strategy, max_accesses=3)

        _assert_nothing_outlives(run)


def test_a_budget_that_stops_distillation_leaves_nothing(scenario: Example, loop) -> None:
    with Engine(scenario.schema, scenario.instance) as engine:

        def run() -> None:
            engine.reset_session()
            options = dict(strategy="distillation", max_accesses=3)
            assert engine.execute(scenario.query_text, **options).budget_exhausted
            engine.reset_session()
            result = loop.run_until_complete(
                engine.aexecute(scenario.query_text, concurrency="async", **options)
            )
            assert result.budget_exhausted

        _assert_nothing_outlives(run)


# The static order meets the empty group first only when its name sorts first.
@pytest.mark.parametrize("optimizer, empty_name", [("structural", "aempty"), ("cost", "zempty")])
def test_a_fast_failed_run_leaves_nothing(optimizer: str, empty_name: str) -> None:
    example = make_scenario("empty-branch", width=4, fanout=3, empty_name=empty_name)
    with Engine(example.schema, example.instance) as engine:

        def run() -> None:
            engine.reset_session()
            result = engine.execute(example.query_text, optimizer=optimizer)
            assert result.answers == frozenset() and result.failed_at_position is not None

        _assert_nothing_outlives(run)


@pytest.mark.parametrize("concurrency", ["simulated", "async"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_faulty_run_with_retries_and_a_breaker_leaves_nothing(
    strategy: str, concurrency: str
) -> None:
    # The breaker keeps the run's clock: the clock must not keep the run.  A
    # fault schedule is used up as its bindings are retried, so every run gets
    # a registry (and an engine) of its own — which must not outlive it either.
    example = make_scenario("chaos", width=5, rays=2)
    options = dict(
        strategy=strategy,
        concurrency=concurrency,
        retry=RetryPolicy(max_attempts=2, base_delay=0.0),
        breaker=BreakerConfig(failure_threshold=2, cooldown=0.05),
    )
    seen = Counter()

    def run() -> None:
        registry = SourceRegistry(example.instance)
        registry.inject_faults(FaultSchedule(seed=7, transient_rate=0.35, max_consecutive=4))
        with Engine(example.schema, registry) as engine:
            result = engine.execute(example.query_text, **options)
        seen["retries"] += result.retry_stats.retries
        seen["trips"] += result.retry_stats.breaker_trips
        seen["failed"] += not result.complete

    _assert_nothing_outlives(run)
    assert min(seen.values()) >= RUNS, seen


def test_a_stream_closed_after_its_first_answer_leaves_nothing(scenario: Example) -> None:
    with Engine(scenario.schema, scenario.instance) as engine:

        def run() -> None:
            engine.reset_session()
            stream = engine.stream(scenario.query_text)
            assert next(stream).row in scenario.expected_answers
            stream.close()

        _assert_nothing_outlives(run)


@pytest.mark.parametrize("concurrency", ["simulated", "async"])
def test_an_astream_closed_mid_run_leaves_nothing(scenario: Example, concurrency: str, loop) -> None:
    async def first_then_close(engine: Engine) -> None:
        stream = engine.astream(scenario.query_text, concurrency=concurrency)
        assert (await anext(stream)).row in scenario.expected_answers
        await stream.aclose()

    with Engine(scenario.schema, scenario.instance) as engine:

        def run() -> None:
            engine.reset_session()
            loop.run_until_complete(first_then_close(engine))

        _assert_nothing_outlives(run)


@pytest.mark.parametrize("strategy", ["fast_fail", "distillation"])
def test_a_cancelled_async_run_leaves_nothing(strategy: str, loop) -> None:
    example = make_scenario("wide-fanout", **SCENARIOS["wide-fanout"])
    registry = SourceRegistry(example.instance, backend="callable", real_latency=0.02)

    async def cancel_mid_run(engine: Engine) -> None:
        task = asyncio.ensure_future(
            engine.aexecute(example.query_text, strategy=strategy, concurrency="async")
        )
        await asyncio.sleep(0.03)  # the first reads are in flight on the pool
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    with Engine(example.schema, registry) as engine:

        def run() -> None:
            engine.reset_session()
            loop.run_until_complete(cancel_mid_run(engine))

        _assert_nothing_outlives(run, repeat=5)


def test_aclose_right_after_a_refill_leaves_no_claim_and_nothing(loop) -> None:
    """The dispatcher is closed in the same stretch that launched its reads.
    The in-memory ones finished at launch and are counted; the ones read on
    an executor thread suspended and are tasks that never took a step —
    cancelled before their first, each still closes its access, so its
    claim is abandoned and its grant refunded."""
    example = make_scenario("wide-fanout", **SCENARIOS["wide-fanout"])

    def slow_fan(relation):
        if relation.schema.name == "fan":
            return CallableBackend.from_instance(relation, latency=0.02)
        return InMemoryBackend(relation)

    registry = SourceRegistry(example.instance, backend=slow_fan)
    requests = [
        AccessRequest(f"c_{name}", name, (f"v{index}",))
        for name in ("fan", "collect")
        for index in range(4)
    ]

    def run() -> None:
        cache_db = CacheDatabase()
        gate = Gate(True, lambda relation: cache_db.meta_cache(example.schema[relation]))
        dispatcher = AsyncDispatcher(registry, AccessLog(), AccessBudget(None))
        dispatcher.gate = gate
        dispatcher.resilience.bind_clock(dispatcher.now, dispatcher.wall_clock)

        async def close_at_once() -> None:
            for request in requests:
                dispatcher.submit(request)
            dispatcher.refill(dispatcher.now())
            assert (len(dispatcher._tasks), len(dispatcher._ready)) == (4, 4)
            await dispatcher.aclose()
            dispatcher.close()

        loop.run_until_complete(close_at_once())
        statuses = [gate.meta_for(r.relation).try_claim(r.binding)[0] for r in requests]
        assert statuses == [ClaimStatus.OWNED] * 4 + [ClaimStatus.SERVED] * 4
        budget = dispatcher.budget
        assert budget.total_granted - budget.refunded == dispatcher.log.total_accesses == 4
        assert not dispatcher.has_work()

    _assert_nothing_outlives(run, repeat=5)


def test_an_execute_many_batch_leaves_nothing(scenario: Example) -> None:
    other = make_scenario("star", rays=2, width=4)
    with Engine(scenario.schema, scenario.instance) as engine:
        queries = [scenario.query_text] * 3

        def run() -> None:
            engine.reset_session()
            for strategy in ("fast_fail", "distillation"):
                results = engine.execute_many(queries, strategy=strategy, max_parallel=3)
                assert all(r.answers == scenario.expected_answers for r in results)

        _assert_nothing_outlives(run, repeat=5)
    assert other.expected_answers  # a second shape on a second engine: same contract
    with Engine(other.schema, other.instance) as engine:
        _assert_nothing_outlives(
            lambda: (engine.reset_session(), engine.execute_many([other.query_text] * 2)),
            repeat=5,
        )
