"""The asyncio-native runtime: async dispatcher semantics (streaming,
budgets, failures, never-repeat under raced coroutines), the HTTP source
backend against the in-process fixture server, and async teardown.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import Engine, HTTPBackend
from repro.engine import Termination
from repro.examples import chain_example, running_example, star_example
from repro.exceptions import AccessError, ExecutionError, StrategyError
from repro.model.schema import RelationSchema
from repro.sources.cache import MetaCache
from repro.sources.fixture_server import FixtureServer, start_fixture_server
from repro.sources.http import parse_http_url
from repro.sources.faults import FaultSchedule
from repro.sources.resilience import RetryPolicy
from repro.sources.store import ClaimStatus
from repro.sources.wrapper import SourceRegistry

STRATEGIES = ("naive", "fast_fail", "distillation")


@pytest.fixture(scope="module")
def fixture_server():
    example = running_example()
    with FixtureServer(example.instance) as server:
        yield example, server


# -- async execution through every strategy ---------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_async_matches_simulated_answers_and_accesses(strategy: str) -> None:
    example = chain_example(length=3, width=5)

    with Engine(example.schema, example.instance) as engine:
        baseline = engine.execute(example.query_text, strategy=strategy)

    with Engine(example.schema, example.instance) as engine:
        result = engine.execute(
            example.query_text, strategy=strategy, concurrency="async"
        )
        assert engine.session.total_accesses == result.total_accesses

    assert result.answers == baseline.answers == example.expected_answers
    # The least fixpoint is order-independent: overlapping the accesses on
    # the event loop performs exactly the set the sequential replay did.
    assert result.access_log.access_set() == baseline.access_log.access_set()
    assert result.total_accesses == baseline.total_accesses


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_aexecute_runs_on_the_callers_loop(strategy: str) -> None:
    example = running_example()

    async def run():
        with Engine(example.schema, example.instance) as engine:
            return await engine.aexecute(
                example.query_text, strategy=strategy, concurrency="async"
            )

    result = asyncio.run(run())
    assert result.answers == example.expected_answers


def test_async_stream_yields_every_answer_with_monotone_times() -> None:
    chain = chain_example(length=3, width=6)

    async def collect():
        with Engine(chain.schema, chain.instance) as engine:
            answers = []
            async for answer in engine.astream(
                chain.query_text, concurrency="async", answer_check_interval=1
            ):
                answers.append(answer)
            return answers

    streamed = asyncio.run(collect())
    assert {answer.row for answer in streamed} == chain.expected_answers
    times = [answer.simulated_time for answer in streamed]
    assert times == sorted(times)


def test_sync_stream_bridges_the_async_dispatcher() -> None:
    chain = chain_example(length=2, width=5)
    with Engine(chain.schema, chain.instance) as engine:
        streamed = list(engine.stream(chain.query_text, concurrency="async"))
    assert {answer.row for answer in streamed} == chain.expected_answers


def test_async_dispatcher_reports_genuine_overlap() -> None:
    # A star query floods the backlog with independent spoke bindings, so
    # the dispatcher should hold many of them in flight at once.
    example = star_example(rays=3, width=12)
    with Engine(example.schema, example.instance) as engine:
        result = engine.execute(
            example.query_text,
            strategy="distillation",
            concurrency="async",
            max_in_flight=16,
        )
    assert result.answers == example.expected_answers
    assert result.raw.peak_in_flight > 1
    assert result.raw.peak_in_flight <= 16


def test_async_dispatcher_fills_a_512_access_window_over_http() -> None:
    # 600 spoke bindings, each answered by the loopback server after 2 ms:
    # the dispatcher launches every one its window allows before the first
    # comes back.  ``peak_in_flight`` is a count, so it reads the same on
    # any host.  The engine closes on the loop that opened its connections.
    example = star_example(rays=4, width=150)
    with Engine(example.schema, example.instance) as engine:
        baseline = engine.execute(
            example.query_text, strategy="distillation", share_session_cache=False
        )

    async def over_http(url: str):
        with Engine(example.schema, SourceRegistry(example.instance, backend=url)) as engine:
            return await engine.aexecute(
                example.query_text,
                strategy="distillation",
                share_session_cache=False,
                concurrency="async",
                max_in_flight=512,
            )

    with FixtureServer(example.instance, latency=0.002) as server:
        result = asyncio.run(over_http(server.url))
    assert result.answers == example.expected_answers
    assert result.total_accesses == baseline.total_accesses == 601
    assert result.raw.peak_in_flight == 512


# -- budgets and failures under the async dispatcher ------------------------


def test_async_budget_exhaustion_keeps_partial_answers() -> None:
    chain = chain_example(length=2, width=4)
    with Engine(chain.schema, chain.instance) as engine:
        full = engine.execute(
            chain.query_text, strategy="distillation", share_session_cache=False
        )
    budget = full.total_accesses - 2

    with Engine(chain.schema, chain.instance) as engine:
        partial = engine.execute(
            chain.query_text,
            strategy="distillation",
            concurrency="async",
            max_in_flight=1,
            share_session_cache=False,
            max_accesses=budget,
            answer_check_interval=1,
        )
    assert partial.termination is Termination.BUDGET_EXHAUSTED
    assert partial.budget_exhausted
    assert partial.total_accesses == budget
    assert partial.answers < full.answers


def test_async_fast_fail_budget_raises_like_sync() -> None:
    example = running_example()
    with Engine(example.schema, example.instance) as engine:
        with pytest.raises(ExecutionError):
            engine.execute(
                example.query_text,
                strategy="fast_fail",
                concurrency="async",
                max_accesses=1,
            )
        # The one access that did run is counted by the session regardless.
        assert engine.session_stats()["total_accesses"] == 1


def test_async_mid_stream_source_failure_degrades_to_lower_bound() -> None:
    example = star_example(rays=2, width=6)
    registry = SourceRegistry(example.instance)
    # Every access fails once; with no retry policy the first attempts
    # abandon their claims mid-run instead of poisoning them.
    registry.inject_faults(FaultSchedule(seed=23, transient_rate=1.0, max_consecutive=1))
    with Engine(example.schema, registry) as engine:
        result = engine.execute(
            example.query_text, strategy="distillation", concurrency="async"
        )
    assert not result.complete
    assert result.failed_relations
    assert result.answers <= example.expected_answers


def test_async_faults_with_retries_match_simulated_execution() -> None:
    example = star_example(rays=2, width=6)
    retry = RetryPolicy(max_attempts=3, base_delay=0.0)

    def run(concurrency: str):
        registry = SourceRegistry(example.instance)
        registry.inject_faults(FaultSchedule(seed=11, transient_rate=0.3))
        with Engine(example.schema, registry) as engine:
            result = engine.execute(
                example.query_text,
                strategy="distillation",
                concurrency=concurrency,
                retry=retry,
            )
            assert engine.session.total_accesses == result.total_accesses
            return result.answers, result.access_log.access_set()

    answers, accesses = run("async")
    baseline_answers, baseline_accesses = run("simulated")
    assert answers == baseline_answers == example.expected_answers
    assert accesses == baseline_accesses


# -- raced coroutines never repeat an access ---------------------------------


def test_raced_aexecute_many_never_repeats_an_access() -> None:
    chain = chain_example(length=3, width=6)
    with Engine(chain.schema, chain.instance) as engine:
        reference = Engine(chain.schema, chain.instance).execute(chain.query_text)

        async def run():
            return await engine.aexecute_many(
                [chain.query_text] * 6, max_parallel=6, concurrency="async"
            )

        results = asyncio.run(run())
        for result in results:
            assert result.answers == chain.expected_answers
        # Six racing copies of one query still only touch the sources once
        # per distinct access tuple: the claim protocol holds on the loop.
        assert engine.session.total_accesses == reference.total_accesses
        performed = [record.access for result in results for record in result.access_log]
        assert sorted(performed) == sorted(reference.access_log.access_set())


def test_sync_execute_many_accepts_async_concurrency() -> None:
    chain = chain_example(length=2, width=4)
    with Engine(chain.schema, chain.instance) as engine:
        results = engine.execute_many(
            [chain.query_text] * 3, max_parallel=3, concurrency="async"
        )
        stats = engine.session_stats()
    assert all(result.answers == chain.expected_answers for result in results)
    assert stats["executions"] == 3
    assert stats["total_accesses"] == sum(result.total_accesses for result in results) > 0


# -- claim protocol primitives -----------------------------------------------


def test_try_claim_owned_then_served_then_wait() -> None:
    meta = MetaCache(RelationSchema.build("r", "io", ["A", "B"]))

    status, rows = meta.try_claim(("x",))
    assert status is ClaimStatus.OWNED and rows is None
    # A second claimant must wait while the owner is in flight...
    status, rows = meta.try_claim(("x",))
    assert status is ClaimStatus.WAIT and rows is None
    # ...and is served for free once the owner records the rows.
    meta.record(("x",), frozenset({("x", "y")}))
    status, rows = meta.try_claim(("x",))
    assert status is ClaimStatus.SERVED
    assert rows == frozenset({("x", "y")})


def test_try_claim_abandon_lets_the_next_claimant_own() -> None:
    meta = MetaCache(RelationSchema.build("r", "io", ["A", "B"]))
    assert meta.try_claim(("x",))[0] is ClaimStatus.OWNED
    meta.abandon(("x",))
    assert meta.try_claim(("x",))[0] is ClaimStatus.OWNED


# -- HTTP backend against the fixture server ---------------------------------


def test_http_backend_sync_lookup_roundtrip(fixture_server) -> None:
    example, server = fixture_server
    relation = example.schema.get("r1")
    backend = HTTPBackend(relation, server.url)
    try:
        rows = backend.lookup(("Adriano Celentano",))
        assert rows == example.instance.relation("r1").lookup(("Adriano Celentano",))
        assert backend.lookup(("no-such-artist",)) == frozenset()
    finally:
        backend.close()


def test_http_backend_async_lookup_matches_sync(fixture_server) -> None:
    example, server = fixture_server
    relation = example.schema.get("r2")
    backend = HTTPBackend(relation, server.url)

    async def run():
        return await backend.alookup(("volare",)), await backend.alookup(("nessuno",))

    try:
        single, empty = asyncio.run(run())
        assert single == backend.lookup(("volare",))
        assert empty == example.instance.relation("r2").lookup(("nessuno",))
    finally:
        backend.close()


def test_http_backend_alookup_reuses_its_connection_and_reconnects_once(monkeypatch) -> None:
    """Two reads ride one pooled keep-alive connection; when the fixture
    has dropped it, the next read reconnects once, inside the same access
    (no retry attempt consumed), and the new connection is pooled in turn."""
    example = running_example()
    opened = []
    open_connection = asyncio.open_connection

    async def counting_open(*args, **kwargs):
        opened.append(args)
        return await open_connection(*args, **kwargs)

    monkeypatch.setattr(asyncio, "open_connection", counting_open)

    async def run():
        server = await start_fixture_server(example.instance)
        port = server.sockets[0].getsockname()[1]
        backend = HTTPBackend(example.schema.get("r2"), f"http://127.0.0.1:{port}")
        try:
            rows = [await backend.alookup(("volare",)) for _ in range(2)]
            assert len(opened) == 1
            # The fixture ends its idle keep-alive connections (what its
            # shutdown does): the pooled connection is now stale.
            for task in asyncio.all_tasks() - {asyncio.current_task()}:
                task.cancel()
            await asyncio.sleep(0.05)
            rows += [await backend.alookup(("volare",)) for _ in range(2)]
            assert len(opened) == 2
            return rows
        finally:
            backend.close()
            server.close()

    rows = asyncio.run(run())
    assert rows == [example.instance.relation("r2").lookup(("volare",))] * 4


def test_http_backend_unknown_relation_is_a_permanent_error(fixture_server) -> None:
    example, server = fixture_server
    phantom = RelationSchema.build("nope", "io", ["A", "B"])
    backend = HTTPBackend(phantom, server.url)
    try:
        with pytest.raises(AccessError):
            backend.lookup(("x",))
    finally:
        backend.close()


def test_engine_over_http_matches_in_memory_execution(fixture_server) -> None:
    example, server = fixture_server

    with Engine(example.schema, example.instance) as engine:
        baseline = engine.execute(example.query_text)

    registry = SourceRegistry(example.instance, backend=server.url)
    with Engine(example.schema, registry) as engine:
        sync_result = engine.execute(example.query_text)
        assert engine.session.total_accesses == sync_result.total_accesses

    registry = SourceRegistry(example.instance, backend=server.url)
    with Engine(example.schema, registry) as engine:
        async_result = engine.execute(example.query_text, concurrency="async")
        assert engine.session.total_accesses == async_result.total_accesses

    assert sync_result.answers == async_result.answers == example.expected_answers
    assert (
        sync_result.access_log.access_set()
        == async_result.access_log.access_set()
        == baseline.access_log.access_set()
    )


@pytest.mark.parametrize(
    "url",
    ["", "ftp://host:1", "http://", "http://host:notaport", "host:8080"],
)
def test_parse_http_url_rejects_malformed_urls(url: str) -> None:
    with pytest.raises(AccessError):
        parse_http_url(url)


def test_cli_bad_backend_url_exits_2(capsys) -> None:
    from repro.cli import main

    code = main(["run", "--example", "running", "--backend", "http://bad:url"])
    assert code == 2
    assert "error" in capsys.readouterr().err.lower()


# -- teardown is idempotent ---------------------------------------------------


def test_http_backend_close_is_idempotent(fixture_server) -> None:
    example, server = fixture_server
    backend = HTTPBackend(example.schema.get("r1"), server.url)
    backend.lookup(("Adriano Celentano",))
    backend.close()
    backend.close()


def test_fixture_server_close_is_idempotent() -> None:
    example = running_example()
    server = FixtureServer(example.instance).start()
    backend = HTTPBackend(example.schema.get("r1"), server.url)
    assert backend.lookup(("Adriano Celentano",))
    backend.close()
    server.close()
    server.close()


def test_engine_close_is_idempotent_after_async_use() -> None:
    example = running_example()
    engine = Engine(example.schema, example.instance)
    result = engine.execute(example.query_text, concurrency="async")
    assert result.answers == example.expected_answers
    engine.close()
    engine.close()


def test_async_unsupported_strategy_raises_strategy_error() -> None:
    from repro.engine.strategy import ExecutionStrategy
    from repro.engine import register_strategy, unregister_strategy

    class SyncOnly(ExecutionStrategy):
        name = "sync_only_test"

        def run(self, prepared, options):  # pragma: no cover - never reached
            raise AssertionError

    register_strategy(SyncOnly())
    try:
        example = running_example()
        with Engine(example.schema, example.instance) as engine:
            with pytest.raises(StrategyError):
                engine.execute(
                    example.query_text, strategy="sync_only_test", concurrency="async"
                )
    finally:
        unregister_strategy("sync_only_test")
