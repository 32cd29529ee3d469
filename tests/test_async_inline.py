"""A read costs what its source costs — pinned by mechanism, not by clock.

Under ``concurrency="async"`` a backend with a native ``alookup`` (memory,
HTTP) is awaited inline on the loop thread and no thread pool is ever
built; any other backend is presumed to block and is read on — and still
overlaps on — executor threads.  Also here: the three clean-up contracts of
an async run that ends early (nothing joins threads on the loop, every
performed access is counted, ``aclose()`` returns with the run cleaned up).
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro import Engine
from repro.examples import running_example, star_example, wide_fanout_example
from repro.exceptions import AccessError
from repro.model.instance import DatabaseInstance
from repro.model.schema import Schema
from repro.runtime import dispatch
from repro.serve import ServeConfig, ServeHandle, protocol
from repro.sources.backend import CallableBackend, InMemoryBackend, SourceBackend
from repro.sources.fixture_server import FixtureServer
from repro.sources.faults import FaultSchedule, FlakyBackend
from repro.sources.store import ClaimStatus
from repro.sources.wrapper import SourceRegistry, SourceWrapper

STRATEGIES = ("naive", "fast_fail", "distillation")


@pytest.fixture
def no_thread_pool(monkeypatch):
    """Any attempt of the dispatcher to build its pool is an error."""

    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was built for a backend that never blocks")

    monkeypatch.setattr(dispatch, "ThreadPoolExecutor", refuse)


async def _drain(stream):
    return {answer.row async for answer in stream}


# -- native async backends: no pool, no thread --------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_memory_backend_is_read_inline_without_a_thread(strategy, no_thread_pool) -> None:
    example = star_example(rays=3, width=8)

    async def run(engine):
        before = threading.active_count()
        result = await engine.aexecute(
            example.query_text, strategy=strategy, concurrency="async"
        )
        engine.reset_session()
        streamed = await _drain(engine.astream(example.query_text, concurrency="async"))
        return result, streamed, threading.active_count() - before

    with Engine(example.schema, example.instance) as engine:
        result, streamed, new_threads = asyncio.run(run(engine))
    assert result.answers == streamed == example.expected_answers
    assert result.total_accesses > 0
    assert new_threads == 0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_served_queries_over_memory_build_no_pool(strategy, no_thread_pool) -> None:
    example = star_example(rays=3, width=8)
    payload = {"query": example.query_text, "strategy": strategy}

    async def requests(url):
        status, body = await protocol.request_json(url, "POST", "/query", payload)
        lines = [
            line
            async for line in protocol.stream_lines(
                url, "/query/stream", {"query": example.query_text}
            )
        ]
        return status, body, lines

    engine = Engine(example.schema, example.instance)
    assert ServeConfig().concurrency == "async"
    config = ServeConfig(execute_overrides={"share_session_cache": False})
    with ServeHandle(engine, config) as handle:
        before = threading.active_count()
        status, body, lines = asyncio.run(requests(handle.url))
        assert threading.active_count() == before
    assert status == 200, body
    assert {tuple(row) for row in body["answers"]} == example.expected_answers
    # The stream is its status code, one line per row, then the summary.
    assert lines[0] == 200
    assert {tuple(line["row"]) for line in lines[1:-1]} == example.expected_answers
    assert lines[-1]["summary"]["complete"] and lines[-1]["summary"]["total_accesses"] > 0


def test_http_backend_builds_no_pool_either(no_thread_pool) -> None:
    example = running_example()
    with FixtureServer(example.instance) as server:
        registry = SourceRegistry(example.instance, backend=server.url)
        with Engine(example.schema, registry) as engine:
            before = threading.active_count()
            result = asyncio.run(
                engine.aexecute(example.query_text, concurrency="async")
            )
            assert threading.active_count() == before
    assert result.answers == example.expected_answers


# -- every other backend: off the loop thread, and still overlapping -----------


def test_callable_backend_still_overlaps_on_worker_threads() -> None:
    example = star_example(rays=3, width=12)
    workers = set()

    def slow(relation):
        def read(binding):
            workers.add(threading.get_ident())
            return relation.lookup(binding)

        return CallableBackend(relation.schema, read, latency=0.02)

    with Engine(example.schema, SourceRegistry(example.instance, backend=slow)) as engine:
        result = engine.execute(
            example.query_text, strategy="distillation", concurrency="async", max_in_flight=16
        )
    assert result.answers == example.expected_answers
    assert result.raw.peak_in_flight > 1
    assert len(workers) >= 2 and threading.get_ident() not in workers


class _Recording(InMemoryBackend):
    """An in-memory backend that notes which thread probed it."""

    def __init__(self, relation, readers) -> None:
        super().__init__(relation)
        self.readers = readers

    def lookup(self, binding):
        self.readers.add(threading.get_ident())
        return super().lookup(binding)


class _UserBackend(SourceBackend):
    """What a user writes: ``lookup`` and nothing else."""

    kind = "user"

    def __init__(self, relation, readers) -> None:
        self.relation, self.schema, self.readers = relation, relation.schema, readers

    def lookup(self, binding):
        self.readers.add(threading.get_ident())
        return self.relation.lookup(binding)


@pytest.mark.parametrize("kind", ["flaky-over-memory", "user-subclass"])
def test_backends_without_a_native_read_stay_off_the_loop_thread(kind) -> None:
    example = running_example()
    readers: set = set()

    def factory(relation):
        if kind == "user-subclass":
            return _UserBackend(relation, readers)
        # Fault-free, so a pure pass-through — but nobody can know that a
        # decorated read never sleeps, so it is not awaited inline.
        return FlakyBackend(_Recording(relation, readers), FaultSchedule(seed=1))

    async def run(engine):
        result = await engine.aexecute(example.query_text, concurrency="async")
        return result, threading.get_ident()

    with Engine(example.schema, SourceRegistry(example.instance, backend=factory)) as engine:
        result, loop_thread = asyncio.run(run(engine))
    assert result.answers == example.expected_answers
    assert readers and loop_thread not in readers


# -- the native read is the same read -------------------------------------------


def test_in_memory_alookup_equals_lookup() -> None:
    schema = Schema.from_signatures(
        {
            "keyed": ("io", ["A", "B"]),
            "free": ("oo", ["A", "B"]),
            "flag": ("", []),
            "unset": ("", []),
        }
    )
    instance = DatabaseInstance(schema)
    instance.add_tuple("keyed", ("a", "b1"))
    instance.add_tuple("keyed", ("a", "b2"))
    instance.add_tuple("free", ("x", "y"))
    instance.add_tuple("flag", ())
    cases = [
        ("keyed", ("a",), 2),  # hit
        ("keyed", ("nope",), 0),  # miss
        ("free", (), 1),
        ("flag", (), 1),
        ("unset", (), 0),
    ]
    for name, binding, size in cases:
        backend = InMemoryBackend(instance.relation(name))
        rows = asyncio.run(backend.alookup(binding))
        assert rows == backend.lookup(binding) and len(rows) == size, name


def test_wrapper_alookup_validates_the_binding_before_any_read() -> None:
    example = running_example()
    reads = []

    class Counting(InMemoryBackend):
        async def alookup(self, binding):
            reads.append(binding)
            return await super().alookup(binding)

    wrapper = SourceWrapper(Counting(example.instance.relation("r1")))
    with pytest.raises(AccessError):
        asyncio.run(wrapper.alookup(("too", "many")))
    assert reads == []
    assert asyncio.run(wrapper.alookup(("Adriano Celentano",))) == wrapper.lookup(
        ("Adriano Celentano",)
    )
    assert reads == [("Adriano Celentano",)]


# -- an async run that ends early cleans up after itself -----------------------


def test_cancelling_a_query_mid_read_never_joins_threads_on_the_loop() -> None:
    example = running_example()
    registry = SourceRegistry(example.instance, backend="callable", real_latency=0.3)
    # A set, not a count: an earlier test's idle workers may still be exiting.
    baseline_threads = set(threading.enumerate())

    async def ticker(gaps):
        last = time.perf_counter()
        while True:
            await asyncio.sleep(0.005)
            now = time.perf_counter()
            gaps.append(now - last)
            last = now

    async def run(engine):
        gaps: list = []
        tick = asyncio.create_task(ticker(gaps))
        query = asyncio.create_task(
            engine.aexecute(example.query_text, concurrency="async")
        )
        await asyncio.sleep(0.05)
        query.cancel()
        with pytest.raises(asyncio.CancelledError):
            await query
        await asyncio.sleep(0.05)
        tick.cancel()
        # The cancelled read's claim was abandoned: the same query on the
        # same session completes (now against fast sources).
        for wrapper in registry:
            wrapper.backend.latency = 0.0
        result = await engine.aexecute(example.query_text, concurrency="async")
        return max(gaps), result

    with Engine(example.schema, registry) as engine:
        worst_gap, result = asyncio.run(run(engine))
        assert engine.session.total_accesses == result.total_accesses > 0
    # Every connection of a server shares this loop: it must never wait out
    # somebody else's blocking read (0.3 s here).
    assert worst_gap < 0.1
    assert result.complete and result.answers == example.expected_answers
    # The abandoned read finishes in its worker, which then exits.
    deadline = time.monotonic() + 5.0
    while set(threading.enumerate()) - baseline_threads and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not set(threading.enumerate()) - baseline_threads


@pytest.fixture(params=["callable", "memory", "http"])
def fanout_registry(request):
    example = wide_fanout_example(width=6, fanout=6)
    if request.param == "http":
        with FixtureServer(example.instance, latency=0.002) as server:
            yield example, SourceRegistry(example.instance, backend=server.url)
    elif request.param == "callable":
        yield example, SourceRegistry(example.instance, backend="callable", real_latency=0.002)
    else:
        yield example, SourceRegistry(example.instance)


def test_early_close_counts_every_performed_access(fanout_registry) -> None:
    example, registry = fanout_registry

    async def run(engine):
        stream = engine.astream(
            example.query_text, strategy="distillation", concurrency="async", max_in_flight=8
        )
        async for _ in stream:
            # Reads launched before this answer finish while the consumer
            # dawdles; nobody has reaped them when the stream is closed.
            await asyncio.sleep(0.01)
            break
        await stream.aclose()

    with Engine(example.schema, registry) as engine:
        asyncio.run(run(engine))
        session = engine.session
        # No Result exists for a closed stream; on a fresh store "every
        # counted access is a distinct record" is the never-twice invariant.
        assert 0 < session.total_accesses < 1 + 6 + 36
        assert (
            session.known_accesses
            == session.total_accesses
            == registry.total_access_count()
        )


def test_aclose_returns_with_the_run_cleaned_up() -> None:
    example = wide_fanout_example(width=6, fanout=6)
    started = []

    def uneven(relation):
        name = relation.schema.name

        def read(binding):
            started.append((name, binding))
            # One branch of the fan-out is fast, so the first answer arrives
            # while the reads of the other branches are still in flight.
            time.sleep(0.2 if name == "fan" and binding != ("u0",) else 0.002)
            return relation.lookup(binding)

        return CallableBackend(relation.schema, read)

    registry = SourceRegistry(example.instance, backend=uneven)

    async def run(engine):
        stream = engine.astream(
            example.query_text, strategy="distillation", concurrency="async", max_in_flight=8
        )
        async for answer in stream:
            assert answer.row[0].startswith("z0_")
            break
        await stream.aclose()
        # Everything below reads state the moment aclose() returned.
        session = engine.session
        assert asyncio.all_tasks() == {asyncio.current_task()}
        counted = session.total_accesses
        assert counted == session.known_accesses == registry.total_access_count() > 0
        statuses = {
            (name, binding): session.meta[name].try_claim(binding)[0]
            for name, binding in list(started)
        }
        return counted, statuses

    with Engine(example.schema, registry) as engine:
        counted, statuses = asyncio.run(run(engine))
    # A read that was in flight is claimable again, a finished one is
    # recorded; nothing is left held by the closed run.
    assert ClaimStatus.WAIT not in statuses.values()
    assert ClaimStatus.OWNED in statuses.values()
    assert sum(status is ClaimStatus.SERVED for status in statuses.values()) == counted
