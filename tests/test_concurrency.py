"""Concurrent engine sessions: N threads on one engine must behave like a
sequential replay — same answers, same distinct accesses — and never repeat
an access, thanks to the session meta-caches' claim protocol.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import Engine
from repro.examples import chain_example, mixed_workload, star_example
from repro.model.schema import RelationSchema
from repro.sources.backend import CallableBackend
from repro.sources.cache import MetaCache
from repro.sources.faults import FaultSchedule
from repro.sources.resilience import RetryPolicy
from repro.sources.wrapper import SourceRegistry

BACKENDS = ("memory", "sqlite", "callable")

MIX = ("star", "diamond", "chain")


def _performed(results) -> list:
    """Every access the runs behind ``results`` performed, in run order."""
    return [record.access for result in results for record in result.access_log]


def _engine(workload, backend: str) -> Engine:
    registry = SourceRegistry(
        workload.instance,
        backend=backend,
        # A little real latency keeps several queries genuinely in flight.
        real_latency=0.001 if backend == "callable" else 0.0,
    )
    return Engine(workload.schema, registry)


@pytest.mark.parametrize("backend", BACKENDS)
def test_concurrent_queries_match_sequential_execution(backend: str) -> None:
    workload = mixed_workload(MIX, repeat=2)

    with _engine(workload, backend) as engine:
        sequential = [engine.execute(text) for text in workload.query_texts()]
        sequential_total = engine.session.total_accesses

    with _engine(workload, backend) as engine:
        concurrent = engine.execute_many(workload.query_texts(), max_parallel=6)
        concurrent_total = engine.session.total_accesses

    for query, seq, conc in zip(workload.queries, sequential, concurrent):
        assert seq.answers == query.expected_answers, query.scenario
        assert conc.answers == query.expected_answers, query.scenario
    # The threads performed exactly the accesses the sequential replay did:
    # nothing extra (claims dedup racing queries) and nothing missing.
    sequential_distinct = set(_performed(sequential))
    assert set(_performed(concurrent)) == sequential_distinct
    assert len(_performed(concurrent)) == concurrent_total
    assert concurrent_total == sequential_total == len(sequential_distinct)


def test_execute_many_is_deterministic_across_runs() -> None:
    workload = mixed_workload(MIX, repeat=2)
    observed = set()
    for _ in range(3):
        with _engine(workload, "callable") as engine:
            results = engine.execute_many(workload.query_texts(), max_parallel=4)
            answers = tuple(frozenset(result.answers) for result in results)
            session = engine.session
            observed.add((answers, session.total_accesses, session.meta_hits))
    assert len(observed) == 1


def test_same_query_raced_by_many_threads_accesses_sources_once() -> None:
    chain = chain_example(length=3, width=6)
    with Engine(chain.schema, chain.instance) as engine:
        reference_accesses = Engine(chain.schema, chain.instance).execute(
            chain.query_text
        ).total_accesses

        results = engine.execute_many([chain.query_text] * 8, max_parallel=8)
        for result in results:
            assert result.answers == chain.expected_answers
        # Eight racing copies of one query still only ever touch the
        # sources once per distinct access tuple.
        assert engine.session.total_accesses == reference_accesses
        assert sum(r.total_accesses for r in results) == reference_accesses


def test_raw_threads_share_one_engine_safely() -> None:
    workload = mixed_workload(MIX, repeat=1)
    with _engine(workload, "sqlite") as engine:
        results: dict = {}
        errors: list = []

        def run(index: int, text: str) -> None:
            try:
                results[index] = engine.execute(text)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=run, args=(index, text))
            for index, text in enumerate(workload.query_texts())
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for index, query in enumerate(workload.queries):
            assert results[index].answers == query.expected_answers, query.scenario
        assert engine.session_stats()["executions"] == len(workload.queries)


class _OverlapGauge:
    """Backends whose lookups count how many run at the same moment."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._now = 0
        self.peak = 0

    def backend(self, instance) -> CallableBackend:
        def lookup(binding):
            with self._lock:
                self._now += 1
                self.peak = max(self.peak, self._now)
            try:
                time.sleep(0.002)  # a slow source keeps the queries in flight
                return instance.lookup(binding)
            finally:
                with self._lock:
                    self._now -= 1

        return CallableBackend(instance.schema, lookup)


def test_execute_many_overlaps_queries_and_counts_hits_in_session_stats() -> None:
    workload = mixed_workload(("star", "chain"), repeat=2)
    gauge = _OverlapGauge()
    registry = SourceRegistry(workload.instance, backend=gauge.backend)
    with Engine(workload.schema, registry) as engine:
        results = engine.execute_many(workload.query_texts(), max_parallel=4)
        stats = engine.session_stats()
    assert [result.answers for result in results] == [
        query.expected_answers for query in workload.queries
    ]
    # Each query dispatches its own accesses one at a time (simulated
    # concurrency), so two lookups at once are two queries at once.
    assert gauge.peak > 1
    assert stats["executions"] == 4
    assert stats["total_accesses"] == sum(result.total_accesses for result in results) > 0
    # The repeated queries are answered entirely from the session caches.
    assert stats["meta_hits"] >= stats["total_accesses"]
    assert 0.0 < stats["hit_rate"] < 1.0


def test_dying_claimant_does_not_deadlock_waiters() -> None:
    # A worker that claims an access and dies mid-flight must abandon the
    # claim so blocked readers re-contend instead of waiting forever.
    meta = MetaCache(RelationSchema.build("r", "io", ["A", "B"]))
    assert meta.claim(("x",)) is None  # this thread owns the access now

    outcomes: list = []

    def waiter() -> None:
        served = meta.claim(("x",))
        if served is None:
            # Ownership was handed over: this thread performs the access.
            meta.record(("x",), frozenset({("x", "y")}))
            served = frozenset({("x", "y")})
        outcomes.append(served)

    threads = [threading.Thread(target=waiter) for _ in range(4)]
    for thread in threads:
        thread.start()
    # The owner dies without recording: abandon must wake every waiter.
    meta.abandon(("x",))
    for thread in threads:
        thread.join(timeout=10.0)
    assert not any(thread.is_alive() for thread in threads), "waiters deadlocked"
    assert outcomes == [frozenset({("x", "y")})] * 4


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_failed_claims_do_not_deadlock_concurrent_queries(backend: str) -> None:
    # Racing identical queries over flaky sources: a claimant whose access
    # permanently fails abandons the claim, so a racing thread retries the
    # access itself (its per-binding attempt counter has advanced past the
    # injected faults) instead of deadlocking on the dead claimant.
    example = star_example(rays=2, width=6)
    registry = SourceRegistry(example.instance, backend=backend)
    registry.inject_faults(FaultSchedule(seed=17, transient_rate=0.6, max_consecutive=2))
    with Engine(example.schema, registry) as engine:
        done = threading.Event()

        def run() -> None:
            try:
                results.extend(
                    engine.execute_many([example.query_text] * 6, max_parallel=6)
                )
            finally:
                done.set()

        results: list = []
        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        assert done.wait(timeout=60.0), "concurrent faulty queries deadlocked"
        worker.join(timeout=10.0)
    assert len(results) == 6
    for result in results:
        assert result.answers <= example.expected_answers
        if result.complete:
            assert result.answers == example.expected_answers


def test_session_retries_recover_accesses_a_failed_query_abandoned() -> None:
    # Every binding fails exactly once, then succeeds.  With no retry
    # policy, a failed access abandons its claim instead of poisoning it,
    # so re-running the query retries exactly the failed accesses (their
    # per-binding attempt counters have burned past the fault) while the
    # successful ones are served from the session meta-caches.  One query
    # level recovers per replay; the session converges to the complete
    # answer without ever repeating a *successful* access.
    example = star_example(rays=2, width=4)
    registry = SourceRegistry(example.instance)
    registry.inject_faults(FaultSchedule(seed=23, transient_rate=1.0, max_consecutive=1))
    with Engine(example.schema, registry) as engine:
        results = []
        for _ in range(8):
            results.append(engine.execute(example.query_text))
            if results[-1].complete:
                break
        total = engine.session.total_accesses
    performed = _performed(results)
    assert not results[0].complete
    assert results[-1].complete and 1 < len(results) <= 8
    assert results[-1].answers == example.expected_answers
    # Recovery never repeated an access that had already succeeded.
    assert total == len(performed) == len(set(performed))


def test_faulty_concurrent_workload_is_deterministic_with_retries() -> None:
    # With a seeded schedule and enough retries, concurrent replays settle
    # on the same answers and access counts run after run.
    workload = mixed_workload(("star", "chain"), repeat=2)
    observed = set()
    for _ in range(3):
        registry = SourceRegistry(workload.instance)
        registry.inject_faults(FaultSchedule(seed=5, transient_rate=0.3))
        with Engine(workload.schema, registry) as engine:
            results = engine.execute_many(
                workload.query_texts(),
                max_parallel=4,
                retry=RetryPolicy(max_attempts=4, base_delay=0.0),
            )
            observed.add(
                (
                    tuple(frozenset(result.answers) for result in results),
                    tuple(result.complete for result in results),
                )
            )
    assert len(observed) == 1
    _answers, complete = next(iter(observed))
    assert all(complete)


def test_engine_is_a_context_manager() -> None:
    chain = chain_example(length=2, width=3)
    with Engine(chain.schema, chain.instance, backend="sqlite") as engine:
        result = engine.execute(chain.query_text)
        assert result.answers == chain.expected_answers
        wrapper = engine.registry.wrapper("free")
    # The SQLite backends are closed on exit: further lookups must fail.
    with pytest.raises(Exception):
        wrapper.lookup(())

    with pytest.raises(RuntimeError):
        with Engine(chain.schema, chain.instance, backend="sqlite") as engine:
            wrapper = engine.registry.wrapper("free")
            raise RuntimeError("boom")
    # Closed on the error path too.
    with pytest.raises(Exception):
        wrapper.lookup(())
