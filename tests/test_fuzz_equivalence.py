"""Differential fuzzing: strategies × backends × fault schedules must agree.

A seeded generator draws random scenario topologies (from the
:data:`repro.examples.SCENARIOS` builders), random parameters and random
per-relation latencies, then asserts:

* all three strategies return the scenario's expected answers;
* for each strategy, the memory, SQLite and callable backends produce
  *identical* answers and access counts (the backend is a transport, never
  a semantics);
* decorating every backend with a fault-free
  :class:`~repro.sources.faults.FlakyBackend` — with retry, timeout
  and breaker knobs all switched on — changes nothing: same answers, same
  access counts, same per-source breakdown, byte-identical result payload;
* under injected transient faults with retries, every strategy still
  returns a result and the completeness contract holds (complete ⇒ the
  fault-free answers; diverging answers ⇒ flagged incomplete);
* swapping the session's in-memory cache store for a fresh SQLite store
  changes nothing: identical answers and identical access counts, total
  and per-source (the store is where the access domain lives, not what
  gets accessed);
* executing with ``concurrency="async"`` — over memory, SQLite, callable
  and loopback-HTTP backends, fault-free or with retried transient
  faults — matches the simulated dispatcher's answers and access counts
  exactly (the dispatcher is a scheduler, never a semantics);
* serving over the HTTP front end (:mod:`repro.serve`) — sync and
  streaming, fault-free or with recoverable injected faults — returns
  payloads identical to in-process ``execute()`` for all three strategies
  (the server is a transport, never a semantics);
* ``optimizer="cost"`` returns the structural order's answers, with the
  structural order's access count wherever the answer is not empty; on a
  second generated family whose answer *is* empty (one relation of the
  query, chosen by the seed, has no tuples) both access orders return the
  empty answer, never repeat an access, and fast-fail to a subset of the
  accesses the same plan makes with the test switched off.

The fixed-seed subset runs in CI; the full sweep is `pytest -m slow`.
"""

from __future__ import annotations

import dataclasses
import json
import random
import tempfile
from pathlib import Path
from typing import Dict, Tuple

import pytest

# The case generator lives with the cross-checkout fingerprint tool, which
# may import nothing of the engine before ``--src`` has chosen a checkout.
from behaviour_fingerprint import generate_case

from repro import Engine
from repro.examples import Example, make_scenario
from repro.model.instance import DatabaseInstance
from repro.query.parser import parse_query
from repro.sources.faults import FaultSchedule
from repro.sources.resilience import BreakerConfig, RetryPolicy
from repro.sources.wrapper import SourceRegistry

STRATEGIES = ("naive", "fast_fail", "distillation")
BACKENDS = ("memory", "sqlite", "callable")

#: Seeds run on every CI invocation (fast, deterministic).
CI_SEEDS = tuple(range(8))
#: The full sweep (`pytest -m slow`): ~25 generated cases.
FULL_SEEDS = tuple(range(8, 25))


def generate_empty_case(seed: int) -> Tuple[Example, Dict[str, float]]:
    """One random scenario whose answer is empty: a relation of the query,
    chosen by the seed, has no tuples — the hub (nothing can be accessed
    after it), one ray or branch (its siblings are wasted work unless it
    is populated first), or the last stage."""
    rng = random.Random(seed * 4099 + 3)
    kind = rng.choice(["star", "diamond", "chaos", "empty-branch"])
    if kind == "star":
        example = make_scenario(kind, rays=rng.randint(2, 4), width=rng.randint(1, 6))
    elif kind == "diamond":
        example = make_scenario(kind, width=rng.randint(1, 6))
    elif kind == "chaos":
        example = make_scenario(kind, width=rng.randint(1, 5), rays=rng.randint(2, 3))
    else:
        example = make_scenario(
            kind,
            width=rng.randint(1, 4),
            fanout=rng.randint(1, 5),
            empty_name=rng.choice(["aempty", "zempty"]),
        )
    victim = rng.choice(sorted({atom.predicate for atom in parse_query(example.query_text).body}))
    instance = DatabaseInstance(
        example.schema,
        {
            relation.schema.name: relation.as_set()
            for relation in example.instance
            if relation.schema.name != victim
        },
    )
    example = dataclasses.replace(
        example,
        name=f"{example.name}-without-{victim}",
        instance=instance,
        expected_answers=frozenset(),
    )
    latencies = {
        relation.name: rng.choice([0.0, 0.005, 0.01, 0.02]) for relation in example.schema
    }
    return example, latencies


def _registry(example: Example, latencies: Dict[str, float], backend: str) -> SourceRegistry:
    return SourceRegistry(
        example.instance, per_relation_latency=latencies, backend=backend
    )


def _execute(example: Example, registry: SourceRegistry, strategy: str, **overrides):
    with Engine(example.schema, registry) as engine:
        return engine.execute(
            example.query_text,
            strategy=strategy,
            share_session_cache=False,
            **overrides,
        )


def _result_fingerprint(result) -> bytes:
    """The semantic payload of a result, minus wall-clock noise."""
    payload = result.to_dict()
    payload.pop("elapsed_seconds")
    stats = dict(payload["retry_stats"])
    stats.pop("backoff_seconds")
    payload["retry_stats"] = stats
    return json.dumps(payload, sort_keys=True, default=repr).encode()


def check_cross_backend_equivalence(seed: int) -> None:
    example, latencies = generate_case(seed)
    for strategy in STRATEGIES:
        baseline = None
        for backend in BACKENDS:
            result = _execute(example, _registry(example, latencies, backend), strategy)
            assert result.answers == example.expected_answers, (
                f"seed {seed}: {strategy} on {backend} returned wrong answers "
                f"on {example.name}"
            )
            assert result.complete, f"seed {seed}: fault-free run flagged incomplete"
            observed = (
                result.total_accesses,
                tuple(sorted((b.relation, b.accesses) for b in result.per_source)),
            )
            if baseline is None:
                baseline = observed
            else:
                assert observed == baseline, (
                    f"seed {seed}: {strategy} diverged between backends on "
                    f"{example.name}: {observed} != {baseline}"
                )


def check_zero_fault_rate_is_identity(seed: int) -> None:
    """FlakyBackend at fault_rate=0 + all resilience knobs on: byte-identical."""
    example, latencies = generate_case(seed)
    resilience = dict(
        retry=RetryPolicy(max_attempts=3, base_delay=0.001),
        timeout=30.0,
        breaker=BreakerConfig(failure_threshold=3, cooldown=0.1),
    )
    for strategy in STRATEGIES:
        plain = _execute(example, _registry(example, latencies, "memory"), strategy)
        flaky_registry = _registry(example, latencies, "memory")
        flaky_registry.inject_faults(FaultSchedule(seed=seed))  # all rates zero
        wrapped = _execute(example, flaky_registry, strategy, **resilience)
        assert _result_fingerprint(plain) == _result_fingerprint(wrapped), (
            f"seed {seed}: zero-fault resilience changed {strategy}'s result "
            f"on {example.name}"
        )


def check_cost_optimizer_equivalence(seed: int) -> None:
    """``optimizer="cost"``: same answers; same accesses unless the answer is empty."""
    example, latencies = generate_case(seed)
    for strategy in STRATEGIES:
        structural = _execute(example, _registry(example, latencies, "memory"), strategy)
        cost = _execute(
            example,
            _registry(example, latencies, "memory"),
            strategy,
            optimizer="cost",
        )
        assert cost.answers == structural.answers == example.expected_answers, (
            f"seed {seed}: optimizer='cost' changed {strategy}'s answers on {example.name}"
        )
        # Every admissible order reaches the same fixpoint; only a fast-fail
        # test — which needs an empty answer to fire — can cut one short.
        if example.expected_answers or strategy != "fast_fail":
            assert cost.total_accesses == structural.total_accesses, (
                f"seed {seed}: optimizer='cost' changed {strategy}'s access count "
                f"on {example.name}: {cost.total_accesses} != {structural.total_accesses}"
            )


def check_empty_answer_orders(seed: int) -> None:
    """On an empty answer, under either access order, fast-fail is sound.

    What the paper guarantees, per order: the (empty) obtainable answer, no
    access made twice, and an access set contained in the one the same
    plan makes without the early test.  Deliberately *not* asserted:
    ``cost <= structural`` — the rule is a greedy, and the static order
    wins whenever it happens to place the empty group first.
    """
    example, latencies = generate_empty_case(seed)
    assert not example.expected_answers
    for optimizer in ("structural", "cost"):
        runs = {
            fast_fail: _execute(
                example,
                _registry(example, latencies, "memory"),
                "fast_fail",
                optimizer=optimizer,
                fast_fail=fast_fail,
            )
            for fast_fail in (True, False)
        }
        for fast_fail, result in runs.items():
            assert result.answers == frozenset() and result.complete, (
                f"seed {seed}: {optimizer}/fast_fail={fast_fail} found answers "
                f"on {example.name}"
            )
            accesses = [record.access for record in result.access_log]
            assert len(accesses) == len(set(accesses)), (
                f"seed {seed}: {optimizer}/fast_fail={fast_fail} repeated an "
                f"access on {example.name}"
            )
        assert runs[False].failed_at_position is None
        cut = {record.access for record in runs[True].access_log}
        full = {record.access for record in runs[False].access_log}
        assert cut <= full, (
            f"seed {seed}: {optimizer} fast-failed into accesses the full run "
            f"never makes on {example.name}: {sorted(cut - full)}"
        )
    for strategy in ("naive", "distillation"):
        result = _execute(example, _registry(example, latencies, "memory"), strategy)
        assert result.answers == frozenset()


def _three_runs_on_one_session(example: Example, engine: Engine, strategy: str):
    """Execute the query three times on one session: only the first may
    touch a source, and the session never logs an access twice.

    ``naive`` is the paper's baseline without meta-caches, so its repeats
    re-perform every access by design; it is checked for answers only.
    Returns the first run, the per-run access counts and the session's
    number of recorded accesses.
    """
    runs = [engine.execute(example.query_text, strategy=strategy) for _ in range(3)]
    counts = [run.total_accesses for run in runs]
    assert all(run.answers == example.expected_answers for run in runs)
    if strategy != "naive":
        assert counts[1:] == [0, 0], (
            f"{strategy} repeated accesses on a warm session of "
            f"{example.name}: {counts}"
        )
        accesses = [record.access for run in runs for record in run.access_log]
        assert len(accesses) == len(set(accesses)) == engine.session.total_accesses, (
            f"{strategy} logged an access twice in one session on {example.name}"
        )
        assert engine.session.known_accesses == counts[0]
        assert engine.session.stats()["cache_store"]["binding_entries"] == counts[0]
    return runs[0], counts, engine.session.known_accesses


def check_sqlite_store_equivalence(seed: int) -> None:
    """A persistent cache store is a transport, never a semantics.

    Each strategy runs the generated scenario on the default in-memory
    cache store and on a fresh SQLite store — three times on one session
    each — and must produce identical answers *and* identical access counts
    (total and per-source): ``[n, 0, 0]``, no access logged twice, ``n``
    recorded accesses on both stores.  The store only changes where the
    "never repeat an access" domain lives, not what gets accessed; reopening
    the SQLite file keeps the domain (``[0, 0]``).
    """
    example, latencies = generate_case(seed)
    for strategy in STRATEGIES:
        with tempfile.TemporaryDirectory() as tmp:
            cache = f"sqlite:{Path(tmp) / 'fuzz_store.db'}"
            registry = _registry(example, latencies, "memory")
            with Engine(example.schema, registry, cache=cache) as engine:
                stored, stored_counts, stored_known = _three_runs_on_one_session(
                    example, engine, strategy
                )
            if strategy != "naive":
                registry = _registry(example, latencies, "memory")
                with Engine(example.schema, registry, cache=cache) as engine:
                    reopened = [
                        engine.execute(example.query_text, strategy=strategy)
                        for _ in range(2)
                    ]
                    assert [run.total_accesses for run in reopened] == [0, 0]
                    assert all(run.answers == stored.answers for run in reopened)
                    assert engine.session.known_accesses == stored_known
        with Engine(example.schema, _registry(example, latencies, "memory")) as engine:
            plain, plain_counts, plain_known = _three_runs_on_one_session(
                example, engine, strategy
            )
        assert stored.answers == plain.answers == example.expected_answers, (
            f"seed {seed}: {strategy} answers diverged between cache stores "
            f"on {example.name}"
        )
        observed = (
            stored_counts,
            stored_known,
            tuple(sorted((b.relation, b.accesses) for b in stored.per_source)),
        )
        expected = (
            plain_counts,
            plain_known,
            tuple(sorted((b.relation, b.accesses) for b in plain.per_source)),
        )
        assert observed == expected, (
            f"seed {seed}: {strategy} access counts diverged between cache "
            f"stores on {example.name}: {observed} != {expected}"
        )


def check_async_dispatcher_equivalence(seed: int) -> None:
    """``concurrency="async"`` is a dispatcher, never a semantics.

    For every strategy and backend, running the generated scenario through
    the asyncio dispatcher must produce the simulated dispatcher's answers
    *and* its access counts, total and per-source: the per-policy access
    set is a least fixpoint, so overlapping the accesses on an event loop
    cannot change which accesses are performed.  That holds whichever way
    the dispatcher reads the backend — inline on the loop (memory) or on
    executor threads (sqlite, callable) — so the access *sets* and the
    timing-free payloads are compared too.
    """
    example, latencies = generate_case(seed)
    for strategy in STRATEGIES:
        for backend in BACKENDS:
            baseline = _execute(example, _registry(example, latencies, backend), strategy)
            overlapped = _execute(
                example,
                _registry(example, latencies, backend),
                strategy,
                concurrency="async",
            )
            assert overlapped.answers == baseline.answers == example.expected_answers, (
                f"seed {seed}: async {strategy} on {backend} diverged from "
                f"simulated answers on {example.name}"
            )
            assert overlapped.complete
            observed = (
                overlapped.total_accesses,
                tuple(sorted((b.relation, b.accesses) for b in overlapped.per_source)),
            )
            expected = (
                baseline.total_accesses,
                tuple(sorted((b.relation, b.accesses) for b in baseline.per_source)),
            )
            assert observed == expected, (
                f"seed {seed}: async {strategy} on {backend} performed different "
                f"accesses on {example.name}: {observed} != {expected}"
            )
            assert overlapped.access_log.access_set() == baseline.access_log.access_set()
            assert overlapped.to_dict(include_timings=False) == baseline.to_dict(
                include_timings=False
            ), f"seed {seed}: async {strategy} on {backend} reported a different payload"


def check_async_http_equivalence(seed: int) -> None:
    """The HTTP backend over loopback is equivalent to in-memory, sync or async."""
    from repro.sources.fixture_server import FixtureServer

    example, latencies = generate_case(seed)
    with FixtureServer(example.instance) as server:
        for strategy in STRATEGIES:
            baseline = _execute(example, _registry(example, latencies, "memory"), strategy)
            for concurrency in ("simulated", "async"):
                result = _execute(
                    example,
                    _registry(example, latencies, server.url),
                    strategy,
                    concurrency=concurrency,
                )
                assert result.answers == baseline.answers == example.expected_answers, (
                    f"seed {seed}: {strategy}/{concurrency} over HTTP diverged "
                    f"on {example.name}"
                )
                assert result.total_accesses == baseline.total_accesses, (
                    f"seed {seed}: {strategy}/{concurrency} over HTTP performed "
                    f"{result.total_accesses} accesses, expected "
                    f"{baseline.total_accesses} on {example.name}"
                )


def check_async_faulty_equivalence(seed: int) -> None:
    """Under retried transient faults the async dispatcher still matches.

    Retries are deterministic per binding (the schedule burns a fixed
    number of leading faults), so with more attempts than the schedule's
    consecutive-fault cap, no breaker and no timeout, the async and
    simulated dispatchers converge on the same complete answers and the
    same access counts.
    """
    example, latencies = generate_case(seed)
    rng = random.Random(seed * 6121 + 5)
    schedule = FaultSchedule(
        seed=seed, transient_rate=rng.uniform(0.1, 0.3), max_consecutive=2
    )
    retry = RetryPolicy(max_attempts=3, base_delay=0.0)
    for strategy in STRATEGIES:
        runs = []
        for concurrency in ("simulated", "async"):
            registry = _registry(example, latencies, "memory")
            registry.inject_faults(schedule)
            result = _execute(example, registry, strategy, retry=retry, concurrency=concurrency)
            assert result.complete and result.answers == example.expected_answers, (
                f"seed {seed}: {strategy}/{concurrency} did not recover from "
                f"retried transient faults on {example.name}"
            )
            runs.append(
                (
                    result.total_accesses,
                    tuple(sorted((b.relation, b.accesses) for b in result.per_source)),
                )
            )
        assert runs[0] == runs[1], (
            f"seed {seed}: async {strategy} under faults performed different "
            f"accesses on {example.name}: {runs[1]} != {runs[0]}"
        )


def check_served_equivalence(seed: int) -> None:
    """Serving over HTTP is a transport, never a semantics.

    One :class:`~repro.serve.ServeHandle` per generated scenario; for every
    strategy, the served ``POST /query`` payload must equal the in-process
    ``execute().to_dict(include_timings=False)`` byte for byte, and the
    streamed answers must be the same set with the same summary.  The
    server executes with ``share_session_cache=False`` so each request is
    independent, mirroring the fresh-engine baselines.

    The faulty pass reuses the recoverable schedule of
    :func:`check_async_faulty_equivalence` (deterministic per binding,
    retries cover the consecutive-fault cap), so served and in-process
    runs see identical faults and converge on identical payloads.  A
    :class:`~repro.sources.faults.FlakyBackend` burns its leading
    faults statefully per registry, so every faulty comparison gets a
    fresh server — a shared one would absorb the faults the in-process
    baseline still sees.
    """
    import asyncio as _asyncio

    from repro.serve import ServeConfig, ServeHandle, protocol

    example, latencies = generate_case(seed)
    schedule = FaultSchedule(seed=seed, transient_rate=0.25, max_consecutive=2)
    retry = RetryPolicy(max_attempts=3, base_delay=0.0)

    def handle_for(faults: bool) -> ServeHandle:
        registry = _registry(example, latencies, "memory")
        if faults:
            registry.inject_faults(schedule)
        overrides: Dict[str, object] = {"share_session_cache": False}
        if faults:
            overrides["retry"] = retry
        return ServeHandle(
            Engine(example.schema, registry),
            ServeConfig(execute_overrides=overrides),
        )

    def baseline_for(faults: bool, strategy: str):
        registry = _registry(example, latencies, "memory")
        baseline_overrides: Dict[str, object] = {}
        if faults:
            registry.inject_faults(schedule)
            baseline_overrides["retry"] = retry
        return _execute(example, registry, strategy, **baseline_overrides)

    for faults in (False, True):
        for strategy in STRATEGIES:
            baseline = baseline_for(faults, strategy)
            with handle_for(faults) as handle:
                status, body = _asyncio.run(
                    protocol.request_json(
                        handle.url,
                        "POST",
                        "/query",
                        {"query": example.query_text, "strategy": strategy},
                    )
                )
            assert status == 200, f"seed {seed}: served {strategy} -> {status}"
            assert body == baseline.to_dict(include_timings=False), (
                f"seed {seed}: served {strategy} payload diverged from "
                f"in-process execute() on {example.name} (faults={faults})"
            )

        stream_baseline = baseline_for(faults, "distillation")
        with handle_for(faults) as handle:

            async def collect(url=None):
                items = []
                async for item in protocol.stream_lines(
                    url or handle.url, "/query/stream", {"query": example.query_text}
                ):
                    items.append(item)
                return items

            items = _asyncio.run(collect(handle.url))
        assert items[0] == 200
        streamed = frozenset(tuple(item["row"]) for item in items[1:] if "row" in item)
        summaries = [item["summary"] for item in items[1:] if "summary" in item]
        assert streamed == stream_baseline.answers, (
            f"seed {seed}: streamed answers diverged on {example.name} "
            f"(faults={faults})"
        )
        assert len(summaries) == 1
        assert summaries[0] == stream_baseline.to_dict(include_timings=False), (
            f"seed {seed}: stream summary diverged on {example.name} "
            f"(faults={faults})"
        )


def check_faulty_runs_hold_the_completeness_contract(seed: int) -> None:
    example, latencies = generate_case(seed)
    rng = random.Random(seed * 7919 + 1)
    schedule = FaultSchedule(
        seed=seed,
        transient_rate=rng.uniform(0.1, 0.3),
        timeout_rate=rng.uniform(0.0, 0.1),
    )
    for strategy in STRATEGIES:
        registry = _registry(example, latencies, "memory")
        registry.inject_faults(schedule)
        result = _execute(
            example,
            registry,
            strategy,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            breaker=BreakerConfig(failure_threshold=5, cooldown=0.05),
        )
        assert result.answers <= example.expected_answers
        if result.complete:
            assert result.answers == example.expected_answers, (
                f"seed {seed}: {strategy} claimed complete with missing answers"
            )
            assert not result.failed_relations
        if result.answers != example.expected_answers:
            assert not result.complete, (
                f"seed {seed}: {strategy} lost answers without flagging incompleteness"
            )


@pytest.mark.parametrize("seed", CI_SEEDS)
def test_fuzz_cross_backend_equivalence(seed: int) -> None:
    check_cross_backend_equivalence(seed)


@pytest.mark.parametrize("seed", CI_SEEDS)
def test_fuzz_zero_fault_rate_is_identity(seed: int) -> None:
    check_zero_fault_rate_is_identity(seed)


@pytest.mark.parametrize("seed", CI_SEEDS)
def test_fuzz_completeness_contract_under_faults(seed: int) -> None:
    check_faulty_runs_hold_the_completeness_contract(seed)


@pytest.mark.parametrize("seed", CI_SEEDS)
def test_fuzz_cost_optimizer_equivalence(seed: int) -> None:
    check_cost_optimizer_equivalence(seed)


@pytest.mark.parametrize("seed", CI_SEEDS)
def test_fuzz_empty_answer_orders(seed: int) -> None:
    check_empty_answer_orders(seed)


@pytest.mark.parametrize("seed", CI_SEEDS)
def test_fuzz_sqlite_store_equivalence(seed: int) -> None:
    check_sqlite_store_equivalence(seed)


@pytest.mark.parametrize("seed", CI_SEEDS)
def test_fuzz_async_dispatcher_equivalence(seed: int) -> None:
    check_async_dispatcher_equivalence(seed)


@pytest.mark.parametrize("seed", CI_SEEDS[:4])
def test_fuzz_async_http_equivalence(seed: int) -> None:
    check_async_http_equivalence(seed)


@pytest.mark.parametrize("seed", CI_SEEDS)
def test_fuzz_async_faulty_equivalence(seed: int) -> None:
    check_async_faulty_equivalence(seed)


@pytest.mark.parametrize("seed", CI_SEEDS[:4])
def test_fuzz_served_equivalence(seed: int) -> None:
    check_served_equivalence(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_fuzz_full_sweep(seed: int) -> None:
    check_cross_backend_equivalence(seed)
    check_zero_fault_rate_is_identity(seed)
    check_faulty_runs_hold_the_completeness_contract(seed)
    check_cost_optimizer_equivalence(seed)
    check_empty_answer_orders(seed)
    check_sqlite_store_equivalence(seed)
    check_async_dispatcher_equivalence(seed)
    check_async_http_equivalence(seed)
    check_async_faulty_equivalence(seed)
    check_served_equivalence(seed)
