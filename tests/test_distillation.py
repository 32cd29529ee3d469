"""Regression tests for the distillation event loop: clock monotonicity,
budget semantics, dispatch ordering, and cross-query meta-cache sharing.
"""

from __future__ import annotations

from repro import Engine
from repro.engine import Termination
from repro.examples import chain_example, running_example, wide_fanout_example
from repro.sources.wrapper import SourceRegistry


def _chain_engine_with_heterogeneous_latencies():
    chain = chain_example(length=3, width=6)
    registry = SourceRegistry(
        chain.instance,
        per_relation_latency={"free": 0.05, "s1": 0.3, "s2": 0.01, "s3": 0.07},
    )
    return chain, Engine(chain.schema, registry)


def test_clock_is_monotone_with_heterogeneous_latencies() -> None:
    # Regression: the seed recomputed the clock as a min over busy wrappers,
    # which moved it *backwards* when an idle wrapper (busy_until=0) still
    # had queued work — timestamping answers before the accesses that
    # derived them.
    chain, engine = _chain_engine_with_heterogeneous_latencies()
    result = engine.execute(
        chain.query_text, strategy="distillation", answer_check_interval=1
    )
    assert result.answers == chain.expected_answers

    # Accesses complete in non-decreasing simulated time.
    access_times = [record.simulated_time for record in result.access_log]
    assert access_times == sorted(access_times)

    # An answer needs one access of every stage, so no answer can exist
    # before the sum of the per-stage latencies along its causal chain.
    causal_minimum = 0.05 + 0.3 + 0.01 + 0.07
    assert result.time_to_first_answer is not None
    assert result.time_to_first_answer >= causal_minimum
    times = list(result.raw.answer_times.values())
    assert all(t >= causal_minimum for t in times)
    assert result.raw.total_time >= max(times)


def test_streamed_answer_times_are_non_decreasing() -> None:
    chain, engine = _chain_engine_with_heterogeneous_latencies()
    times = [
        answer.simulated_time
        for answer in engine.stream(chain.query_text, answer_check_interval=1)
    ]
    assert len(times) == len(chain.expected_answers)
    assert times == sorted(times)


def test_budget_abort_keeps_already_derived_answers() -> None:
    # Regression: the seed raised ExecutionError mid-stream when the access
    # budget was hit, discarding every answer already derived.
    chain = chain_example(length=2, width=4)
    engine = Engine(chain.schema, chain.instance, latency=0.01)
    full = engine.execute(
        chain.query_text, strategy="distillation", share_session_cache=False
    )
    budget = full.total_accesses - 2

    engine = Engine(chain.schema, chain.instance, latency=0.01)
    partial = engine.execute(
        chain.query_text,
        strategy="distillation",
        share_session_cache=False,
        max_accesses=budget,
        answer_check_interval=1,
    )
    assert partial.termination is Termination.BUDGET_EXHAUSTED
    assert partial.budget_exhausted
    assert partial.raw.budget_exhausted
    assert partial.total_accesses == budget
    # The partial answers are a non-empty subset of the full answer set.
    assert partial.answers
    assert partial.answers < full.answers


def test_budget_larger_than_needed_is_not_flagged() -> None:
    chain = chain_example(length=2, width=4)
    engine = Engine(chain.schema, chain.instance)
    result = engine.execute(
        chain.query_text, strategy="distillation", max_accesses=10_000
    )
    assert result.termination is Termination.COMPLETED
    assert not result.budget_exhausted
    assert result.answers == chain.expected_answers


def test_meta_cache_shared_across_queries_for_distillation() -> None:
    chain = chain_example(length=3, width=4)
    engine = Engine(chain.schema, chain.instance, latency=0.01)
    first = engine.execute(chain.query_text, strategy="distillation")
    assert first.total_accesses > 0
    # Same query again in the same session: every access tuple is answered
    # by the shared meta-caches, and the answers still cascade to the full set.
    second = engine.execute(chain.query_text, strategy="distillation")
    assert second.total_accesses == 0
    assert second.answers == first.answers == chain.expected_answers
    # A sub-query over already-extracted relations is also free.
    third = engine.execute(
        "q(X2) <- free(X0, X1), s1(X1, X2, A1)", strategy="distillation"
    )
    assert third.total_accesses == 0
    assert engine.session_stats()["executions"] == 3


def test_meta_cache_shared_between_strategies() -> None:
    example = running_example()
    engine = Engine(example.schema, example.instance)
    engine.execute(example.query_text, strategy="distillation")
    replay = engine.execute(example.query_text, strategy="fast_fail")
    assert replay.total_accesses == 0
    assert replay.answers == example.expected_answers


def test_wide_fanout_equivalence() -> None:
    example = wide_fanout_example(width=8, fanout=6)
    engine = Engine(example.schema, example.instance, latency=0.001)
    results = {
        strategy: engine.execute(
            example.query_text, strategy=strategy, share_session_cache=False
        )
        for strategy in ("naive", "fast_fail", "distillation")
    }
    for strategy, result in results.items():
        assert result.answers == example.expected_answers, strategy
    assert (
        results["fast_fail"].total_accesses
        == results["distillation"].total_accesses
        < results["naive"].total_accesses
    )
