"""The Engine façade: planning, execution, explain, streaming, sessions,
and the strategy registry extension point.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import (
    Engine,
    ExecuteOptions,
    ExecutionStrategy,
    Result,
    Termination,
    available_strategies,
    register_strategy,
    unregister_strategy,
)
from repro.sources.wrapper import SourceRegistry


def test_one_public_path_covers_the_pipeline(example) -> None:
    # The acceptance-criterion path: Engine(schema, instance).plan(q).execute(...)
    result = Engine(example.schema, example.instance).plan(example.query_text).execute(
        strategy="fast_fail"
    )
    assert result.answers == example.expected_answers
    assert result.termination is Termination.COMPLETED


def test_parse_returns_query_object(engine, example) -> None:
    query = engine.parse(example.query_text)
    assert engine.plan(query).query is query


def test_engine_accepts_registry_with_latencies(example) -> None:
    registry = SourceRegistry(example.instance, per_relation_latency={"r1": 0.5, "r2": 0.25})
    engine = Engine(example.schema, registry)
    result = engine.execute(example.query_text, strategy="fast_fail")
    assert result.answers == example.expected_answers
    assert result.simulated_latency == pytest.approx(0.75)


def test_result_breakdown_and_dict(engine, example) -> None:
    result = engine.execute(example.query_text, strategy="naive")
    assert result.total_accesses == sum(b.accesses for b in result.per_source)
    assert result.accesses_of("r3") >= 1  # naive hits the irrelevant relation
    payload = result.to_dict()
    assert payload["answers"] == [["Italy"]]
    assert payload["strategy"] == "naive"


def test_session_meta_cache_shared_across_queries(engine, example) -> None:
    first = engine.execute(example.query_text, strategy="fast_fail")
    assert first.total_accesses > 0
    # Same query again: every access is answered by the session meta-cache.
    second = engine.execute(example.query_text, strategy="fast_fail")
    assert second.answers == first.answers
    assert second.total_accesses == 0
    # A different query over an already-extracted relation also benefits.
    third = engine.execute("q(Y) <- r2('volare', Y, A)", strategy="fast_fail")
    assert third.total_accesses == 0
    assert engine.session_stats()["executions"] == 3
    engine.reset_session()
    fourth = engine.execute(example.query_text, strategy="fast_fail")
    assert fourth.total_accesses == first.total_accesses


def test_distillation_reexecution_keeps_answers(engine, example) -> None:
    # Regression: rows served purely from the session meta-cache must still
    # cascade through the offer loop (a non-fixpoint pass lost all answers).
    first = engine.execute(example.query_text, strategy="distillation")
    assert first.answers == example.expected_answers
    second = engine.execute(example.query_text, strategy="distillation")
    assert second.answers == example.expected_answers
    assert second.total_accesses == 0


def test_distillation_reexecution_after_fast_fail(engine, example) -> None:
    engine.execute(example.query_text, strategy="fast_fail")
    result = engine.execute(example.query_text, strategy="distillation")
    assert result.answers == example.expected_answers
    assert result.total_accesses == 0


def test_session_sharing_can_be_disabled(engine, example) -> None:
    engine.execute(example.query_text, strategy="fast_fail")
    isolated = engine.execute(
        example.query_text, strategy="fast_fail", share_session_cache=False
    )
    assert isolated.total_accesses > 0


def test_stream_yields_each_answer_once(engine, example) -> None:
    streamed = list(engine.stream(example.query_text))
    assert {answer.row for answer in streamed} == example.expected_answers
    assert len(streamed) == len(example.expected_answers)
    assert all(answer.simulated_time >= 0 for answer in streamed)


def test_stream_on_chain_is_incremental(chain) -> None:
    engine = Engine(chain.schema, chain.instance)
    times = [answer.simulated_time for answer in engine.stream(chain.query_text)]
    assert len(times) == len(chain.expected_answers)
    assert times == sorted(times)


def test_explain_structure(engine, example) -> None:
    explanation = engine.explain(example.query_text)
    assert explanation.answerable
    assert explanation.relevant_relations == ("r1", "r2")
    assert explanation.irrelevant_relations == ("r3",)
    assert explanation.ordering_unique
    assert explanation.admits_forall_minimal_plan
    assert len(explanation.ordering_groups) == 3
    cache_kinds = {cache.kind for cache in explanation.caches}
    assert cache_kinds == {"artificial", "query-atom"}
    assert "r1_hat_1" in explanation.datalog
    payload = explanation.to_dict()
    assert payload["ordering"]["unique"] is True
    assert explanation.describe().startswith("query")


def test_execute_options_and_overrides(engine, example) -> None:
    options = ExecuteOptions(max_accesses=100)
    result = engine.execute(example.query_text, strategy="fast_fail", options=options)
    assert result.answers == example.expected_answers
    from repro.exceptions import StrategyError

    with pytest.raises(StrategyError):
        engine.execute(example.query_text, strategy="fast_fail", not_an_option=1)


def test_custom_strategy_registration(engine, example) -> None:
    class EchoStrategy(ExecutionStrategy):
        name = "echo"

        def run(self, prepared, options) -> Result:
            return Result(
                strategy=self.name,
                answers=frozenset({("echo",)}),
                termination=Termination.COMPLETED,
                total_accesses=0,
                per_source=(),
                elapsed_seconds=0.0,
                simulated_latency=0.0,
            )

    register_strategy(EchoStrategy)
    try:
        assert "echo" in available_strategies()
        result = engine.plan(example.query_text).execute(strategy="echo")
        assert result.answers == frozenset({("echo",)})
    finally:
        unregister_strategy("echo")
    assert "echo" not in available_strategies()


def test_builtin_strategies_registered() -> None:
    assert {"naive", "fast_fail", "distillation"} <= set(available_strategies())


def test_stream_errors_raise_at_call_site(engine, example) -> None:
    from repro.exceptions import StrategyError

    prepared = engine.plan(example.query_text)
    with pytest.raises(StrategyError):
        prepared.stream(strategy="naive")  # not iterated: must raise eagerly
    with pytest.raises(StrategyError):
        prepared.stream(strategy="no_such_strategy")


def test_session_log_absorbed_even_on_aborted_run(engine, example) -> None:
    from repro.exceptions import ExecutionError

    with pytest.raises(ExecutionError):
        engine.execute(example.query_text, strategy="fast_fail", max_accesses=1)
    stats = engine.session_stats()
    # The one access that did hit a source is in the session log, matching
    # the meta-cache state it left behind.
    assert stats["total_accesses"] == 1
    assert stats["known_accesses"] == 1


def test_distillation_per_source_latency_matches_makespan(engine, example) -> None:
    result = engine.execute(example.query_text, strategy="distillation")
    per_source_total = sum(b.simulated_latency for b in result.per_source)
    assert per_source_total == pytest.approx(result.raw.sequential_time)
    assert result.simulated_latency <= per_source_total


#: What ``import repro`` must not load: scenario generators, fault injection,
#: the fixture lookup server, the deleted load generator and the CLI.
TEST_RIG_MODULES = (
    "repro.examples",
    "repro.serve.loadtest",
    "repro.sources.faults",
    "repro.sources.fixture_server",
    "repro.cli",
)


def test_import_repro_loads_the_engine_and_no_test_rig() -> None:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = (
        "import sys, repro\n"
        f"print(sorted(name for name in {TEST_RIG_MODULES!r} if name in sys.modules))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    ).stdout.strip()
    assert loaded == "[]"
