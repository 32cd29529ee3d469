"""Cross-strategy equivalence: all strategies compute the same answers,
and the fast-failing plan never needs more accesses than the naive baseline.
"""

from __future__ import annotations

import random

import pytest

from repro import Engine
from repro.engine import Termination
from repro.examples import chain_example, running_example
from repro.model.instance import DatabaseInstance

STRATEGIES = ("naive", "fast_fail", "distillation")


def _results(engine: Engine, query_text: str):
    prepared = engine.plan(query_text)
    # share_session_cache=False isolates the strategies from one another so
    # the comparison is between strategies, not between cache states.
    return {
        name: prepared.execute(strategy=name, share_session_cache=False)
        for name in STRATEGIES
    }


def test_running_example_equivalence() -> None:
    example = running_example()
    engine = Engine(example.schema, example.instance)
    results = _results(engine, example.query_text)
    for name, result in results.items():
        assert result.answers == example.expected_answers, name
        assert result.strategy == name
    assert results["fast_fail"].total_accesses <= results["naive"].total_accesses


def test_chain_equivalence_and_access_bound() -> None:
    example = chain_example(length=3, width=4)
    engine = Engine(example.schema, example.instance)
    results = _results(engine, example.query_text)
    answer_sets = {name: result.answers for name, result in results.items()}
    assert answer_sets["naive"] == answer_sets["fast_fail"] == answer_sets["distillation"]
    assert answer_sets["naive"] == example.expected_answers
    # The chain's junk relations are pruned as irrelevant by the plan-based
    # strategies, so fast-fail is strictly cheaper here.
    assert results["fast_fail"].total_accesses < results["naive"].total_accesses


def test_empty_answer_fast_fails_before_exhaustive_extraction() -> None:
    example = running_example()
    engine = Engine(example.schema, example.instance)
    results = _results(engine, "q(N) <- r1(A, N, Y1), r2('no such song', Y2, A)")
    for result in results.values():
        assert result.answers == frozenset()
    fast = results["fast_fail"]
    assert fast.termination is Termination.FAST_FAILED
    assert fast.failed_at_position is not None
    assert fast.total_accesses <= results["naive"].total_accesses


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_randomized_instances_agree(seed: int) -> None:
    rng = random.Random(seed)
    base = running_example()
    instance = DatabaseInstance(base.schema)
    artists = [f"artist{i}" for i in range(6)]
    nations = ["Italy", "France", "Chile"]
    songs = ["volare", "azzurro", "granada"]
    for artist in artists:
        if rng.random() < 0.8:
            instance.add_tuple("r1", (artist, rng.choice(nations), 1900 + rng.randrange(99)))
    for song in songs:
        for _ in range(rng.randrange(3)):
            instance.add_tuple("r2", (song, 1900 + rng.randrange(99), rng.choice(artists)))
    for nation in nations:
        for _ in range(rng.randrange(3)):
            instance.add_tuple("r3", (nation, rng.choice(artists)))

    engine = Engine(base.schema, instance)
    results = _results(engine, base.query_text)
    answer_sets = {result.answers for result in results.values()}
    assert len(answer_sets) == 1
    assert results["fast_fail"].total_accesses <= results["naive"].total_accesses


def test_distillation_reports_latency_and_speedup(chain) -> None:
    engine = Engine(chain.schema, chain.instance)
    result = engine.execute(chain.query_text, strategy="distillation")
    assert result.answers == chain.expected_answers
    assert result.simulated_latency > 0
    assert result.time_to_first_answer is not None
    assert result.time_to_first_answer <= result.simulated_latency
    assert result.raw.sequential_time >= result.simulated_latency
