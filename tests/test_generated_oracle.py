"""Every door's answers against oracle A, on generated schemas.

The cases come from :mod:`support.generated`: random schemas with access
modes, random instances and random queries, none of them hand-written, and
oracle A computes their obtainable answers by brute force, sharing no code
with the engine.  On every case:

* ``naive``, ``fast_fail`` and ``distillation`` executions return oracle A's
  answers;
* a distillation stream — simulated and async — returns them too: the rows
  it streams are exactly its result's answers, none streamed twice;
* a query the engine refuses as unanswerable has no obtainable answer.

A fixed subset of seeds runs in tier-1; all 5,000 run under ``-m slow``.
"""

from __future__ import annotations

from typing import List

import pytest
from support.generated import generate, obtainable_answers

from repro import Engine
from repro.exceptions import UnanswerableQueryError

STRATEGIES = ("naive", "fast_fail", "distillation")


def _disagreements(seed: int) -> List[str]:
    """What the engine got wrong on the case of ``seed`` (nothing: ``[]``)."""
    case = generate(seed)
    expected = obtainable_answers(case)
    schema, instance = case.database()
    wrong: List[str] = []
    with Engine(schema, instance) as engine:
        try:
            prepared = engine.plan(case.text)
        except UnanswerableQueryError:
            return [] if not expected else [f"{case.text}: refused, oracle {sorted(expected)}"]
        for strategy in STRATEGIES:
            engine.reset_session()
            answers = prepared.execute(strategy=strategy).answers
            if answers != expected:
                wrong.append(f"{case.text}: {strategy} {sorted(answers)}")
        for concurrency in ("simulated", "async"):
            engine.reset_session()
            rows = [
                answer.row
                for answer in prepared.stream(strategy="distillation", concurrency=concurrency)
            ]
            result = prepared.last_stream_result.answers
            if len(rows) != len(set(rows)) or set(rows) != result or result != expected:
                wrong.append(f"{case.text}: {concurrency} stream {rows}, result {sorted(result)}")
    if wrong:
        wrong.append(f"oracle {sorted(expected)}")
    return wrong


@pytest.mark.parametrize("seed", range(300))
def test_every_door_returns_the_obtainable_answers(seed: int) -> None:
    assert _disagreements(seed) == []


@pytest.mark.slow
def test_every_door_returns_the_obtainable_answers_on_5000_cases() -> None:
    failing = {seed: wrong for seed in range(5000) if (wrong := _disagreements(seed))}
    assert failing == {}


def test_the_generator_is_seeded_and_reaches_every_kind_of_case() -> None:
    assert generate(7) == generate(7) and generate(7) != generate(8)
    refused = answered = empty = 0
    for seed in range(300):
        case = generate(seed)
        schema, instance = case.database()
        try:
            Engine(schema, instance).plan(case.text)
        except UnanswerableQueryError:
            refused += 1
        else:
            if obtainable_answers(case):
                answered += 1
            else:
                empty += 1
    # Unanswerable, answerable with answers and answerable without: each a
    # sizeable share, so none of the three contracts above is vacuous.
    assert min(refused, answered, empty) >= 40, (refused, answered, empty)
