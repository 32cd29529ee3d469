"""Per relation, "never repeat an access" on generated schemas.

Four runs of each answerable generated case share one in-memory session
with no reset between them: ``fast_fail``, ``distillation``,
``fast_fail(optimizer="cost")`` and ``fast_fail(fast_fail=False)``.  Every
one of them goes through the session's meta-caches, so each relation's
counted accesses must equal the distinct accesses its meta-cache knows
(``session_stats()["relations"][r]``: ``accesses == known``), the counts
must add up to ``total_accesses``, and the reported relations must be the
meta-cached ones.  A closing ``naive`` run bypasses the meta-caches, so it
may repeat an access they know: after it only ``accesses >= known`` holds.

A fixed subset of seeds runs in tier-1; all 5,000 run under ``-m slow``.
"""

from __future__ import annotations

from typing import List

import pytest
from support.generated import generate

from repro import Engine
from repro.exceptions import UnanswerableQueryError

RUNS = (
    ("fast_fail", {}),
    ("distillation", {}),
    ("fast_fail", {"optimizer": "cost"}),
    ("fast_fail", {"fast_fail": False}),
)


def _counter_violations(seed: int) -> List[str]:
    case = generate(seed)
    schema, instance = case.database()
    wrong: List[str] = []
    with Engine(schema, instance) as engine:
        try:
            prepared = engine.plan(case.text)
        except UnanswerableQueryError:
            return []
        for strategy, overrides in RUNS:
            prepared.execute(strategy=strategy, **overrides)
        stats = engine.session_stats()
        relations = stats["relations"]
        if set(relations) != set(engine.session.meta):
            wrong.append(f"relations {sorted(relations)} != meta {sorted(engine.session.meta)}")
        for name, counts in relations.items():
            if counts["accesses"] != counts["known"]:
                wrong.append(f"{name}: {counts['accesses']} accesses, {counts['known']} known")
        prepared.execute(strategy="naive")
        after = engine.session_stats()
        for name, counts in after["relations"].items():
            if counts["accesses"] < counts["known"]:
                wrong.append(f"after naive, {name}: {counts['accesses']} < {counts['known']}")
        for label, read in (("", stats), ("after naive, ", after)):
            total = sum(counts["accesses"] for counts in read["relations"].values())
            if total != read["total_accesses"]:
                wrong.append(f"{label}per-relation sum {total} != {read['total_accesses']}")
    return [f"{case.text}: {line}" for line in wrong]


@pytest.mark.parametrize("seed", range(300))
def test_each_relation_counts_exactly_the_accesses_its_meta_cache_knows(seed: int) -> None:
    assert _counter_violations(seed) == []


@pytest.mark.slow
def test_each_relation_counts_exactly_the_accesses_its_meta_cache_knows_on_5000_cases() -> None:
    failing = {seed: wrong for seed in range(5000) if (wrong := _counter_violations(seed))}
    assert failing == {}


def test_the_per_relation_check_is_not_vacuous() -> None:
    """Over the tier-1 seeds every answerable case (169 of 300) accesses a
    source, and the closing ``naive`` run repeats an access the meta-caches
    know in each of them: ``accesses > known`` is what a repeat looks like."""
    answerable = accessed = repeated = 0
    for seed in range(300):
        case = generate(seed)
        schema, instance = case.database()
        with Engine(schema, instance) as engine:
            try:
                prepared = engine.plan(case.text)
            except UnanswerableQueryError:
                continue
            answerable += 1
            prepared.execute(strategy="fast_fail")
            accessed += engine.session_stats()["total_accesses"] > 0
            prepared.execute(strategy="naive")
            relations = engine.session_stats()["relations"].values()
            repeated += any(counts["accesses"] > counts["known"] for counts in relations)
    assert answerable >= 100
    assert accessed == repeated == answerable, (answerable, accessed, repeated)
