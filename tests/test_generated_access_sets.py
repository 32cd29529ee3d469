"""Every strategy's access set against oracle B, on generated schemas.

Oracle B (:func:`support.generated.planned_accesses`) reads the accesses
off the plan's own Datalog view, evaluated bottom-up over the full
instance; :func:`support.generated.access_violations` holds five runs of
each answerable generated case to it — ``fast_fail`` without and with the
early test and under ``optimizer="cost"``, ``distillation`` and ``naive``
— and requires of every run that it logs no access twice and that its
answers are the query over the rows its own log holds.  What those checks
read is exactly what the access path writes: the run's log and the
meta-cache claims that keep an access from being made twice.

A fixed subset of seeds runs in tier-1; all 5,000 run under ``-m slow``.
"""

from __future__ import annotations

import pytest
from support.generated import access_violations, generate, planned_accesses

from repro import Engine
from repro.exceptions import UnanswerableQueryError


def _violations(seed: int):
    case = generate(seed)
    schema, instance = case.database()
    try:
        Engine(schema, instance).plan(case.text)
    except UnanswerableQueryError:
        return []  # oracle A's suite checks that refused cases have no answer
    return access_violations(case)


@pytest.mark.parametrize("seed", range(300))
def test_every_strategy_accesses_what_oracle_b_plans(seed: int) -> None:
    assert _violations(seed) == []


@pytest.mark.slow
def test_every_strategy_accesses_what_oracle_b_plans_on_5000_cases() -> None:
    failing = {seed: wrong for seed in range(5000) if (wrong := _violations(seed))}
    assert failing == {}


def test_oracle_b_is_not_vacuous() -> None:
    """Over the tier-1 seeds both containments are often strict: the early
    test makes ``fast_fail`` access less than oracle B plans (39 of 169
    answerable cases), and ``naive`` accesses more (105)."""
    fewer = more = 0
    for seed in range(300):
        case = generate(seed)
        schema, instance = case.database()
        with Engine(schema, instance) as engine:
            try:
                prepared = engine.plan(case.text)
            except UnanswerableQueryError:
                continue
            planned = len(planned_accesses(case, prepared.to_datalog()))
            fewer += prepared.execute(strategy="fast_fail").total_accesses < planned
            engine.reset_session()
            more += prepared.execute(strategy="naive").total_accesses > planned
    assert min(fewer, more) >= 20, (fewer, more)
