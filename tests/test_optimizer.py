"""``optimizer="cost"``: the fewest-pending-bindings-first access order.

The contract of the rule in :class:`repro.runtime.policy.OrderedFastFail`:
same answers as the structural order, the same accesses wherever the answer
is non-empty, strictly fewer on ``empty-branch`` (where a cheap empty branch
sits next to an expensive one) whatever the relations are called, and the
order taken is always a topological linearization of the ordering
constraints.  Plus the per-relation access counts of the engine session
(``session_stats()["relations"]``), which are observability, not planner
input.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import Engine
from repro.examples import make_scenario, running_example
from repro.exceptions import StrategyError
from repro.graph.ordering import ordering_constraints


# -- the order taken ------------------------------------------------------------


def _is_admissible_cache_order(plan, groups) -> bool:
    constraints = ordering_constraints(plan.analysis.optimized)
    source_groups = tuple(
        tuple(sorted(plan.caches[name].source_id for name in group)) for group in groups
    )
    normalized = tuple(tuple(sorted(group)) for group in constraints.groups)
    remap = {tuple(sorted(group)): group for group in constraints.groups}
    assert sorted(source_groups) == sorted(normalized)
    return constraints.is_admissible(tuple(remap[group] for group in source_groups))


def _groups_in_order_taken(plan, access_log):
    """The plan's cache groups, in the order their first access was made.

    Groups never accessed (artificial caches, and whatever a fast-fail
    skipped) keep their plan order, before and after the accessed ones
    respectively — both are admissible completions of the order taken.
    """
    group_of_relation = {}
    for position in plan.positions():
        for cache in plan.caches_at(position):
            if not cache.is_artificial:
                group_of_relation.setdefault(cache.relation.name, position)
    taken = []
    for record in access_log:
        position = group_of_relation[record.relation]
        if position not in taken:
            taken.append(position)
    artificial = [
        position
        for position in plan.positions()
        if all(cache.is_artificial for cache in plan.caches_at(position))
    ]
    skipped = [p for p in plan.positions() if p not in taken and p not in artificial]
    return tuple(
        tuple(cache.name for cache in plan.caches_at(position))
        for position in artificial + taken + skipped
    )


@pytest.mark.parametrize(
    "name,params",
    [
        ("chain", {"length": 3, "width": 2}),
        ("star", {"rays": 3, "width": 2}),
        ("diamond", {"width": 2}),
        ("cycle", {"size": 5, "seeds": 2}),
        ("empty-branch", {"width": 3, "fanout": 2}),
    ],
)
@pytest.mark.parametrize("optimizer", ["structural", "cost"])
def test_order_taken_is_admissible(name: str, params: dict, optimizer: str) -> None:
    example = make_scenario(name, **params)
    with Engine(example.schema, example.instance) as engine:
        prepared = engine.plan(example.query_text)
        result = prepared.execute(optimizer=optimizer)
    assert result.answers == example.expected_answers
    groups = _groups_in_order_taken(prepared.plan, result.access_log)
    assert _is_admissible_cache_order(prepared.plan, groups)


def test_structural_order_mirrors_plan_positions() -> None:
    example = make_scenario("star", rays=3, width=2)
    with Engine(example.schema, example.instance) as engine:
        prepared = engine.plan(example.query_text)
        result = prepared.execute()
    plan = prepared.plan
    assert _groups_in_order_taken(plan, result.access_log) == tuple(
        tuple(cache.name for cache in plan.caches_at(position))
        for position in plan.positions()
    )


def test_source_ordering_keeps_the_predecessor_positions() -> None:
    example = make_scenario("empty-branch")
    with Engine(example.schema, example.instance) as engine:
        plan = engine.plan(example.query_text).plan
    ordering = plan.ordering
    position = {plan.caches[name].relation.name: plan.caches[name].position for name in plan.caches}
    assert ordering.predecessors_of(position["seed"]) == ()
    assert ordering.predecessors_of(position["big"]) == (position["seed"],)
    assert ordering.predecessors_of(position["tail"]) == (position["big"],)
    assert ordering.predecessors_of(position["zempty"]) == (position["seed"],)
    assert not ordering.is_unique


# -- end to end through the engine ----------------------------------------------

SMALL_SCENARIOS = (
    ("chain", {"length": 3, "width": 3}),
    ("star", {"rays": 3, "width": 3}),
    ("cycle", {"size": 5, "seeds": 2}),
)


@pytest.mark.parametrize("name,params", SMALL_SCENARIOS)
@pytest.mark.parametrize("strategy", ["naive", "fast_fail", "distillation"])
def test_cost_order_matches_structural(name: str, params: dict, strategy: str) -> None:
    example = make_scenario(name, **params)
    with Engine(example.schema, example.instance) as engine:
        structural = engine.execute(example.query_text, strategy=strategy)
        engine.session.reset()
        cost = engine.execute(example.query_text, strategy=strategy, optimizer="cost")
    assert cost.answers == structural.answers == example.expected_answers
    assert cost.total_accesses == structural.total_accesses
    assert "optimizer" not in cost.to_dict()
    assert cost.to_dict(include_timings=False) == structural.to_dict(include_timings=False)


def test_unknown_optimizer_is_rejected() -> None:
    example = running_example()
    with Engine(example.schema, example.instance) as engine:
        with pytest.raises(StrategyError, match="unknown optimizer"):
            engine.execute(example.query_text, optimizer="voodoo")


def _accesses(example, runs: int = 1, **options):
    with Engine(example.schema, example.instance) as engine:
        results = [engine.execute(example.query_text, **options) for _ in range(runs)]
    for result in results:
        assert result.answers == example.expected_answers
    return results


def test_empty_branch_cost_probes_the_cheap_branch_first() -> None:
    example = make_scenario("empty-branch")
    (structural,) = _accesses(example)
    (cost,) = _accesses(example, optimizer="cost")
    assert example.expected_answers == frozenset()
    assert (structural.total_accesses, cost.total_accesses) == (145, 17)
    assert cost.failed_at_position is not None
    assert cost.complete
    assert {record.relation for record in cost.access_log} == {"seed", "big", "zempty"}


def test_empty_branch_cost_does_not_depend_on_relation_names() -> None:
    example = make_scenario("empty-branch", empty_name="aempty")
    (structural,) = _accesses(example)
    (cost,) = _accesses(example, optimizer="cost")
    # The static order breaks the tail/empty tie by name: here it is lucky.
    assert (structural.total_accesses, cost.total_accesses) == (17, 17)
    assert cost.failed_at_position is not None


def test_empty_branch_cost_keeps_its_saving_on_a_warm_session() -> None:
    example = make_scenario("empty-branch")
    runs = _accesses(example, runs=3, optimizer="cost")
    assert [run.total_accesses for run in runs] == [17, 0, 0]
    assert all(run.failed_at_position is not None for run in runs)


def test_empty_branch_cost_reads_the_same_under_async_dispatch() -> None:
    example = make_scenario("empty-branch")
    (sync_async,) = _accesses(example, optimizer="cost", concurrency="async")
    assert sync_async.total_accesses == 17

    async def awaited():
        with Engine(example.schema, example.instance) as engine:
            return await engine.aexecute(
                example.query_text, optimizer="cost", concurrency="async"
            )

    result = asyncio.run(awaited())
    assert (result.total_accesses, result.answers) == (17, frozenset())


@pytest.mark.parametrize("strategy", ["naive", "distillation"])
@pytest.mark.parametrize("name", ["empty-branch", "diamond"])
def test_eager_strategies_ignore_the_optimizer(name: str, strategy: str) -> None:
    example = make_scenario(name)
    (structural,) = _accesses(example, strategy=strategy)
    (cost,) = _accesses(example, strategy=strategy, optimizer="cost")
    assert [record.access for record in cost.access_log] == [
        record.access for record in structural.access_log
    ]
    assert cost.to_dict(include_timings=False) == structural.to_dict(include_timings=False)


def test_session_statistics_warm_up_the_estimates() -> None:
    # The counting half of the former cost-model test (name kept): the
    # session accumulates per-relation access counts across runs; nothing
    # reads them back to plan.
    example = make_scenario("chain", length=3, width=3)
    with Engine(example.schema, example.instance) as engine:
        first = engine.execute(example.query_text, optimizer="cost")
        relations = engine.session_stats()["relations"]
        for source in first.per_source:
            assert relations[source.relation]["accesses"] == source.accesses
        engine.execute(example.query_text, optimizer="cost", share_session_cache=False)
        stats = engine.session.stats()
    assert set(stats["relations"]) == {b.relation for b in first.per_source}
    for source in first.per_source:
        assert stats["relations"][source.relation]["accesses"] == 2 * source.accesses


def test_execute_many_feeds_the_relation_statistics() -> None:
    example = make_scenario("star", rays=2, width=3)
    with Engine(example.schema, example.instance) as engine:
        results = engine.execute_many([example.query_text] * 3, max_parallel=2)
        stats = engine.session_stats()
    relations = stats["relations"]
    assert set(relations) == {b.relation for b in results[0].per_source}
    for summary in relations.values():
        assert summary["accesses"] == summary["known"] >= 1
    assert sum(summary["meta_hits"] for summary in relations.values()) == stats["meta_hits"]
