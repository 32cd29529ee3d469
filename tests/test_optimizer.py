"""``optimizer="cost"``: the fewest-pending-bindings-first access order.

The contract of the rule in :class:`repro.runtime.policy.OrderedFastFail`:
same answers as the structural order, the same accesses wherever the answer
is non-empty, strictly fewer on ``empty-branch`` (where a cheap empty branch
sits next to an expensive one) whatever the relations are called, and the
order taken is always a topological linearization of the ordering
constraints.  Plus the per-relation statistics of the engine session
(:mod:`repro.engine.statistics`), which are observability, not planner
input.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import Engine
from repro.engine.statistics import StatisticsCollector
from repro.examples import make_scenario, running_example
from repro.exceptions import StrategyError
from repro.graph.ordering import ordering_constraints
from repro.sources.log import AccessLog
from repro.sources.resilience import RetryStats
from repro.sources.wrapper import SourceRegistry


def _record(relation: str, binding: tuple, rows: int, sequence: int) -> tuple:
    """The arguments of one ``AccessLog.record`` call (at simulated time 0)."""
    rows_returned = frozenset((f"{relation}-row-{sequence}-{i}",) for i in range(rows))
    return relation, binding, rows_returned, 0.0


def _log(*records: tuple) -> AccessLog:
    log = AccessLog()
    for record in records:
        log.record(*record)
    return log


class _FakeMetaCache:
    def __init__(self, hits: int) -> None:
        self.hits = hits


# -- StatisticsCollector --------------------------------------------------------


def test_collector_aggregates_per_relation() -> None:
    collector = StatisticsCollector()
    collector.observe_log(
        _log(
            _record("r", ("a",), rows=3, sequence=0),
            _record("r", ("b",), rows=0, sequence=1),
            _record("s", (), rows=5, sequence=2),
        ),
        default_latency=0.01,
    )
    r = collector.get("r")
    assert r is not None
    assert (r.accesses, r.rows, r.empty_accesses, r.max_rows) == (2, 3, 1, 3)
    assert r.rows_per_access == pytest.approx(1.5)
    assert r.empty_rate == pytest.approx(0.5)
    assert r.avg_latency == pytest.approx(0.01)
    # Bound accesses and free accesses are bucketed by binding arity.
    assert r.fanout(bound_arity=1) == pytest.approx(1.5)
    s = collector.get("s")
    assert s is not None and s.fanout_by_arity == {0: (1, 5)}
    assert collector.observations == 1
    assert collector.get("unseen") is None


def test_collector_stretches_latency_by_retry_factor() -> None:
    collector = StatisticsCollector()
    collector.observe_log(
        _log(_record("r", ("a",), rows=1, sequence=0)),
        default_latency=0.01,
        retry_stats=RetryStats(attempts=3, retries=2),
    )
    # 1 counted access, 3 attempts: the access is priced 3x its latency.
    assert collector.get("r").latency == pytest.approx(0.03)


def test_collector_uses_registry_latency() -> None:
    example = running_example()
    registry = SourceRegistry(example.instance, per_relation_latency={"r1": 0.05})
    collector = StatisticsCollector()
    collector.observe_log(
        _log(
            _record("r1", ("a",), rows=1, sequence=0),
            _record("r2", ("volare",), rows=1, sequence=1),
        ),
        registry=registry,
        default_latency=0.001,
    )
    assert collector.get("r1").avg_latency == pytest.approx(0.05)
    assert collector.get("r2").avg_latency == pytest.approx(0.001)


def test_collector_meta_hits_and_reset() -> None:
    collector = StatisticsCollector()
    collector.observe_log(_log(_record("r", ("a",), rows=1, sequence=0)))
    collector.sync_meta_hits({"r": _FakeMetaCache(hits=7)})
    summary = collector.per_relation_summary()
    assert summary["r"]["meta_hits"] == 7
    assert summary["r"]["accesses"] == 1
    collector.reset()
    assert collector.get("r") is None
    assert collector.observations == 0
    assert collector.per_relation_summary() == {}


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
    # The statistics half of the former cost-model test (name kept): the
    # session accumulates per-relation figures across runs; nothing reads
    # them back to plan.
    example = make_scenario("chain", length=3, width=3)
    with Engine(example.schema, example.instance) as engine:
        first = engine.execute(example.query_text, optimizer="cost")
        statistics = engine.session.statistics
        for source in first.per_source:
            assert statistics.get(source.relation).accesses == source.accesses
        engine.execute(example.query_text, optimizer="cost", share_session_cache=False)
        stats = engine.session.stats()
    assert set(stats["relations"]) == {b.relation for b in first.per_source}
    for source in first.per_source:
        assert stats["relations"][source.relation]["accesses"] == 2 * source.accesses


def test_execute_many_feeds_the_relation_statistics() -> None:
    example = make_scenario("star", rays=2, width=3)
    with Engine(example.schema, example.instance) as engine:
        results = engine.execute_many([example.query_text] * 3, max_parallel=2)
        relations = engine.session_stats()["relations"]
    assert set(relations) == {b.relation for b in results[0].per_source}
    for summary in relations.values():
        assert summary["accesses"] >= 1
