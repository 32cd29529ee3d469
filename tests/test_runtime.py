"""Unit tests for the shared fixpoint runtime: budget accounting, the
meta-cache claim protocol, result shaping, and the policy/dispatcher
pluggability the three strategies are built on.
"""

from __future__ import annotations

import threading

import pytest

from repro import Engine
from repro.examples import chain_example
from repro.model.schema import RelationSchema
from repro.runtime import AccessBudget, KernelOutcome
from repro.sources.cache import MetaCache


# -- KernelOutcome.parallel_speedup ---------------------------------------------


def _result(total_time: float, sequential_time: float) -> KernelOutcome:
    return KernelOutcome(
        answers=frozenset(), total_time=total_time, sequential_time=sequential_time
    )


def test_parallel_speedup_reports_true_ratio() -> None:
    assert _result(2.0, 6.0).parallel_speedup == pytest.approx(3.0)


def test_parallel_speedup_zero_makespan_with_work_is_infinite() -> None:
    # Degenerate zero-latency sources: sequential work happened but the
    # simulated makespan is zero — the ratio is infinite, not 1.0.
    assert _result(0.0, 0.5).parallel_speedup == float("inf")


def test_parallel_speedup_without_any_work_is_one() -> None:
    assert _result(0.0, 0.0).parallel_speedup == 1.0


# -- AccessBudget ---------------------------------------------------------------


def test_budget_grants_until_the_limit_then_denies() -> None:
    budget = AccessBudget(3)
    assert budget.grant(2) == 2
    assert not budget.denied
    # A partially filled request is not a denial...
    assert budget.grant(5) == 1
    assert not budget.denied
    # ...but asking again with nothing left is.
    assert budget.grant(1) == 0
    assert budget.denied


def test_budget_unlimited_never_denies() -> None:
    budget = AccessBudget(None)
    assert budget.grant(10_000) == 10_000
    assert not budget.denied


def test_budget_refund_returns_allowance() -> None:
    budget = AccessBudget(1)
    assert budget.grant(1) == 1
    budget.refund(1)
    assert budget.grant(1) == 1
    assert not budget.denied


# -- MetaCache claim protocol ---------------------------------------------------


def _meta() -> MetaCache:
    return MetaCache(RelationSchema.build("r", "io", ["A", "B"]))


def test_claim_owner_then_hit() -> None:
    meta = _meta()
    assert meta.claim(("a",)) is None  # first claimant owns the access
    meta.record(("a",), frozenset({("a", 1)}))
    assert meta.claim(("a",)) == frozenset({("a", 1)})  # now a served hit
    assert meta.hits == 1


def test_claim_blocks_until_owner_fulfils() -> None:
    meta = _meta()
    assert meta.claim(("a",)) is None
    served: list = []

    def waiter() -> None:
        served.append(meta.claim(("a",)))

    thread = threading.Thread(target=waiter)
    thread.start()
    thread.join(timeout=0.2)
    assert thread.is_alive()  # parked on the in-flight claim
    meta.record(("a",), frozenset({("a", 2)}))
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert served == [frozenset({("a", 2)})]


def test_abandoned_claim_hands_ownership_to_a_waiter() -> None:
    meta = _meta()
    assert meta.claim(("a",)) is None
    outcome: list = []

    def waiter() -> None:
        outcome.append(meta.claim(("a",)))

    thread = threading.Thread(target=waiter)
    thread.start()
    thread.join(timeout=0.2)
    assert thread.is_alive()
    meta.abandon(("a",))  # the owner's access failed
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert outcome == [None]  # the waiter now owns the access itself


# -- kernel-level strategy wiring -----------------------------------------------


def test_all_strategies_share_one_kernel() -> None:
    # Every strategy is a (policy, dispatcher) declaration over one
    # execution driver: the kernel is constructed at exactly one place in
    # the package, and nothing under repro.plan executes anything.
    import inspect
    from pathlib import Path

    import repro
    import repro.plan
    from repro.runtime import kernel

    sites = [
        f"{path.name}:{number}"
        for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "FixpointKernel(" in line
    ]
    assert len(sites) == 1 and sites[0].startswith("strategies.py:"), sites
    assert sorted(repro.plan.__all__) == [
        "CachePredicate",
        "MinimalPlanGenerator",
        "ProviderSpec",
        "QueryPlan",
        "generate_minimal_plan",
    ]
    assert "_offer_fixpoint" in inspect.getsource(kernel)


def test_meta_cache_hits_cost_no_simulated_time() -> None:
    # Regression: a binding served from the meta-cache (e.g. enabled by two
    # occurrences of one relation) must not occupy a latency slot of the
    # simulation — the makespan of a parallel schedule can never exceed
    # running the same accesses back to back.
    chain = chain_example(length=2, width=3)
    query = "q(X2) <- free(X0, X1), s1(X1, X2, A), s1(X1, Y2, B)"
    with Engine(chain.schema, chain.instance, latency=0.01) as engine:
        result = engine.execute(query, strategy="distillation", share_session_cache=False)
    raw = result.raw
    assert raw.total_time <= raw.sequential_time + 1e-9
    assert raw.sequential_time == pytest.approx(0.01 * result.total_accesses)


def test_duplicate_occurrence_bindings_hit_the_meta_cache_once() -> None:
    # Two atoms over one relation can enable the same access tuple; the
    # runtime gate serves the second occurrence from the meta-cache in
    # every strategy, so the source is touched exactly once per binding.
    chain = chain_example(length=2, width=3)
    query = "q(X2) <- free(X0, X1), s1(X1, X2, A), s1(X1, Y2, B)"
    for strategy in ("fast_fail", "distillation"):
        with Engine(chain.schema, chain.instance) as engine:
            result = engine.execute(query, strategy=strategy, share_session_cache=False)
            assert result.accesses_of("s1") == 3, strategy
