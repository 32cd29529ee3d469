"""Property tests for the resilience primitives and the failure-aware runtime.

Covers the :class:`~repro.sources.resilience.CircuitBreaker` state machine,
:class:`~repro.sources.resilience.RetryPolicy` backoff pricing on the
simulated clock, the budget refund invariant under injected faults, the
deterministic :class:`~repro.sources.faults.FlakyBackend`, the honest
completeness contract on :class:`~repro.engine.result.Result`, and the
close-idempotence regression (double close / close after backend error).
"""

from __future__ import annotations

import pytest

from repro import Engine
from repro.examples import chaos_example, star_example
from repro.runtime.dispatch import SequentialDispatcher, SimulatedParallelDispatcher
from repro.runtime.kernel import AccessBudget, FixpointKernel
from repro.runtime.policy import EagerPlan, OrderedFastFail
from repro.sources.backend import SQLiteBackend
from repro.sources.cache import CacheDatabase
from repro.sources.faults import FaultSchedule, FlakyBackend, make_flaky
from repro.sources.log import AccessLog
from repro.sources.resilience import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    ResilienceConfig,
    RetryPolicy,
    SourceUnavailableError,
    TransientSourceError,
)
from repro.sources.wrapper import SourceRegistry


# -- RetryPolicy ----------------------------------------------------------------
def test_retry_backoff_grows_exponentially_and_caps() -> None:
    policy = RetryPolicy(max_attempts=6, base_delay=0.1, multiplier=2.0, max_delay=0.5)
    assert [policy.delay_before(n) for n in range(1, 6)] == pytest.approx(
        [0.1, 0.2, 0.4, 0.5, 0.5]
    )
    assert policy.total_backoff(3) == pytest.approx(0.7)
    assert policy.delay_before(0) == 0.0


def test_retry_policy_validates_parameters() -> None:
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)


# -- CircuitBreaker state machine -----------------------------------------------
class _ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_breaker_opens_after_threshold_consecutive_failures() -> None:
    clock = _ManualClock()
    breaker = CircuitBreaker(BreakerConfig(failure_threshold=3, cooldown=10.0), clock)
    for _ in range(2):
        assert breaker.try_acquire()
        breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.try_acquire()
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.trips == 1
    assert not breaker.try_acquire()
    assert breaker.blocked()


def test_breaker_success_resets_the_failure_count() -> None:
    clock = _ManualClock()
    breaker = CircuitBreaker(BreakerConfig(failure_threshold=2, cooldown=1.0), clock)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED  # never two *consecutive* failures


def test_breaker_half_open_probe_success_closes() -> None:
    clock = _ManualClock()
    breaker = CircuitBreaker(BreakerConfig(failure_threshold=1, cooldown=5.0), clock)
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    clock.now = 4.9
    assert not breaker.try_acquire()
    clock.now = 5.0
    # Cool-down elapsed: exactly one probe slot opens.
    assert breaker.try_acquire()
    assert breaker.state is BreakerState.HALF_OPEN
    assert not breaker.try_acquire()  # second concurrent probe denied
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.try_acquire()


def test_breaker_half_open_probe_failure_reopens() -> None:
    clock = _ManualClock()
    breaker = CircuitBreaker(BreakerConfig(failure_threshold=1, cooldown=5.0), clock)
    breaker.record_failure()
    clock.now = 6.0
    assert breaker.try_acquire()
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.trips == 2
    # The cool-down restarts from the reopen time.
    clock.now = 10.0
    assert not breaker.try_acquire()
    clock.now = 11.0
    assert breaker.try_acquire()


# -- FaultSchedule / FlakyBackend determinism -------------------------------------
def test_fault_schedule_is_deterministic_per_binding() -> None:
    schedule = FaultSchedule(seed=7, transient_rate=0.5, timeout_rate=0.2)
    plans = {schedule.plan_for("r", ("x",)) for _ in range(10)}
    assert len(plans) == 1  # same (seed, relation, binding) -> same plan
    other = FaultSchedule(seed=8, transient_rate=0.5, timeout_rate=0.2)
    sample = [schedule.plan_for("r", (f"v{i}",)) for i in range(64)]
    assert sample != [other.plan_for("r", (f"v{i}",)) for i in range(64)]


def test_flaky_backend_injects_then_recovers() -> None:
    example = star_example(rays=1, width=2)
    relation = example.instance["spoke1"]
    flaky = FlakyBackend(
        SQLiteBackend.from_instance(relation),
        FaultSchedule(seed=1, transient_rate=1.0, max_consecutive=1),
    )
    with pytest.raises(TransientSourceError):
        flaky.lookup(("h0",))
    # Second attempt at the same binding succeeds and matches the source.
    assert flaky.lookup(("h0",)) == relation.lookup(("h0",))
    flaky.close()
    flaky.close()  # idempotent, closes the inner SQLite connection once


def test_flaky_backend_outage_is_permanent() -> None:
    example = star_example(rays=1, width=4)
    flaky = FlakyBackend(
        SQLiteBackend.from_instance(example.instance["spoke1"]),
        FaultSchedule(seed=0, outage_after=2),
    )
    flaky.lookup(("h0",))
    flaky.lookup(("h1",))
    for binding in (("h2",), ("h0",)):
        with pytest.raises(SourceUnavailableError):
            flaky.lookup(binding)


def test_zero_rate_schedule_is_fault_free() -> None:
    assert FaultSchedule().fault_free
    assert not FaultSchedule(transient_rate=0.1).fault_free
    assert not FaultSchedule(outage_after=5).fault_free


# -- backoff pricing on the simulated clock ---------------------------------------
def test_retry_backoff_is_priced_through_the_sequential_clock() -> None:
    # Every binding fails exactly once, then succeeds: with latency L and
    # one retry after delay D, each access costs 2L + D of simulated time.
    example = star_example(rays=1, width=3, selectivity=1.0)
    latency = 0.01
    delay = 0.05
    registry = SourceRegistry(example.instance, latency=latency)
    registry.inject_faults(FaultSchedule(seed=2, transient_rate=1.0, max_consecutive=1))
    with Engine(example.schema, registry) as engine:
        result = engine.execute(
            example.query_text,
            strategy="fast_fail",
            share_session_cache=False,
            retry=RetryPolicy(max_attempts=2, base_delay=delay, multiplier=1.0),
        )
    assert result.complete and result.answers == example.expected_answers
    times = [record.simulated_time for record in result.access_log]
    assert times == sorted(times)
    deltas = [b - a for a, b in zip([0.0] + times, times)]
    assert deltas == pytest.approx([2 * latency + delay] * len(deltas))
    assert result.retry_stats.retries == len(times)
    assert result.retry_stats.backoff_seconds == pytest.approx(delay * len(times))


def test_simulated_parallel_prices_backoff_and_stays_monotone() -> None:
    example = star_example(rays=3, width=6)
    registry = SourceRegistry(example.instance, latency=0.01)
    registry.inject_faults(FaultSchedule(seed=5, transient_rate=0.4, max_consecutive=2))
    with Engine(example.schema, registry) as engine:
        result = engine.execute(
            example.query_text,
            strategy="distillation",
            share_session_cache=False,
            retry=RetryPolicy(max_attempts=3, base_delay=0.02),
        )
    assert result.complete and result.answers == example.expected_answers
    times = [record.simulated_time for record in result.access_log]
    # The kernel enforces monotone absorption; the log must reflect it even
    # when retries stretch accesses beyond their scheduled event slots.
    assert times == sorted(times)
    assert result.retry_stats.retries > 0
    raw = result.raw
    assert raw.sequential_time >= raw.total_time > 0


# -- budget refund invariant -------------------------------------------------------
def _run_kernel_with_faults(schedule: FaultSchedule, retry: RetryPolicy | None):
    example = star_example(rays=2, width=4)
    registry = SourceRegistry(example.instance)
    registry.inject_faults(schedule)
    with Engine(example.schema, registry) as engine:
        plan = engine.plan(example.query_text).plan
    policy = OrderedFastFail(plan, CacheDatabase(), fast_fail=False)
    log = AccessLog()
    kernel = FixpointKernel(
        policy,
        SequentialDispatcher(registry, log, AccessBudget(None)),
        resilience=ResilienceConfig(retry=retry),
    )
    kernel.run()
    return kernel, log


@pytest.mark.parametrize("rate", [0.0, 0.3, 0.8])
def test_budget_refund_invariant_under_faults(rate: float) -> None:
    # Every grant is either consumed by a recorded access or refunded:
    # total_granted - refunded == accesses in the log, at any fault rate.
    kernel, log = _run_kernel_with_faults(
        FaultSchedule(seed=11, transient_rate=rate, max_consecutive=2),
        RetryPolicy(max_attempts=2, base_delay=0.0),
    )
    budget = kernel.budget
    assert budget.total_granted - budget.refunded == log.total_accesses
    stats = kernel.resilience.stats
    assert stats.refunded == stats.failures  # sequential path: one grant per failure


def test_budget_denial_delivers_parked_retry_completions() -> None:
    # Regression: every access retries once (so every counted completion is
    # parked in the event heap at its backoff-extended finish time) and the
    # budget runs dry mid-run.  Accesses already performed and charged must
    # still be logged and absorbed — never dropped with the heap — so the
    # refund invariant holds and the log matches the budget exactly.
    example = star_example(rays=2, width=2)
    for budget_limit in (1, 2, 3, 4):
        registry = SourceRegistry(example.instance, latency=0.01)
        registry.inject_faults(
            FaultSchedule(seed=29, transient_rate=1.0, max_consecutive=1)
        )
        with Engine(example.schema, registry) as engine:
            plan = engine.plan(example.query_text).plan
        policy = EagerPlan(plan, CacheDatabase())
        log = AccessLog()
        kernel = FixpointKernel(
            policy,
            SimulatedParallelDispatcher(
                registry, log, AccessBudget(budget_limit), policy.plan_relations()
            ),
            resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=2, base_delay=0.02)),
        )
        outcome = kernel.run()
        budget = kernel.budget
        assert budget.total_granted - budget.refunded == log.total_accesses
        assert log.total_accesses == budget_limit, (
            f"budget {budget_limit}: paid-for accesses were dropped from the log"
        )
        assert outcome.budget_exhausted
        # Every logged access's rows reached the meta-cache (nothing recorded short).
        for record in log:
            meta = policy.cache_db.meta_cache(plan.schema[record.relation])
            assert meta.lookup(record.access.binding) == record.rows


def test_failed_access_does_not_consume_the_budget() -> None:
    # Failures are refunded, so a budget of N still funds N *successful*
    # accesses even when earlier attempts permanently failed.
    example = star_example(rays=1, width=2)
    registry = SourceRegistry(example.instance)
    registry.inject_faults(FaultSchedule(seed=3, transient_rate=1.0, max_consecutive=3))
    with Engine(example.schema, registry) as engine:
        result = engine.execute(
            example.query_text,
            strategy="distillation",
            share_session_cache=False,
            max_accesses=3,
        )
    assert not result.complete
    assert result.termination.value == "source_failure"
    assert result.total_accesses <= 3


# -- honest completeness through the engine ---------------------------------------
@pytest.mark.parametrize("strategy", ["naive", "fast_fail", "distillation"])
@pytest.mark.parametrize("rate", [0.1, 0.3])
def test_faulty_runs_always_return_and_flag_completeness(strategy: str, rate: float) -> None:
    example = chaos_example(width=6, rays=2)
    registry = SourceRegistry(example.instance)
    # make_flaky is the module-level alias for registry.inject_faults.
    make_flaky(registry, FaultSchedule(seed=13, transient_rate=rate, timeout_rate=rate / 3))
    with Engine(example.schema, registry) as engine:
        result = engine.execute(
            example.query_text,
            strategy=strategy,
            share_session_cache=False,
            retry=RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01),
            breaker=BreakerConfig(failure_threshold=4, cooldown=0.05),
        )
    # No unhandled exception, and the completeness flag is sound: complete
    # implies the fault-free answers; diverging answers imply incomplete.
    assert result.answers <= example.expected_answers
    if result.complete:
        assert result.answers == example.expected_answers
        assert not result.failed_relations
    if result.answers != example.expected_answers:
        assert not result.complete
        assert result.failed_relations


def test_open_breaker_short_circuits_and_excludes_the_relation() -> None:
    # One spoke is permanently down with no retries: the breaker opens
    # after `failure_threshold` failures and short-circuits the rest.
    example = star_example(rays=2, width=8)
    registry = SourceRegistry(example.instance)
    registry.wrapper("spoke1").backend = FlakyBackend(
        registry.wrapper("spoke1").backend,
        FaultSchedule(seed=0, transient_rate=1.0, max_consecutive=10),
    )
    with Engine(example.schema, registry) as engine:
        result = engine.execute(
            example.query_text,
            strategy="distillation",
            share_session_cache=False,
            breaker=BreakerConfig(failure_threshold=3, cooldown=1000.0),
        )
    assert not result.complete
    assert result.failed_relations == ("spoke1",)
    stats = result.retry_stats
    assert stats.breaker_trips >= 1
    assert stats.short_circuited >= 1
    # The healthy spoke was fully drained regardless.
    assert result.accesses_of("spoke2") == 8


def test_fast_fail_under_source_failure_reports_failure_not_emptiness() -> None:
    # When a needed source dies, the fast-failing strategy must not
    # masquerade the missing data as a proven-empty (complete) answer.
    example = star_example(rays=2, width=4)
    registry = SourceRegistry(example.instance)
    registry.wrapper("spoke1").backend = FlakyBackend(
        registry.wrapper("spoke1").backend, FaultSchedule(seed=0, outage_after=0)
    )
    with Engine(example.schema, registry) as engine:
        result = engine.execute(
            example.query_text, strategy="fast_fail", share_session_cache=False
        )
    assert not result.complete
    assert result.termination.value == "source_failure"
    assert "spoke1" in result.failed_relations


# -- close idempotence regression ---------------------------------------------------
def test_sqlite_backend_double_close_is_a_noop() -> None:
    example = star_example(rays=1, width=2)
    backend = SQLiteBackend.from_instance(example.instance["spoke1"])
    assert backend.lookup(("h0",))
    backend.close()
    backend.close()  # second close must not raise
    from repro.exceptions import AccessError

    with pytest.raises(AccessError):
        backend.lookup(("h0",))  # closed backends fail loudly, not cryptically


def test_engine_close_is_idempotent_after_backend_error() -> None:
    example = star_example(rays=1, width=2)
    registry = SourceRegistry(example.instance, backend="sqlite")
    registry.inject_faults(FaultSchedule(seed=0, outage_after=1))
    engine = Engine(example.schema, registry)
    result = engine.execute(example.query_text, share_session_cache=False)
    assert not result.complete  # the outage hit mid-query
    engine.close()
    engine.close()  # double close after a backend error: no-op


def test_registry_close_survives_a_broken_backend() -> None:
    example = star_example(rays=1, width=2)
    registry = SourceRegistry(example.instance, backend="sqlite")

    class ExplodingBackend(FlakyBackend):
        def close(self) -> None:
            raise RuntimeError("boom")

    registry.wrapper("hub").backend = ExplodingBackend(
        registry.wrapper("hub").backend, FaultSchedule()
    )
    registry.close()  # must not raise, and must close the other backends
    with pytest.raises(Exception):
        registry.wrapper("spoke1").backend.lookup(("h0",))
