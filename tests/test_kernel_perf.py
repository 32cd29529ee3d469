"""Hot-path complexity guards for the kernel's delta machinery.

These tests pin the O(delta) contracts that keep large fixpoints cheap:
:class:`~repro.plan.bindings.DeltaProduct` and
:class:`~repro.plan.bindings.CacheBindingGenerator` must touch work
proportional to the *new* values of a pass, not to the accumulated state —
measured with counting backends at 10^4-value scale — and the dispatcher's
batched same-tick delivery must preserve the kernel's monotone completion
clock (the kernel raises if a completion arrives out of clock order).
"""

from __future__ import annotations

from collections import Counter
from typing import Set

import pytest

from repro.engine import Engine
from repro.examples import (
    chain_example,
    deep_cycle_example,
    wide_fanout_example,
    zipf_fanout_example,
)
from repro.model.schema import Schema
from repro.plan.bindings import CacheBindingGenerator, DeltaProduct
from repro.plan.plan import CachePredicate, ProviderSpec
from repro.runtime import profile as profile_module
from repro.runtime.profile import KernelProfile
from repro.sources.backend import SourceBackend
from repro.sources.cache import CacheDatabase, CacheTable
from repro.sources.resilience import BreakerConfig, TransientSourceError
from repro.sources.wrapper import SourceRegistry
from support.ucq import ucq_fanout_workload


class CountingList(list):
    """A list that counts how many elements are read through it.

    Integer indexing counts one touch; slice reads count one touch per
    element returned.  ``len()`` is free, matching the O(1) watermark
    comparisons the delta machinery is allowed to make.
    """

    def __init__(self, *args: object) -> None:
        super().__init__(*args)
        self.touches = 0

    def __getitem__(self, key):  # type: ignore[override]
        result = super().__getitem__(key)
        if isinstance(key, slice):
            self.touches += len(result)
        else:
            self.touches += 1
        return result


# -- DeltaProduct ------------------------------------------------------------


def test_delta_product_unary_pass_cost_is_o_delta_at_10k() -> None:
    stream = CountingList(range(10_000))
    product = DeltaProduct([stream])

    first = list(product.fresh())
    assert len(first) == 10_000

    stream.touches = 0
    stream.extend(range(10_000, 10_005))
    delta = list(product.fresh())
    assert delta == [(v,) for v in range(10_000, 10_005)]
    # The pass read only the five new values, not the 10^4 accumulated ones.
    assert stream.touches <= 5


def test_delta_product_binary_pass_cost_is_o_new_tuples() -> None:
    left = CountingList(f"l{i}" for i in range(100))
    right = CountingList(range(100))
    product = DeltaProduct([left, right])

    first = list(product.fresh())
    assert len(first) == 10_000  # the full 100 x 100 product once

    left.touches = right.touches = 0
    left.append("l100")
    delta = list(product.fresh())
    assert len(delta) == 100  # the new left value against every right value
    assert set(delta) == {("l100", v) for v in range(100)}
    # Work is charged to the 100 new tuples (2 coordinates each), never to
    # a rescan of the 10^4 existing ones.
    assert left.touches + right.touches <= 2 * len(delta) + 4

    # A pass with no new values is O(1): only length checks, no reads.
    left.touches = right.touches = 0
    assert list(product.fresh()) == []
    assert left.touches + right.touches == 0


def test_delta_product_covers_product_exactly_once_under_interleaving() -> None:
    left: list = []
    right: list = []
    product = DeltaProduct([left, right])
    emitted: list = []
    for step in range(40):
        if step % 2 == 0:
            left.append(f"l{step}")
        if step % 3 == 0:
            right.append(step)
        emitted.extend(product.fresh())
    assert len(emitted) == len(set(emitted)) == len(left) * len(right)
    assert set(emitted) == {(lv, rv) for lv in left for rv in right}


# -- CacheBindingGenerator ---------------------------------------------------


def _fan_generator() -> tuple:
    """A fan cache fed from a seed cache's output position, on a fresh db."""
    schema = Schema.from_signatures(
        {"seed": ("oo", ["A", "B"]), "fan": ("ioo", ["B", "C", "D"])}
    )
    db = CacheDatabase()
    db.create_cache("seed_hat", schema["seed"], position=1)
    cache = CachePredicate(
        name="fan_hat",
        source_id="fan#1",
        relation=schema["fan"],
        occurrence=1,
        atom_index=1,
        position=2,
        providers=(
            ProviderSpec(
                cache_name="fan_hat",
                input_position=0,
                predicate="dom_fan_0",
                conjunctive=False,
                origins=(("seed_hat", 1),),
            ),
        ),
    )
    db.create_cache("fan_hat", schema["fan"], position=2)
    return CacheBindingGenerator(cache, cache.providers, db), db.cache("seed_hat")


def test_binding_generator_reads_only_the_provider_log_delta_at_10k() -> None:
    generator, seed_table = _fan_generator()

    # Make the origin's value log a counting backend, then feed 10^4 rows.
    # (A value log exists once somebody has asked for it.)
    counting = CountingList(seed_table.value_log(1))
    seed_table._value_logs[1] = counting
    seed_table.add_all(("k", f"v{i}") for i in range(10_000))

    first = list(generator.fresh_bindings())
    assert len(first) == 10_000
    assert set(first) == {(f"v{i}",) for i in range(10_000)}

    counting.touches = 0
    seed_table.add_all(("k", f"w{i}") for i in range(10))
    delta = list(generator.fresh_bindings())
    assert set(delta) == {(f"w{i}",) for i in range(10)}
    # The pull read only the ten new log entries, not the 10^4 old ones.
    assert counting.touches <= 10

    # A quiescent pass reads nothing at all.
    counting.touches = 0
    assert list(generator.fresh_bindings()) == []
    assert counting.touches == 0


def test_binding_generator_never_reissues_a_binding() -> None:
    generator, seed_table = _fan_generator()
    issued: list = []
    for batch in range(50):
        seed_table.add_all((f"k{batch}", f"v{batch}_{i}") for i in range(20))
        issued.extend(generator.fresh_bindings())
    assert len(issued) == len(set(issued)) == 50 * 20


# -- batched delivery vs. the monotone clock ---------------------------------


def test_batched_tick_delivery_preserves_monotone_clock() -> None:
    """Same-tick completions are delivered in batches without ever letting
    the kernel's clock run backwards (the kernel raises if it does)."""
    example = wide_fanout_example()
    with Engine(example.schema, example.instance, latency=0.01) as engine:
        result = engine.execute(example.query_text, strategy="distillation")
    assert result.answers == example.expected_answers

    # The uniform latency makes whole fan-out waves finish on the same
    # simulated tick: batching must actually kick in...
    profile = result.kernel_profile
    assert profile is not None
    assert profile.completions >= result.total_accesses
    assert profile.completion_batches <= profile.completions
    assert profile.max_batch > 1
    # ...and the access log, written in delivery order, must carry
    # non-decreasing completion times (the monotone-clock invariant).
    times = [record.simulated_time for record in result.access_log]
    assert times == sorted(times)


def test_kernel_profile_phases_cover_the_run() -> None:
    example = wide_fanout_example()
    with Engine(example.schema, example.instance) as engine:
        result = engine.execute(example.query_text, strategy="distillation")
        stats = engine.session_stats()
    profile = result.kernel_profile
    assert profile is not None
    assert profile.runs == 1
    assert profile.offer_passes > 0 and profile.dispatch_steps > 0
    assert profile.answer_checks == profile.incremental_checks + profile.full_checks
    payload = profile.to_dict()
    assert set(payload["timings_seconds"]) == {
        "offer",
        "dispatch",
        "absorb",
        "answer_check",
        "fast_fail",
    }
    # The session aggregates per-run profiles under stats()["kernel"].
    assert stats["kernel"]["runs"] >= 1
    assert stats["kernel"]["counters"]["completions"] >= result.total_accesses


def test_kernel_profile_starts_at_zero_and_merges_every_field() -> None:
    # ``__init__`` and ``merge`` name the fields one by one; this keeps them
    # in step with the field list ``to_dict`` and ``__slots__`` are built from.
    fields = profile_module._TIMINGS + profile_module._COUNTERS
    run, total = KernelProfile(), KernelProfile()
    for value, name in enumerate(fields, start=1):
        assert getattr(total, name) == 0
        setattr(run, name, value)
    run.max_batch = 7
    total.merge(run)
    total.merge(run)
    assert [getattr(total, name) for name in fields] == [2 * v for v in range(1, len(fields) + 1)]
    assert (total.runs, total.max_batch) == (3, 7)
    assert set(KernelProfile.__slots__) == set(fields) | {"runs", "max_batch"}


def test_fast_fail_checks_count_the_prefix_tests_performed() -> None:
    chain = chain_example(length=3, width=4)
    with Engine(chain.schema, chain.instance) as engine:
        prepared = engine.plan(chain.query_text)
        positions = prepared.plan.positions()
        tested = prepared.execute(strategy="fast_fail").kernel_profile
        untested = prepared.execute(strategy="fast_fail", fast_fail=False).kernel_profile
        eager = prepared.execute(strategy="distillation").kernel_profile
        kernel = engine.session_stats()["kernel"]
    # free, s1, s2, s3 sit at one position each: one test per boundary with
    # a populated prefix — none before the first phase, none after the last.
    assert len(positions) == 4
    assert tested.fast_fail_checks == len(positions) - 1
    assert tested.fast_fail_seconds > 0.0
    assert untested.fast_fail_checks == 0 and eager.fast_fail_checks == 0
    assert kernel["counters"]["fast_fail_checks"] == len(positions) - 1
    assert any("fast-fail" in line and "3 tests" in line for line in tested.describe())


# -- what a distillation tick costs: counted, not timed -------------------------


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Counts ``fresh_bindings`` (by cache) and ``index_for`` (by table and
    position group) calls made while the test runs."""
    counted: Counter = Counter()
    fresh_bindings, index_for = CacheBindingGenerator.fresh_bindings, CacheTable.index_for

    def counting_fresh_bindings(self):
        counted["fresh_bindings", self.cache.name] += 1
        return fresh_bindings(self)

    def counting_index_for(self, positions):
        counted["index_for", self.name, positions] += 1
        return index_for(self, positions)

    monkeypatch.setattr(CacheBindingGenerator, "fresh_bindings", counting_fresh_bindings)
    monkeypatch.setattr(CacheTable, "index_for", counting_index_for)
    return counted


def _total(calls: Counter, kind: str) -> int:
    return sum(count for key, count in calls.items() if key[0] == kind)


@pytest.mark.parametrize("width, fanout", [(6, 5), (36, 28)])
def test_an_offer_pass_visits_only_caches_a_completion_could_have_enabled(
    calls: Counter, width: int, fanout: int
) -> None:
    example = wide_fanout_example(width, fanout)
    with Engine(example.schema, example.instance, latency=0.01) as engine:
        prepared = engine.plan(example.query_text)
        result = prepared.execute(strategy="distillation")
    assert result.answers == example.expected_answers
    plan = prepared.plan
    caches = [cache for cache in plan.caches.values() if not cache.is_artificial]
    dependents = plan.compiled.dependents
    assert {name: sorted(found) for name, found in dependents.items()} == {
        "seed_hat_1": ["fan_hat_1"],
        "fan_hat_1": ["collect_hat_1"],
        "collect_hat_1": [],
    }
    # Every cache is looked at once to begin with; after that only a
    # completion that added a row to a table some provider draws on can
    # have enabled anything — one tick delivers several, so this is an upper
    # bound.  ``collect``'s completions (width × fanout of them, one tick
    # each at the parent: ticks × caches calls) provide to nobody.
    feeding = sum(
        1
        for record in result.access_log
        if record.rows
        and any(dependents[cache.name] for cache in caches if cache.relation.name == record.relation)
    )
    assert feeding == 1 + width
    assert result.kernel_profile.offer_passes > width * fanout  # one pass per tick, still
    assert len(caches) <= _total(calls, "fresh_bindings") <= feeding + len(caches)
    assert calls["fresh_bindings", "collect_hat_1"] <= 1 + width


def test_a_streamed_run_joins_each_row_once_and_never_evaluates_in_full(
    calls: Counter, monkeypatch
) -> None:
    # A distillation run checks for answers after every completion, or, with
    # a large interval, once at the end.  Either way it runs one incremental
    # join: no full evaluation, and the table probes and index builds are
    # those of building each partial solution once — the same however many
    # checks split the rows.
    class CountingIndex(dict):
        def get(self, key, default=None):
            calls["probe",] += 1
            return super().get(key, default)

    index_for = CacheTable.index_for

    def counting_index_for(self, positions):
        index = index_for(self, positions)
        if type(index) is dict:
            index = self._indexes[positions] = CountingIndex(index)
        return index

    monkeypatch.setattr(CacheTable, "index_for", counting_index_for)
    for width, fanout in [(4, 3), (36, 28)]:
        example = wide_fanout_example(width, fanout)
        counts = {}
        for interval in (1, 10**6):
            calls.clear()
            with Engine(example.schema, example.instance) as engine:
                prepared = engine.plan(example.query_text)
                result = prepared.execute(strategy="distillation", answer_check_interval=interval)
            assert result.answers == example.expected_answers
            profile = result.kernel_profile
            assert profile.full_checks == 0
            if interval == 1:
                assert profile.incremental_checks >= width * fanout
            else:
                assert profile.incremental_checks == 1
            counts[interval] = Counter(
                {key: count for key, count in calls.items() if key[0] in ("index_for", "probe")}
            )
        assert counts[1] == counts[10**6]
        # One index per probing step of the one program the run binds, built
        # once; a probe per partial solution that a next step extends.
        program = prepared.plan.compiled.full()
        probing = [
            (step.predicate, step.key_positions) for step in program.steps if step.key_positions
        ]
        assert len(probing) == 2
        assert {key[1:]: count for key, count in counts[1].items() if key[0] == "index_for"} == {
            step: 1 for step in probing
        }
        assert counts[1]["probe",] == width + width * fanout


class _FailsReads(SourceBackend):
    """Answers like ``inner``, except that the reads numbered in ``failing`` fail."""

    kind = "fails-reads"

    def __init__(self, inner: SourceBackend, failing: Set[int]) -> None:
        self.inner, self.schema, self.failing, self.reads = inner, inner.schema, failing, 0

    def lookup(self, binding):
        self.reads += 1
        if self.reads in self.failing:
            raise TransientSourceError(self.schema.name, binding, "scripted")
        return self.inner.lookup(binding)


def test_a_cache_skipped_for_an_open_breaker_stays_dirty_until_it_half_opens(
    calls: Counter,
) -> None:
    # free → s1 → s2 → s3, one binding each per row.  s1 answers a binding
    # every 10 ms, each enabling one of s2; s2's third and fourth reads fail
    # and open its breaker at t = 0.06 for 50 ms.  The bindings s1 delivers
    # until it drains (t = 0.09) are neither offered nor consumed, and from
    # then on the only completions are those of the slow s3 — which provides
    # to nobody, so nothing marks s2's cache again: it must have *stayed*
    # dirty to be offered its backlog at the first tick after the cool-down.
    chain = chain_example(length=3, width=8)
    registry = SourceRegistry(chain.instance, latency=0.01, per_relation_latency={"s3": 0.05})
    registry.wrapper("s2").backend = _FailsReads(registry.wrapper("s2").backend, {3, 4})
    with Engine(chain.schema, registry) as engine:
        result = engine.execute(
            chain.query_text,
            strategy="distillation",
            breaker=BreakerConfig(failure_threshold=2, cooldown=0.05),
        )
    assert result.failed_relations == ("s2",) and result.retry_stats.breaker_trips == 1
    assert result.retry_stats.short_circuited == 0  # held back at the offer, not refused
    log = [(str(record.access), round(record.simulated_time, 2)) for record in result.access_log]
    s2 = [entry for entry in log if entry[0].startswith("s2")]
    # The two failed reads are never logged (nor retried); the four bindings
    # held back go out together at t = 0.13, when s3's second read completes.
    assert s2 == [
        ("s2['v2_0']", 0.03),
        ("s2['v2_1']", 0.04),
        ("s2['v2_4']", 0.14),
        ("s2['v2_5']", 0.15),
        ("s2['v2_6']", 0.16),
        ("s2['v2_7']", 0.17),
    ]
    assert [entry[0] for entry in log if entry[0].startswith("s1")][-1] == "s1['v1_7']"
    assert ("s1['v1_7']", 0.09) in log and ("s3['v3_1']", 0.13) in log
    assert result.answers == {(f"v4_{i}",) for i in (0, 1, 4, 5, 6, 7)}
    # ... in one pull of s2's generator, not one per tick it was held back.
    assert calls["fresh_bindings", "s2_hat_1"] <= 6


# -- scale-tier scenario generators -------------------------------------------
# Each runs at a size that keeps tier-1 quick and, marked ``slow``, at the
# 10^4-tuple scale tier (``pytest -m slow``).

STRATEGIES = ("naive", "fast_fail", "distillation")


@pytest.mark.parametrize(
    "keys, fan_rows", [(10, 120), pytest.param(100, 3500, marks=pytest.mark.slow)]
)
def test_zipf_fanout_example_answers_match_across_strategies(keys: int, fan_rows: int) -> None:
    example = zipf_fanout_example(keys=keys, fan_rows=fan_rows)
    for strategy in STRATEGIES:
        with Engine(example.schema, example.instance) as engine:
            result = engine.execute(example.query_text, strategy=strategy)
        assert result.answers == example.expected_answers, strategy


@pytest.mark.parametrize("size", [200, pytest.param(10_000, marks=pytest.mark.slow)])
def test_deep_cycle_minimal_plan_skips_the_ring(size: int) -> None:
    example = deep_cycle_example(size=size, seeds=2, hops=3)
    results = {}
    for strategy in STRATEGIES:
        with Engine(example.schema, example.instance) as engine:
            results[strategy] = engine.execute(example.query_text, strategy=strategy)
        assert results[strategy].answers == example.expected_answers, strategy
    # The GFP proves the ring feedback unnecessary: the minimal plan walks
    # seeds + hops accesses while the naive baseline pumps the whole ring.
    assert results["fast_fail"].total_accesses <= 2 + 2 * 3
    assert results["naive"].total_accesses > example.instance.total_tuples() // 2


@pytest.mark.parametrize(
    "keys, fan_rows, branches", [(5, 40, 2), pytest.param(50, 2000, 4, marks=pytest.mark.slow)]
)
def test_ucq_workload_union_and_shared_prefix(keys: int, fan_rows: int, branches: int) -> None:
    ucq = ucq_fanout_workload(keys=keys, fan_rows=fan_rows, branches=branches)
    with Engine(ucq.schema, ucq.instance) as engine:
        union: set = set()
        per_branch = []
        for text in ucq.branch_queries:
            result = engine.execute(text, strategy="fast_fail")
            union |= result.answers
            per_branch.append(result.total_accesses)
    assert union == set(ucq.expected_union)
    # Branches after the first reuse the shared seed/fan prefix through the
    # session meta-caches instead of re-accessing the sources.
    assert all(later < per_branch[0] for later in per_branch[1:])
