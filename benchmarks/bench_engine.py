"""Benchmark: strategies × backends × scenario topologies.

Runs the engine over the scenario-generator library
(:mod:`repro.examples`): growing chain instances, a wide-fanout instance
whose middle tier accumulates ~1000 provider values, and the star,
diamond, skewed-fanout and cyclic topologies — and emits
``BENCH_engine.json`` with, per workload and strategy: number of source
accesses, wall-clock seconds, and simulated access latency.  The chain
workloads include irrelevant ``junk`` relations, so the access-count gap
between naive and the plan-based strategies is the quantity the paper's
optimization is about (Figure 6); the wide/skewed fanout workloads stress
binding generation and the event loop; the cycle workload stresses the
fixpoint over a cyclic d-graph.

The run doubles as an equivalence suite:

* every strategy's answer set is checked against the workload's expected
  answers, so any cross-strategy divergence fails the run;
* a backend-equivalence pass executes one workload across the in-memory,
  SQLite and callable source backends and asserts that every strategy
  returns identical answers *and access counts* on all three;
* a concurrency-equivalence pass runs the distillation strategy with
  ``concurrency="async"`` (genuinely overlapping accesses against a
  latency-injecting callable backend) and asserts its answers and access
  count match the deterministic simulation's;
* a multi-query throughput pass replays a mixed scenario stream over one
  engine session, sequentially and with ``Engine.execute_many``
  concurrency, reporting QPS and the session meta-cache hit rate and
  asserting that concurrent answers/access counts are deterministic;
* a serving pass starts the HTTP front end (:mod:`repro.serve`)
  in-process and drives it with the open-loop load generator — healthy
  (zero errors, zero degraded) and fault-injected (zero 5xx, positive
  degraded rate, zero complete-but-wrong answers) — recording latency
  percentiles and goodput in the report's ``serving`` section.

``--smoke`` runs the two smallest chain workloads plus all the
equivalence/throughput passes — the CI benchmark-smoke job.

``--scale`` adds the 10⁴-tuple scenario tier (zipf-skewed fanout, a deep
cyclic ring, and a UCQ workload executed branch-by-branch through one
engine session) to the report's ``scale`` section.  The full report also
carries a ``kernel_profile`` section: the runtime kernel's per-phase
timings (offer / dispatch / absorb / answer-check) on the wide-fanout
workload, with the distillation-vs-fast_fail wall ratio asserted within
budget at identical answers and access counts.

The ``plan_reuse`` section times ``Engine.plan`` on a keyed template mix,
cold (every shape planned for the first time) against warm (every shape
already in the engine's plan cache), and gates warm at least 5x faster.

``--perf-smoke`` is the CI performance gate: just the wall-ratio
assertion (the same 3x budget as the full run), the ``plan_reuse``
gate and one scale smoke workload — seconds, not minutes, suitable for
running under ``timeout``.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--output BENCH_engine.json]
        [--smoke] [--scale] [--perf-smoke]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Engine  # noqa: E402
from repro.examples import (  # noqa: E402
    Example,
    chain_example,
    chaos_example,
    cyclic_example,
    deep_cycle_example,
    diamond_example,
    empty_branch_example,
    mixed_workload,
    running_example,
    skewed_fanout_example,
    star_example,
    ucq_fanout_workload,
    wide_fanout_example,
    zipf_fanout_example,
)
from repro.sources.faults import FaultSchedule  # noqa: E402
from repro.sources.resilience import BreakerConfig, RetryPolicy  # noqa: E402
from repro.sources.fixture_server import FixtureServer  # noqa: E402
from repro.sources.wrapper import SourceRegistry  # noqa: E402

#: (length, width) of the generated chains, in growing total-tuple order.
CHAIN_CONFIGURATIONS = [(2, 4), (3, 8), (4, 12), (5, 16), (6, 24)]

#: Simulated per-access latency charged by the wrappers.
ACCESS_LATENCY = 0.01

#: Completed accesses between incremental answer checks (distillation).
ANSWER_CHECK_INTERVAL = 25

#: Real injected latency per lookup in the real-concurrency pass; small
#: enough to keep the run fast, large enough that overlap is measurable.
REAL_BACKEND_LATENCY = 0.002

STRATEGIES = ("naive", "fast_fail", "distillation")

BACKENDS = ("memory", "sqlite", "callable")


def bench_one(example: Example) -> Dict[str, object]:
    entry: Dict[str, object] = {
        "workload": example.name,
        "total_tuples": example.instance.total_tuples(),
        "strategies": {},
    }
    for strategy in STRATEGIES:
        with Engine(example.schema, example.instance, latency=ACCESS_LATENCY) as engine:
            started = time.perf_counter()
            result = engine.execute(
                example.query_text,
                strategy=strategy,
                share_session_cache=False,
                answer_check_interval=ANSWER_CHECK_INTERVAL,
            )
            wall = time.perf_counter() - started
        assert result.answers == example.expected_answers, (
            f"{strategy} returned wrong answers on {example.name}"
        )
        record = {
            "accesses": result.total_accesses,
            "wall_seconds": round(wall, 6),
            "simulated_latency": round(result.simulated_latency, 6),
            "answers": len(result.answers),
        }
        if result.time_to_first_answer is not None:
            record["time_to_first_answer"] = round(result.time_to_first_answer, 6)
        entry["strategies"][strategy] = record  # type: ignore[index]
    naive = entry["strategies"]["naive"]["accesses"]  # type: ignore[index]
    fast = entry["strategies"]["fast_fail"]["accesses"]  # type: ignore[index]
    entry["access_ratio"] = round(naive / fast, 3) if fast else None
    return entry


def bench_backends(example: Example) -> Dict[str, object]:
    """Every strategy over every backend: identical answers and access counts."""
    entry: Dict[str, object] = {"workload": example.name, "backends": {}}
    baseline: Dict[str, int] = {}
    for backend in BACKENDS:
        per_strategy: Dict[str, object] = {}
        for strategy in STRATEGIES:
            with Engine(example.schema, example.instance, backend=backend) as engine:
                started = time.perf_counter()
                result = engine.execute(
                    example.query_text, strategy=strategy, share_session_cache=False
                )
                wall = time.perf_counter() - started
            assert result.answers == example.expected_answers, (
                f"{strategy} on backend {backend} returned wrong answers on {example.name}"
            )
            if strategy in baseline:
                assert result.total_accesses == baseline[strategy], (
                    f"{strategy} made {result.total_accesses} accesses on backend "
                    f"{backend} but {baseline[strategy]} on memory ({example.name})"
                )
            else:
                baseline[strategy] = result.total_accesses
            per_strategy[strategy] = {
                "accesses": result.total_accesses,
                "wall_seconds": round(wall, 6),
            }
        entry["backends"][backend] = per_strategy  # type: ignore[index]
    entry["equivalent"] = True
    return entry


def bench_real_concurrency(example: Example) -> Dict[str, object]:
    """Genuinely overlapping distillation (``concurrency="async"`` over a
    slow callable backend) vs the simulation: identical answers and
    accesses, with the overlap it achieved."""
    with Engine(example.schema, example.instance) as sim_engine:
        simulated = sim_engine.execute(
            example.query_text, strategy="distillation", share_session_cache=False
        )
    registry = SourceRegistry(
        example.instance, backend="callable", real_latency=REAL_BACKEND_LATENCY
    )
    with Engine(example.schema, registry) as engine:
        started = time.perf_counter()
        result = engine.execute(
            example.query_text,
            strategy="distillation",
            share_session_cache=False,
            concurrency="async",
            max_in_flight=8,
        )
        wall = time.perf_counter() - started
    assert result.answers == simulated.answers == example.expected_answers, (
        f"async distillation diverged from the simulation on {example.name}"
    )
    assert result.total_accesses == simulated.total_accesses, (
        f"async distillation performed {result.total_accesses} accesses, the "
        f"simulation {simulated.total_accesses}, on {example.name}"
    )
    raw = result.raw
    return {
        "workload": example.name,
        "backend_latency": REAL_BACKEND_LATENCY,
        "concurrency": "async",
        "accesses": result.total_accesses,
        "wall_seconds": round(wall, 6),
        "makespan_seconds": round(raw.total_time, 6),
        "sequential_seconds": round(raw.sequential_time, 6),
        "parallel_speedup": round(raw.parallel_speedup, 3),
        "matches_simulated": True,
    }


#: Real per-lookup latency injected in the multi-query throughput pass —
#: large enough that concurrent queries genuinely overlap.
WORKLOAD_BACKEND_LATENCY = 0.002

#: Scenario mix replayed by the multi-query throughput pass.
WORKLOAD_MIX = ("star", "diamond", "chain")


def bench_workload_throughput() -> Dict[str, object]:
    """Multi-query throughput over one shared engine session.

    Replays a mixed scenario stream sequentially (``max_parallel=1``) and
    concurrently (``max_parallel=4``) over a latency-injecting callable
    backend, reporting QPS and the session meta-cache hit rate.  The
    concurrent run is repeated to assert that answers and access counts
    are deterministic — the session's claim protocol guarantees no access
    is ever performed twice, no matter how the threads interleave.
    """
    workload = mixed_workload(WORKLOAD_MIX, repeat=2)
    entry: Dict[str, object] = {"workload": workload.name, "runs": {}}
    observed: Dict[int, Dict[str, object]] = {}
    for max_parallel in (1, 4, 4):
        registry = SourceRegistry(
            workload.instance, backend="callable", real_latency=WORKLOAD_BACKEND_LATENCY
        )
        with Engine(workload.schema, registry) as engine:
            report = engine.run_workload(
                workload.query_texts(), strategy="fast_fail", max_parallel=max_parallel
            )
        for query, result in zip(workload.queries, report.results):
            assert result.answers == query.expected_answers, (
                f"workload query {query.scenario!r} returned wrong answers "
                f"at max_parallel={max_parallel}"
            )
        record = {
            "qps": round(report.qps, 3),
            "wall_seconds": round(report.wall_seconds, 6),
            "total_accesses": report.total_accesses,
            "meta_hits": report.meta_hits,
            "hit_rate": round(report.hit_rate, 4),
            "peak_in_flight": report.peak_in_flight,
        }
        if max_parallel in observed:
            # Determinism across runs: concurrent interleavings must not
            # change what was accessed.
            previous = observed[max_parallel]
            assert record["total_accesses"] == previous["total_accesses"], (
                "concurrent workload access counts diverged between runs"
            )
            assert record["meta_hits"] == previous["meta_hits"], (
                "concurrent workload meta-hit counts diverged between runs"
            )
        else:
            observed[max_parallel] = record
            entry["runs"][f"max_parallel_{max_parallel}"] = record  # type: ignore[index]
    parallel_run = observed[4]
    assert parallel_run["peak_in_flight"] > 1, (
        "expected more than one query in flight at max_parallel=4"
    )
    assert observed[1]["total_accesses"] == parallel_run["total_accesses"], (
        "concurrent workload made different accesses than the sequential replay"
    )
    entry["queries"] = len(workload.queries)
    entry["backend_latency"] = WORKLOAD_BACKEND_LATENCY
    entry["deterministic"] = True
    entry["speedup"] = round(
        observed[1]["wall_seconds"] / parallel_run["wall_seconds"], 3
    )
    return entry


#: Zero-fault overhead measurement: repeats per variant (min is reported —
#: the standard stable estimator for microbenchmark wall times).
OVERHEAD_REPEATS = 7

#: The resilience layer at zero fault rate must cost < this fraction of
#: wall time (and must change no answers and no access counts).
OVERHEAD_BUDGET = 0.05

#: Retry policy used in the fault-injection passes (zero real backoff so
#: the goodput measurement is about coverage, not sleeping).  Three
#: attempts against fault bursts of up to three: most accesses recover,
#: the unlucky tail permanently fails — so the pass measures goodput of
#: genuinely partial results, not just retry coverage.
FAULT_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)

FAULT_BREAKER = BreakerConfig(failure_threshold=8, cooldown=0.05)


def _fault_registry(example: Example, schedule: FaultSchedule) -> SourceRegistry:
    registry = SourceRegistry(example.instance)
    registry.inject_faults(schedule)
    return registry


def _min_wall(run, repeats: int = OVERHEAD_REPEATS) -> tuple:
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return best, result


def bench_fault_tolerance() -> Dict[str, object]:
    """Overhead of the resilience wrapper at zero faults, goodput under faults.

    *Overhead*: the same workload with and without the full resilience
    stack (FlakyBackend at all-zero rates + retry + timeout + breaker
    knobs on) must produce identical answers and access counts, and cost
    less than :data:`OVERHEAD_BUDGET` extra wall time.

    *Goodput*: under 10–30% transient faults with retries, every strategy
    must return a result (no unhandled exception) whose completeness flag
    is honest — ``complete`` iff the answers equal the fault-free run's.
    """
    example = chaos_example(width=10, rays=3)
    entry: Dict[str, object] = {"workload": example.name}

    # -- zero-fault overhead ------------------------------------------------
    # Measured on a workload big enough that per-access work dominates the
    # wall time (the resilience cost is per access, so tiny runs only
    # measure planning noise).
    overhead_example = wide_fanout_example(width=12, fanout=12)

    def run_plain():
        with Engine(overhead_example.schema, overhead_example.instance) as engine:
            return engine.execute(
                overhead_example.query_text,
                strategy="fast_fail",
                share_session_cache=False,
            )

    def run_wrapped():
        registry = _fault_registry(overhead_example, FaultSchedule(seed=0))  # zero rates
        with Engine(overhead_example.schema, registry) as engine:
            return engine.execute(
                overhead_example.query_text,
                strategy="fast_fail",
                share_session_cache=False,
                retry=RetryPolicy(max_attempts=3, base_delay=0.001),
                timeout=30.0,
                breaker=BreakerConfig(failure_threshold=3, cooldown=1.0),
            )

    # Warm up both paths once; best-of-N, re-measured on a noisy outlier.
    run_plain(), run_wrapped()
    for measurement in range(3):
        plain_wall, plain = _min_wall(run_plain)
        wrapped_wall, wrapped = _min_wall(run_wrapped)
        overhead = wrapped_wall / plain_wall - 1 if plain_wall > 0 else 0.0
        if overhead < OVERHEAD_BUDGET:
            break
    assert plain.answers == wrapped.answers == overhead_example.expected_answers
    assert plain.total_accesses == wrapped.total_accesses, (
        "zero-fault resilience changed the access count"
    )
    assert wrapped.complete and not wrapped.failed_relations
    assert overhead < OVERHEAD_BUDGET, (
        f"resilience wrapper costs {overhead:.1%} at zero fault rate "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )
    entry["zero_fault_overhead"] = {
        "workload": overhead_example.name,
        "strategy": "fast_fail",
        "plain_wall_seconds": round(plain_wall, 6),
        "wrapped_wall_seconds": round(wrapped_wall, 6),
        "overhead_fraction": round(max(overhead, 0.0), 4),
        "budget_fraction": OVERHEAD_BUDGET,
        "accesses": plain.total_accesses,
        "identical_answers_and_accesses": True,
    }

    # -- goodput under transient faults -------------------------------------
    goodput: Dict[str, object] = {}
    for rate in (0.1, 0.2, 0.3):
        per_strategy: Dict[str, object] = {}
        for strategy in STRATEGIES:
            schedule = FaultSchedule(
                seed=int(rate * 100), transient_rate=rate, timeout_rate=rate / 4
            )
            with Engine(example.schema, _fault_registry(example, schedule)) as engine:
                result = engine.execute(
                    example.query_text,
                    strategy=strategy,
                    share_session_cache=False,
                    retry=FAULT_RETRY,
                    breaker=FAULT_BREAKER,
                )
            recovered = len(result.answers & example.expected_answers)
            assert result.answers <= example.expected_answers
            # The honest-completeness contract, checked on every cell.
            if result.complete:
                assert result.answers == example.expected_answers, (
                    f"{strategy} at rate {rate} claimed complete with missing answers"
                )
            if result.answers != example.expected_answers:
                assert not result.complete, (
                    f"{strategy} at rate {rate} lost answers without flagging it"
                )
            stats = result.retry_stats
            per_strategy[strategy] = {
                "complete": result.complete,
                "goodput": round(recovered / max(1, len(example.expected_answers)), 4),
                "accesses": result.total_accesses,
                "attempts": stats.attempts,
                "retries": stats.retries,
                "failures": stats.failures,
                "failed_relations": list(result.failed_relations),
            }
        goodput[f"transient_rate_{rate}"] = per_strategy
    entry["goodput_under_faults"] = goodput
    entry["retry_policy"] = {
        "max_attempts": FAULT_RETRY.max_attempts,
        "base_delay": FAULT_RETRY.base_delay,
    }
    entry["completeness_contract_verified"] = True
    return entry


#: Real per-lookup latency of the loopback HTTP fixture in the async pass.
ASYNC_BACKEND_LATENCY = 0.002

#: In-flight bounds swept by the async dispatcher pass (full run).
ASYNC_IN_FLIGHT_LIMITS = (8, 64, 512)


def bench_async_dispatch(smoke: bool) -> Dict[str, object]:
    """Async vs simulated dispatch over a real HTTP source.

    Serves the star and chaos instances from the loopback fixture server
    with 2ms per-lookup latency, then runs the distillation strategy
    through both modes: the simulated dispatcher (every lookup is a
    blocking round trip) and the asyncio dispatcher at a sweep of
    ``max_in_flight`` bounds.  Every run is asserted equivalent to the
    in-memory simulation — same answers, same access count — so the sweep
    doubles as a transport/dispatcher equivalence pass.  The full run
    asserts that the async dispatcher genuinely sustains >=512 in-flight
    accesses on the star workload.
    """
    examples = (
        [star_example(rays=3, width=40), chaos_example(width=6, rays=2)]
        if smoke
        else [star_example(rays=4, width=150), chaos_example(width=10, rays=3)]
    )
    limits = (8, 64) if smoke else ASYNC_IN_FLIGHT_LIMITS
    entry: Dict[str, object] = {
        "backend_latency": ASYNC_BACKEND_LATENCY,
        "in_flight_limits": list(limits),
        "workloads": {},
    }
    for example in examples:
        with Engine(example.schema, example.instance) as engine:
            baseline = engine.execute(
                example.query_text, strategy="distillation", share_session_cache=False
            )
        assert baseline.answers == example.expected_answers

        with FixtureServer(example.instance, latency=ASYNC_BACKEND_LATENCY) as server:

            def run(**overrides):
                registry = SourceRegistry(example.instance, backend=server.url)
                with Engine(example.schema, registry) as engine:
                    started = time.perf_counter()
                    result = engine.execute(
                        example.query_text,
                        strategy="distillation",
                        share_session_cache=False,
                        **overrides,
                    )
                    wall = time.perf_counter() - started
                assert result.answers == example.expected_answers, (
                    f"{overrides or 'simulated'} over HTTP returned wrong answers "
                    f"on {example.name}"
                )
                assert result.total_accesses == baseline.total_accesses, (
                    f"{overrides or 'simulated'} over HTTP performed "
                    f"{result.total_accesses} accesses, expected "
                    f"{baseline.total_accesses} on {example.name}"
                )
                return result, wall

            _, simulated_wall = run()
            async_runs: Dict[str, object] = {}
            for limit in limits:
                result, wall = run(concurrency="async", max_in_flight=limit)
                async_runs[f"in_flight_{limit}"] = {
                    "wall_seconds": round(wall, 6),
                    "peak_in_flight": result.raw.peak_in_flight,
                }
        record: Dict[str, object] = {
            "accesses": baseline.total_accesses,
            "simulated": {"wall_seconds": round(simulated_wall, 6)},
            "async": async_runs,
        }
        top = async_runs[f"in_flight_{limits[-1]}"]
        if not smoke and example.name.startswith("star"):
            assert top["peak_in_flight"] >= 512, (  # type: ignore[index]
                f"async dispatcher peaked at {top['peak_in_flight']} in-flight "  # type: ignore[index]
                f"accesses on {example.name}; expected >= 512"
            )
        record["speedup_vs_simulated"] = round(
            simulated_wall / top["wall_seconds"], 3  # type: ignore[operator]
        )
        entry["workloads"][example.name] = record  # type: ignore[index]
    entry["equivalent_to_simulated"] = True
    return entry


def _optimizer_topologies() -> List[Example]:
    """The six topologies the cost-vs-structural assertion sweeps."""
    return [
        chain_example(length=3, width=8),
        wide_fanout_example(width=6, fanout=6),
        star_example(rays=3, width=8),
        diamond_example(width=16),
        skewed_fanout_example(keys=6, hot_keys=2, hot_fanout=12),
        cyclic_example(size=16, seeds=2),
    ]


def _order_pair(example: Example, strategy: str = "fast_fail"):
    """Cold structural and cold ``optimizer="cost"`` runs, in fresh engines."""
    runs = []
    for optimizer in ("structural", "cost"):
        with Engine(example.schema, example.instance) as engine:
            runs.append(
                engine.execute(
                    example.query_text,
                    strategy=strategy,
                    share_session_cache=False,
                    optimizer=optimizer,
                )
            )
    structural, cost = runs
    assert cost.answers == structural.answers == example.expected_answers, (
        f"optimizer='cost' changed the answers on {example.name}"
    )
    return structural, cost


def bench_optimizer() -> Dict[str, object]:
    """``optimizer="cost"`` vs the structural order: equal, except where it wins.

    On the six topologies (and a distillation cross-check) the answers are
    not empty, so every admissible order makes the same accesses: the two
    counts must be *equal*.  The gate a no-op cannot pass is ``empty_branch``:
    an empty cheap branch next to an expensive one, where the pending-count
    rule must read strictly fewer accesses than the static order when the
    empty relation's name sorts last (``zempty``: 17 < 145), no more when it
    sorts first (``aempty``: 17 = 17), and keep the saving on a warm
    session (three runs: ``[17, 0, 0]``).
    """
    entry: Dict[str, object] = {"topologies": {}, "empty_branch": {}}
    for example in _optimizer_topologies():
        structural, cost = _order_pair(example)
        assert cost.total_accesses == structural.total_accesses, (
            f"optimizer='cost' changed the access count on {example.name}: "
            f"{cost.total_accesses} != {structural.total_accesses}"
        )
        entry["topologies"][example.name] = {  # type: ignore[index]
            "structural_accesses": structural.total_accesses,
            "cost_accesses": cost.total_accesses,
        }

    # -- the strict gate -------------------------------------------------------
    for empty_name in ("zempty", "aempty"):
        example = empty_branch_example(empty_name=empty_name)
        structural, cost = _order_pair(example)
        with Engine(example.schema, example.instance) as engine:
            rerun = [
                engine.execute(example.query_text, optimizer="cost").total_accesses
                for _ in range(3)
            ]
        if empty_name == "zempty":
            assert cost.total_accesses < structural.total_accesses, (
                f"optimizer='cost' did not beat the structural order on {example.name}: "
                f"{cost.total_accesses} vs {structural.total_accesses}"
            )
        assert cost.total_accesses <= structural.total_accesses
        assert cost.failed_at_position is not None
        assert rerun == [cost.total_accesses, 0, 0], (
            f"optimizer='cost' gave its saving back on a warm session: {rerun}"
        )
        entry["empty_branch"][example.name] = {  # type: ignore[index]
            "structural_accesses": structural.total_accesses,
            "cost_accesses": cost.total_accesses,
            "rerun_accesses": rerun,
        }

    # -- distillation cross-check: no phase boundary, so no difference ---------
    example = star_example(rays=3, width=8)
    structural, cost = _order_pair(example, strategy="distillation")
    assert cost.total_accesses == structural.total_accesses
    entry["distillation_cross_check"] = {
        "workload": example.name,
        "structural_accesses": structural.total_accesses,
        "cost_accesses": cost.total_accesses,
    }
    entry["strictly_fewer_on_empty_branch"] = True
    return entry


def bench_cache_tier() -> Dict[str, object]:
    """Cold vs warm runs over a persistent store.

    Two passes over the ``star+diamond`` mixed workload:

    * **cold**: a fresh engine on a fresh SQLite store — every access hits
      the sources; asserted equivalent (answers *and* access counts) to a
      plain in-memory run;
    * **warm**: a *restarted* engine on the same store file — asserted to
      repeat zero source accesses while returning identical answers.
    """
    workload = mixed_workload(("star", "diamond"), repeat=2)
    texts = workload.query_texts()
    entry: Dict[str, object] = {"workload": workload.name}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "cache_store.db")
        with Engine(workload.schema, workload.instance, cache=f"sqlite:{path}") as engine:
            cold = engine.run_workload(texts, strategy="fast_fail")
        with Engine(workload.schema, workload.instance, cache=f"sqlite:{path}") as engine:
            warm = engine.run_workload(texts, strategy="fast_fail")
        with Engine(workload.schema, workload.instance) as engine:
            memory = engine.run_workload(texts, strategy="fast_fail")

    cold_answers = [result.answers for result in cold.results]
    assert warm.total_accesses == 0, (
        f"warm restart repeated {warm.total_accesses} accesses"
    )
    assert [result.answers for result in warm.results] == cold_answers
    assert memory.total_accesses == cold.total_accesses, (
        "sqlite cold run diverged from the in-memory store: "
        f"{cold.total_accesses} vs {memory.total_accesses} accesses"
    )
    assert [result.answers for result in memory.results] == cold_answers
    for label, report in (("cold", cold), ("warm", warm)):
        entry[label] = {
            "qps": round(report.qps, 1),
            "accesses": report.total_accesses,
            "hit_rate": round(report.hit_rate, 4),
            "wall_seconds": round(report.wall_seconds, 4),
        }
    return entry


#: Distillation wall / fast_fail wall budget on wide-fanout, for full runs
#: and the CI perf-smoke gate alike.  Both runs perform identical accesses;
#: the gap is pure kernel overhead (event loop, binding deltas, incremental
#: answer checks).  A ratio punishes a faster denominator — it read
#: 2.08–2.29 once the shared access path shrank — so the budget is the one
#: that holds on noisy runners; gating the difference is ROADMAP item 3.
WALL_RATIO_BUDGET = 3.0

#: Wall-time repeats for the ratio measurement (min is reported).
PROFILE_REPEATS = 3


def _profiled_run(example: Example, strategy: str) -> tuple:
    """Best-of-N wall clock for one strategy on a fresh engine per repeat.

    A fresh engine per measurement keeps the runs honest: a shared session
    would serve every repeat from warm meta-caches with zero accesses.
    """
    best = float("inf")
    result = None
    for _ in range(PROFILE_REPEATS):
        with Engine(example.schema, example.instance, latency=ACCESS_LATENCY) as engine:
            started = time.perf_counter()
            candidate = engine.execute(
                example.query_text,
                strategy=strategy,
                share_session_cache=False,
                answer_check_interval=ANSWER_CHECK_INTERVAL,
            )
            wall = time.perf_counter() - started
        if wall < best:
            best, result = wall, candidate
    return best, result


def bench_kernel_profile() -> Dict[str, object]:
    """Per-phase kernel profile on wide-fanout, with the wall-ratio gate.

    The distillation scheduler performs exactly the same accesses as the
    fast-failing strategy on this workload; everything above 1x is kernel
    overhead (event loop, delta products, incremental answer checks).  The
    profile section records where that overhead goes, and the ratio is
    asserted within :data:`WALL_RATIO_BUDGET`.
    """
    example = wide_fanout_example()
    entry: Dict[str, object] = {
        "workload": example.name,
        "repeats": PROFILE_REPEATS,
        "strategies": {},
    }
    walls: Dict[str, float] = {}
    results: Dict[str, object] = {}
    for strategy in STRATEGIES:
        wall, result = _profiled_run(example, strategy)
        assert result.answers == example.expected_answers, (
            f"{strategy} returned wrong answers on {example.name}"
        )
        walls[strategy] = wall
        results[strategy] = result
        record: Dict[str, object] = {
            "wall_seconds": round(wall, 6),
            "accesses": result.total_accesses,
            "answers": len(result.answers),
        }
        if result.kernel_profile is not None:
            record["profile"] = result.kernel_profile.to_dict()
        entry["strategies"][strategy] = record  # type: ignore[index]
    fast, distilled = results["fast_fail"], results["distillation"]
    assert distilled.answers == fast.answers, (
        "distillation and fast_fail answers diverged on wide-fanout"
    )
    assert distilled.total_accesses == fast.total_accesses, (
        f"distillation made {distilled.total_accesses} accesses but fast_fail "
        f"{fast.total_accesses} on {example.name}"
    )
    ratio = walls["distillation"] / walls["fast_fail"] if walls["fast_fail"] else 0.0
    assert ratio <= WALL_RATIO_BUDGET, (
        f"distillation wall is {ratio:.2f}x fast_fail on {example.name} "
        f"(budget {WALL_RATIO_BUDGET}x): {walls['distillation']:.4f}s vs "
        f"{walls['fast_fail']:.4f}s"
    )
    entry["wall_ratio_distillation_vs_fast_fail"] = round(ratio, 3)
    entry["wall_ratio_budget"] = WALL_RATIO_BUDGET
    entry["identical_answers_and_accesses"] = True
    return entry


#: Keyed query templates over the running example: 2, 3 and 5 atoms (the
#: last loses three to minimization), one constant each.
PLAN_REUSE_TEMPLATES = (
    "q(N) <- r1(A, N, Y1), r2('{k}', Y2, A)",
    "q(N, A2) <- r2('{k}', Y, A), r1(A, N, Y1), r3(N, A2)",
    "q(N) <- r1(A, N, Y1), r2('{k}', Y2, A), r2('{k}', Y3, A2), "
    "r1(A2, N2, Y4), r1(A2, N3, Y5)",
)

#: Keys per template in the warm pass, and timed repeats (median reported).
PLAN_REUSE_KEYS = 100
PLAN_REUSE_REPEATS = 5

#: Warm ``Engine.plan`` must be at least this many times faster than cold.
PLAN_REUSE_SPEEDUP_FLOOR = 5.0


def _spread_us(seconds: List[float]) -> Dict[str, float]:
    return {
        "median": round(statistics.median(seconds) * 1e6, 1),
        "min": round(min(seconds) * 1e6, 1),
        "max": round(max(seconds) * 1e6, 1),
    }


def bench_plan_reuse() -> Dict[str, object]:
    """``Engine.plan`` per query, first-seen shapes against cached ones.

    Each repeat takes a fresh engine: planning the templates once is the
    cold pass (every call a miss), planning them again under other keys is
    the warm pass (every call a hit).  Planning never reads the data, so
    the keys need not exist.
    """
    example = running_example()
    keyed = [
        template.format(k=f"song {index}")
        for index in range(PLAN_REUSE_KEYS)
        for template in PLAN_REUSE_TEMPLATES
    ]
    cold: List[float] = []
    warm: List[float] = []
    for _ in range(PLAN_REUSE_REPEATS):
        with Engine(example.schema, example.instance) as engine:
            started = time.perf_counter()
            for template in PLAN_REUSE_TEMPLATES:
                engine.plan(template.format(k="first"))
            cold.append((time.perf_counter() - started) / len(PLAN_REUSE_TEMPLATES))
            started = time.perf_counter()
            for text in keyed:
                engine.plan(text)
            warm.append((time.perf_counter() - started) / len(keyed))
            stats = engine.session_stats()["plan_cache"]
        assert (stats["misses"], stats["hits"]) == (len(PLAN_REUSE_TEMPLATES), len(keyed)), (
            f"plan cache did not serve the keyed mix: {stats}"
        )
    speedup = statistics.median(cold) / statistics.median(warm)
    assert speedup >= PLAN_REUSE_SPEEDUP_FLOOR, (
        f"warm Engine.plan is only {speedup:.1f}x faster than cold "
        f"(floor {PLAN_REUSE_SPEEDUP_FLOOR}x): {_spread_us(warm)} vs {_spread_us(cold)} us"
    )
    return {
        "workload": example.name,
        "templates": len(PLAN_REUSE_TEMPLATES),
        "keys_per_template": PLAN_REUSE_KEYS,
        "repeats": PLAN_REUSE_REPEATS,
        "cold_plan_us": _spread_us(cold),
        "warm_plan_us": _spread_us(warm),
        "speedup": round(speedup, 1),
        "speedup_floor": PLAN_REUSE_SPEEDUP_FLOOR,
        "hit_rate": round(stats["hit_rate"], 4),
    }


def _scale_examples(smoke: bool) -> List[Example]:
    """The scale tier: >= 10^4 tuples full, a few thousand in smoke."""
    if smoke:
        return [
            zipf_fanout_example(keys=40, fan_rows=1000),
            deep_cycle_example(size=2000, seeds=2, hops=3),
        ]
    return [
        zipf_fanout_example(keys=100, fan_rows=3500),  # 10600 tuples
        deep_cycle_example(size=10000, seeds=2, hops=3),  # 10002 tuples
    ]


def bench_scale(smoke: bool) -> Dict[str, object]:
    """The 10⁴–10⁵-tuple scenario tier, end-to-end through the Engine facade.

    Zipf-skewed fanout and the deep cyclic ring run every strategy with
    answers asserted against the generators' expected sets; the UCQ
    workload executes its branches through one engine session and asserts
    the union — with the shared ``seed``/``fan`` prefix accessed exactly
    once across branches (session meta-cache hits cover the rest).
    """
    entry: Dict[str, object] = {"workloads": {}}
    for example in _scale_examples(smoke):
        record: Dict[str, object] = {
            "total_tuples": example.instance.total_tuples(),
            "strategies": {},
        }
        for strategy in STRATEGIES:
            with Engine(example.schema, example.instance) as engine:
                started = time.perf_counter()
                result = engine.execute(
                    example.query_text,
                    strategy=strategy,
                    share_session_cache=False,
                    answer_check_interval=ANSWER_CHECK_INTERVAL,
                )
                wall = time.perf_counter() - started
            assert result.answers == example.expected_answers, (
                f"{strategy} returned wrong answers on {example.name}"
            )
            record["strategies"][strategy] = {  # type: ignore[index]
                "accesses": result.total_accesses,
                "wall_seconds": round(wall, 6),
                "answers": len(result.answers),
            }
        entry["workloads"][example.name] = record  # type: ignore[index]

    ucq = (
        ucq_fanout_workload(keys=20, fan_rows=400, branches=3)
        if smoke
        else ucq_fanout_workload(keys=50, fan_rows=2000, branches=4)
    )
    with Engine(ucq.schema, ucq.instance) as engine:
        started = time.perf_counter()
        union: set = set()
        branch_records = []
        for text in ucq.branch_queries:
            result = engine.execute(text, strategy="fast_fail")
            union |= result.answers
            branch_records.append(
                {"accesses": result.total_accesses, "answers": len(result.answers)}
            )
        wall = time.perf_counter() - started
        stats = engine.session_stats()
    assert union == set(ucq.expected_union), (
        f"UCQ union diverged from expected on {ucq.name}"
    )
    # Branches after the first re-read the shared seed/fan prefix from the
    # session meta-caches instead of re-accessing the sources.
    later = branch_records[1:]
    first = branch_records[0]
    assert all(record["accesses"] < first["accesses"] for record in later), (
        "UCQ branches did not share the common prefix through the session"
    )
    entry["ucq"] = {
        "workload": ucq.name,
        "total_tuples": ucq.instance.total_tuples(),
        "branches": branch_records,
        "union_answers": len(union),
        "wall_seconds": round(wall, 6),
        "session_accesses": stats["total_accesses"],
        "session_meta_hits": stats["meta_hits"],
        "shared_prefix_verified": True,
    }
    return entry


def bench_serving(smoke: bool) -> Dict[str, object]:
    """The serving front end under open-loop load, healthy and faulty.

    Two passes against an in-process :class:`repro.serve.ServeHandle`
    over a deterministic mixed workload:

    * *healthy*: every response must be a verified-complete 200 — zero
      transport/5xx errors, zero degraded results, zero mismatches;
    * *fault-injected*: sources flake hard enough to exhaust the retry
      budget on some requests, and the gate is the degradation contract —
      still zero 5xx (failures surface as honest ``complete: false``
      partial results), a strictly positive degraded rate, and zero
      complete-but-wrong answers.

    Records p50/p95/p99 latency, goodput (verified-complete answers/s)
    and the status/degraded/rejected breakdown for both passes.
    """
    from repro.serve import LoadTestConfig, ServeConfig, ServeHandle, run_loadtest

    mix = ("star", "chain") if smoke else ("star", "diamond", "chain")
    workload = mixed_workload(mix, repeat=1)
    rate = 20.0 if smoke else 40.0
    duration = 1.5 if smoke else 4.0

    def run_pass(schedule: FaultSchedule | None) -> Dict[str, object]:
        registry = SourceRegistry(workload.instance)
        overrides: Dict[str, object] = {"share_session_cache": False}
        if schedule is not None:
            registry.inject_faults(schedule)
            overrides["retry"] = RetryPolicy(max_attempts=2, base_delay=0.0)
        config = ServeConfig(execute_overrides=overrides)
        with ServeHandle(Engine(workload.schema, registry), config) as handle:
            report = run_loadtest(
                LoadTestConfig(
                    url=handle.url,
                    rate=rate,
                    duration=duration,
                    stream_fraction=0.25,
                    tenants=2,
                ),
                workload,
            )
        assert report.errors == 0, "the server must never turn load into 5xx"
        assert report.mismatches == 0, "complete responses must carry correct answers"
        return report.to_dict()

    healthy = run_pass(None)
    assert healthy["degraded"] == 0, "healthy sources must yield complete answers"
    assert healthy["good"] == healthy["requests"]
    faulty = run_pass(FaultSchedule(seed=5, transient_rate=0.8, timeout_rate=0.4))
    assert faulty["degraded"] > 0, "injected faults must surface as degraded results"
    return {
        "workload": workload.name,
        "offered_rate": rate,
        "duration_seconds": duration,
        "healthy": healthy,
        "fault_injected": faulty,
    }


def workloads(smoke: bool) -> List[Example]:
    chains = CHAIN_CONFIGURATIONS[:2] if smoke else CHAIN_CONFIGURATIONS
    examples = [chain_example(length=length, width=width) for length, width in chains]
    if not smoke:
        examples.append(wide_fanout_example())
        examples.append(star_example(rays=4, width=24))
        examples.append(diamond_example(width=32))
        examples.append(skewed_fanout_example(keys=10, hot_keys=2, hot_fanout=48))
        examples.append(cyclic_example(size=64, seeds=4))
    return examples


def _print_plan_reuse(entry: Dict[str, object]) -> None:
    print(
        f"plan reuse on {entry['workload']}: Engine.plan cold "
        f"{entry['cold_plan_us']['median']} us, warm {entry['warm_plan_us']['median']} us "  # type: ignore[index]
        f"per query ({entry['speedup']}x, floor {entry['speedup_floor']}x; "
        f"hit rate {entry['hit_rate']})"
    )


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default="BENCH_engine.json", help="where to write the JSON report"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "run only the two smallest workloads plus the backend and "
            "real-concurrency equivalence passes (CI)"
        ),
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help=(
            "add the 10^4-tuple scenario tier (zipf fanout, deep cycle, UCQ) "
            "to the report's 'scale' section"
        ),
    )
    parser.add_argument(
        "--perf-smoke",
        action="store_true",
        help=(
            "CI performance gate only: assert the distillation/fast_fail "
            "wall ratio <= 3x on wide-fanout and warm Engine.plan >= 5x cold, "
            "plus one scale smoke workload; writes no report"
        ),
    )
    args = parser.parse_args(argv)

    if args.perf_smoke:
        profile_entry = bench_kernel_profile()
        print(
            f"perf smoke on {profile_entry['workload']}: distillation wall is "
            f"{profile_entry['wall_ratio_distillation_vs_fast_fail']}x fast_fail "
            f"(budget {WALL_RATIO_BUDGET}x)"
        )
        _print_plan_reuse(bench_plan_reuse())
        scale_entry = bench_scale(smoke=True)
        for name, record in scale_entry["workloads"].items():  # type: ignore[union-attr]
            fast = record["strategies"]["fast_fail"]
            print(
                f"scale smoke on {name}: {record['total_tuples']} tuples, "
                f"fast_fail {fast['accesses']} accesses in {fast['wall_seconds']}s"
            )
        print("perf smoke ok")
        return 0

    results = []
    for example in workloads(args.smoke):
        entry = bench_one(example)
        results.append(entry)
        strategies = entry["strategies"]  # type: ignore[assignment]
        print(
            f"{entry['workload']:>22}: "
            + " / ".join(
                f"{name} {record['accesses']:>5} accesses {record['wall_seconds']:.3f}s"
                for name, record in strategies.items()  # type: ignore[union-attr]
            )
            + f" (ratio {entry['access_ratio']})"
        )

    # Equivalence passes: one moderate workload across all backends, and the
    # real-concurrency dispatcher against a slow callable backend.
    backend_entry = bench_backends(star_example(rays=3, width=8))
    print(f"backend equivalence on {backend_entry['workload']}: ok ({', '.join(BACKENDS)})")
    real_entry = bench_real_concurrency(star_example(rays=4, width=10))
    print(
        f"real concurrency (async) on {real_entry['workload']}: "
        f"{real_entry['accesses']} accesses, makespan {real_entry['makespan_seconds']}s, "
        f"speedup {real_entry['parallel_speedup']}x"
    )
    async_entry = bench_async_dispatch(args.smoke)
    for name, record in async_entry["workloads"].items():  # type: ignore[union-attr]
        top_limit = async_entry["in_flight_limits"][-1]  # type: ignore[index]
        top = record["async"][f"in_flight_{top_limit}"]
        print(
            f"async dispatch on {name}: {record['accesses']} accesses over HTTP — "
            f"simulated {record['simulated']['wall_seconds']}s, "
            f"async@{top_limit} {top['wall_seconds']}s "
            f"(peak in flight {top['peak_in_flight']}, "
            f"{record['speedup_vs_simulated']}x vs simulated)"
        )
    throughput_entry = bench_workload_throughput()
    parallel_run = throughput_entry["runs"]["max_parallel_4"]  # type: ignore[index]
    print(
        f"workload throughput on {throughput_entry['workload']}: "
        f"{parallel_run['qps']} qps at max_parallel 4 "
        f"(hit rate {parallel_run['hit_rate']}, "
        f"peak in flight {parallel_run['peak_in_flight']}, "
        f"{throughput_entry['speedup']}x vs sequential)"
    )
    optimizer_entry = bench_optimizer()
    print(
        f"optimizer on {len(optimizer_entry['topologies'])} topologies: "  # type: ignore[arg-type]
        f"cost accesses == structural on all; empty-branch "
        + ", ".join(
            f"{name} {record['cost_accesses']} vs {record['structural_accesses']}"
            for name, record in optimizer_entry["empty_branch"].items()  # type: ignore[union-attr]
        )
    )
    fault_entry = bench_fault_tolerance()
    overhead_run = fault_entry["zero_fault_overhead"]  # type: ignore[index]
    print(
        f"fault tolerance on {fault_entry['workload']}: "
        f"zero-fault overhead {overhead_run['overhead_fraction']:.1%} "
        f"(budget {overhead_run['budget_fraction']:.0%}); goodput at 30% faults: "
        + ", ".join(
            f"{name} {record['goodput']:.0%}"
            for name, record in fault_entry["goodput_under_faults"][  # type: ignore[index]
                "transient_rate_0.3"
            ].items()
        )
    )

    profile_entry = bench_kernel_profile()
    distill_profile = profile_entry["strategies"]["distillation"]  # type: ignore[index]
    timings = distill_profile["profile"]["timings_seconds"]
    print(
        f"kernel profile on {profile_entry['workload']}: distillation wall is "
        f"{profile_entry['wall_ratio_distillation_vs_fast_fail']}x fast_fail "
        f"(budget {profile_entry['wall_ratio_budget']}x) — "
        f"offer {timings['offer']}s, dispatch {timings['dispatch']}s, "
        f"absorb {timings['absorb']}s, answer-check {timings['answer_check']}s"
    )

    plan_reuse_entry = bench_plan_reuse()
    _print_plan_reuse(plan_reuse_entry)

    scale_entry = None
    if args.scale:
        scale_entry = bench_scale(args.smoke)
        for name, record in scale_entry["workloads"].items():  # type: ignore[union-attr]
            strategies = record["strategies"]
            print(
                f"{name:>22}: {record['total_tuples']} tuples — "
                + " / ".join(
                    f"{s} {r['accesses']} accesses {r['wall_seconds']:.3f}s"
                    for s, r in strategies.items()
                )
            )
        ucq_run = scale_entry["ucq"]  # type: ignore[index]
        print(
            f"ucq on {ucq_run['workload']}: {ucq_run['union_answers']} union answers "
            f"over {len(ucq_run['branches'])} branches, "
            f"{ucq_run['session_accesses']} session accesses "
            f"({ucq_run['session_meta_hits']} meta hits, shared prefix verified)"
        )

    serving_entry = bench_serving(args.smoke)
    healthy_run = serving_entry["healthy"]  # type: ignore[index]
    faulty_run = serving_entry["fault_injected"]  # type: ignore[index]
    print(
        f"serving on {serving_entry['workload']}: "
        f"{healthy_run['requests']} requests at {serving_entry['offered_rate']}/s — "
        f"p50 {healthy_run['latency']['p50'] * 1000:.1f}ms, "
        f"p99 {healthy_run['latency']['p99'] * 1000:.1f}ms, "
        f"goodput {healthy_run['goodput']:.1f}/s; with faults: "
        f"degraded {faulty_run['degraded_rate']:.0%}, errors {faulty_run['errors']} "
        f"(5xx stays zero)"
    )

    cache_entry = bench_cache_tier()
    cold_run = cache_entry["cold"]  # type: ignore[index]
    warm_run = cache_entry["warm"]  # type: ignore[index]
    print(
        f"cache tier on {cache_entry['workload']}: "
        f"cold {cold_run['accesses']} accesses at {cold_run['qps']} qps, "
        f"warm restart {warm_run['accesses']} accesses at {warm_run['qps']} qps "
        f"(hit rate {warm_run['hit_rate']})"
    )

    report = {
        "benchmark": "bench_engine",
        "description": (
            "naive vs fast_fail vs distillation accesses/wall/simulated latency "
            "on chain, wide-fanout, star, diamond, skewed-fanout and cycle "
            "topologies, plus backend and real-concurrency equivalence passes"
        ),
        "access_latency": ACCESS_LATENCY,
        "answer_check_interval": ANSWER_CHECK_INTERVAL,
        "results": results,
        "backend_equivalence": backend_entry,
        "real_concurrency": real_entry,
        "async_dispatch": async_entry,
        "workload_throughput": throughput_entry,
        "optimizer": optimizer_entry,
        "fault_tolerance": fault_entry,
        "cache_tier": cache_entry,
        "serving": serving_entry,
        "kernel_profile": profile_entry,
        "plan_reuse": plan_reuse_entry,
    }
    if scale_entry is not None:
        report["scale"] = scale_entry
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
