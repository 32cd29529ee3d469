"""Plan reuse: one plan per query shape, bound to each query's constants.

``Engine.plan`` plans the *shape* of a query — its constants abstracted to
numbered parameters — once, and binds the shape's plan to every query of
that shape (:mod:`repro.engine.plan_cache`).  The contract under test:
nothing a caller can observe depends on the cache.  Answers, access counts,
the access log and ``explain()`` / ``to_datalog()`` / ``describe()`` are
the same on a hit and on a miss, whichever constants filled the entry.

A shape also carries what its executions share (``plan.compiled``: the
compiled join programs) and the parser memoizes text skeletons, so the
second query of a template compiles nothing and parses nothing — and no
plan-driven run evaluates through the reference interpreter.
"""

from __future__ import annotations

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from test_fuzz_equivalence import CI_SEEDS, STRATEGIES, _registry, generate_case

import repro.plan.plan
import repro.query.evaluate
import repro.query.parser
from repro import Engine
from repro.engine.plan_cache import PLAN_CACHE_ENTRIES, query_shape
from repro.exceptions import UnanswerableQueryError
from repro.model.instance import DatabaseInstance
from repro.model.schema import Schema
from repro.query.compiled import JoinProgram
from repro.query.parser import parse_query
from repro.query.terms import Constant

REDUNDANT = (
    "q(N) <- r1(A, N, Y1), r2('{k}', Y2, A), r2('{k}', Y3, A2), "
    "r1(A2, N2, Y4), r1(A2, N3, Y5)"
)


def _plan_cache(engine: Engine) -> dict:
    return engine.session_stats()["plan_cache"]


def _keyed_engine() -> Engine:
    """``r^io(K, V)`` and ``s^io(L, V)`` keyed by strings and by an int."""
    schema = Schema.from_signatures({"r": ("io", ["K", "V"]), "s": ("io", ["L", "V"])})
    instance = DatabaseInstance(
        schema,
        {
            "r": [("a", "v1"), ("a", "v2"), ("b", "v2"), ("b", "v3"), (1, "int"), ("1", "str")],
            "s": [("a", "v2"), ("b", "v3"), ("b", "v4")],
        },
    )
    return Engine(schema, instance)


def _observable(prepared) -> tuple:
    return (
        prepared.explain().to_dict(),
        str(prepared.to_datalog()),
        prepared.plan.describe(),
    )


# -- (a) the equality pattern among constants is part of the key --------------
def test_equality_pattern_separates_shapes() -> None:
    engine = _keyed_engine()
    distinct = engine.plan("q(X) <- r('a', X), r('b', X)")
    repeated = engine.plan("q(X) <- r('a', X), r('a', X)")
    assert _plan_cache(engine)["entries"] == 2
    assert _plan_cache(engine)["hits"] == 0
    assert len(distinct.plan.minimized_query.body) == 2
    assert len(repeated.plan.minimized_query.body) == 1
    for prepared in (distinct, repeated):
        assert _observable(prepared) == _observable(_keyed_engine().plan(prepared.query))
    assert distinct.execute().answers == {("v2",)}
    assert repeated.execute().answers == {("v1",), ("v2",)}


def test_redundant_shape_still_minimizes_on_a_hit(engine, example) -> None:
    engine.plan(REDUNDANT.format(k="azzurro"))
    hit = engine.plan(REDUNDANT.format(k="volare"))
    assert _plan_cache(engine) == {
        "hits": 1, "misses": 1, "hit_rate": 0.5, "entries": 1, "evictions": 0
    }  # fmt: skip
    assert len(hit.query.body) == 5
    assert str(hit.plan.minimized_query) == "q(N) <- r1(A, N, Y1), r2('volare', Y2, A)"
    assert hit.execute().answers == example.expected_answers


# -- (b) what a constant can be ------------------------------------------------
def test_one_constant_at_two_abstract_domains() -> None:
    engine = _keyed_engine()
    engine.plan("q(X) <- r('a', X), s('a', X)")
    hit = engine.plan("q(X) <- r('b', X), s('b', X)")
    assert _plan_cache(engine)["hits"] == 1
    # One artificial relation per (constant, domain), both holding the value.
    assert sorted(hit.plan.constant_facts.values(), key=repr) == [frozenset({("b",)})] * 2
    assert hit.execute().answers == {("v3",)}


def test_head_constants_are_bound() -> None:
    engine = _keyed_engine()
    assert engine.execute("q('tag', X) <- r('a', X)").answers == {("tag", "v1"), ("tag", "v2")}
    assert engine.execute("q('other', X) <- r('b', X)").answers == {
        ("other", "v2"),
        ("other", "v3"),
    }
    assert _plan_cache(engine)["hits"] == 1
    # A head constant equal to a body constant is another equality pattern.
    assert engine.execute("q('b', X) <- r('b', X)").answers == {("b", "v2"), ("b", "v3")}
    assert _plan_cache(engine)["entries"] == 2


def test_int_and_str_constants_share_a_shape_not_a_value() -> None:
    engine = _keyed_engine()
    assert engine.execute("q(X) <- r(1, X)").answers == {("int",)}
    assert engine.execute("q(X) <- r('1', X)").answers == {("str",)}
    assert _plan_cache(engine)["entries"] == 1
    # Distinct by type means distinct parameters, as for any two constants.
    both = engine.plan("q(X, Y) <- r(1, X), r('1', Y)")
    assert len(both.plan.constant_facts) == 2
    assert both.execute().answers == {("int", "str")}


def test_constant_free_queries_are_cached_too(chain) -> None:
    engine = Engine(chain.schema, chain.instance)
    first = engine.plan(chain.query_text)
    second = engine.plan(chain.query_text)
    assert _plan_cache(engine)["hits"] == 1
    assert second.plan is first.plan and second is not first
    assert second.execute().answers == chain.expected_answers


# -- (c) differential: warm engine vs an engine that never saw the shape -------
def _pinned(example, seed: int, draw: int):
    """The scenario's query with up to two variables pinned to instance values.

    ``seed`` picks the variables, ``draw`` the values: equal seeds give
    queries that differ only in their constants.
    """
    query = parse_query(example.query_text)
    slots = [
        (atom.predicate, position, term)
        for atom in query.body
        for position, term in enumerate(atom.terms)
    ]
    values = random.Random(f"{seed}/{draw}")
    pinned = {}
    for predicate, position, variable in random.Random(seed).sample(slots, k=min(2, len(slots))):
        rows = sorted(example.instance[predicate].as_set(), key=repr)
        if rows:
            pinned.setdefault(variable, Constant(values.choice(rows)[position]))
    return query.substitute(pinned)


@pytest.mark.parametrize("seed", CI_SEEDS)
def test_warm_plan_is_indistinguishable_from_a_fresh_one(seed: int) -> None:
    example, latencies = generate_case(seed)
    first = _pinned(example, seed, 0)
    redraws = (_pinned(example, seed, draw) for draw in range(1, 40))
    second = next(
        (q for q in redraws if q != first and query_shape(q)[0] == query_shape(first)[0]), first
    )
    answers = set()
    for strategy in STRATEGIES:
        with Engine(example.schema, _registry(example, latencies, "memory")) as warm, Engine(
            example.schema, _registry(example, latencies, "memory")
        ) as fresh:
            warm.plan(first)
            hit, miss = warm.plan(second), fresh.plan(second)
            assert (_plan_cache(warm)["hits"], _plan_cache(fresh)["hits"]) == (1, 0)
            assert _observable(hit) == _observable(miss), f"seed {seed}: {second}"
            served, reference = hit.execute(strategy=strategy), miss.execute(strategy=strategy)
            assert served.to_dict(include_timings=False) == reference.to_dict(
                include_timings=False
            ), f"seed {seed}: {strategy} on {second}"
            assert [(r.access, r.rows) for r in served.access_log] == [
                (r.access, r.rows) for r in reference.access_log
            ], f"seed {seed}: {strategy} access log on {second}"
            answers.add(served.answers)
    # The naive strategy reads its constants from the query, not the plan.
    assert len(answers) == 1, f"seed {seed}: strategies disagree on {second}"


# -- (c') what a shape carries is built once --------------------------------------
def _every_door(engine: Engine, text: str) -> list:
    """Answers through every strategy, ``execute`` and ``stream``, both orders."""
    answers = []
    for optimizer in ("structural", "cost"):
        for strategy in STRATEGIES:
            answers.append(engine.execute(text, strategy=strategy, optimizer=optimizer).answers)
        streamed = engine.stream(text, strategy="distillation", optimizer=optimizer)
        answers.append(frozenset(answer.row for answer in streamed))
    return answers


def test_second_query_of_a_shape_compiles_and_parses_nothing(example, monkeypatch) -> None:
    compiled, parsed = [], []

    class CountingProgram(JoinProgram):
        def __init__(self, *args, **kwargs) -> None:
            compiled.append(args)
            super().__init__(*args, **kwargs)

    grammar = repro.query.parser._parse_uncached
    monkeypatch.setattr(repro.plan.plan, "JoinProgram", CountingProgram)
    monkeypatch.setattr(
        repro.query.parser, "_parse_uncached", lambda text: parsed.append(text) or grammar(text)
    )
    monkeypatch.setattr(repro.query.parser, "_MEMO", {})
    with Engine(example.schema, example.instance) as engine:
        first = _every_door(engine, example.query_text)
        assert set(first) == {example.expected_answers}
        # Full body (a stream joins it incrementally) and fast-fail prefixes;
        # the text and (to derive its template) its marked skeleton.
        assert len(compiled) >= 3 and parsed[0] == example.query_text and len(parsed) == 2
        del compiled[:], parsed[:]
        engine.reset_session()
        second = _every_door(engine, example.query_text.replace("volare", "la vie en rose"))
    assert len(set(second)) == 1 and second != first
    assert compiled == [] and parsed == []


def test_no_plan_driven_run_calls_the_reference_evaluator(engine, example, monkeypatch) -> None:
    def forbidden(*args, **kwargs):
        raise AssertionError("evaluate_conjunction called on the hot path")

    monkeypatch.setattr(repro.query.evaluate, "evaluate_conjunction", forbidden)
    for optimizer in ("structural", "cost"):
        for strategy in ("fast_fail", "distillation"):
            result = engine.execute(example.query_text, strategy=strategy, optimizer=optimizer)
            assert result.answers == example.expected_answers
            engine.reset_session()
    streamed = engine.stream(example.query_text, strategy="distillation")
    assert {answer.row for answer in streamed} == example.expected_answers
    # The naive baseline is the reference interpreter's caller: the patch bites.
    with pytest.raises(AssertionError, match="hot path"):
        engine.execute(example.query_text, strategy="naive")


# -- (d) failed plans are never cached -----------------------------------------
def test_unanswerable_shape_raises_every_time_with_the_current_query(engine) -> None:
    for year in (1928, 1938, 1928):
        text = f"q(N) <- r1(A, N, {year})"
        with pytest.raises(UnanswerableQueryError) as info:
            engine.plan(text)
        assert str(info.value.query) == text
        assert f"r1(A, N, {year})" in str(info.value)
    assert _plan_cache(engine) == {
        "hits": 0, "misses": 3, "hit_rate": 0.0, "entries": 0, "evictions": 0
    }  # fmt: skip


# -- (e) the cache is bounded ----------------------------------------------------
def test_lru_bound_holds_and_evicted_shapes_replan() -> None:
    engine = _keyed_engine()
    overflow = 5
    for index in range(PLAN_CACHE_ENTRIES + overflow):
        engine.plan(f"q(X{index}) <- r('a', X{index})")
    stats = _plan_cache(engine)
    assert (stats["entries"], stats["evictions"]) == (PLAN_CACHE_ENTRIES, overflow)
    # The oldest shape is gone and plans again, correctly; a recent one hits.
    assert engine.execute("q(X0) <- r('b', X0)").answers == {("v2",), ("v3",)}
    engine.plan(f"q(X{PLAN_CACHE_ENTRIES}) <- r('b', X{PLAN_CACHE_ENTRIES})")
    after = _plan_cache(engine)
    assert (after["misses"], after["hits"]) == (stats["misses"] + 1, 1)
    assert after["entries"] == PLAN_CACHE_ENTRIES


# -- (f) concurrent planning -----------------------------------------------------
def test_eight_threads_on_two_shapes_agree_with_the_serial_run(example) -> None:
    songs = ("volare", "azzurro", "la vie en rose", "unknown")
    queries = [example.query_text.replace("volare", song) for song in songs]
    queries += [REDUNDANT.format(k=song) for song in songs]
    with Engine(example.schema, example.instance) as serial:
        expected = [
            (str(serial.plan(q).to_datalog()), result.answers)
            for q, result in zip(queries, serial.execute_many(queries, max_parallel=1))
        ]
    threads, rounds = 8, 25
    barrier = threading.Barrier(threads)

    def worker(engine: Engine, offset: int) -> None:
        barrier.wait(timeout=30)
        # Execute and stream before anything else, so the threads race to
        # compile the two shapes' join programs on first use.
        at = offset % len(queries)
        strategy = STRATEGIES[1:][offset % 2]
        assert engine.execute(queries[at], strategy=strategy).answers == expected[at][1]
        streamed = engine.stream(queries[at], strategy="distillation")
        assert frozenset(answer.row for answer in streamed) == expected[at][1]
        for step in range(rounds):
            at = (offset + step) % len(queries)
            assert str(engine.plan(queries[at]).to_datalog()) == expected[at][0]
        results = engine.execute_many(queries, max_parallel=2)
        assert [result.answers for result in results] == [answers for _, answers in expected]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Engine(example.schema, example.instance) as engine:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(worker, engine, index) for index in range(threads)]
                for future in futures:
                    future.result(timeout=120)
            stats = _plan_cache(engine)
    finally:
        sys.setswitchinterval(interval)
    # No lost update: every plan() call was counted exactly once.
    assert stats["hits"] + stats["misses"] == threads * (2 + rounds + len(queries))
    assert stats["entries"] == 2 and 2 <= stats["misses"] <= 2 * threads


# -- (g) the cache outlives the session, and nothing else does -------------------
def test_reset_session_keeps_plans_but_no_accesses_or_meta_hits(engine, example) -> None:
    first = engine.execute(example.query_text)
    assert first.total_accesses == 2
    engine.reset_session()
    # Plans are a function of the schema, so they and their counters (which
    # run for the engine's lifetime) stay ...
    assert _plan_cache(engine) == {
        "hits": 0, "misses": 1, "hit_rate": 0.0, "entries": 1, "evictions": 0
    }  # fmt: skip
    again = engine.execute(example.query_text)
    assert _plan_cache(engine)["hits"] == 1
    # ... while the data is gone: the same accesses are performed again.
    assert again.total_accesses == first.total_accesses
    assert again.answers == first.answers
    stats = engine.session_stats()
    assert (stats["executions"], stats["total_accesses"], stats["meta_hits"]) == (1, 2, 0)
