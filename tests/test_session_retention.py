"""What a session keeps per performed access: the meta-cache record, and
nothing the collector has to walk for it.

The session counts accesses instead of logging them — each run's
``AccessLog`` travels on its ``Result`` and dies with it — and the memory
source hands out its own frozen buckets instead of copies, so the store's
record of an access *is* the instance's bucket.  (At PR 24 a session kept
three collector-tracked objects per access until ``reset_session()``: a
copied ``frozenset``, an ``AccessRecord`` and an ``AccessTuple``.)
"""

from __future__ import annotations

import asyncio
import gc
import sys
import threading

import pytest

from repro import Engine
from repro.examples import make_scenario, mixed_workload
from repro.model.instance import RelationInstance
from repro.model.schema import RelationSchema
from repro.sources.access import AccessRecord, AccessTuple

SCENARIOS = {
    "wide-fanout": dict(width=5, fanout=4),
    "chain": dict(length=3, width=4),
}


def _live_access_objects() -> int:
    gc.collect()
    return sum(isinstance(o, (AccessRecord, AccessTuple)) for o in gc.get_objects())


def test_dropped_results_leave_no_access_record_or_tuple_in_the_session() -> None:
    workload = mixed_workload(("star", "diamond", "chain", "wide-fanout"), repeat=1)
    first, second, third, fourth = workload.query_texts()
    loop = asyncio.new_event_loop()
    try:
        with Engine(workload.schema, workload.instance) as engine:
            before = _live_access_objects()
            engine.execute(first, strategy="fast_fail")
            engine.execute(second, strategy="distillation")
            loop.run_until_complete(engine.aexecute(third, concurrency="async"))
            assert sum(1 for _ in engine.stream(fourth)) > 0
            session = engine.session
            assert session.executions == 4
            # Every access was performed once and is recorded in the store...
            assert session.total_accesses == session.known_accesses > 4
            # ...and that record is all the session kept of it.
            assert _live_access_objects() == before
    finally:
        loop.close()


@pytest.mark.parametrize("concurrency", ["simulated", "async"])
@pytest.mark.parametrize("strategy", ["fast_fail", "distillation"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_store_record_is_the_instances_own_bucket(
    scenario: str, strategy: str, concurrency: str
) -> None:
    # ``chain`` starts at a free relation: the whole-extension access too.
    example = make_scenario(scenario, **SCENARIOS[scenario])
    with Engine(example.schema, example.instance) as engine:
        result = engine.execute(example.query_text, strategy=strategy, concurrency=concurrency)
        store = engine.session.store
        assert store.stats()["binding_entries"] == result.total_accesses > 0
        for (relation, binding), rows, _, _ in result.access_log:
            own = example.instance.relation(relation).lookup(binding)
            assert rows is own
            assert store.get(relation, binding) is own


def test_a_lookup_hands_out_the_same_frozen_bucket_until_an_add() -> None:
    """Lookups freeze a bucket in place; an add thaws only its own bucket.

    Two threads freezing one bucket at once race harmlessly: each builds an
    equal ``frozenset`` and the index keeps the last.
    """
    relation = RelationInstance(
        RelationSchema.build("r", "io", ["A", "B"]), [("a", 1), ("a", 2), ("b", 3)]
    )
    first = relation.lookup(("a",))
    assert isinstance(first, frozenset) and first == {("a", 1), ("a", 2)}
    assert relation.lookup(["a"]) is first
    assert relation.lookup(("nobody",)) == frozenset()
    assert not relation.add(("a", 1))  # a duplicate changes nothing
    assert relation.lookup(("a",)) is first

    assert relation.add(("a", 4))
    assert first == {("a", 1), ("a", 2)}  # what was handed out never changes
    second = relation.lookup(("a",))
    assert second == {("a", 1), ("a", 2), ("a", 4)}
    assert relation.lookup(("a",)) is second
    relation.add(("b", 5))  # another bucket's add leaves this one frozen
    assert relation.lookup(("a",)) is second
    assert relation.lookup(("b",)) == {("b", 3), ("b", 5)}
    relation.add(("c", 6))  # a new key after lookups
    assert relation.lookup(("c",)) == {("c", 6)}


def test_threads_freezing_the_same_buckets_all_read_the_right_rows() -> None:
    """Eight threads race to the first lookup of the same 200 buckets, with
    a thread switch forced every microsecond: every answer has the bucket's
    rows, and once the race is over every binding has one frozen object."""
    rows = [(key, value) for key in range(200) for value in range(3)]
    relation = RelationInstance(RelationSchema.build("r", "io", ["A", "B"]), rows)
    expected = {key: frozenset((key, value) for value in range(3)) for key in range(200)}
    barrier = threading.Barrier(8)
    wrong: list = []

    def read() -> None:
        barrier.wait(timeout=10)
        for key in range(200):
            if relation.lookup((key,)) != expected[key]:
                wrong.append(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    assert all(relation.lookup((key,)) is relation.lookup((key,)) for key in range(200))


def test_a_free_relation_follows_the_same_rules() -> None:
    schema = RelationSchema.build("f", "oo", ["A", "B"])
    assert RelationInstance(schema).lookup(()) == frozenset()
    relation = RelationInstance(schema, [(1, 2)])
    whole = relation.lookup(())
    assert whole == {(1, 2)} and relation.lookup(()) is whole
    relation.add((3, 4))
    assert whole == {(1, 2)}
    again = relation.lookup(())
    assert again == {(1, 2), (3, 4)} == relation.as_set()
    assert relation.lookup(()) is again
