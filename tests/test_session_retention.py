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
import tracemalloc

import pytest

from repro import Engine
from repro.examples import make_scenario, mixed_workload
from repro.exceptions import InstanceError
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


def _two_column(rows=()) -> RelationInstance:
    return RelationInstance(RelationSchema.build("r", "io", ["A", "B"]), rows)


def test_a_key_grows_from_one_row_to_several_then_freezes_and_thaws() -> None:
    """A bucket is the row itself, then a list, then a ``frozenset``; each
    step answers the same rows, and only a lookup or an add replaces it."""
    relation = _two_column([("a", 1)])
    assert relation._index["a"] == ("a", 1)  # one row: the row is the bucket
    assert relation.add(("a", 2)) and not relation.add(("a", 1))
    assert sorted(relation._index["a"]) == [("a", 1), ("a", 2)]  # a list
    frozen = relation.lookup(("a",))
    assert frozen == {("a", 1), ("a", 2)} and relation._index["a"] is frozen
    assert relation.lookup(("a",)) is frozen
    assert relation.add(("a", 3))  # thawed into a new list
    assert frozen == {("a", 1), ("a", 2)}
    thawed = relation.lookup(("a",))
    assert thawed == {("a", 1), ("a", 2), ("a", 3)} and thawed is not frozen
    assert relation.lookup(("a",)) is thawed
    # A one-row key freezes straight from the row.
    assert relation.add(("b", 9))
    single = relation.lookup(("b",))
    assert single == {("b", 9)} and relation.lookup(("b",)) is single


def test_one_input_values_that_are_tuples_key_like_any_other_value() -> None:
    rows = [((1, 2), "x"), ((1, 2), "y"), ((3,), "z"), ((), "e")]
    relation = _two_column(rows)
    assert relation.lookup(((1, 2),)) == {((1, 2), "x"), ((1, 2), "y")}
    assert relation.lookup(((3,),)) == {((3,), "z")}
    assert relation.lookup(((),)) == {((), "e")}
    assert relation.lookup((1,)) == frozenset() == relation.lookup((3,))


def test_a_two_input_key_is_the_tuple_of_its_values_in_position_order() -> None:
    relation = RelationInstance(
        RelationSchema.build("t", "ioi", ["A", "B", "C"]),
        [(1, "p", 2), (1, "q", 2), (2, "r", 1), (1, "s", 3)],
    )
    assert relation.lookup((1, 2)) == {(1, "p", 2), (1, "q", 2)}
    assert relation.lookup((2, 1)) == {(2, "r", 1)}
    assert relation.lookup((1, 3)) == {(1, "s", 3)} and relation.lookup((3, 1)) == frozenset()
    with pytest.raises(InstanceError, match="must bind 2 input argument"):
        relation.lookup((1,))


def test_rows_given_as_lists_are_stored_and_answered_as_tuples() -> None:
    relation = _two_column([["a", 1], ["a", 2]])
    assert relation.add(["b", 3]) and not relation.add(["a", 1])
    assert relation.as_set() == {("a", 1), ("a", 2), ("b", 3)}
    assert relation.lookup(["a"]) == {("a", 1), ("a", 2)}
    assert all(type(row) is tuple for row in relation.lookup(("b",)))


def test_duplicates_inside_one_bulk_load_count_and_index_once() -> None:
    relation = _two_column()
    assert relation.add_all([("a", 1), ("a", 1), ["a", 1], ("a", 2), ("b", 3), ("b", 3)]) == 3
    assert len(relation) == 3
    assert sorted(relation._index["a"]) == [("a", 1), ("a", 2)]
    assert relation._index["b"] == ("b", 3)
    assert relation.add_all([("a", 2), ("b", 3)]) == 0


def test_a_wrong_arity_row_raises_and_keeps_the_rows_before_it() -> None:
    relation = _two_column([("a", 1)])
    with pytest.raises(InstanceError) as raised:
        relation.add_all([("a", 2), ("b", 3), ("c", 4, 5), ("d", 6)])
    assert str(raised.value) == "tuple ('c', 4, 5) has arity 3 but relation 'r' has arity 2"
    assert relation.as_set() == {("a", 1), ("a", 2), ("b", 3)}
    assert relation.lookup(("a",)) == {("a", 1), ("a", 2)}
    assert relation.lookup(("d",)) == frozenset()
    with pytest.raises(InstanceError, match=r"tuple \('x',\) has arity 1"):
        relation.add(("x",))


def test_loading_rows_makes_a_constant_number_of_python_calls() -> None:
    """A bulk load runs its per-row loop without a Python-level call, so
    10,000 rows cost what 10 do.  Counted under ``sys.setprofile``, so it
    reads the same on any host (six calls a row while the index was built
    by ``add``)."""
    schema = RelationSchema.build("r", "io", ["A", "B"])

    def calls_to_load(count: int) -> int:
        rows = [(key % 7_000, key) for key in range(count)]
        calls = 0

        def profiler(frame, event, arg) -> None:
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(profiler)
        try:
            relation = RelationInstance(schema, rows)
        finally:
            sys.setprofile(None)
        assert len(relation) == count
        return calls

    assert calls_to_load(10_000) == calls_to_load(10) <= 5


def test_an_unread_key_costs_at_most_200_bytes_of_index_per_row() -> None:
    """10,000 distinct one-input keys: row set and index under
    ``tracemalloc`` (82 bytes a row on CPython 3.11; 346 while every key
    had its own ``set``)."""
    schema = RelationSchema.build("r", "io", ["A", "B"])
    rows = [(key, key + 1) for key in range(10_000)]
    tracemalloc.start()
    try:
        relation = RelationInstance(schema, rows)
        used, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(relation) == len(rows)
    assert used / len(rows) <= 200, used / len(rows)
