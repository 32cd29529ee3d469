"""The indexed cache layer and the delta-driven binding machinery."""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

from repro.model.schema import Schema
from repro.plan.bindings import DeltaProduct
from repro.sources.cache import CacheTable, MetaCache

SCHEMA = Schema.from_signatures({"r": ("ioo", ["A", "B", "C"])})
RELATION = SCHEMA["r"]


def test_cache_table_positional_indexes_track_insertions() -> None:
    table = CacheTable("r_hat", RELATION)
    assert table.add(("a", "x", 1))
    assert table.add(("a", "y", 2))
    assert not table.add(("a", "x", 1))  # duplicate row: no index churn
    assert table.values_at(0) == {"a"}
    assert table.values_at(1) == {"x", "y"}
    assert table.value_log(1) == ["x", "y"]
    assert table.value_count(1) == 2

    # The log is append-only: a watermark slice sees exactly the new values.
    mark = table.value_count(1)
    table.add(("b", "z", 3))
    assert table.value_log(1)[mark:] == ["z"]
    assert table.values_at(0) == {"a", "b"}


def _grouped(table: CacheTable, positions: Tuple[int, ...]) -> Dict[tuple, List[tuple]]:
    """The lazy reference: the row log grouped by ``positions``, rows too
    short for them left out."""
    reference: Dict[tuple, List[tuple]] = {}
    for row in table.row_log():
        if len(row) > max(positions, default=-1):
            reference.setdefault(tuple(row[p] for p in positions), []).append(row)
    return reference


@pytest.mark.parametrize("seed", range(25))
def test_an_index_registered_at_any_time_equals_the_grouped_row_log(seed: int) -> None:
    rng = random.Random(seed)
    table = CacheTable("r_hat", RELATION)
    groups = [(0,), (1,), (2,), (0, 2), (2, 0), (1, 1), (), (3,), (0, 3)]
    rng.shuffle(groups)
    registered: Dict[Tuple[int, ...], dict] = {}
    for step in range(12):
        # Register some indexes before, between and after the rows ...
        for positions in groups[step::4]:
            if positions not in registered:
                registered[positions] = table.index_for(positions)
        # ... which come in every arity the table tolerates: its own, shorter
        # (skipped by any index that needs the missing position), longer.
        for _ in range(rng.randint(0, 4)):
            arity = rng.choice([3, 3, 3, 1, 2, 4])
            table.add(tuple(rng.choice("abc") for _ in range(arity)))
        for positions, index in registered.items():
            assert index == _grouped(table, positions), positions
            # The same dictionary for the table's life: it grew in place.
            assert table.index_for(positions) is index
    assert set(registered) == set(groups)
    assert len(table) == len(table.row_log()) == len(set(table.row_log()))


@pytest.mark.parametrize("seed", range(25))
def test_a_value_index_first_asked_late_equals_one_tracked_from_the_start(seed: int) -> None:
    """Value sets and logs are built on the first ask and maintained after:
    a table asked late — after N rows, between rows, over rows of every
    arity — must hold what a table asked before its first row holds."""
    rng = random.Random(seed)
    early, late = CacheTable("r_hat", RELATION), CacheTable("r_hat", RELATION)
    positions = [0, 1, 2, 3]
    for position in positions:
        early.value_log(position)
    asked: List[int] = []
    for step in range(12):
        for _ in range(rng.randint(0, 5)):
            row = tuple(rng.choice("abcd") for _ in range(rng.choice([3, 3, 3, 1, 2, 4])))
            assert early.add(row) == late.add(row)
        if step % 3 == rng.randrange(3) and len(asked) < len(positions):
            asked.append(rng.choice([p for p in positions if p not in asked]))
        for position in asked:
            log = late.value_log(position)
            assert log == early.value_log(position), (position, step)
            assert late.values_at(position) == early.values_at(position) == set(log)
            assert len(set(log)) == len(log)
            # The same live list every time: it grows in place.
            assert late.value_log(position) is log
    for position in positions:
        assert late.value_log(position) == early.value_log(position)
        assert late.values_at(position) == early.values_at(position)


def test_index_buckets_keep_arrival_order_and_ignore_duplicates() -> None:
    table = CacheTable("r_hat", RELATION)
    index = table.index_for((0,))
    assert index == {}
    table.add(("a", "x", 1))
    table.add(("b", "y", 2))
    table.add(("a", "z", 3))
    assert not table.add(("a", "x", 1))
    assert index == {("a",): [("a", "x", 1), ("a", "z", 3)], ("b",): [("b", "y", 2)]}
    # Over-arity rows are filed (the join runner skips them by arity); a row
    # shorter than the widest position is not.
    late = table.index_for((2,))
    table.add(("a", "x", 1, "extra"))
    table.add(("a",))
    assert index[("a",)][-2:] == [("a", "x", 1, "extra"), ("a",)]
    assert late == {(1,): [("a", "x", 1), ("a", "x", 1, "extra")], (2,): [("b", "y", 2)], (3,): [("a", "z", 3)]}


def test_meta_cache_records_accesses_and_counts_hits() -> None:
    meta = MetaCache(RELATION)
    meta.record(("a",), frozenset({("a", "x", 1)}))
    meta.record(("b",), frozenset({("b", "y", 2), ("b", "z", 3)}))
    meta.record(("c",), frozenset())  # an access that returned nothing is still an access
    assert len(meta) == 3
    assert meta.lookup(("b",)) == {("b", "y", 2), ("b", "z", 3)}
    assert meta.lookup(("c",)) == frozenset()
    assert meta.lookup(("z",)) is None  # never performed
    assert meta.hits == 2


def test_delta_product_covers_the_growing_product_exactly_once() -> None:
    left: list = []
    right: list = []
    product = DeltaProduct([left, right])
    emitted: list = []

    assert list(product.fresh()) == []  # both streams empty

    left.extend(["a", "b"])
    emitted += list(product.fresh())
    assert emitted == []  # right still empty: no tuples exist yet

    right.append(1)
    emitted += list(product.fresh())
    assert set(emitted) == {("a", 1), ("b", 1)}

    left.append("c")
    right.append(2)
    emitted += list(product.fresh())

    # Every call yielded only new tuples, and together they cover the full
    # product with no duplicates.
    assert len(emitted) == len(set(emitted))
    assert set(emitted) == {(x, y) for x in "abc" for y in (1, 2)}

    assert list(product.fresh()) == []  # nothing new


def test_delta_product_with_three_streams_matches_full_product() -> None:
    streams: list = [[], [], []]
    product = DeltaProduct(streams)
    emitted: list = []
    # Grow the streams unevenly and in several rounds.
    growth = [(0, "a"), (1, 1), (2, "x"), (0, "b"), (2, "y"), (1, 2), (0, "c")]
    for stream_index, value in growth:
        streams[stream_index].append(value)
        emitted += list(product.fresh())
    expected = {(x, y, z) for x in "abc" for y in (1, 2) for z in "xy"}
    assert len(emitted) == len(set(emitted)) == len(expected)
    assert set(emitted) == expected
