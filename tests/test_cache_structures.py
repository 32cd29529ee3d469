"""The indexed cache layer and the delta-driven binding machinery."""

from __future__ import annotations

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
