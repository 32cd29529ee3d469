"""Database instances: finite relations over the schemata.

An instance assigns to every relation schema a finite set of tuples whose
length matches the relation's arity.  Relation instances maintain secondary
hash indexes on the input positions of their access pattern, so that an
access (a lookup with all input arguments bound) costs a dictionary lookup
instead of a scan — this is the in-memory equivalent of the SQL selection the
paper's prototype issues for every access.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.exceptions import InstanceError
from repro.model.schema import RelationSchema, Schema

Value = object
Tuple_ = Tuple[Value, ...]
_EMPTY: FrozenSet[Tuple_] = frozenset()


class RelationInstance:
    """The extension of a single relation.

    Tuples are plain Python tuples of hashable values, arity-checked on
    insertion and indexed by their input values: the bare value for a
    one-input relation, a tuple for several, ``()`` for a free one.  A key's
    bucket is its row while it has one, a list once it has more, and a
    ``frozenset`` from its first :meth:`lookup` on, so an unread key costs
    one dict slot, not a set.  A lookup freezes the bucket in place and hands
    out that object (no copy per access); an add thaws only its own bucket,
    so an answer handed out never changes.  Two threads freezing one bucket
    race harmlessly (equal frozensets, the last one stays).
    """

    def __init__(self, schema: RelationSchema, tuples: Iterable[Tuple_] = ()) -> None:
        self.schema = schema
        self._tuples: Set[Tuple_] = set()
        self._index: Dict[object, object] = {}  # key -> row | [rows] | frozenset
        positions = schema.input_positions
        self._width = len(positions)
        # A free relation's one key is ``row[0:0] == ()``, still a C call.
        self._key = itemgetter(*positions) if positions else itemgetter(slice(0, 0))
        self.add_all(tuples)

    # -- mutation -----------------------------------------------------------
    def add(self, row: Iterable[Value]) -> bool:
        """Add a tuple; returns True if it was not already present."""
        return self.add_all((row,)) == 1

    def add_all(self, rows: Iterable[Iterable[Value]]) -> int:
        """Add many tuples; returns how many were new.  A wrong-arity row
        raises :class:`InstanceError`, keeping the rows added before it."""
        arity, key_of = self.schema.arity, self._key
        tuples, index = self._tuples, self._index
        added = len(tuples)
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                raise InstanceError(
                    f"tuple {row!r} has arity {len(row)} but relation "
                    f"{self.schema.name!r} has arity {arity}"
                )
            if row in tuples:
                continue
            tuples.add(row)
            key = key_of(row)
            bucket = index.setdefault(key, row)
            if type(bucket) is list:
                bucket.append(row)
            elif bucket is not row:  # one row so far, or frozen by a lookup: thaw a copy
                index[key] = [bucket, row] if type(bucket) is tuple else [*bucket, row]
        return len(tuples) - added

    # -- lookup --------------------------------------------------------------
    def lookup(self, binding: Tuple_) -> FrozenSet[Tuple_]:
        """The tuples whose input arguments equal ``binding``: one value per
        input position, in their order; ``()`` reads a free relation whole."""
        binding = tuple(binding)
        if len(binding) != self._width:
            raise InstanceError(
                f"access to {self.schema.name!r} must bind {self._width} input argument(s), "
                f"got {len(binding)}"
            )
        key = binding[0] if self._width == 1 else binding
        bucket = self._index.get(key)
        if bucket is None:
            return _EMPTY
        if type(bucket) is not frozenset:
            bucket = self._index[key] = frozenset((bucket,) if type(bucket) is tuple else bucket)
        return bucket

    # -- container protocol ----------------------------------------------------
    def __iter__(self) -> Iterator[Tuple_]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, row: object) -> bool:
        return row in self._tuples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationInstance):
            return NotImplemented
        return self.schema == other.schema and self._tuples == other._tuples

    def as_set(self) -> FrozenSet[Tuple_]:
        return frozenset(self._tuples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RelationInstance({self.schema.name!r}, {len(self)} tuples)"


class DatabaseInstance:
    """A database: one :class:`RelationInstance` per relation of a schema.

    Relations that have no explicit extension are treated as empty.
    """

    def __init__(
        self,
        schema: Schema,
        extensions: Optional[Mapping[str, Iterable[Tuple_]]] = None,
    ) -> None:
        self.schema = schema
        self._relations: Dict[str, RelationInstance] = {}
        for relation_schema in schema:
            self._relations[relation_schema.name] = RelationInstance(relation_schema)
        if extensions:
            for name, rows in extensions.items():
                self.add_tuples(name, rows)

    # -- mutation -----------------------------------------------------------
    def add_tuple(self, relation_name: str, row: Iterable[Value]) -> bool:
        return self.relation(relation_name).add(row)

    def add_tuples(self, relation_name: str, rows: Iterable[Iterable[Value]]) -> int:
        return self.relation(relation_name).add_all(rows)

    # -- lookup --------------------------------------------------------------
    def relation(self, relation_name: str) -> RelationInstance:
        try:
            return self._relations[relation_name]
        except KeyError:
            raise InstanceError(
                f"database has no relation named {relation_name!r}"
            ) from None

    def __getitem__(self, relation_name: str) -> RelationInstance:
        return self.relation(relation_name)

    def __contains__(self, relation_name: str) -> bool:
        return relation_name in self._relations

    def __iter__(self) -> Iterator[RelationInstance]:
        return iter(self._relations.values())

    def relation_names(self) -> List[str]:
        return list(self._relations)

    def total_tuples(self) -> int:
        return sum(len(relation) for relation in self._relations.values())

    def as_dict(self) -> Dict[str, FrozenSet[Tuple_]]:
        """Snapshot of the database as ``{relation_name: frozenset_of_tuples}``."""
        return {name: relation.as_set() for name, relation in self._relations.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseInstance):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = {name: len(relation) for name, relation in self._relations.items()}
        return f"DatabaseInstance({sizes})"
