"""Database instances: finite relations over the schemata.

An instance assigns to every relation schema a finite set of tuples whose
length matches the relation's arity.  Relation instances maintain secondary
hash indexes on the input positions of their access pattern, so that an
access (a lookup with all input arguments bound) costs a dictionary lookup
instead of a scan — this is the in-memory equivalent of the SQL selection the
paper's prototype issues for every access.
"""

from __future__ import annotations

from typing import (
    AbstractSet, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple,
)

from repro.exceptions import InstanceError
from repro.model.schema import RelationSchema, Schema

Value = object
Tuple_ = Tuple[Value, ...]
_EMPTY: FrozenSet[Tuple_] = frozenset()


class RelationInstance:
    """The extension of a single relation.

    Tuples are plain Python tuples of hashable values; the instance checks
    arity on insertion and maintains an index keyed by the values at the
    relation's input positions (a free relation's one key is ``()``).  A
    lookup freezes its bucket in place and hands out that ``frozenset`` —
    no copy per access; :meth:`add` thaws the bucket it inserts into, so an
    answer handed out never changes.  Two threads freezing one bucket at
    once race harmlessly (equal frozensets, the last one stays).
    """

    def __init__(self, schema: RelationSchema, tuples: Iterable[Tuple_] = ()) -> None:
        self.schema = schema
        self._tuples: Set[Tuple_] = set()
        self._index: Dict[Tuple_, AbstractSet[Tuple_]] = {}
        for row in tuples:
            self.add(row)

    # -- mutation -----------------------------------------------------------
    def add(self, row: Iterable[Value]) -> bool:
        """Add a tuple; returns True if it was not already present."""
        tupled = tuple(row)
        if len(tupled) != self.schema.arity:
            raise InstanceError(
                f"tuple {tupled!r} has arity {len(tupled)} but relation "
                f"{self.schema.name!r} has arity {self.schema.arity}"
            )
        if tupled in self._tuples:
            return False
        self._tuples.add(tupled)
        key = self._input_key(tupled)
        bucket = self._index.get(key)
        if not isinstance(bucket, set):  # absent, or frozen by a lookup
            bucket = self._index[key] = set(bucket or ())
        bucket.add(tupled)
        return True

    def add_all(self, rows: Iterable[Iterable[Value]]) -> int:
        """Add many tuples; returns how many were new."""
        return sum(1 for row in rows if self.add(row))

    # -- lookup --------------------------------------------------------------
    def _input_key(self, row: Tuple_) -> Tuple_:
        return tuple(row[position] for position in self.schema.input_positions)

    def lookup(self, binding: Tuple_) -> FrozenSet[Tuple_]:
        """Return the tuples whose input arguments equal ``binding``.

        ``binding`` must supply exactly one value per input position, in the
        order of the input positions.  For a free relation the binding is the
        empty tuple and the whole extension is returned.
        """
        binding = tuple(binding)
        expected = len(self.schema.input_positions)
        if len(binding) != expected:
            raise InstanceError(
                f"access to {self.schema.name!r} must bind {expected} input argument(s), "
                f"got {len(binding)}"
            )
        bucket = self._index.get(binding)
        if bucket is None:
            return _EMPTY
        if isinstance(bucket, set):
            bucket = self._index[binding] = frozenset(bucket)
        return bucket

    def values_at(self, position: int) -> Set[Value]:
        """Distinct values occurring at the given argument position."""
        return {row[position] for row in self._tuples}

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
