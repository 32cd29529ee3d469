"""Relation schemata and database schemata.

A relation schema is a signature ``r^α(A1, ..., An)``: a relation name, an
access pattern ``α`` and one abstract domain per argument (positional
notation; the ``Ai`` are domains, not attribute names).  A database schema is
a set of relation schemata with pairwise distinct names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.exceptions import SchemaError
from repro.model.access import AccessMode, AccessPattern, ModesLike
from repro.model.domains import AbstractDomain


@dataclass(frozen=True)
class RelationSchema:
    """The signature of a single relation with its access pattern.

    Attributes:
        name: relation name, unique within a :class:`Schema`.
        pattern: the :class:`AccessPattern` of the relation.
        domains: one :class:`AbstractDomain` per argument, positionally.
    """

    name: str
    pattern: AccessPattern
    domains: Tuple[AbstractDomain, ...]
    #: Domains of the input arguments, positionally ordered.
    input_domains: Tuple[AbstractDomain, ...] = field(init=False, repr=False, compare=False)
    #: Domains of the output arguments, positionally ordered.
    output_domains: Tuple[AbstractDomain, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("a relation schema must have a non-empty name")
        if not isinstance(self.domains, tuple):
            object.__setattr__(self, "domains", tuple(self.domains))
        if not isinstance(self.pattern, AccessPattern):
            object.__setattr__(self, "pattern", AccessPattern.parse(self.pattern))
        if len(self.domains) != self.pattern.arity:
            raise SchemaError(
                f"relation {self.name!r}: access pattern {self.pattern} has arity "
                f"{self.pattern.arity} but {len(self.domains)} domains were given"
            )
        for position, domain_ in enumerate(self.domains):
            if not isinstance(domain_, AbstractDomain):
                raise SchemaError(
                    f"relation {self.name!r}: argument {position} is not an AbstractDomain"
                )
        object.__setattr__(
            self, "input_domains", tuple(self.domains[i] for i in self.input_positions)
        )
        object.__setattr__(
            self, "output_domains", tuple(self.domains[i] for i in self.output_positions)
        )

    # -- construction ------------------------------------------------------
    @classmethod
    def build(
        cls,
        name: str,
        pattern: ModesLike,
        domains: Sequence[Union[AbstractDomain, str]],
    ) -> "RelationSchema":
        """Build a relation schema, accepting domain names as plain strings."""
        resolved = tuple(
            domain_ if isinstance(domain_, AbstractDomain) else AbstractDomain(domain_)
            for domain_ in domains
        )
        return cls(name=name, pattern=AccessPattern.parse(pattern), domains=resolved)

    # -- inspection ---------------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.domains)

    @property
    def is_free(self) -> bool:
        """A relation is free when its access pattern has no input argument."""
        return self.pattern.is_free

    @property
    def is_nullary(self) -> bool:
        return self.arity == 0

    @property
    def input_positions(self) -> Tuple[int, ...]:
        return self.pattern.input_positions

    @property
    def output_positions(self) -> Tuple[int, ...]:
        return self.pattern.output_positions

    def domain_at(self, position: int) -> AbstractDomain:
        return self.domains[position]

    def mode_at(self, position: int) -> AccessMode:
        return self.pattern.mode_at(position)

    def signature(self) -> str:
        """Human-readable signature, e.g. ``r1^io(Artist, Nation)``."""
        domains = ", ".join(domain_.name for domain_ in self.domains)
        return f"{self.name}^{self.pattern}({domains})"

    def __str__(self) -> str:
        return self.signature()


class Schema:
    """A database schema: a collection of relation schemata by name.

    The class behaves like a read-mostly mapping from relation name to
    :class:`RelationSchema`, plus a few convenience queries used by the
    planning machinery (free relations, domains, ...).
    """

    def __init__(self, relations: Iterable[RelationSchema] = ()) -> None:
        self._relations: Dict[str, RelationSchema] = {}
        for relation in relations:
            self.add(relation)

    # -- construction ------------------------------------------------------
    def add(self, relation: RelationSchema) -> None:
        """Add a relation schema; rejects duplicate names with a different signature."""
        existing = self._relations.get(relation.name)
        if existing is not None and existing != relation:
            raise SchemaError(
                f"schema already contains a different relation named {relation.name!r}"
            )
        self._relations[relation.name] = relation

    def add_relation(
        self,
        name: str,
        pattern: ModesLike,
        domains: Sequence[Union[AbstractDomain, str]],
    ) -> RelationSchema:
        """Build and add a relation schema in one call; returns it."""
        relation = RelationSchema.build(name, pattern, domains)
        self.add(relation)
        return relation

    @classmethod
    def from_signatures(
        cls, signatures: Mapping[str, Tuple[ModesLike, Sequence[Union[AbstractDomain, str]]]]
    ) -> "Schema":
        """Build a schema from ``{name: (pattern, domains)}``."""
        schema = cls()
        for name, (pattern, domains) in signatures.items():
            schema.add_relation(name, pattern, domains)
        return schema

    def extended_with(self, relations: Iterable[RelationSchema]) -> "Schema":
        """Return a new schema containing this schema's relations plus ``relations``."""
        extended = Schema(self._relations.values())
        for relation in relations:
            extended.add(relation)
        return extended

    # -- mapping interface ---------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __getitem__(self, name: str) -> RelationSchema:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"schema has no relation named {name!r}") from None

    def get(self, name: str) -> Optional[RelationSchema]:
        return self._relations.get(name)

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._relations == other._relations

    # -- queries ---------------------------------------------------------------
    @property
    def relation_names(self) -> List[str]:
        return list(self._relations)

    @property
    def relations(self) -> List[RelationSchema]:
        return list(self._relations.values())

    def domains(self) -> Set[AbstractDomain]:
        """All abstract domains mentioned by some relation of the schema."""
        found: Set[AbstractDomain] = set()
        for relation in self:
            found.update(relation.domains)
        return found

    def describe(self) -> str:
        """Multi-line human-readable description of the schema."""
        return "\n".join(relation.signature() for relation in self)

    def __str__(self) -> str:
        return self.describe()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schema({sorted(self._relations)})"
