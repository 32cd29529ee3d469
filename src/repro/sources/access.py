"""Accesses and access tuples.

An *access* is the smallest operation that can be performed on a relation
with access limitations: a lookup in which every input argument is bound with
a constant and all output arguments are unconstrained (Section II).  The
binding used by an access is an :class:`AccessTuple`; the pair (relation,
binding) identifies the access, and the set of such pairs performed by a plan
on a database is the quantity the paper's minimality notions compare.
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple, Tuple

from repro.exceptions import AccessError
from repro.model.schema import RelationSchema


class AccessTuple(NamedTuple):
    """The binding of an access: one value per input argument, in order.

    For a free relation the binding is the empty tuple; the access then
    retrieves the whole extension.  Immutable, hashable and ordered by
    ``(relation, binding)``.
    """

    relation: str
    binding: Tuple[object, ...]

    def __str__(self) -> str:
        rendered = ", ".join(repr(value) for value in self.binding)
        return f"{self.relation}[{rendered}]"


class AccessRecord(NamedTuple):
    """The outcome of one access: the access tuple plus what it returned.

    Attributes:
        access: the access tuple that was sent to the source.
        rows: the tuples returned by the source (full tuples of the relation).
        sequence_number: position of this access in its execution's log
            (how many accesses that run had logged before it).
        simulated_time: simulated clock value (seconds) at which the access
            completed, according to the wrapper's latency model.
    """

    access: AccessTuple
    rows: FrozenSet[Tuple[object, ...]]
    sequence_number: int
    simulated_time: float = 0.0

    @property
    def relation(self) -> str:
        return self.access.relation

    @property
    def row_count(self) -> int:
        return len(self.rows)


def validate_binding(schema: RelationSchema, binding: Tuple[object, ...]) -> None:
    """Check that a binding has exactly one value per input argument.

    Raises:
        repro.exceptions.AccessError: when the binding length is wrong.
    """
    expected = len(schema.input_domains)
    if len(binding) != expected:
        raise AccessError(
            f"access to {schema.name!r} must bind {expected} input argument(s); "
            f"got binding of length {len(binding)}"
        )
