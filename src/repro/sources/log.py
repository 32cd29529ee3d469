"""The access log of one execution.

The log records every access performed during the evaluation of a query, in
order, and offers the per-relation aggregations the engine reports: number
of accesses and number of extracted (distinct) rows per relation — exactly
the columns of Figure 6 of the paper.  It travels on the run's
:class:`~repro.engine.result.Result`; the engine session keeps only its
access counts (:attr:`~repro.engine.engine.EngineSession.total_accesses`,
in total and per relation).

Recording is the hot half — once per source access — so it appends one
plain tuple.  Reading is the cold half: the aggregates are brought up to
date *on demand*, from a watermark into the entries, and the record views
are built when iterated.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from repro.sources.access import AccessRecord, AccessTuple

Row = Tuple[object, ...]
Binding = Tuple[object, ...]
Entry = Tuple[str, Binding, FrozenSet[Row], float]


class RelationTotals:
    """What one relation's accesses in a log add up to.

    Attributes:
        accesses: accesses made to the relation.
        rows: the distinct rows they extracted (their union).
    """

    __slots__ = ("accesses", "rows")

    def __init__(self) -> None:
        self.accesses = 0
        self.rows: Set[Row] = set()


class AccessLog:
    """An ordered record of one execution's accesses with per-relation
    aggregation.

    A log has exactly one writer: the coordinating thread of its run's
    dispatcher, which is why it takes no lock.  Its readers run once that
    writer is done (the run has ended or been closed).
    """

    def __init__(self) -> None:
        #: ``(relation, binding, rows, simulated_time)`` per access, in order.
        self._entries: List[Entry] = []
        #: Per-relation aggregates over ``_entries[:_aggregated]``, keyed in
        #: order of first access.
        self._totals: Dict[str, RelationTotals] = {}
        self._aggregated = 0

    # -- recording -----------------------------------------------------------
    def record(
        self, relation: str, binding: Binding, rows: FrozenSet[Row], simulated_time: float
    ) -> None:
        """Log one performed access, completed at ``simulated_time``."""
        self._entries.append((relation, binding, rows, simulated_time))

    # -- aggregation -----------------------------------------------------------
    def totals(self) -> Dict[str, RelationTotals]:
        """Per-relation aggregates of everything recorded so far, keyed in
        order of first access.  The mapping is live — read it, don't keep it."""
        entries = self._entries
        totals = self._totals
        for index in range(self._aggregated, len(entries)):
            relation, _, rows, _ = entries[index]
            entry = totals.get(relation)
            if entry is None:
                entry = totals[relation] = RelationTotals()
            entry.accesses += 1
            entry.rows.update(rows)
        self._aggregated = len(entries)
        return totals

    @property
    def total_accesses(self) -> int:
        return len(self._entries)

    def accesses_of(self, relation: str) -> int:
        """Number of accesses made to the given relation."""
        entry = self.totals().get(relation)
        return entry.accesses if entry is not None else 0

    def rows_of(self, relation: str) -> FrozenSet[Row]:
        """Distinct rows extracted from the given relation."""
        entry = self.totals().get(relation)
        return frozenset(entry.rows) if entry is not None else frozenset()

    def row_count_of(self, relation: str) -> int:
        entry = self.totals().get(relation)
        return len(entry.rows) if entry is not None else 0

    def accessed_relations(self) -> List[str]:
        """Relations accessed at least once, in order of first access."""
        return list(self.totals())

    def access_set(self) -> FrozenSet[AccessTuple]:
        """The set ``Acc(D, Π)`` of the paper: all distinct accesses made."""
        return frozenset(AccessTuple(name, binding) for name, binding, _, _ in self._entries)

    def per_relation_summary(self) -> Dict[str, Tuple[int, int]]:
        """``{relation: (accesses, distinct_rows)}`` for every accessed relation."""
        return {
            relation: (entry.accesses, len(entry.rows))
            for relation, entry in self.totals().items()
        }

    # -- container protocol -------------------------------------------------------
    def __iter__(self) -> Iterator[AccessRecord]:
        for sequence, (relation, binding, rows, simulated_time) in enumerate(self._entries):
            yield AccessRecord(AccessTuple(relation, binding), rows, sequence, simulated_time)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AccessLog({self.total_accesses} accesses over {len(self.totals())} relations)"
