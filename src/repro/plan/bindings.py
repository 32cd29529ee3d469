"""Delta-driven binding generation shared by the plan-driven policies.

Both policies (:mod:`repro.runtime.policy`) enumerate *bindings* for the input arguments of a cache
predicate: tuples drawn from the cross product of the value sets supplied by
the cache's domain providers.  The seed re-enumerated the full product on
every fixpoint pass and relied on a ``tried``/``offered`` set to skip the
bindings already issued, which makes each pass O(|product|) even when a
single new value arrived.  The classes below enumerate only the bindings
that could not have been produced before, so a pass costs time proportional
to the *new* values since the previous pass:

* :class:`DeltaProduct` — the core: given append-only value sequences
  ``V_1 … V_k``, each :meth:`DeltaProduct.fresh` call yields exactly the
  tuples of ``V_1 × … × V_k`` that did not exist at the previous call, via
  the standard semi-naive decomposition (every new tuple is charged to its
  first coordinate holding a new value);
* :class:`ProviderStream` — the materialized value sequence of one domain
  provider, fed from the per-position value logs of the origin cache tables
  (union providers concatenate the origins' deltas; conjunctive providers
  admit a value when its last missing origin receives it);
* :class:`CacheBindingGenerator` — one per cache predicate: pulls every
  provider stream, then yields the fresh bindings of the cache.

All enumeration is deterministic: provider streams sort each batch of new
values by ``repr`` before appending, so the order never depends on set/hash
iteration order.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.plan.plan import CachePredicate, ProviderSpec, QueryPlan
from repro.sources.cache import CacheDatabase


class DeltaProduct:
    """Enumerate only the new tuples of a cross product of growing sequences.

    The sequences must be append-only (existing items never move or vanish).
    Let ``old_j``/``new_j`` be the length of sequence ``j`` at the previous
    and current :meth:`fresh` call.  The tuples that exist now but not
    before are exactly::

        ⋃_i  V_1[:old_1] × … × V_{i-1}[:old_{i-1}] × V_i[old_i:new_i]
              × V_{i+1}[:new_{i+1}] × … × V_k[:new_k]

    (each new tuple is counted once, at the first position where it holds a
    new value), so no dedup set is needed and the cost is proportional to
    the number of new tuples.
    """

    def __init__(self, streams: Sequence[Sequence[object]]) -> None:
        self._streams = streams
        self._consumed = [0] * len(streams)

    def fresh(self) -> Iterator[Tuple[object, ...]]:
        """The tuples that appeared since the previous call (advances the watermarks)."""
        olds = self._consumed
        news = [len(stream) for stream in self._streams]
        self._consumed = news
        return self._emit(olds, news)

    def pending(self) -> int:
        """How many tuples the next :meth:`fresh` call would yield (consumes nothing)."""
        return math.prod(len(stream) for stream in self._streams) - math.prod(self._consumed)

    def _emit(self, olds: List[int], news: List[int]) -> Iterator[Tuple[object, ...]]:
        streams = self._streams
        k = len(streams)
        if k == 1:
            # The common unary case: the delta segment itself, no buffers.
            stream = streams[0]
            for i in range(olds[0], news[0]):
                yield (stream[i],)
            return
        for pivot in range(k):
            if news[pivot] == olds[pivot]:
                continue
            # Index bounds per coordinate; the streams are read in place
            # (append-only), so no prefix is ever copied or re-scanned.
            starts = [0] * k
            ends = [0] * k
            empty = False
            for j in range(k):
                if j < pivot:
                    ends[j] = olds[j]
                elif j == pivot:
                    starts[j] = olds[j]
                    ends[j] = news[j]
                else:
                    ends[j] = news[j]
                if starts[j] >= ends[j]:
                    empty = True
                    break
            if empty:
                continue
            # Odometer over the index ranges, last coordinate fastest —
            # same order as itertools.product over the segments.
            idx = starts.copy()
            while True:
                yield tuple(streams[j][idx[j]] for j in range(k))
                j = k - 1
                while j >= 0:
                    idx[j] += 1
                    if idx[j] < ends[j]:
                        break
                    idx[j] = starts[j]
                    j -= 1
                if j < 0:
                    break


class ProviderStream:
    """Materialized, monotonically growing value sequence of one provider.

    ``values`` holds the provider's values in a stable enumeration order
    (new batches are appended, sorted by ``repr``); :meth:`pull` absorbs the
    values that appeared at the origin cache tables since the last pull,
    reading only their value-log deltas.
    """

    def __init__(self, provider: ProviderSpec, cache_db: CacheDatabase) -> None:
        self._conjunctive = provider.conjunctive and len(provider.origins) > 1
        #: ``(origin table, position)`` per origin, resolved once per run.
        self._origins = [(cache_db.cache(name), position) for name, position in provider.origins]
        self.values: List[object] = []
        self._seen: Set[object] = set()
        self._marks = [0] * len(provider.origins)

    def pull(self) -> int:
        """Absorb new origin values; return how many values joined the stream."""
        fresh: List[object] = []
        if self._conjunctive:
            tables = self._origins
            # A value joins the intersection exactly when its last missing
            # origin receives it, so checking each origin's *new* values
            # against the other origins' full index sets is complete.
            candidates: List[object] = []
            for index, (table, position) in enumerate(tables):
                log = table.value_log(position)
                if self._marks[index] < len(log):
                    candidates.extend(log[self._marks[index] :])
                    self._marks[index] = len(log)
            for value in candidates:
                if value in self._seen:
                    continue
                if all(value in table.values_at(position) for table, position in tables):
                    self._seen.add(value)
                    fresh.append(value)
        else:
            for index, (table, position) in enumerate(self._origins):
                log = table.value_log(position)
                for value in log[self._marks[index] :]:
                    if value not in self._seen:
                        self._seen.add(value)
                        fresh.append(value)
                self._marks[index] = len(log)
        if fresh:
            fresh.sort(key=repr)
            self.values.extend(fresh)
        return len(fresh)


class CacheBindingGenerator:
    """Fresh input bindings of one cache predicate, pass by pass.

    Each :meth:`fresh_bindings` call pulls every provider stream and yields
    exactly the bindings that were not enabled at the previous call.  A
    cache without input arguments yields the empty binding once.
    ``providers`` are the cache's providers in input-position order (a
    plan's ``compiled.providers[cache.name]``); their origin tables must
    exist in ``cache_db``.
    """

    def __init__(
        self,
        cache: CachePredicate,
        providers: Sequence[ProviderSpec],
        cache_db: CacheDatabase,
    ) -> None:
        self.cache = cache
        self._streams = [ProviderStream(provider, cache_db) for provider in providers]
        self._product = DeltaProduct([stream.values for stream in self._streams])
        self._nullary_emitted = False

    def fresh_bindings(self) -> Iterator[Tuple[object, ...]]:
        if not self._streams:
            if self._nullary_emitted:
                return iter(())
            self._nullary_emitted = True
            return iter(((),))
        for stream in self._streams:
            stream.pull()
        return self._product.fresh()

    def pending(self) -> int:
        """How many bindings :meth:`fresh_bindings` would yield now.

        Pulls the provider streams (which :meth:`fresh_bindings` does
        anyway) but consumes no binding and looks nothing up: bindings the
        session meta-cache would serve count like any other.
        """
        if not self._streams:
            return 0 if self._nullary_emitted else 1
        for stream in self._streams:
            stream.pull()
        return self._product.pending()


def initialize_plan_caches(
    plan: QueryPlan, cache_db: CacheDatabase
) -> Dict[str, CacheBindingGenerator]:
    """Create a plan's cache tables and binding generators in one step.

    Every plan-driven policy starts the same way: one cache table per cache predicate,
    artificial (constant) caches seeded from the plan's facts at no access
    cost, and one delta-driven binding generator per accessed cache.
    Returns the generators keyed by cache name.
    """
    for cache in plan.caches.values():
        table = cache_db.create_cache(cache.name, cache.relation, cache.position)
        if cache.is_artificial:
            table.add_all(plan.constant_facts.get(cache.relation.name, ()))
    providers = plan.compiled.providers
    return {
        cache.name: CacheBindingGenerator(cache, providers[cache.name], cache_db)
        for cache in plan.compiled.accessed
    }


