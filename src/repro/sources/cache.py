"""The cache database: cache tables and meta-caches.

Toorjah's data-extraction layer (Figure 5 of the paper) keeps three kinds of
auxiliary structures:

* **cache tables** — one physical table per cache predicate of the plan (one
  cache per occurrence of a relation in the query, plus one per relevant
  relation not occurring in the query), holding the tuples extracted so far;
* **meta-caches** — one per relation; before accessing a relation, the
  executor consults the meta-cache to check whether the access tuple was
  already used (possibly by another occurrence), in which case the
  extraction is read from the cache instead of hitting the source again;
* **access tables** — the access tuples that are ready to be shipped to a
  wrapper.  These are the dispatchers' backlogs and live in
  :mod:`repro.runtime.dispatch`, not here.

Cache tables are *append-only* and indexed for the executors' hot paths:
they maintain per-position value indexes (set + insertion log) for the
positions somebody reads, built on the first ask, so reading the distinct
values at an argument position — the operation behind every
domain-provider evaluation — is O(1) instead of a scan over all rows, and
the logs let the executors consume only the values that appeared since
their last visit (delta-driven binding generation, see
:mod:`repro.plan.bindings`).
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.model.schema import RelationSchema
from repro.sources.store import CacheStore, ClaimStatus, MemoryCacheStore

Row = Tuple[object, ...]

#: Seconds between polls while a claim waits out another *process*'s claim
#: (a local owner wakes its waiters; nothing reaches across processes).
_CLAIM_POLL_INTERVAL = 0.01


def _resolve(wake: "asyncio.Future[None]") -> None:
    if not wake.done():  # a cancelled waiter is gone
        wake.set_result(None)


class CacheTable:
    """The extension of one cache predicate.

    A cache table remembers, besides its tuples, which relation and which
    occurrence of the query it caches, and at which ordering position it must
    be populated.  It keeps a value index per argument position that someone
    reads — a set of the distinct values seen at that position (for O(1)
    reads and membership tests) and an append-only log of the same values in
    arrival order (so executors can read just the values added since a
    watermark).  An index is built from the row log the first time its
    position is asked for, as :meth:`index_for` builds a hash index, and
    kept current by :meth:`add` from then on; a position nobody reads — an
    output no provider draws from — costs an insertion nothing.
    """

    def __init__(
        self,
        name: str,
        relation: RelationSchema,
        position: int = 0,
    ) -> None:
        self.name = name
        self.relation = relation
        self.position = position
        self._rows: Set[Row] = set()
        self._row_log: List[Row] = []
        # Per tracked position its value set and value log (see the class
        # docstring), and the position-group hash indexes
        # ``{positions: {key: [rows]}}``: all built from the row log when
        # first asked for, kept current by :meth:`add`.
        self._value_sets: Dict[int, Set[object]] = {}
        self._value_logs: Dict[int, List[object]] = {}
        self._indexes: Dict[Tuple[int, ...], Dict[Tuple[object, ...], List[Row]]] = {}

    # -- mutation -----------------------------------------------------------
    def add(self, row: Row) -> bool:
        return self.add_all((row,)) == 1

    def add_all(self, rows: Iterable[Row]) -> int:
        """Add rows; returns how many were new.  A row too short for a
        tracked position is filed under the positions it has (over- and
        under-arity rows are tolerated)."""
        added = 0
        seen, row_log = self._rows, self._row_log
        value_sets, value_logs, indexes = self._value_sets, self._value_logs, self._indexes
        for row in rows:
            row = tuple(row)
            if row in seen:
                continue
            seen.add(row)
            row_log.append(row)
            added += 1
            for position, values in value_sets.items():
                if position < len(row):
                    value = row[position]
                    if value not in values:
                        values.add(value)
                        value_logs[position].append(value)
            for positions, index in indexes.items():
                _file(index, positions, row)
        return added

    # -- inspection ----------------------------------------------------------
    def _track(self, position: int) -> None:
        """Build the value index of ``position`` from the row log."""
        values: Set[object] = set()
        log: List[object] = []
        for row in self._row_log:
            if position < len(row) and row[position] not in values:
                values.add(row[position])
                log.append(row[position])
        self._value_sets[position] = values
        self._value_logs[position] = log

    def values_at(self, position: int) -> Set[object]:
        """Distinct values at one argument position.

        Returns the live index set (built on the first ask); callers must
        treat it as read-only (it keeps growing as rows are added).
        """
        if position not in self._value_sets:
            self._track(position)
        return self._value_sets[position]

    def value_log(self, position: int) -> List[object]:
        """Append-only log of the distinct values at one position, in arrival order.

        The returned list is live (built on the first ask): new values are
        appended as rows arrive, and existing entries never move, so
        ``value_log(p)[mark:]`` is exactly the values that appeared since a
        caller's watermark ``mark``.
        """
        if position not in self._value_logs:
            self._track(position)
        return self._value_logs[position]

    def value_count(self, position: int) -> int:
        return len(self.value_log(position))

    def row_log(self) -> List[Row]:
        """Append-only log of the distinct rows, in arrival order.

        The returned list is live (rows are appended as they arrive, and
        existing entries never move), so ``row_log()[mark:]`` is exactly the
        rows added since a caller's watermark ``mark`` — the hook behind the
        incremental (semi-naive) answer checks of the runtime kernel.
        """
        return self._row_log

    def index_for(self, positions: Tuple[int, ...]) -> Dict[Tuple[object, ...], List[Row]]:
        """Hash index ``{key: rows}`` grouping rows by the given positions.

        The first call for a position group builds the index from the row
        log and registers it; from then on :meth:`add` files every new row
        in it, and every call hands out the *same* dictionary — a caller
        may keep it for the table's life and watch it grow in place.  Rows
        too short for the requested positions are skipped (over-arity
        tolerance cuts both ways).  Callers must treat the returned buckets
        as read-only.
        """
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            for row in self._row_log:
                _file(index, positions, row)
            self._indexes[positions] = index
        return index

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheTable({self.name!r}, {len(self)} rows)"


def _file(
    index: Dict[Tuple[object, ...], List[Row]], positions: Tuple[int, ...], row: Row
) -> None:
    """File ``row`` in a position-group index (a row too short for it is skipped)."""
    try:
        if len(positions) == 1:  # the common probe key, without the comprehension
            key = (row[positions[0]],)
        else:
            key = tuple([row[position] for position in positions])
    except IndexError:
        return
    index.setdefault(key, []).append(row)


class MetaCache:
    """Per-relation record of the accesses already made and their results.

    The meta-cache is "a sort of cache defined as the union of all the caches
    on that relation" (Section IV): it maps every access tuple already used
    against the relation to the rows that the source returned, so that a
    repeated access (possibly issued on behalf of a different occurrence of
    the relation) can be answered locally at no cost.

    Meta-caches are shared between the concurrent executions of an engine
    session, so every method is thread-safe, and the *claim* protocol
    extends the "never repeat an access" invariant across threads: a
    dispatcher claims a binding (:meth:`try_claim`) before touching the
    source.  The first claimant owns the access (and must :meth:`record`
    or :meth:`abandon` it); later claimants are told to wait, re-contend
    once it is fulfilled and read the rows for free (:meth:`claim` is that
    loop for a caller that may block its thread, :meth:`aclaim` for a
    coroutine).  An owner never holds a claim while waiting on another, so
    claim chains always resolve.

    One plain :class:`threading.Lock`, taken once by an offer probe, a
    claim and a record each, guards the in-flight set, the hit counter and
    the waiters, and orders a claim against the record that fulfils it:
    :meth:`record` writes the store before it clears the in-flight marker,
    so a claimant reads the rows or the marker, never neither (a memory
    store needs no lock of its own).  The condition variable is built over
    that lock and used only to *wait*.  Claimants register themselves under
    the lock in the same check that tells them to wait — a thread as a
    count, a coroutine as a future on its loop — and whoever releases a
    marker wakes them, under the same lock, only when somebody is
    registered: an uncontended claim/record pair never leaves C, and a
    waiter can never miss its wake-up.

    The binding→rows records themselves live in a
    :class:`~repro.sources.store.CacheStore` (see :mod:`repro.sources.store`),
    addressed by this relation's name: the meta-cache is the in-process
    claim gate and hit counter over that store and nothing else.  A
    persistent store makes the "never repeat an access" domain survive
    restarts and extends the claim protocol across processes.  Nothing is
    ever evicted, so a lookup miss means the access was never performed in
    the store's domain.
    """

    def __init__(
        self, relation: RelationSchema, store: Optional[CacheStore] = None
    ) -> None:
        self._store = store if store is not None else MemoryCacheStore()
        #: Only a persistent store's claim table spans processes.
        self._persistent = self._store.persistent
        self._name = relation.name
        self._inflight: Set[Tuple[object, ...]] = set()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: Threads blocked in :meth:`claim` right now (counted under the lock).
        self._waiters = 0
        #: ``binding -> futures`` of the coroutines waiting in :meth:`aclaim`
        #: for that binding's local owner (registered under the lock).
        self._wakeups: Dict[Tuple[object, ...], List["asyncio.Future[None]"]] = {}
        #: Accesses answered locally instead of hitting the source (offer
        #: passes and claim hits alike); feeds the session hit-rate stats.
        self.hits = 0

    def record(self, binding: Tuple[object, ...], rows: FrozenSet[Row]) -> None:
        """Record one performed access, fulfilling any claim on its binding."""
        binding = tuple(binding)
        # The store write also releases any cross-process claim, so remote
        # waiters see the rows no later than local ones.
        self._store.put(self._name, binding, frozenset(rows))
        with self._lock:
            self._inflight.discard(binding)
            if self._waiters:
                self._cond.notify_all()
            if self._wakeups:
                self._wake(binding)

    def lookup(self, binding: Tuple[object, ...]) -> Optional[FrozenSet[Row]]:
        """The recorded rows for a binding, or None — counting a hit."""
        with self._lock:
            rows = self._store.get(self._name, tuple(binding))
            if rows is not None:
                self.hits += 1
            return rows

    def try_claim(
        self,
        binding: Tuple[object, ...],
        wait: bool = False,
        wake: Optional["asyncio.Future[None]"] = None,
    ) -> Tuple[ClaimStatus, Optional[FrozenSet[Row]]]:
        """The claim protocol, written once: one round of it, non-blocking
        unless ``wait``.

        Returns ``(OWNED, None)`` when the caller now owns the access (it
        must :meth:`record` the retrieved rows, or :meth:`abandon` on
        failure), ``(SERVED, rows)`` when the binding is recorded (a hit),
        or ``(WAIT, None)`` when another coroutine/thread/process holds the
        claim.  What to do about ``WAIT`` is the caller's: a thread blocks
        (``wait=True``, i.e. :meth:`claim`); a coroutine cannot — that would
        stall the event loop the fulfilling coroutine runs on — so it passes
        a ``wake`` future of its running loop, awaits it on ``WAIT`` and
        calls this again (:meth:`aclaim`).

        In-process contention is settled under the lock first; the
        surviving owner then contends with other *processes* through the
        store's claim table (a store that is not persistent is not asked).  A
        local owner is waited for — on the condition, or by registering
        ``wake`` for its :meth:`record` / :meth:`abandon` to resolve — under
        the lock of the recorded/in-flight check, so a fulfilment cannot
        slip between the two; a remote one is polled (``wake`` resolves
        after the poll interval).  With neither, ``WAIT`` returns at once.
        """
        binding = tuple(binding)
        with self._lock:
            while True:
                rows = self._store.get(self._name, binding)
                if rows is not None:
                    self.hits += 1
                    return ClaimStatus.SERVED, rows
                if binding not in self._inflight:
                    self._inflight.add(binding)
                    break
                if wake is not None:
                    self._wakeups.setdefault(binding, []).append(wake)
                    return ClaimStatus.WAIT, None
                if not wait:
                    return ClaimStatus.WAIT, None
                self._waiters += 1
                try:
                    self._cond.wait()
                finally:
                    self._waiters -= 1
        if not self._persistent:
            return ClaimStatus.OWNED, None
        # This caller owns the access in-process; win it across processes
        # too.  The store is asked outside the lock so local record() and
        # abandon() calls for other bindings are never blocked.
        while True:
            status, rows = self._store.claim(self._name, binding)
            if status is ClaimStatus.OWNED:
                return status, None
            if status is ClaimStatus.SERVED or not wait:
                break
            time.sleep(_CLAIM_POLL_INTERVAL)
        # Recorded, or still claimed, by another process: release the
        # in-process marker so local contenders (including this caller's
        # retry) can re-contend.
        with self._lock:
            if status is ClaimStatus.SERVED:
                self.hits += 1
            self._inflight.discard(binding)
            if self._waiters:
                self._cond.notify_all()
            if self._wakeups:
                self._wake(binding)
        if status is ClaimStatus.WAIT and wake is not None:
            wake.get_loop().call_later(_CLAIM_POLL_INTERVAL, _resolve, wake)
        return status, rows

    def claim(self, binding: Tuple[object, ...]) -> Optional[FrozenSet[Row]]:
        """Atomically take ownership of one access, or be served its rows.

        :meth:`try_claim` for a caller that may block its thread: returns
        None when the caller now owns the access, the rows when the binding
        is already recorded — possibly after waiting out another
        execution's in-flight access.
        """
        return self.try_claim(binding, wait=True)[1]

    async def aclaim(self, binding: Tuple[object, ...]) -> Optional[FrozenSet[Row]]:
        """:meth:`claim` for a coroutine: a contended round awaits a wake-up
        — the local owner's release, or a remote owner's poll interval —
        instead of blocking the loop thread, then contends again."""
        loop = asyncio.get_running_loop()
        while True:
            wake = loop.create_future()
            status, rows = self.try_claim(binding, wake=wake)
            if status is not ClaimStatus.WAIT:
                return rows
            await wake

    def abandon(self, binding: Tuple[object, ...]) -> None:
        """Give up an owned claim (the access failed); waiters re-contend."""
        binding = tuple(binding)
        self._store.release(self._name, binding)
        with self._lock:
            self._inflight.discard(binding)
            if self._waiters:
                self._cond.notify_all()
            if self._wakeups:
                self._wake(binding)

    def _wake(self, binding: Tuple[object, ...]) -> None:
        """Resolve, on their own loops, the coroutines registered for
        ``binding`` (called under the lock, from any thread): directly on
        the running loop, without the self-pipe write of a thread hop."""
        running = asyncio._get_running_loop()
        for wake in self._wakeups.pop(binding, ()):
            loop = wake.get_loop()
            if loop is running:
                _resolve(wake)
                continue
            try:
                loop.call_soon_threadsafe(_resolve, wake)
            except RuntimeError:  # that loop is closed: nobody is left to wake
                pass

    def __len__(self) -> int:
        with self._lock:
            return self._store.count(self._name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetaCache({self._name!r}, {len(self)} accesses)"


class CacheDatabase:
    """All cache tables of one execution, plus the per-relation meta-caches.

    The meta-caches may be shared between several cache databases: an engine
    session passes the same ``shared_meta`` mapping to every execution it
    creates, so that the "never repeat an access" invariant holds *across*
    the queries of the session, not just within one plan.  Cache tables are
    always private to one execution (they are plan-specific, and mutated
    only by that execution's coordinating thread); the shared meta mapping
    is guarded by ``meta_lock`` (the session's lock), so concurrent
    executions agree on one :class:`MetaCache` object per relation.

    ``store`` is where the meta-caches' records live (see
    :mod:`repro.sources.store`); when omitted, each meta-cache gets a
    private in-memory store.
    """

    def __init__(
        self,
        shared_meta: Optional[Dict[str, MetaCache]] = None,
        meta_lock: Optional[threading.Lock] = None,
        store: Optional[CacheStore] = None,
    ) -> None:
        self._caches: Dict[str, CacheTable] = {}
        # The two table lookups are the dictionary's own methods: the run's
        # hot paths and every join-program binding call them, and a bound
        # C method costs no Python frame.
        #: ``name -> `` the cache table (``KeyError`` when there is none).
        self.cache: Callable[[str], CacheTable] = self._caches.__getitem__
        #: ``name -> `` the cache table, or None: the ``predicate -> table``
        #: lookup the compiled join programs run against.
        self.find: Callable[[str], Optional[CacheTable]] = self._caches.get
        self._meta: Dict[str, MetaCache] = shared_meta if shared_meta is not None else {}
        self._meta_lock = meta_lock if meta_lock is not None else threading.Lock()
        self._store = store

    # -- cache tables ------------------------------------------------------------
    def create_cache(self, name: str, relation: RelationSchema, position: int = 0) -> CacheTable:
        if name not in self._caches:
            self._caches[name] = CacheTable(name, relation, position)
        return self._caches[name]

    # -- meta-caches ----------------------------------------------------------------
    def meta_cache(self, relation: RelationSchema) -> MetaCache:
        meta = self._meta.get(relation.name)
        if meta is None:
            with self._meta_lock:
                meta = self._meta.get(relation.name)
                if meta is None:
                    meta = self._meta[relation.name] = MetaCache(relation, self._store)
        return meta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheDatabase({len(self._caches)} caches, {len(self._meta)} meta-caches)"
