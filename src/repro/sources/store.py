"""Cache stores: where the "never repeat an access" domain lives.

Section IV of the paper needs one thing from its cache layer: a
per-relation meta-cache that remembers which access tuples were already
used, and what the source returned, so that no access is ever shipped
twice.  :class:`~repro.sources.cache.MetaCache` is that structure; a
:class:`CacheStore` is the place its ``(relation, binding) -> rows`` records
are kept, plus the *claim* table that makes concurrent executions (and, for
the persistent store, concurrent *processes*) agree on a single owner per
access.  There is one tier and nothing is ever evicted: a store miss
*means* "this access was never performed in this domain".

Two implementations are provided:

* :class:`MemoryCacheStore` — the default: one dictionary per relation.
* :class:`SQLiteCacheStore` — a persistent store (SQLite in WAL mode).  A
  restarted engine warm-starts from every access recorded by its
  predecessors, and N processes pointed at one database file share a single
  access domain: the claim table extends the in-process claim/abandon
  protocol across processes, with *stale-claimant takeover* so a crashed
  owner never wedges the others.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import uuid
from abc import ABC, abstractmethod
from collections import defaultdict
from dataclasses import asdict, dataclass
from enum import Enum
from threading import get_ident
from typing import Callable, DefaultDict, Dict, FrozenSet, Optional, Tuple, Union

from repro.exceptions import EngineError

Row = Tuple[object, ...]
Binding = Tuple[object, ...]

#: Seconds a SQLite store waits for another connection's lock.
_BUSY_TIMEOUT = 30.0


class CacheStoreError(EngineError):
    """A cache store is misconfigured or incompatible with the engine.

    Raised, for instance, when a persistent store created over one source
    schema is attached to an engine with a different one (serving another
    schema's rows would silently violate correctness), or when a value
    cannot be round-tripped through the store's serialization.
    """


class ClaimStatus(Enum):
    """Outcome of asking the store for ownership of one access."""

    #: The caller owns the access and must record or release it.
    OWNED = "owned"
    #: The access is already recorded; the rows are returned alongside.
    SERVED = "served"
    #: Another *process* holds a live claim; poll again shortly.
    WAIT = "wait"


class CacheStore(ABC):
    """Record and claim storage shared by all executions of an engine session.

    Every method takes the relation's name and the access's binding (a
    tuple) and must be safe to call concurrently.
    """

    #: Store flavour, e.g. ``"memory"`` or ``"sqlite"``.
    kind: str = "abstract"
    #: Whether records survive (and are shared across) processes; the
    #: meta-cache asks only a persistent store's :meth:`claim`.
    persistent: bool = False

    @abstractmethod
    def get(self, relation: str, binding: Binding) -> Optional[FrozenSet[Row]]:
        """The recorded rows of one access (counting a store hit), or None
        when the access was never performed in this domain."""

    @abstractmethod
    def put(self, relation: str, binding: Binding, rows: FrozenSet[Row]) -> None:
        """Record one performed access, releasing any claim on the binding."""

    @abstractmethod
    def claim(
        self, relation: str, binding: Binding
    ) -> Tuple[ClaimStatus, Optional[FrozenSet[Row]]]:
        """Ask for cross-process ownership of one access (see :class:`ClaimStatus`)."""

    @abstractmethod
    def release(self, relation: str, binding: Binding) -> None:
        """Give up an owned claim without recording (the access failed)."""

    @abstractmethod
    def count(self, relation: str) -> int:
        """Number of recorded accesses of one relation."""

    # -- persistence hooks -------------------------------------------------
    def persisted_hit_counters(self) -> Dict[str, int]:
        """Per-relation hit counts accumulated by *previous* processes."""
        return {}

    def check_fingerprint(self, fingerprint: str) -> None:
        """Bind the store to one source-schema fingerprint (no-op if volatile)."""

    # -- bookkeeping -------------------------------------------------------
    @abstractmethod
    def stats(self) -> Dict[str, object]:
        """Monotone (per-process) counters plus the entry gauge, for reports."""

    @abstractmethod
    def clear(self) -> None:
        """Drop every record and claim."""

    def close(self) -> None:
        """Release external resources (idempotent)."""


@dataclass
class StoreCounters:
    """Per-process activity counters of the SQLite store (kept under its lock)."""

    binding_hits: int = 0
    accesses_recorded: int = 0
    claim_takeovers: int = 0


class MemoryCacheStore(CacheStore):
    """The in-process store: one plain dictionary per relation, no lock.

    ``get`` and ``put`` are one or two dictionary operations, atomic under
    the GIL; the :class:`~repro.sources.cache.MetaCache` lock orders a claim
    against its record.  Each thread counts in its own slot, so sessions
    sharing the store lose no count, and :meth:`stats` sums C-level copies.
    """

    kind = "memory"
    persistent = False

    def __init__(self) -> None:
        self._records: Dict[str, Dict[Binding, FrozenSet[Row]]] = {}
        #: ``thread id -> `` store hits / records counted on that thread.
        self._hits: DefaultDict[int, int] = defaultdict(int)
        self._recorded: DefaultDict[int, int] = defaultdict(int)

    def get(self, relation: str, binding: Binding) -> Optional[FrozenSet[Row]]:
        records = self._records.get(relation)
        rows = records.get(binding) if records is not None else None
        if rows is not None:
            self._hits[get_ident()] += 1
        return rows

    def put(self, relation: str, binding: Binding, rows: FrozenSet[Row]) -> None:
        self._records.setdefault(relation, {})[binding] = rows
        self._recorded[get_ident()] += 1

    def claim(
        self, relation: str, binding: Binding
    ) -> Tuple[ClaimStatus, Optional[FrozenSet[Row]]]:
        return ClaimStatus.OWNED, None  # never shared across processes

    def release(self, relation: str, binding: Binding) -> None:
        pass  # nothing persisted for an unrecorded claim

    def count(self, relation: str) -> int:
        return len(self._records.get(relation, ()))

    def stats(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "persistent": self.persistent,
            "binding_entries": sum(map(len, list(self._records.values()))),
            "binding_hits": sum(list(self._hits.values())),
            "accesses_recorded": sum(list(self._recorded.values())),
            "claim_takeovers": 0,
        }

    def clear(self) -> None:
        self._records.clear()


def _encode_value_list(values: Tuple[object, ...], what: str) -> str:
    """JSON-encode one binding/row, verifying the round trip is lossless."""
    try:
        encoded = json.dumps(list(values), separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise CacheStoreError(
            f"{what} {values!r} cannot be serialized for the sqlite cache store: {exc}"
        ) from exc
    if tuple(json.loads(encoded)) != values:
        raise CacheStoreError(
            f"{what} {values!r} does not round-trip through JSON "
            "(the sqlite cache store only supports JSON-faithful values)"
        )
    return encoded


def _encode_rows(rows: FrozenSet[Row]) -> str:
    encoded = sorted(_encode_value_list(tuple(row), "row") for row in rows)
    return "[" + ",".join(encoded) + "]"


def _decode_rows(payload: str) -> FrozenSet[Row]:
    return frozenset(tuple(row) for row in json.loads(payload))


class SQLiteCacheStore(CacheStore):
    """Persistent cache store over one SQLite database file (WAL mode).

    Layout::

        records(relation, binding, rows)
        claims(relation, binding, claimant, claimed_at)
        counters(relation, hits)          -- survives restarts, feeds stats
        store_meta(key, value)            -- schema fingerprint, format version

    One connection (``check_same_thread=False``) is shared by all threads
    and serialized on an internal lock; cross-*process* atomicity comes from
    SQLite itself (``BEGIN IMMEDIATE`` write transactions, WAL journal, busy
    timeout).  The claim table is the cross-process edition of the
    claim/abandon protocol: a claimant row marks an access as in flight, and
    a claim older than ``stale_claim_after`` seconds is presumed orphaned by
    a dead process and taken over.  ``clock`` is injectable so tests can age
    a claim without sleeping.

    Records are never deleted short of :meth:`clear`, so every row set read
    or written is mirrored in an in-process dict and repeated reads skip the
    ``SELECT``.
    """

    kind = "sqlite"
    persistent = True

    _FORMAT_VERSION = "2"

    def __init__(
        self,
        path: str,
        stale_claim_after: float = 10.0,
        claimant: Optional[str] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = path
        self.stale_claim_after = stale_claim_after
        # time.time() by default: claim timestamps must be comparable
        # *across processes*, which rules out the monotonic clock.
        self._clock = clock
        self.claimant = claimant or f"{os.getpid()}:{uuid.uuid4().hex[:8]}"
        self._lock = threading.RLock()
        self._mirror: Dict[Tuple[str, Binding], FrozenSet[Row]] = {}
        self.counters = StoreCounters()
        self._closed = False
        self._conn = sqlite3.connect(
            path, timeout=_BUSY_TIMEOUT, check_same_thread=False, isolation_level=None
        )
        try:
            self._enter_wal()
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._create_tables()
        except BaseException:
            self._conn.close()
            raise

    def _enter_wal(self) -> None:
        """Put the file in WAL mode.  Switching a fresh file takes its
        exclusive lock without waiting on the busy timeout, so a peer doing
        the same makes it fail with "database is locked": retry, backing
        off, for as long as a transaction would wait."""
        deadline = time.monotonic() + _BUSY_TIMEOUT
        pause = 0.001
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) or time.monotonic() + pause > deadline:
                    raise
            time.sleep(pause)
            pause = min(pause * 2, 0.05)

    def _create_tables(self) -> None:
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS records ("
                    " relation TEXT NOT NULL, binding TEXT NOT NULL,"
                    " rows TEXT NOT NULL,"
                    " PRIMARY KEY (relation, binding))"
                )
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS claims ("
                    " relation TEXT NOT NULL, binding TEXT NOT NULL,"
                    " claimant TEXT NOT NULL, claimed_at REAL NOT NULL,"
                    " PRIMARY KEY (relation, binding))"
                )
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS counters ("
                    " relation TEXT PRIMARY KEY, hits INTEGER NOT NULL)"
                )
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS store_meta ("
                    " key TEXT PRIMARY KEY, value TEXT NOT NULL)"
                )
                self._conn.execute(
                    "INSERT OR IGNORE INTO store_meta (key, value) VALUES (?, ?)",
                    ("format_version", self._FORMAT_VERSION),
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            row = self._conn.execute(
                "SELECT value FROM store_meta WHERE key = 'format_version'"
            ).fetchone()
            if row and row[0] != self._FORMAT_VERSION:
                raise CacheStoreError(
                    f"cache store {self.path!r} uses format version {row[0]}, "
                    f"this build expects {self._FORMAT_VERSION}"
                )

    # -- records and claims ------------------------------------------------
    def _fetch(
        self, relation: str, binding: Binding, binding_key: str
    ) -> Optional[FrozenSet[Row]]:
        """Read one record from disk into the mirror (caller holds the lock)."""
        row = self._conn.execute(
            "SELECT rows FROM records WHERE relation = ? AND binding = ?",
            (relation, binding_key),
        ).fetchone()
        if row is None:
            return None
        rows = self._mirror[(relation, binding)] = _decode_rows(row[0])
        return rows

    def _count_hit(self, relation: str) -> None:
        self.counters.binding_hits += 1
        self._conn.execute(
            "INSERT INTO counters (relation, hits) VALUES (?, 1) "
            "ON CONFLICT(relation) DO UPDATE SET hits = hits + 1",
            (relation,),
        )

    def get(self, relation: str, binding: Binding) -> Optional[FrozenSet[Row]]:
        with self._lock:
            rows = self._mirror.get((relation, binding))
            if rows is None:
                rows = self._fetch(
                    relation, binding, _encode_value_list(binding, "binding")
                )
            if rows is not None:
                self._count_hit(relation)
            return rows

    def put(self, relation: str, binding: Binding, rows: FrozenSet[Row]) -> None:
        with self._lock:
            binding_key = _encode_value_list(binding, "binding")
            payload = _encode_rows(rows)
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT OR REPLACE INTO records (relation, binding, rows) "
                    "VALUES (?, ?, ?)",
                    (relation, binding_key, payload),
                )
                self._conn.execute(
                    "DELETE FROM claims WHERE relation = ? AND binding = ?",
                    (relation, binding_key),
                )
                self.counters.accesses_recorded += 1
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._mirror[(relation, binding)] = rows

    def claim(
        self, relation: str, binding: Binding
    ) -> Tuple[ClaimStatus, Optional[FrozenSet[Row]]]:
        with self._lock:
            binding_key = _encode_value_list(binding, "binding")
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                rows = self._fetch(relation, binding, binding_key)
                if rows is not None:
                    self._count_hit(relation)
                    self._conn.execute("COMMIT")
                    return ClaimStatus.SERVED, rows
                now = self._clock()
                claim = self._conn.execute(
                    "SELECT claimant, claimed_at FROM claims "
                    "WHERE relation = ? AND binding = ?",
                    (relation, binding_key),
                ).fetchone()
                if claim is None or claim[0] == self.claimant:
                    self._conn.execute(
                        "INSERT OR REPLACE INTO claims "
                        "(relation, binding, claimant, claimed_at) VALUES (?, ?, ?, ?)",
                        (relation, binding_key, self.claimant, now),
                    )
                    self._conn.execute("COMMIT")
                    return ClaimStatus.OWNED, None
                if now - claim[1] > self.stale_claim_after:
                    # The claimant is presumed dead: take the access over so
                    # a crashed process never wedges the shared domain.
                    self._conn.execute(
                        "UPDATE claims SET claimant = ?, claimed_at = ? "
                        "WHERE relation = ? AND binding = ?",
                        (self.claimant, now, relation, binding_key),
                    )
                    self.counters.claim_takeovers += 1
                    self._conn.execute("COMMIT")
                    return ClaimStatus.OWNED, None
                self._conn.execute("COMMIT")
                return ClaimStatus.WAIT, None
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def release(self, relation: str, binding: Binding) -> None:
        with self._lock:
            binding_key = _encode_value_list(binding, "binding")
            self._conn.execute(
                "DELETE FROM claims WHERE relation = ? AND binding = ? AND claimant = ?",
                (relation, binding_key, self.claimant),
            )

    def count(self, relation: str) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM records WHERE relation = ?", (relation,)
            ).fetchone()
            return count

    # -- persistence hooks -------------------------------------------------
    def persisted_hit_counters(self) -> Dict[str, int]:
        with self._lock:
            rows = self._conn.execute("SELECT relation, hits FROM counters").fetchall()
            return {relation: hits for relation, hits in rows}

    def check_fingerprint(self, fingerprint: str) -> None:
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    "SELECT value FROM store_meta WHERE key = 'fingerprint'"
                ).fetchone()
                if row is None:
                    self._conn.execute(
                        "INSERT INTO store_meta (key, value) VALUES (?, ?)",
                        ("fingerprint", fingerprint),
                    )
                    self._conn.execute("COMMIT")
                    return
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            if row[0] != fingerprint:
                raise CacheStoreError(
                    f"cache store {self.path!r} was built over a different source "
                    "schema; serving its rows here would be incorrect "
                    f"(stored fingerprint {row[0][:12]}…, engine {fingerprint[:12]}…)"
                )

    # -- bookkeeping -------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            (binding_entries,) = self._conn.execute(
                "SELECT COUNT(*) FROM records"
            ).fetchone()
            return {
                "kind": self.kind,
                "persistent": self.persistent,
                "binding_entries": binding_entries,
                **asdict(self.counters),
            }

    def clear(self) -> None:
        with self._lock:
            self._mirror.clear()
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                for table in ("records", "claims", "counters"):
                    self._conn.execute(f"DELETE FROM {table}")
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # Release any claims this claimant still holds: a claim that
            # outlives its process would wedge peer workers on the same store
            # until the stale-claim deadline.
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                try:
                    self._conn.execute(
                        "DELETE FROM claims WHERE claimant = ?", (self.claimant,)
                    )
                    self._conn.execute("COMMIT")
                except BaseException:
                    self._conn.execute("ROLLBACK")
                    raise
            except sqlite3.Error:  # pragma: no cover - disk teardown races
                pass
            self._conn.close()


def build_store(cache: Union[None, str, CacheStore]) -> CacheStore:
    """The store an ``Engine(cache=...)`` argument names.

    ``None`` or ``"memory"`` is a fresh :class:`MemoryCacheStore`,
    ``"sqlite:PATH"`` a :class:`SQLiteCacheStore` over that file, and a
    ready :class:`CacheStore` instance is adopted as-is.
    """
    if cache is None:
        return MemoryCacheStore()
    if isinstance(cache, CacheStore):
        return cache
    if not isinstance(cache, str):
        raise CacheStoreError(
            "cache must be None, a spec string or a CacheStore, "
            f"not {type(cache).__name__}"
        )
    spec = cache.strip()
    kind, _, path = spec.partition(":")
    if spec == "memory":
        return MemoryCacheStore()
    if kind == "sqlite":
        if not path:
            raise CacheStoreError("sqlite cache store needs a path: sqlite:PATH")
        return SQLiteCacheStore(path)
    raise CacheStoreError(f"unknown cache store {spec!r}; use 'memory' or 'sqlite:PATH'")
