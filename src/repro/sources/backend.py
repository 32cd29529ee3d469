"""Pluggable source backends: where an access is actually answered from.

The paper models every source as a black box reached only through *accesses*
(lookups binding all input arguments); the wrapper layer counts and prices
those accesses but should not care how the rows are produced.  A
:class:`SourceBackend` is exactly that how: the physical store behind one
relation's wrapper.  Three backends ship with the library:

* :class:`InMemoryBackend` — the original behaviour: answers from a
  :class:`~repro.model.instance.RelationInstance` via its input-position
  hash index.  Zero real latency; the default everywhere.
* :class:`SQLiteBackend` — the relation lives in a SQLite table with a
  composite index on the input positions, so an access becomes an indexed
  ``SELECT``.  This is the in-process stand-in for the SQL selections the
  paper's prototype issues against remote sources.
* :class:`CallableBackend` — delegates to an arbitrary function
  ``binding -> rows`` and can inject real (wall-clock) latency per lookup.
  This is the hook for custom HTTP/RPC sources and the slow source used to
  exercise genuinely overlapping accesses (``concurrency="async"``).

Backends are *pure readers*, one binding per call (every dispatcher reads
that way; nothing batches): they do no counting, no logging and no latency
simulation — that bookkeeping stays in :class:`~repro.sources.wrapper.
SourceWrapper`.  They must be safe to call from multiple threads, because
:meth:`~repro.engine.engine.Engine.execute_many` runs whole queries
concurrently and the async dispatcher (:class:`~repro.runtime.dispatch.
AsyncDispatcher`) runs ``lookup`` on an executor's threads for every
backend that may sleep or lock — which is any backend without a coroutine
``alookup`` (:class:`~repro.sources.async_backend.AsyncBackend`).
:class:`InMemoryBackend` has one, because a dictionary probe never waits,
and is read inline on the loop thread; :class:`SQLiteBackend` serializes on
an internal lock, the other two are read-only over immutable state.
"""

from __future__ import annotations

import abc
import sqlite3
import threading
import time
from typing import Callable, ClassVar, FrozenSet, Iterable, Tuple, Union

from repro.exceptions import AccessError
from repro.model.instance import RelationInstance
from repro.model.schema import RelationSchema

Row = Tuple[object, ...]
Binding = Tuple[object, ...]

#: The backend kinds constructible by name through :func:`build_backend`.
BACKEND_KINDS: Tuple[str, ...] = ("memory", "sqlite", "callable")

#: How a registry names or builds backends: a kind name or a factory over
#: the relation instance the registry would otherwise wrap directly.
BackendFactory = Callable[[RelationInstance], "SourceBackend"]
BackendLike = Union[str, BackendFactory]


class SourceBackend(abc.ABC):
    """The physical store answering one relation's accesses.

    Subclasses set ``kind`` (a short name used in reprs and CLIs), expose the
    relation's schema as ``schema``, and implement :meth:`lookup`.
    """

    kind: ClassVar[str] = ""
    schema: RelationSchema

    @abc.abstractmethod
    def lookup(self, binding: Binding) -> FrozenSet[Row]:
        """Rows whose input arguments equal ``binding`` (may block for I/O)."""

    def close(self) -> None:
        """Release any resources held by the backend (idempotent)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.schema.name!r})"


class InMemoryBackend(SourceBackend):
    """Answers from a :class:`RelationInstance`'s input-position hash index
    (the instance's own frozen rows, not a copy)."""

    kind = "memory"

    def __init__(self, instance: RelationInstance) -> None:
        self.instance = instance
        self.schema = instance.schema

    def lookup(self, binding: Binding) -> FrozenSet[Row]:
        return self.instance.lookup(binding)

    async def alookup(self, binding: Binding) -> FrozenSet[Row]:
        """:meth:`lookup` as its own async read: the probe never waits, so
        the async dispatcher awaits it inline instead of paying a thread hop."""
        return self.lookup(binding)


class SQLiteBackend(SourceBackend):
    """The relation as a SQLite table; an access is an indexed selection.

    The table has one column per argument position and a composite index on
    the input positions, so a lookup is an index probe rather than a scan.
    Values are stored natively and must round-trip through SQLite unchanged:
    ``str``, ``int``, ``float`` and ``bytes`` are accepted; anything else
    (including ``bool``, which SQLite would flatten to an integer) is
    rejected at load time so cross-backend equivalence can never silently
    break.

    One connection is shared across threads (``check_same_thread=False``)
    and every statement runs under a lock, which is all concurrent
    dispatch needs: the point of that workload is parallelism *across*
    sources, not within one.
    """

    kind = "sqlite"

    _ALLOWED_TYPES = (str, int, float, bytes)

    def __init__(
        self,
        schema: RelationSchema,
        rows: Iterable[Row] = (),
        path: str = ":memory:",
    ) -> None:
        self.schema = schema
        self._lock = threading.Lock()
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._closed = False
        self._nullary_present = False
        self._table = f'"rel_{schema.name}"'
        arity = schema.arity
        if arity:
            columns = ", ".join(f"c{i}" for i in range(arity))
            self._connection.execute(
                f"CREATE TABLE IF NOT EXISTS {self._table} ({columns})"
            )
            if schema.input_positions:
                indexed = ", ".join(f"c{i}" for i in schema.input_positions)
                self._connection.execute(
                    f'CREATE INDEX IF NOT EXISTS "idx_{schema.name}_input" '
                    f"ON {self._table} ({indexed})"
                )
            self._select_all = f"SELECT * FROM {self._table}"
            predicate = " AND ".join(f"c{i} = ?" for i in schema.input_positions)
            self._select_bound = (
                f"{self._select_all} WHERE {predicate}" if predicate else self._select_all
            )
        self.add_rows(rows)

    @classmethod
    def from_instance(cls, instance: RelationInstance, path: str = ":memory:") -> "SQLiteBackend":
        """Load a relation instance's extension into a fresh SQLite table."""
        return cls(instance.schema, instance, path=path)

    # -- loading --------------------------------------------------------------
    def add_rows(self, rows: Iterable[Row]) -> None:
        rows = [tuple(row) for row in rows]
        for row in rows:
            if len(row) != self.schema.arity:
                raise AccessError(
                    f"row {row!r} has arity {len(row)} but relation "
                    f"{self.schema.name!r} has arity {self.schema.arity}"
                )
            for value in row:
                if isinstance(value, bool) or not isinstance(value, self._ALLOWED_TYPES):
                    raise AccessError(
                        f"SQLite backend for {self.schema.name!r} cannot store "
                        f"{value!r} ({type(value).__name__}); use str/int/float/bytes"
                    )
        if not rows:
            return
        with self._lock:
            if self.schema.arity == 0:
                self._nullary_present = True
                return
            placeholders = ", ".join("?" for _ in range(self.schema.arity))
            self._connection.executemany(
                f"INSERT INTO {self._table} VALUES ({placeholders})", rows
            )
            self._connection.commit()

    # -- lookup ---------------------------------------------------------------
    def lookup(self, binding: Binding) -> FrozenSet[Row]:
        binding = tuple(binding)
        with self._lock:
            if self._closed:
                raise AccessError(
                    f"SQLite backend for {self.schema.name!r} is closed; "
                    "no further accesses are possible"
                )
            if self.schema.arity == 0:
                return frozenset({()}) if self._nullary_present else frozenset()
            if binding:
                cursor = self._connection.execute(self._select_bound, binding)
            else:
                cursor = self._connection.execute(self._select_all)
            return frozenset(tuple(row) for row in cursor.fetchall())

    def close(self) -> None:
        """Release the connection; safe to call repeatedly, and after a
        backend error mid-query (double close and close-after-error are
        no-ops — the failure paths of the resilience layer may tear an
        engine down while accesses are still erroring out)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._connection.close()
            except sqlite3.Error:  # pragma: no cover - defensive
                pass


class CallableBackend(SourceBackend):
    """Delegates lookups to an arbitrary ``binding -> rows`` function.

    The function may do anything — consult a dict, call an HTTP endpoint,
    compute rows on the fly — as long as it is thread-safe and returns the
    same rows for the same binding within a run.  ``latency`` injects a real
    ``time.sleep`` per lookup, which is how the tests and benchmarks make a
    "slow remote source" for the async dispatcher to overlap.
    """

    kind = "callable"

    def __init__(
        self,
        schema: RelationSchema,
        fn: Callable[[Binding], Iterable[Row]],
        latency: float = 0.0,
    ) -> None:
        self.schema = schema
        self._fn = fn
        self.latency = latency

    @classmethod
    def from_instance(
        cls, instance: RelationInstance, latency: float = 0.0
    ) -> "CallableBackend":
        """A callable backend answering from an in-memory instance (optionally slowly)."""
        return cls(instance.schema, instance.lookup, latency=latency)

    def lookup(self, binding: Binding) -> FrozenSet[Row]:
        if self.latency > 0:
            time.sleep(self.latency)
        return frozenset(tuple(row) for row in self._fn(tuple(binding)))


def as_backend(source: Union[SourceBackend, RelationInstance]) -> SourceBackend:
    """Coerce a wrapper's source into a backend (instances get wrapped)."""
    if isinstance(source, SourceBackend):
        return source
    if isinstance(source, RelationInstance):
        return InMemoryBackend(source)
    raise AccessError(
        f"cannot build a source backend from {type(source).__name__}; "
        "pass a SourceBackend or a RelationInstance"
    )


def build_backend(
    instance: RelationInstance,
    kind: BackendLike = "memory",
    *,
    real_latency: float = 0.0,
) -> SourceBackend:
    """Build a backend of the given kind over one relation instance.

    ``kind`` is one of :data:`BACKEND_KINDS`, an ``http://HOST:PORT`` /
    ``https://HOST:PORT`` URL (accesses go to a remote JSON lookup service
    speaking the :mod:`repro.sources.http` protocol; the local instance
    only contributes the schema), or a factory ``RelationInstance ->
    SourceBackend`` for fully custom backends.  ``real_latency`` only
    applies to the callable kind (injected sleep per lookup); the memory
    and sqlite kinds are as fast as they are.
    """
    if callable(kind) and not isinstance(kind, str):
        backend = kind(instance)
        if not isinstance(backend, SourceBackend):
            raise AccessError(
                f"backend factory returned {type(backend).__name__}, not a SourceBackend"
            )
        return backend
    if kind == "memory":
        return InMemoryBackend(instance)
    if kind == "sqlite":
        return SQLiteBackend.from_instance(instance)
    if kind == "callable":
        return CallableBackend.from_instance(instance, latency=real_latency)
    if isinstance(kind, str) and kind.startswith(("http://", "https://")):
        from repro.sources.http import HTTPBackend

        return HTTPBackend(instance.schema, kind)
    raise AccessError(
        f"unknown source backend kind {kind!r}; available: "
        f"{', '.join(BACKEND_KINDS)}, or an http(s)://HOST:PORT URL"
    )
