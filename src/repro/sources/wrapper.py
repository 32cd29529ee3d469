"""Source wrappers.

A wrapper hides a data source behind the access interface of the paper: the
only operation it supports is an *access*, i.e. a lookup with every input
argument bound.  Wrappers count their accesses, carry a configurable
per-access simulated latency, and can be shared by several executions
through a :class:`SourceRegistry`.

Where the rows actually come from is the business of the wrapper's
:class:`~repro.sources.backend.SourceBackend`: the in-memory instance of the
seed, a SQLite table answering indexed selections, or an arbitrary callable
(the hook for remote sources).  The wrapper itself only does the
bookkeeping the optimization is about — counting, validating and logging
accesses — in two steps the dispatchers drive: :meth:`SourceWrapper.lookup` /
:meth:`~SourceWrapper.alookup` read one binding, and
:meth:`~SourceWrapper.record_access` counts and logs it once the access
protocol (claim, budget, retries) says it was performed.

Timestamps are the executors' responsibility: records are stamped with the
``simulated_time`` the caller passes, because only the executor knows the
authoritative clock (the heap-based event clock of the distillation
scheduler, or the cumulative sequential clock of the one-at-a-time
strategies).  The wrapper keeps no clock of its own — a per-wrapper
``count × latency`` clock silently diverges from the scheduler's as soon as
wrappers run in parallel.
"""

from __future__ import annotations

import asyncio
import threading
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from typing import TYPE_CHECKING

from repro.exceptions import AccessError
from repro.model.instance import DatabaseInstance, RelationInstance
from repro.model.schema import RelationSchema, Schema
from repro.sources.access import validate_binding
from repro.sources.backend import BackendLike, SourceBackend, as_backend, build_backend
from repro.sources.log import AccessLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Executor

    from repro.sources.faults import FaultSchedule

Row = Tuple[object, ...]
Binding = Tuple[object, ...]


class SourceWrapper:
    """Wraps one source backend behind the access interface."""

    def __init__(
        self,
        source: Union[RelationInstance, SourceBackend],
        latency: float = 0.0,
    ) -> None:
        self.backend = as_backend(source)
        #: The in-memory instance, when the backend has one (back-compat).
        self.instance: Optional[RelationInstance] = getattr(self.backend, "instance", None)
        self.latency = latency
        self.access_count = 0
        # Concurrent engine sessions count accesses through one wrapper.
        self._count_lock = threading.Lock()
        self._relation = self.backend.schema.name

    @property
    def schema(self) -> RelationSchema:
        return self.backend.schema

    @property
    def name(self) -> str:
        return self.schema.name

    # -- pure lookups (no counting) -------------------------------------------
    def lookup(self, binding: Binding) -> FrozenSet[Row]:
        """Answer one binding from the backend without counting an access.

        Thread-safe (delegates straight to the backend); the dispatchers do
        the counting themselves via :meth:`record_access`.
        """
        binding = tuple(binding)
        backend = self.backend
        validate_binding(backend.schema, binding)
        return backend.lookup(binding)

    async def alookup(
        self, binding: Binding, pool: Optional[Callable[[], "Executor"]] = None
    ) -> FrozenSet[Row]:
        """:meth:`lookup` as a coroutine, for the event-loop dispatcher.

        A backend with a native async read (``alookup``, see
        :class:`~repro.sources.async_backend.AsyncBackend`) is awaited
        inline on the loop thread; any other may sleep or lock, so its
        blocking ``lookup`` runs on the executor ``pool()`` returns — asked
        for only then, so the caller can build it on first need (None: the
        loop's default pool).  Same validation, same rows, no counting —
        the async dispatcher's coordinator counts via :meth:`record_access`.
        """
        binding = tuple(binding)
        backend = self.backend
        validate_binding(backend.schema, binding)
        native = getattr(backend, "alookup", None)
        if native is not None:
            return await native(binding)
        return await asyncio.get_running_loop().run_in_executor(
            pool() if pool is not None else None, backend.lookup, binding
        )

    # -- counted accesses -----------------------------------------------------
    def record_access(
        self, binding: Binding, rows: FrozenSet[Row], log: AccessLog, simulated_time: float
    ) -> None:
        """Count one performed access and log it on its run's ``log``.

        ``simulated_time`` is the executor's authoritative clock at the
        access's completion — the event-heap clock for the distillation
        scheduler, the cumulative latency sum for the sequential strategies.

        The count is under the wrapper's lock (every session sharing the
        registry bumps it); the log, one run's, has one writer and takes
        the plain values.
        """
        with self._count_lock:
            self.access_count += 1
        log.record(self._relation, binding, rows, simulated_time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SourceWrapper({self.name!r}, backend={self.backend.kind!r})"


class SourceRegistry:
    """The set of wrappers over a database instance.

    The registry is the single entry point the executors use to reach the
    sources.  ``backend`` selects how every wrapper answers its accesses: a
    kind name from :data:`~repro.sources.backend.BACKEND_KINDS` (``memory``,
    ``sqlite``, ``callable``) or a factory ``RelationInstance ->
    SourceBackend`` for custom sources; ``real_latency`` is the injected
    wall-clock sleep per lookup when the callable kind is chosen.
    """

    def __init__(
        self,
        database: DatabaseInstance,
        latency: float = 0.0,
        per_relation_latency: Optional[Mapping[str, float]] = None,
        backend: BackendLike = "memory",
        real_latency: float = 0.0,
    ) -> None:
        self.schema: Schema = database.schema
        self.default_latency = latency
        self._wrappers: Dict[str, SourceWrapper] = {}
        for relation in database:
            relation_latency = latency
            if per_relation_latency and relation.schema.name in per_relation_latency:
                relation_latency = per_relation_latency[relation.schema.name]
            built = build_backend(relation, backend, real_latency=real_latency)
            self._wrappers[relation.schema.name] = SourceWrapper(built, relation_latency)

    # -- lookup --------------------------------------------------------------
    def wrapper(self, relation_name: str) -> SourceWrapper:
        try:
            return self._wrappers[relation_name]
        except KeyError:
            raise AccessError(f"no wrapper for relation {relation_name!r}") from None

    def __getitem__(self, relation_name: str) -> SourceWrapper:
        return self.wrapper(relation_name)

    def __contains__(self, relation_name: str) -> bool:
        return relation_name in self._wrappers

    def __iter__(self) -> Iterator[SourceWrapper]:
        return iter(self._wrappers.values())

    def relation_names(self) -> List[str]:
        return list(self._wrappers)

    def latency_of(self, relation_name: str, default: float = 0.0) -> float:
        """Effective simulated latency of one relation's wrapper.

        Wrappers that declare no latency (zero or negative) — and relations
        without a wrapper — are charged ``default``, the same substitution
        the executors apply, so every caller prices an access identically.
        """
        wrapper = self._wrappers.get(relation_name)
        if wrapper is None or wrapper.latency <= 0:
            return default
        return wrapper.latency

    def fingerprint(self) -> str:
        """Stable digest of the registry's source schemata.

        Persistent cache stores are bound to this digest: a store records
        rows *of these relations under these access patterns*, so attaching
        it to a registry with a different shape must be rejected (see
        :meth:`repro.sources.store.CacheStore.check_fingerprint`).  The
        digest covers relation names, access patterns and abstract domains
        — not the data, which sources may legitimately re-serve.
        """
        import hashlib

        parts = []
        for name in sorted(self._wrappers):
            schema = self._wrappers[name].schema
            domains = ",".join(
                getattr(domain, "name", str(domain)) for domain in schema.domains
            )
            parts.append(f"{name}/{schema.pattern}/{domains}")
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()

    def total_access_count(self) -> int:
        return sum(wrapper.access_count for wrapper in self._wrappers.values())

    def close(self) -> None:
        """Close every wrapper's backend (e.g. SQLite connections).

        Idempotent, and robust to backends that error while closing: one
        broken backend must not keep the others' resources alive.
        """
        for wrapper in self._wrappers.values():
            try:
                wrapper.backend.close()
            except Exception:
                continue

    def inject_faults(self, schedule: "FaultSchedule") -> None:
        """Wrap every wrapper's backend in a
        :class:`~repro.sources.faults.FlakyBackend` with the given
        deterministic fault schedule (chaos testing / the CLI ``--fail``
        flag).  Layers compose: injecting twice stacks two schedules.
        """
        from repro.sources.faults import FlakyBackend

        for wrapper in self._wrappers.values():
            wrapper.backend = FlakyBackend(wrapper.backend, schedule)

    @classmethod
    def over(
        cls,
        database: DatabaseInstance,
        latency: float = 0.0,
        backend: BackendLike = "memory",
    ) -> "SourceRegistry":
        """Shorthand constructor used throughout the examples."""
        return cls(database, latency=latency, backend=backend)
