"""The async face of the source layer.

The paper's sources are remote, access-limited interfaces; reaching
thousands of them concurrently is an event-loop job, not a thread-pool
job.  :class:`AsyncBackend` is the contract the asyncio-native dispatcher
reads by: a backend exposing a coroutine ``alookup(binding) -> rows`` is
awaited on the loop thread itself —
:class:`~repro.sources.http.HTTPBackend` because its socket is awaited,
:class:`~repro.sources.backend.InMemoryBackend` because a dictionary probe
never waits.

**Implement ``alookup`` only if it never blocks the loop thread.**  Having
one is the whole declaration; there is no flag beside it.  A backend
without it — sqlite, a latency-injecting callable, an injected fault's
sleep, any user :class:`~repro.sources.backend.SourceBackend` subclass — is
presumed to sleep or lock, and :meth:`SourceWrapper.alookup
<repro.sources.wrapper.SourceWrapper.alookup>` hands its blocking
``lookup`` to the dispatcher's executor instead: same rows, same call
counts, which is what keeps the async dispatcher inside the
cross-dispatcher equivalence contract.
"""

from __future__ import annotations

from typing import FrozenSet, Protocol, Tuple, runtime_checkable

Row = Tuple[object, ...]
Binding = Tuple[object, ...]


@runtime_checkable
class AsyncBackend(Protocol):
    """A backend whose reads are coroutines that never block the loop."""

    async def alookup(self, binding: Binding) -> FrozenSet[Row]:
        """Rows whose input arguments equal ``binding``."""
        ...  # pragma: no cover - protocol
