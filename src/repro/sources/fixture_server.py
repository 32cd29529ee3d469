"""A loopback JSON lookup server for tests, CI and benchmarks.

Serves a :class:`~repro.model.instance.DatabaseInstance` over the HTTP
protocol that :class:`~repro.sources.http.HTTPBackend` speaks (see that
module for the two routes).  The server is a route table over
:func:`repro.util.http1.serve_connection` — the connection loop, framing
and hostile-input handling of the query server — on a single ``asyncio``
event loop, so it sustains hundreds of concurrent in-flight lookups: what
the async dispatcher's 512-access window test needs from a fixture.

Two entry points:

* ``python -m repro serve-fixture --scenario star:rays=4`` runs it as a
  standalone process (CI's ``http-smoke`` job);
* :class:`FixtureServer` runs it on a background thread inside the test
  process, exposing ``.url`` for the engine under test::

      with FixtureServer(example.instance) as server:
          registry = SourceRegistry(example.instance, backend=server.url)

``--latency`` injects ``await asyncio.sleep(...)`` per lookup — concurrent
requests overlap their sleeps, a sequential client pays them back to back.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple

from repro.model.instance import DatabaseInstance
from repro.util import http1


class _FixtureRoutes:
    """The lookup service's route table, shared by the CLI server and the
    in-process helper."""

    def __init__(self, instance: DatabaseInstance, latency: float = 0.0) -> None:
        self.instance = instance
        self.latency = latency
        self._routes = {
            ("GET", "/health"): self._health,
            ("POST", "/lookup"): self._lookup,
        }

    async def _health(self, request: http1.Request) -> Tuple[int, dict]:
        return 200, {"status": "ok"}

    async def _lookup(self, request: http1.Request) -> Tuple[int, dict]:
        try:
            payload = request.json()
        except ValueError:
            return 400, {"error": "body is not a JSON object"}
        relation = payload.get("relation")
        if not isinstance(relation, str) or relation not in self.instance.schema:
            return 404, {"error": f"unknown relation {relation!r}"}
        try:
            binding = tuple(payload.get("binding") or ())
            if self.latency > 0:
                await asyncio.sleep(self.latency)
            rows = self.instance.relation(relation).lookup(binding)
        except Exception as error:  # noqa: BLE001 - surface as a 400, not a hang
            return 400, {"error": str(error)}
        return 200, {"rows": [list(row) for row in sorted(rows, key=repr)]}

    async def handle(self, request: http1.Request, writer: asyncio.StreamWriter) -> bool:
        route = self._routes.get((request.method, request.path))
        if route is None:
            status, payload = 404, {"error": f"no route {request.method} {request.path}"}
        else:
            status, payload = await route(request)
        writer.write(http1.response(status, payload, keep_alive=request.keep_alive))
        await writer.drain()
        return request.keep_alive


async def start_fixture_server(
    instance: DatabaseInstance,
    host: str = "127.0.0.1",
    port: int = 0,
    latency: float = 0.0,
) -> "asyncio.base_events.Server":
    """Start the lookup server on the running loop; returns the asyncio server."""
    routes = _FixtureRoutes(instance, latency=latency)
    return await asyncio.start_server(
        lambda reader, writer: http1.serve_connection(reader, writer, routes.handle),
        host,
        port,
    )


async def serve_forever(
    instance: DatabaseInstance,
    host: str = "127.0.0.1",
    port: int = 0,
    latency: float = 0.0,
) -> None:
    """Run the fixture server until cancelled, printing its URL (flushed)."""
    server = await start_fixture_server(instance, host, port, latency=latency)
    print(f"http://{host}:{server.sockets[0].getsockname()[1]}", flush=True)
    async with server:
        await server.serve_forever()


class FixtureServer(http1.BackgroundServer):
    """The lookup server on a background thread, for in-process tests.

    The test (or benchmark) drives engines — sync or async — against
    ``.url`` from the main thread; see
    :class:`~repro.util.http1.BackgroundServer` for the lifecycle.
    """

    def __init__(
        self,
        instance: DatabaseInstance,
        host: str = "127.0.0.1",
        latency: float = 0.0,
    ) -> None:
        super().__init__()
        self.instance = instance
        self.host = host
        self.latency = latency
        self.port: Optional[int] = None
        self._server: Optional["asyncio.base_events.Server"] = None

    @property
    def url(self) -> str:
        if self.port is None:
            raise RuntimeError("fixture server is not running; call start()")
        return f"http://{self.host}:{self.port}"

    async def _boot(self) -> None:
        self._server = await start_fixture_server(
            self.instance, self.host, 0, latency=self.latency
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _halt(self) -> None:
        if self._server is not None:
            self._server.close()
