"""The asyncio HTTP query service over one shared engine session.

Endpoints (all JSON):

* ``POST /query`` — execute a conjunctive query, respond with the full
  :meth:`~repro.engine.result.Result.to_dict` payload.  Source failures
  degrade honestly (``complete: false`` + ``failed_relations``) instead of
  surfacing as 500s — the PR-5 partial-result contract over the wire.
* ``POST /query/stream`` — chunked ndjson: one ``{"row": [...]}`` line per
  answer as it materializes (via ``astream``), then one
  ``{"summary": {...}}`` trailer with the run's completeness verdict.
* ``GET /metrics`` — counters, latency histograms, admission rejections,
  per-tenant usage, per-relation source health, and the engine session's
  kernel/cache statistics.
* ``GET /healthz`` — liveness (still 200 while draining, with a flag).

Request bodies: ``{"query": "q(X) <- r(X, Y)"}`` plus optional
``strategy``, ``optimizer``, ``concurrency`` (``async``/``simulated``) and
``include_timings`` (default false: responses carry no wall-clock-derived
fields, so identical queries produce byte-identical payloads).  The
``X-Tenant`` header names the tenant billed for the request.

Admission control (429 + ``Retry-After``) and graceful drain are
documented in :mod:`repro.serve.admission` and :meth:`QueryServer.shutdown`.
"""

from __future__ import annotations

import asyncio
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.engine import Engine
from repro.engine.strategy import CONCURRENCY_MODES as _CONCURRENCY_MODES
from repro.engine.strategy import OPTIMIZERS as _OPTIMIZERS
from repro.exceptions import ReproError
from repro.serve.admission import AdmissionController
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import LAST_CHUNK, Request, chunk, response, stream_head
from repro.util.http1 import BackgroundServer, serve_connection


@dataclass
class ServeConfig:
    """Knobs of one serving process."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Default strategy for ``POST /query`` (streaming always distills).
    strategy: str = "fast_fail"
    #: Dispatch mode for query execution.  ``async`` overlaps each query's
    #: source accesses on the server loop and never blocks it on a source:
    #: a backend with a native ``alookup`` (memory — the default deployment
    #: — and HTTP) is awaited on the loop at no thread's cost, one that may
    #: block (sqlite, callable) is read on executor threads the loop never
    #: joins.  Only a read that suspends costs a task; an in-memory query
    #: runs from one real suspension to the next without yielding the loop,
    #: as ``execute`` holds its thread.  ``simulated`` is deterministic but
    #: steps inline (fine for tests and tiny fixtures, wrong for slow
    #: sources).
    concurrency: str = "async"
    max_in_flight: int = 64
    optimizer: str = "structural"
    #: Admission gates (see :mod:`repro.serve.admission`).
    max_concurrent: int = 16
    tenant_rate: Optional[float] = None
    tenant_burst: Optional[float] = None
    tenant_budget: Optional[int] = None
    #: Seconds :meth:`QueryServer.shutdown` waits for in-flight queries
    #: before cancelling them.
    drain_timeout: float = 5.0
    #: Extra ``ExecuteOptions`` overrides applied to every execution
    #: (e.g. ``{"retry": DEFAULT_RETRY, "timeout": 2.0}``).
    execute_overrides: Dict[str, object] = field(default_factory=dict)


def _tenant(request: Request) -> str:
    """The tenant a request bills to (``X-Tenant``, else 'anonymous')."""
    return request.headers.get("x-tenant") or "anonymous"


class QueryServer:
    """One engine session behind an asyncio HTTP front end."""

    def __init__(self, engine: Engine, config: Optional[ServeConfig] = None) -> None:
        self.engine = engine
        self.config = config or ServeConfig()
        if self.config.concurrency not in _CONCURRENCY_MODES:
            raise ReproError(
                f"serve concurrency must be one of {_CONCURRENCY_MODES}, "
                f"got {self.config.concurrency!r}"
            )
        if self.config.optimizer not in _OPTIMIZERS:
            raise ReproError(
                f"serve optimizer must be one of {_OPTIMIZERS}, "
                f"got {self.config.optimizer!r}"
            )
        self.metrics = ServerMetrics()
        self.admission = AdmissionController(
            max_concurrent=self.config.max_concurrent,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
            tenant_budget=self.config.tenant_budget,
        )
        self.draining = False
        self._routes = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("POST", "/query"): self._handle_query,
            ("POST", "/query/stream"): self._handle_stream,
        }
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.Task] = set()
        self.port: Optional[int] = None

    @property
    def url(self) -> str:
        if self.port is None:
            raise RuntimeError("server is not running; call start()")
        return f"http://{self.config.host}:{self.port}"

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "QueryServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def shutdown(self) -> None:
        """Graceful drain: refuse new work, let in-flight queries finish.

        New requests get 503 the moment draining starts; queries already
        executing run to completion (streams deliver their trailer) for up
        to ``drain_timeout`` seconds, after which stragglers are cancelled
        — a cancelled stream still writes an honest incomplete trailer.
        The engine itself is closed by the owner, not here, so its cache
        store releases this process's claims exactly once.
        """
        if self.draining:
            return
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_timeout
        while self.admission.executing > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        pending = [task for task in self._connections if not task.done()]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    # -- connection handling -----------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await serve_connection(reader, writer, self._dispatch)
        finally:
            self._connections.discard(task)

    async def _dispatch(self, request: Request, writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns whether to keep the connection."""
        route = self._routes.get((request.method, request.path))
        if route is None:
            refusal = {"error": f"no route {request.method} {request.path}"}
            return await self._reply(request, writer, "other", 404, refusal)
        return await route(request, writer)

    async def _reply(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        endpoint: str,
        status: int,
        body: object,
        extra_headers: Tuple[Tuple[str, str], ...] = (),
        keep_alive: bool = True,
    ) -> bool:
        """Write one JSON response and observe it; returns whether the
        connection stays open (the ``Connection`` header says the same)."""
        keep_alive = keep_alive and request.keep_alive
        writer.write(response(status, body, extra_headers, keep_alive))
        await writer.drain()
        self.metrics.observe_request(endpoint, status, time.perf_counter() - request.received)
        return keep_alive

    async def _handle_healthz(self, request: Request, writer: asyncio.StreamWriter) -> bool:
        body = {"status": "draining" if self.draining else "ok"}
        return await self._reply(request, writer, "healthz", 200, body)

    async def _handle_metrics(self, request: Request, writer: asyncio.StreamWriter) -> bool:
        body = self.metrics.to_dict(
            draining=self.draining,
            max_concurrent=self.config.max_concurrent,
            tenants=self.admission.tenants_dict(),
            session_stats=self.engine.session_stats(),
        )
        return await self._reply(request, writer, "metrics", 200, body)

    # -- admission ---------------------------------------------------------
    async def _admit(
        self, endpoint: str, request: Request, writer: asyncio.StreamWriter
    ) -> Optional[bool]:
        """Run the admission gates: None when admitted, else the refusal
        has been written and the value is whether to keep the connection."""
        if self.draining:
            self.metrics.observe_rejection("draining")
            refusal = {"error": "server is draining"}
            return await self._reply(request, writer, endpoint, 503, refusal, keep_alive=False)
        rejection = self.admission.admit(_tenant(request))
        if rejection is None:
            return None
        headers: Tuple[Tuple[str, str], ...] = ()
        if rejection.retry_after is not None and rejection.retry_after != float("inf"):
            headers = (("Retry-After", f"{rejection.retry_after:g}"),)
        self.metrics.observe_rejection(rejection.reason)
        refusal = {"error": rejection.detail, "reason": rejection.reason}
        return await self._reply(request, writer, endpoint, 429, refusal, headers)

    def _parse_query_request(self, request: Request) -> Dict[str, object]:
        try:
            payload = request.json()
        except ValueError as error:
            raise ReproError(f"request body is not a JSON object: {error}") from None
        text = payload.get("query")
        if not isinstance(text, str) or not text.strip():
            raise ReproError("request needs a non-empty 'query' string")
        concurrency = payload.get("concurrency", self.config.concurrency)
        if concurrency not in _CONCURRENCY_MODES:
            raise ReproError(
                f"'concurrency' must be one of {_CONCURRENCY_MODES}, "
                f"got {concurrency!r}"
            )
        optimizer = payload.get("optimizer", self.config.optimizer)
        if optimizer not in _OPTIMIZERS:
            raise ReproError(f"'optimizer' must be one of {_OPTIMIZERS}, got {optimizer!r}")
        return {
            "query": text,
            # None means "the endpoint's default": config.strategy for
            # /query, distillation (the streaming strategy) for /query/stream.
            "strategy": payload.get("strategy"),
            "optimizer": optimizer,
            "concurrency": concurrency,
            "include_timings": bool(payload.get("include_timings", False)),
        }

    def _execute_overrides(self, spec: Dict[str, object]) -> Dict[str, object]:
        return {
            "optimizer": spec["optimizer"],
            "concurrency": spec["concurrency"],
            "max_in_flight": self.config.max_in_flight,
            **self.config.execute_overrides,
        }

    # -- the query endpoints -----------------------------------------------
    async def _handle_query(self, request: Request, writer: asyncio.StreamWriter) -> bool:
        try:
            spec = self._parse_query_request(request)
        except ReproError as error:
            return await self._reply(request, writer, "query", 400, {"error": str(error)})
        refused = await self._admit("query", request, writer)
        if refused is not None:
            return refused
        self.metrics.enter()
        result = None
        try:
            result = await self.engine.aexecute(
                spec["query"],
                strategy=spec["strategy"] or self.config.strategy,
                **self._execute_overrides(spec),
            )
            body = result.to_dict(include_timings=spec["include_timings"])
            status = 200
        except ReproError as error:
            body, status = {"error": str(error)}, 400
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - a 500 is the honest answer
            body, status = {"error": f"internal error: {error}"}, 500
        finally:
            self.metrics.leave()
            self.admission.release(_tenant(request), result)
        if result is not None:
            self.metrics.observe_result(result)
        return await self._reply(request, writer, "query", status, body)

    async def _handle_stream(self, request: Request, writer: asyncio.StreamWriter) -> bool:
        try:
            spec = self._parse_query_request(request)
            prepared = self.engine.plan(spec["query"])
            stream = prepared.astream(
                strategy=spec["strategy"] or "distillation",
                answer_check_interval=1,
                **self._execute_overrides(spec),
            )
        except ReproError as error:
            return await self._reply(request, writer, "stream", 400, {"error": str(error)})
        refused = await self._admit("stream", request, writer)
        if refused is not None:
            await stream.aclose()
            return refused
        self.metrics.enter()
        status = 200
        result = None
        try:
            writer.write(stream_head())
            await writer.drain()
            try:
                async for answer in stream:
                    line: Dict[str, object] = {"row": list(answer.row)}
                    if spec["include_timings"]:
                        line["simulated_time"] = answer.simulated_time
                    writer.write(chunk(line))
                    await writer.drain()
            except asyncio.CancelledError:
                # Drain-timeout cancellation mid-stream: closing the
                # generator below still absorbs the partial log; tell the
                # client honestly that the stream is an incomplete prefix.
                await stream.aclose()
                result = prepared.last_stream_result
                summary = (
                    result.to_dict(include_timings=spec["include_timings"])
                    if result is not None
                    else {"complete": False, "termination": "cancelled"}
                )
                summary["cancelled"] = True
                writer.write(chunk({"summary": summary}) + LAST_CHUNK)
                raise
            result = prepared.last_stream_result
            if result is None:  # pragma: no cover - defensive; astream shapes it
                summary: Dict[str, object] = {"complete": False}
            else:
                summary = result.to_dict(include_timings=spec["include_timings"])
            writer.write(chunk({"summary": summary}) + LAST_CHUNK)
            await writer.drain()
        except asyncio.CancelledError:
            raise
        except ReproError as error:
            # The stream already started, so the error rides the channel.
            status = 400
            writer.write(chunk({"error": str(error)}) + LAST_CHUNK)
            await writer.drain()
        except Exception as error:  # noqa: BLE001
            status = 500
            writer.write(chunk({"error": f"internal error: {error}"}) + LAST_CHUNK)
            await writer.drain()
        finally:
            self.metrics.leave()
            self.admission.release(_tenant(request), result)
            if result is not None:
                self.metrics.observe_result(result)
            self.metrics.observe_request(
                "stream", status, time.perf_counter() - request.received
            )
        return False  # the stream response is Connection: close


async def serve_forever(engine: Engine, config: Optional[ServeConfig] = None) -> None:
    """Run a :class:`QueryServer` until SIGTERM/SIGINT, then drain and exit.

    Prints the bound URL on stdout (flushed) so wrappers — CI, benchmark
    drivers, tests — can scrape it, mirroring ``serve-fixture``.
    """
    server = QueryServer(engine, config)
    await server.start()
    print(server.url, flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - platforms
            pass
    await stop.wait()
    await server.shutdown()


class ServeHandle(BackgroundServer):
    """A :class:`QueryServer` on a background thread, for in-process use.

    ``.url`` points at it and :meth:`close` drains gracefully, then stops
    the loop.  The handle owns the engine's shutdown — ``close()`` closes
    it after the drain, so a SQLite cache store releases its claims
    exactly once.
    """

    def __init__(self, engine: Engine, config: Optional[ServeConfig] = None) -> None:
        super().__init__()
        self.engine = engine
        self.server = QueryServer(engine, config)

    @property
    def url(self) -> str:
        return self.server.url

    async def _boot(self) -> None:
        await self.server.start()

    async def _halt(self) -> None:
        await self.server.shutdown()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Drain the server synchronously from the caller's thread."""
        if self._loop is not None:
            self._call(self.server.shutdown(), timeout)

    def close(self) -> None:
        super().close()
        self.engine.close()
