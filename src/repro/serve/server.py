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
import json
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.engine import Engine
from repro.engine.strategy import CONCURRENCY_MODES as _CONCURRENCY_MODES
from repro.engine.strategy import OPTIMIZERS as _OPTIMIZERS
from repro.exceptions import ReproError
from repro.serve.admission import AdmissionController, Rejection
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import (
    LAST_CHUNK,
    Request,
    chunk,
    read_request,
    response,
    stream_head,
)


@dataclass
class ServeConfig:
    """Knobs of one serving process."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Default strategy for ``POST /query`` (streaming always distills).
    strategy: str = "fast_fail"
    #: Dispatch mode for query execution.  ``async`` overlaps each query's
    #: source accesses as tasks on the server loop and never blocks it: a
    #: backend with a native ``alookup`` (memory — the default deployment —
    #: and HTTP) is awaited inline at no thread's cost, one that may block
    #: (sqlite, callable) is read on executor threads the loop never joins;
    #: ``simulated`` is deterministic but steps inline (fine for tests and
    #: tiny fixtures, wrong for slow sources).
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
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except (ValueError, asyncio.IncompleteReadError):
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
            except Exception:
                pass

    async def _dispatch(self, request: Request, writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns whether to keep the connection."""
        started = time.perf_counter()
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            status, body = 200, {"status": "draining" if self.draining else "ok"}
            writer.write(response(status, body))
            await writer.drain()
            self.metrics.observe_request("healthz", status, time.perf_counter() - started)
            return True
        if route == ("GET", "/metrics"):
            body = self.metrics.to_dict(
                draining=self.draining,
                max_concurrent=self.config.max_concurrent,
                tenants=self.admission.tenants_dict(),
                session_stats=self.engine.session_stats(),
            )
            writer.write(response(200, body))
            await writer.drain()
            self.metrics.observe_request("metrics", 200, time.perf_counter() - started)
            return True
        if route == ("POST", "/query"):
            return await self._handle_query(request, writer, started)
        if route == ("POST", "/query/stream"):
            return await self._handle_stream(request, writer, started)
        writer.write(
            response(404, {"error": f"no route {request.method} {request.path}"})
        )
        await writer.drain()
        self.metrics.observe_request("other", 404, time.perf_counter() - started)
        return True

    # -- admission ---------------------------------------------------------
    async def _admit(
        self,
        endpoint: str,
        request: Request,
        writer: asyncio.StreamWriter,
        started: float,
    ) -> bool:
        """Run the admission gates; on refusal, respond and return False."""
        if self.draining:
            self.metrics.observe_rejection("draining")
            writer.write(
                response(503, {"error": "server is draining"}, keep_alive=False)
            )
            await writer.drain()
            self.metrics.observe_request(endpoint, 503, time.perf_counter() - started)
            return False
        rejection = self.admission.admit(request.tenant)
        if rejection is not None:
            self._respond_rejection(writer, rejection)
            await writer.drain()
            self.metrics.observe_rejection(rejection.reason)
            self.metrics.observe_request(endpoint, 429, time.perf_counter() - started)
            return False
        return True

    def _respond_rejection(
        self, writer: asyncio.StreamWriter, rejection: Rejection
    ) -> None:
        headers = ()
        if rejection.retry_after is not None and rejection.retry_after != float("inf"):
            headers = (("Retry-After", f"{rejection.retry_after:g}"),)
        writer.write(
            response(
                429,
                {"error": rejection.detail, "reason": rejection.reason},
                extra_headers=headers,
            )
        )

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
    async def _handle_query(
        self, request: Request, writer: asyncio.StreamWriter, started: float
    ) -> bool:
        try:
            spec = self._parse_query_request(request)
        except ReproError as error:
            writer.write(response(400, {"error": str(error)}))
            await writer.drain()
            self.metrics.observe_request("query", 400, time.perf_counter() - started)
            return True
        if not await self._admit("query", request, writer, started):
            return not self.draining
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
            self.admission.release(request.tenant, result)
        if result is not None:
            self.metrics.observe_result(result)
        writer.write(response(status, body))
        await writer.drain()
        self.metrics.observe_request("query", status, time.perf_counter() - started)
        return True

    async def _handle_stream(
        self, request: Request, writer: asyncio.StreamWriter, started: float
    ) -> bool:
        try:
            spec = self._parse_query_request(request)
            prepared = self.engine.plan(spec["query"])
            stream = prepared.astream(
                strategy=spec["strategy"] or "distillation",
                answer_check_interval=1,
                **self._execute_overrides(spec),
            )
        except ReproError as error:
            writer.write(response(400, {"error": str(error)}))
            await writer.drain()
            self.metrics.observe_request("stream", 400, time.perf_counter() - started)
            return True
        if not await self._admit("stream", request, writer, started):
            await stream.aclose()
            return not self.draining
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
            self.admission.release(request.tenant, result)
            if result is not None:
                self.metrics.observe_result(result)
            self.metrics.observe_request("stream", status, time.perf_counter() - started)
        return False  # the stream response is Connection: close


async def serve_forever(engine: Engine, config: Optional[ServeConfig] = None) -> None:
    """Run a :class:`QueryServer` until SIGTERM/SIGINT, then drain and exit.

    Prints the bound URL on stdout (flushed) so wrappers — CI, the load
    generator, tests — can scrape it, mirroring ``serve-fixture``.
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


class ServeHandle:
    """A :class:`QueryServer` on a background thread, for in-process use.

    Mirrors :class:`~repro.sources.fixture_server.FixtureServer`: the
    server's event loop lives on a daemon thread, ``.url`` points at it,
    and :meth:`close` drains gracefully then stops the loop.  The handle
    owns the engine's shutdown — ``close()`` closes it after the drain, so
    a SQLite cache store releases its claims exactly once.
    """

    def __init__(self, engine: Engine, config: Optional[ServeConfig] = None) -> None:
        self.engine = engine
        self.server = QueryServer(engine, config)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._boot_error: Optional[BaseException] = None
        self._closed = False

    @property
    def url(self) -> str:
        return self.server.url

    def start(self) -> "ServeHandle":
        if self._thread is not None:
            return self
        self._loop = asyncio.new_event_loop()

        def run() -> None:
            assert self._loop is not None
            asyncio.set_event_loop(self._loop)

            async def boot() -> None:
                try:
                    await self.server.start()
                finally:
                    self._started.set()

            try:
                self._loop.run_until_complete(boot())
                self._loop.run_forever()
            except BaseException as error:  # pragma: no cover - boot failure
                self._boot_error = error
                self._started.set()
            finally:
                try:
                    self._loop.close()
                except Exception:
                    pass

        self._thread = threading.Thread(target=run, name="repro-serve", daemon=True)
        self._thread.start()
        self._started.wait(timeout=10)
        if self.server.port is None:
            raise RuntimeError(f"query server failed to start: {self._boot_error}")
        return self

    def shutdown(self, timeout: float = 10.0) -> None:
        """Drain the server synchronously from the caller's thread."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        future = asyncio.run_coroutine_threadsafe(self.server.shutdown(), loop)
        future.result(timeout=timeout)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.shutdown()
        except Exception:
            pass
        loop, self._loop = self._loop, None
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.engine.close()

    def __enter__(self) -> "ServeHandle":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()
