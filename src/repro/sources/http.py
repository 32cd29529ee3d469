"""An HTTP source backend: accesses become JSON POSTs to a remote service.

This is the backend the paper actually models — data behind a remote,
access-limited interface — speaking a deliberately tiny protocol:

* ``POST /lookup`` with ``{"relation": NAME, "binding": [v, ...]}``
  answers ``{"rows": [[v, ...], ...]}``;
* ``GET /health`` answers ``{"status": "ok"}``.

One access is one request — no dispatcher batches, so there is no batch
route.  :class:`HTTPBackend` implements both faces of the source layer: the
sync :meth:`lookup` (simulated dispatch) over per-thread keep-alive
``http.client`` connections, and the native async :meth:`alookup` (event-
loop dispatch) over a pool of ``asyncio`` stream connections, framed by
:mod:`repro.util.http1` like the fixture server that answers them, so
hundreds of requests can be in flight on one loop.  Values are restricted
to what JSON round-trips losslessly — ``str``/``int``/``float``, with
``bool`` rejected like the SQLite backend rejects it — so cross-backend
equivalence can never silently break.

Transport errors surface as
:class:`~repro.sources.resilience.TransientSourceError` (after one
internal reconnect, which absorbs stale keep-alive connections without
consuming a retry attempt), so the resilience layer's retry/breaker
policy governs HTTP flakiness exactly as it governs injected faults.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
from typing import FrozenSet, List, Optional, Tuple

from repro.exceptions import AccessError
from repro.model.schema import RelationSchema
from repro.sources.backend import SourceBackend
from repro.util import http1

Row = Tuple[object, ...]
Binding = Tuple[object, ...]

_StreamPair = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


def parse_http_url(url: str) -> Tuple[str, str, int, str]:
    """Split an ``http[s]://HOST[:PORT][/path]`` spec; raises on bad URLs."""
    try:
        return http1.split_url(url)
    except ValueError as error:
        raise AccessError(f"bad HTTP backend URL {url!r}: {error}") from error


class HTTPBackend(SourceBackend):
    """One relation answered over the JSON lookup protocol."""

    kind = "http"

    def __init__(self, schema: RelationSchema, url: str) -> None:
        self.schema = schema
        self.url = url
        self._scheme, self._host, self._port, self._base = parse_http_url(url)
        self._lock = threading.Lock()
        self._closed = False
        # Sync path: one keep-alive connection per thread, all tracked so
        # close() can tear them down regardless of which thread made them.
        self._local = threading.local()
        self._sync_conns: List[http.client.HTTPConnection] = []
        # Async path: idle keep-alive stream connections, valid only on the
        # loop that opened them (asyncio transports are loop-bound).
        self._pool: List[_StreamPair] = []
        self._pool_loop: Optional[asyncio.AbstractEventLoop] = None

    # -- shared plumbing -------------------------------------------------------
    def _fault(self, binding: Binding, detail: str) -> "AccessError":
        from repro.sources.resilience import TransientSourceError

        return TransientSourceError(self.schema.name, tuple(binding), detail)

    def _check_open(self) -> None:
        if self._closed:
            raise AccessError(
                f"HTTP backend for {self.schema.name!r} is closed; "
                "no further accesses are possible"
            )

    def _rows(self, status: int, body: bytes, binding: Binding) -> FrozenSet[Row]:
        """The rows a ``/lookup`` response carries, or the error it stands for."""
        if status != 200:
            detail = body.decode("utf-8", "replace").strip() or f"HTTP {status}"
            if 400 <= status < 500:
                raise AccessError(
                    f"HTTP backend for {self.schema.name!r} rejected the "
                    f"request ({status}): {detail}"
                )
            raise self._fault(binding, f"HTTP {status}: {detail}")
        try:
            payload = json.loads(body)
        except ValueError:
            raise self._fault(binding, "response is not valid JSON") from None
        if not isinstance(payload, dict):
            raise self._fault(binding, "response is not a JSON object")
        raw = payload.get("rows")
        if not isinstance(raw, list):
            raise AccessError(
                f"HTTP backend for {self.schema.name!r} returned malformed rows"
            )
        rows = []
        for row in raw:
            if not isinstance(row, list):
                raise AccessError(
                    f"HTTP backend for {self.schema.name!r} returned a "
                    f"non-list row {row!r}"
                )
            for value in row:
                if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                    raise AccessError(
                        f"HTTP backend for {self.schema.name!r} cannot carry "
                        f"{value!r} ({type(value).__name__}); use str/int/float"
                    )
            rows.append(tuple(row))
        return frozenset(rows)

    # -- sync path (simulated dispatch; one connection per calling thread) -----
    def _sync_connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._open_sync_connection()
        return conn

    def _open_sync_connection(self) -> http.client.HTTPConnection:
        factory = (
            http.client.HTTPSConnection
            if self._scheme == "https"
            else http.client.HTTPConnection
        )
        conn = factory(self._host, self._port)
        self._local.conn = conn
        with self._lock:
            self._sync_conns.append(conn)
        return conn

    def _drop_sync_connection(self, conn: http.client.HTTPConnection) -> None:
        http1.close_quietly(conn)
        with self._lock:
            if conn in self._sync_conns:
                self._sync_conns.remove(conn)
        if getattr(self._local, "conn", None) is conn:
            self._local.conn = None

    def _payload(self, binding: Binding) -> dict:
        return {"relation": self.schema.name, "binding": list(binding)}

    def lookup(self, binding: Binding) -> FrozenSet[Row]:
        binding = tuple(binding)
        self._check_open()
        body = http1.dump_json(self._payload(binding))
        conn = self._sync_connection()
        for attempt in (0, 1):
            try:
                conn.request(
                    "POST",
                    self._base + "/lookup",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                data = response.read()
                return self._rows(response.status, data, binding)
            except (OSError, http.client.HTTPException) as error:
                # A stale keep-alive connection fails on reuse; reconnect
                # once before reporting a (retryable) source fault.
                self._drop_sync_connection(conn)
                if attempt:
                    raise self._fault(binding, f"connection failed: {error}") from None
                conn = self._open_sync_connection()
        raise AssertionError("unreachable")  # pragma: no cover

    # -- async path (event-loop dispatch) --------------------------------------
    def _pool_take(self) -> Optional[_StreamPair]:
        """An idle connection for the *current* loop, invalidating stale pools."""
        loop = asyncio.get_running_loop()
        with self._lock:
            if self._pool_loop is not loop:
                stale, self._pool = self._pool, []
                self._pool_loop = loop
            else:
                stale = []
            conn = self._pool.pop() if self._pool else None
        for _, writer in stale:
            http1.close_quietly(writer)
        return conn

    def _pool_put(self, conn: _StreamPair) -> None:
        with self._lock:
            if not self._closed and self._pool_loop is asyncio.get_running_loop():
                self._pool.append(conn)
                return
        http1.close_quietly(conn[1])

    async def _roundtrip(self, conn: _StreamPair, request: bytes) -> Tuple[int, bytes]:
        reader, writer = conn
        writer.write(request)
        await writer.drain()
        status, headers = await http1.read_response_head(reader)
        return status, await http1.read_body(reader, headers)

    async def alookup(self, binding: Binding) -> FrozenSet[Row]:
        binding = tuple(binding)
        self._check_open()
        request = http1.request_bytes(
            "POST",
            self._base + "/lookup",
            self._payload(binding),
            host=f"{self._host}:{self._port}",
        )
        conn = self._pool_take()
        fresh = conn is None
        for attempt in (0, 1):
            if conn is None:
                try:
                    conn = await asyncio.open_connection(
                        self._host, self._port, ssl=self._scheme == "https"
                    )
                except OSError as error:
                    raise self._fault(binding, f"cannot connect: {error}") from None
                fresh = True
            try:
                status, data = await self._roundtrip(conn, request)
            except (OSError, asyncio.IncompleteReadError, ValueError) as error:
                http1.close_quietly(conn[1])
                conn = None
                if fresh or attempt:
                    raise self._fault(binding, f"connection failed: {error}") from None
                continue
            self._pool_put(conn)
            return self._rows(status, data, binding)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- teardown --------------------------------------------------------------
    def close(self) -> None:
        """Drop every pooled connection; idempotent, never raises.

        Safe to call twice, after a failed request, or with the owning
        event loop already gone — transports whose loop is closed are
        abandoned (the OS reclaims the sockets with the process) rather
        than raised over.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sync_conns, self._sync_conns = self._sync_conns, []
            pool, self._pool = self._pool, []
            self._pool_loop = None
        for conn in sync_conns:
            http1.close_quietly(conn)
        for _, writer in pool:
            http1.close_quietly(writer)
