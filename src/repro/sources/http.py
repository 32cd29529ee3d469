"""An HTTP source backend: accesses become JSON POSTs to a remote service.

This is the backend the paper actually models — data behind a remote,
access-limited interface — speaking a deliberately tiny protocol:

* ``POST /lookup`` with ``{"relation": NAME, "binding": [v, ...]}``
  answers ``{"rows": [[v, ...], ...]}``;
* ``POST /lookup_many`` with ``{"relation": NAME, "bindings": [[...], ...]}``
  answers ``{"results": [[[...], ...], ...]}`` (one row list per binding,
  in order — the batching path);
* ``GET /health`` answers ``{"status": "ok"}``.

:class:`HTTPBackend` implements both faces of the source layer: the sync
:meth:`lookup` (simulated dispatch) over per-thread keep-alive
``http.client`` connections, and the native async :meth:`alookup` (event-
loop dispatch) over a pool of ``asyncio`` stream connections, so hundreds
of requests can be in flight on one loop.  Values are restricted to what
JSON round-trips losslessly — ``str``/``int``/``float``, with ``bool``
rejected like the SQLite backend rejects it — so cross-backend equivalence
can never silently break.

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
from typing import FrozenSet, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.exceptions import AccessError
from repro.model.schema import RelationSchema
from repro.sources.backend import SourceBackend

Row = Tuple[object, ...]
Binding = Tuple[object, ...]

_StreamPair = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


def parse_http_url(url: str) -> Tuple[str, str, int, str]:
    """Split an ``http[s]://HOST[:PORT][/path]`` spec; raises on bad URLs."""
    parts = urlsplit(url)
    try:
        # .port raises ValueError on a non-numeric or out-of-range port.
        scheme, hostname, port = parts.scheme, parts.hostname, parts.port
    except ValueError as error:
        raise AccessError(f"bad HTTP backend URL {url!r}: {error}") from error
    if scheme not in ("http", "https") or not hostname:
        raise AccessError(
            f"bad HTTP backend URL {url!r}; expected http://HOST:PORT or "
            "https://HOST:PORT"
        )
    if port is None:
        port = 443 if scheme == "https" else 80
    return scheme, hostname, port, parts.path.rstrip("/")


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

    def _decode(self, status: int, body: bytes, binding: Binding) -> dict:
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
        return payload

    def _parse_rows(self, raw: object) -> FrozenSet[Row]:
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
        try:
            conn.close()
        except Exception:
            pass
        with self._lock:
            if conn in self._sync_conns:
                self._sync_conns.remove(conn)
        if getattr(self._local, "conn", None) is conn:
            self._local.conn = None

    def _post(self, path: str, payload: dict, binding: Binding) -> dict:
        self._check_open()
        body = json.dumps(payload).encode("utf-8")
        conn = self._sync_connection()
        for attempt in (0, 1):
            try:
                conn.request(
                    "POST",
                    self._base + path,
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                data = response.read()
                return self._decode(response.status, data, binding)
            except (OSError, http.client.HTTPException) as error:
                # A stale keep-alive connection fails on reuse; reconnect
                # once before reporting a (retryable) source fault.
                self._drop_sync_connection(conn)
                if attempt:
                    raise self._fault(binding, f"connection failed: {error}") from None
                conn = self._open_sync_connection()
        raise AssertionError("unreachable")  # pragma: no cover

    def lookup(self, binding: Binding) -> FrozenSet[Row]:
        binding = tuple(binding)
        payload = self._post(
            "/lookup", {"relation": self.schema.name, "binding": list(binding)}, binding
        )
        return self._parse_rows(payload.get("rows"))

    def lookup_many(self, bindings: Sequence[Binding]) -> List[FrozenSet[Row]]:
        batch = [tuple(binding) for binding in bindings]
        if not batch:
            return []
        payload = self._post(
            "/lookup_many",
            {"relation": self.schema.name, "bindings": [list(b) for b in batch]},
            batch[0],
        )
        results = payload.get("results")
        if not isinstance(results, list) or len(results) != len(batch):
            raise AccessError(
                f"HTTP backend for {self.schema.name!r} returned "
                f"{0 if not isinstance(results, list) else len(results)} batch "
                f"results for {len(batch)} bindings"
            )
        return [self._parse_rows(raw) for raw in results]

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
            try:
                writer.close()
            except Exception:
                pass
        return conn

    def _pool_put(self, conn: _StreamPair) -> None:
        with self._lock:
            if not self._closed and self._pool_loop is asyncio.get_running_loop():
                self._pool.append(conn)
                return
        try:
            conn[1].close()
        except Exception:
            pass

    async def _aconnect(self) -> _StreamPair:
        return await asyncio.open_connection(
            self._host, self._port, ssl=self._scheme == "https"
        )

    async def _roundtrip(self, conn: _StreamPair, path: str, body: bytes) -> Tuple[int, bytes]:
        reader, writer = conn
        request = (
            f"POST {self._base + path} HTTP/1.1\r\n"
            f"Host: {self._host}:{self._port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n"
            "\r\n"
        ).encode("ascii") + body
        writer.write(request)
        await writer.drain()
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ValueError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                content_length = int(value.strip())
        data = await reader.readexactly(content_length) if content_length else b""
        return status, data

    async def _apost(self, path: str, payload: dict, binding: Binding) -> dict:
        self._check_open()
        body = json.dumps(payload).encode("utf-8")
        conn = self._pool_take()
        fresh = conn is None
        for attempt in (0, 1):
            if conn is None:
                try:
                    conn = await self._aconnect()
                except OSError as error:
                    raise self._fault(binding, f"cannot connect: {error}") from None
                fresh = True
            try:
                status, data = await self._roundtrip(conn, path, body)
            except (OSError, asyncio.IncompleteReadError, ValueError) as error:
                try:
                    conn[1].close()
                except Exception:
                    pass
                conn = None
                if fresh or attempt:
                    raise self._fault(binding, f"connection failed: {error}") from None
                continue
            self._pool_put(conn)
            return self._decode(status, data, binding)
        raise AssertionError("unreachable")  # pragma: no cover

    async def alookup(self, binding: Binding) -> FrozenSet[Row]:
        binding = tuple(binding)
        payload = await self._apost(
            "/lookup", {"relation": self.schema.name, "binding": list(binding)}, binding
        )
        return self._parse_rows(payload.get("rows"))

    async def alookup_many(self, bindings: Sequence[Binding]) -> List[FrozenSet[Row]]:
        batch = [tuple(binding) for binding in bindings]
        if not batch:
            return []
        payload = await self._apost(
            "/lookup_many",
            {"relation": self.schema.name, "bindings": [list(b) for b in batch]},
            batch[0],
        )
        results = payload.get("results")
        if not isinstance(results, list) or len(results) != len(batch):
            raise AccessError(
                f"HTTP backend for {self.schema.name!r} returned "
                f"{0 if not isinstance(results, list) else len(results)} batch "
                f"results for {len(batch)} bindings"
            )
        return [self._parse_rows(raw) for raw in results]

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
            try:
                conn.close()
            except Exception:
                pass
        for _, writer in pool:
            try:
                writer.close()
            except Exception:
                pass
