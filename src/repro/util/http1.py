"""HTTP/1.1 over asyncio streams, written once.

Everything here that speaks HTTP speaks one stdlib-only dialect — request
line, headers, ``Content-Length``, JSON bodies, chunked ndjson for streams
— and this module is its only implementation.  The query server
(:mod:`repro.serve.server`) and the fixture lookup server
(:mod:`repro.sources.fixture_server`) are route tables over
:func:`serve_connection`; :class:`~repro.sources.http.HTTPBackend`'s async
path and the query service's client (:mod:`repro.serve.protocol`) send
:func:`request_bytes` and read with :func:`read_response_head`; both
in-process server handles are a :class:`BackgroundServer`.  So a framing
rule — what is malformed, how large a request may be, what ``Connection``
says — has one place to land.  The module imports nothing from the rest of
the package, which is what lets ``sources/`` and ``serve/`` both sit on it.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Mapping, Optional, Tuple, TypeVar
from urllib.parse import urlsplit

#: Request bodies above this are refused before buffering.
MAX_BODY = 8 * 1024 * 1024

#: Header lines above this are refused: a peer that never sends the blank
#: line must not grow the header dict for as long as it likes.
MAX_HEADERS = 100

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

Headers = Dict[str, str]


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Headers = field(default_factory=dict)
    body: bytes = b""
    #: ``perf_counter`` reading when the request had been read: what a
    #: server measures its handling time from.
    received: float = field(default_factory=time.perf_counter)

    def json(self) -> dict:
        """The body as a JSON object (empty body parses as ``{}``)."""
        if not self.body:
            return {}
        payload = json.loads(self.body)
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    @property
    def keep_alive(self) -> bool:
        """Whether the client wants the connection kept (HTTP/1.1 default)."""
        return self.headers.get("connection", "").lower() != "close"


# -- reading ----------------------------------------------------------------
async def _read_head(reader: asyncio.StreamReader) -> Optional[Tuple[List[bytes], Headers]]:
    """The split start line and the header block; None at clean EOF.

    ValueError is malformed framing: a one-token start line, a line over
    the reader's limit (``readline`` raises it), a non-ASCII header name,
    more than :data:`MAX_HEADERS` header lines.
    """
    start_line = await reader.readline()
    if not start_line:
        return None
    parts = start_line.split(None, 2)
    if len(parts) < 2:
        raise ValueError(f"malformed start line {start_line!r}")
    headers: Headers = {}
    for _ in range(MAX_HEADERS + 1):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return parts, headers
        name, _, value = line.partition(b":")
        headers[name.strip().lower().decode("ascii")] = value.strip().decode("latin-1")
    raise ValueError(f"more than {MAX_HEADERS} header lines")


async def read_body(
    reader: asyncio.StreamReader, headers: Headers, limit: Optional[int] = None
) -> bytes:
    """The ``Content-Length`` body the headers announce.

    ValueError on a length that is not a non-negative integer or exceeds
    ``limit``; asyncio.IncompleteReadError on truncation.
    """
    length = int(headers.get("content-length") or 0)
    if length < 0 or (limit is not None and length > limit):
        raise ValueError(f"unacceptable Content-Length {length}")
    return await reader.readexactly(length) if length else b""


async def read_chunk(reader: asyncio.StreamReader) -> bytes:
    """The next chunk of a chunked body; ``b""`` is the terminating chunk."""
    size = int((await reader.readline()).strip() or b"0", 16)
    data = await reader.readexactly(size) if size else b""
    await reader.readline()  # the CRLF closing the chunk (or the body)
    return data


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Read one request off a keep-alive connection; None at clean EOF.

    Raises ValueError on malformed framing and asyncio.IncompleteReadError
    on truncation — :func:`serve_connection` ends the connection either way.
    A request body is framed by ``Content-Length`` only: any
    ``Transfer-Encoding`` is refused, since reading its body as empty would
    serve the body's bytes as the next request.
    """
    head = await _read_head(reader)
    if head is None:
        return None
    (method, path, *_), headers = head
    if "transfer-encoding" in headers:
        raise ValueError("Transfer-Encoding request bodies are not accepted; send Content-Length")
    body = await read_body(reader, headers, limit=MAX_BODY)
    return Request(method.decode("ascii"), path.decode("ascii"), headers, body)


async def read_response_head(reader: asyncio.StreamReader) -> Tuple[int, Headers]:
    """Status code and headers of one response; the body is the caller's."""
    head = await _read_head(reader)
    if head is None:
        raise ConnectionError("server closed the connection before responding")
    return int(head[0][1]), head[1]


# -- writing ----------------------------------------------------------------
def dump_json(payload: object) -> bytes:
    """Canonical JSON: sorted keys, no whitespace.

    Every body either server sends goes through this one serializer, so
    identical payloads produce byte-identical responses (the golden-payload
    test pins this).
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def response(
    status: int,
    payload: object,
    extra_headers: Tuple[Tuple[str, str], ...] = (),
    keep_alive: bool = True,
) -> bytes:
    """A full JSON response with Content-Length framing."""
    body = dump_json(payload)
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def stream_head(status: int = 200) -> bytes:
    """Response head opening a chunked newline-delimited-JSON stream."""
    return (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
        "Content-Type: application/x-ndjson\r\n"
        "Transfer-Encoding: chunked\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("ascii")


def chunk(payload: object) -> bytes:
    """One ndjson line as one HTTP chunk."""
    body = dump_json(payload) + b"\n"
    return f"{len(body):x}\r\n".encode("ascii") + body + b"\r\n"


#: The zero-length chunk terminating a chunked stream.
LAST_CHUNK = b"0\r\n\r\n"


def request_bytes(
    method: str,
    path: str,
    payload: Optional[object] = None,
    headers: Optional[Mapping[str, str]] = None,
    host: str = "localhost",
    keep_alive: bool = True,
) -> bytes:
    """A full request; ``payload`` (when given) is the JSON body."""
    body = dump_json(payload) if payload is not None else b""
    lines = [f"{method} {path} HTTP/1.1", f"Host: {host}"]
    lines.extend(f"{name}: {value}" for name, value in (headers or {}).items())
    if body:
        lines.append("Content-Type: application/json")
    lines.append(f"Content-Length: {len(body)}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def split_url(url: str) -> Tuple[str, str, int, str]:
    """``(scheme, host, port, base path)`` of ``http[s]://HOST[:PORT][/path]``.

    ValueError on anything else (a non-numeric or out-of-range port
    included); the port defaults to the scheme's.
    """
    parts = urlsplit(url)
    scheme, hostname, port = parts.scheme, parts.hostname, parts.port
    if scheme not in ("http", "https") or not hostname:
        raise ValueError("expected http://HOST:PORT or https://HOST:PORT")
    if port is None:
        port = 443 if scheme == "https" else 80
    return scheme, hostname, port, parts.path.rstrip("/")


# -- the server side of a connection ------------------------------------------
#: Writes the response to one request; returns whether to keep the connection.
Handler = Callable[[Request, asyncio.StreamWriter], Awaitable[bool]]


async def serve_connection(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, handler: Handler
) -> None:
    """One keep-alive connection: read a request, hand it over, repeat.

    Ends at EOF, when ``handler`` returns False, or on bad framing:
    malformed input is answered ``400`` first, a truncated request or a
    vanished peer is not answered at all.  Nothing escapes into the loop's
    exception handler — cancellation included: shutdown cancels parked
    keep-alive connections, and finishing normally keeps the stream
    protocol's done-callback from re-raising at teardown.
    """
    try:
        while True:
            try:
                request = await read_request(reader)
            except ValueError as error:
                refusal = {"error": f"malformed request: {error}"}
                writer.write(response(400, refusal, keep_alive=False))
                await writer.drain()
                break
            if request is None or not await handler(request, writer):
                break
    except (ConnectionError, asyncio.IncompleteReadError, asyncio.CancelledError):
        pass
    finally:
        close_quietly(writer)


def close_quietly(closable: object) -> None:
    """Close a connection whose peer — or whose event loop — may be gone."""
    try:
        closable.close()  # type: ignore[attr-defined]
    except Exception:
        pass


# -- a server on a background thread --------------------------------------------
_Self = TypeVar("_Self", bound="BackgroundServer")


class BackgroundServer:
    """A server whose event loop lives on a daemon thread, for in-process use.

    The caller's thread stays free to drive engines — sync or async —
    against it.  Subclasses say what to bind (:meth:`_boot`) and how to
    stop serving (:meth:`_halt`); both run on the loop thread.  Context-
    manager enter/exit start and stop it; :meth:`close` is idempotent.
    """

    def __init__(self) -> None:
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    async def _boot(self) -> None:
        raise NotImplementedError

    async def _halt(self) -> None:
        raise NotImplementedError

    def start(self: _Self) -> _Self:
        if self._thread is None:
            self._loop = asyncio.new_event_loop()
            self._thread = threading.Thread(
                target=self._loop.run_forever, name=f"repro-{type(self).__name__}", daemon=True
            )
            self._thread.start()
            try:
                self._call(self._boot())
            except BaseException:
                self.close()
                raise
        return self

    def _call(self, coroutine: Awaitable[object], timeout: float = 10.0) -> object:
        """Run ``coroutine`` on the (running) loop thread; wait for its result."""
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(timeout)

    async def _wind_down(self) -> None:
        await self._halt()
        # Idle keep-alive connections are parked on readline(); cancel what
        # is left and let the cancellations land before the loop stops, so
        # it closes without "Task was destroyed" warnings.
        tasks = asyncio.all_tasks() - {asyncio.current_task()}
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def close(self) -> None:
        if self._loop is None:
            return
        try:
            self._call(self._wind_down())
        except Exception:
            pass
        loop, self._loop = self._loop, None
        loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout=5)
        if not loop.is_running():
            loop.close()

    def __enter__(self: _Self) -> _Self:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()
