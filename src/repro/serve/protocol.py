"""The query service's side of the wire, and a client for it.

The framing itself — request parse, response / chunk / stream-head
framing, canonical JSON — is :mod:`repro.util.http1`, shared with the
fixture lookup server and the HTTP source backend; the names the server,
the benchmarks and the tests use are re-exported here.  What this module
adds is the client the tests drive the service with: :func:`request_json`
for the JSON endpoints and :func:`stream_lines` for the chunked ndjson
stream.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import AsyncIterator, Dict, Optional, Tuple

from repro.util import http1
from repro.util.http1 import (
    LAST_CHUNK,
    MAX_BODY,
    Request,
    chunk,
    dump_json,
    read_request,
    response,
    stream_head,
)

__all__ = [
    "LAST_CHUNK",
    "MAX_BODY",
    "Request",
    "chunk",
    "dump_json",
    "read_request",
    "request_json",
    "response",
    "stream_head",
    "stream_lines",
]


async def _pieces(
    reader: asyncio.StreamReader, head: http1.Headers, timeout: float
) -> AsyncIterator[bytes]:
    """A response body as it arrives: chunk by chunk, or whole when the
    server framed it with ``Content-Length``."""
    if head.get("transfer-encoding", "").lower() != "chunked":
        yield await asyncio.wait_for(http1.read_body(reader, head), timeout)
        return
    while piece := await asyncio.wait_for(http1.read_chunk(reader), timeout):
        yield piece


@contextlib.asynccontextmanager
async def _exchange(
    url: str,
    method: str,
    path: str,
    payload: Optional[dict],
    headers: Optional[Dict[str, str]],
    timeout: float,
) -> AsyncIterator[Tuple[int, AsyncIterator[bytes]]]:
    """Open a connection, send one request, read the response head.

    Yields ``(status, body pieces)``; the connection closes on exit.
    """
    _, host, port, base = http1.split_url(url)
    reader, writer = await asyncio.wait_for(asyncio.open_connection(host, port), timeout)
    try:
        writer.write(http1.request_bytes(method, base + path, payload, headers, keep_alive=False))
        await writer.drain()
        status, head = await asyncio.wait_for(http1.read_response_head(reader), timeout)
        yield status, _pieces(reader, head, timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def request_json(
    url: str,
    method: str = "GET",
    path: str = "/",
    payload: Optional[dict] = None,
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 30.0,
) -> Tuple[int, dict]:
    """One JSON request/response round trip on a fresh connection.

    ``url`` is the server base (``http://HOST:PORT``); returns
    ``(status, parsed_body)``.
    """
    async with _exchange(url, method, path, payload, headers, timeout) as (status, pieces):
        body = b"".join([piece async for piece in pieces])
        return status, (json.loads(body) if body else {})


async def stream_lines(
    url: str,
    path: str,
    payload: dict,
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 30.0,
) -> AsyncIterator[object]:
    """POST to a streaming endpoint and yield each ndjson line, parsed.

    The first yielded item is the integer status code; JSON lines follow.
    A non-200 status yields the (non-streamed) error body as its only
    line: every body is canonical JSON, which holds no raw newline.
    """
    async with _exchange(url, "POST", path, payload, headers, timeout) as (status, pieces):
        yield status
        buffer = b""
        async for piece in pieces:
            buffer += piece
            while b"\n" in buffer:
                line, _, buffer = buffer.partition(b"\n")
                if line.strip():
                    yield json.loads(line)
        if buffer.strip():
            yield json.loads(buffer)
