"""The load generator's own asyncio HTTP client.

Deliberately independent of ``repro.serve.protocol``'s client helpers, so a
change to the program's client code cannot change what the benchmark
measures.  ``POST /query`` rides a keep-alive connection; the server closes
the connection after a ``POST /query/stream`` response, so each stream gets
a fresh one.  The stream reader is chunked-ndjson aware and timestamps the
first ``row`` line.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


def split_url(url: str) -> Tuple[str, int]:
    host, _, port = url.split("://", 1)[-1].rstrip("/").partition(":")
    return host, int(port)


def request_bytes(method: str, path: str, payload: Optional[dict]) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8") if payload else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


async def _read_head(reader: asyncio.StreamReader) -> Tuple[int, Dict[str, str]]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection before responding")
    status = int(status_line.split()[1])
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return status, headers
        name, _, value = line.partition(b":")
        headers[name.strip().lower().decode("ascii")] = value.strip().decode("latin-1")


@dataclass
class StreamReply:
    """What one ``/query/stream`` exchange delivered."""

    status: int
    rows: List[list] = field(default_factory=list)
    summary: Optional[dict] = None
    error: Optional[str] = None
    #: ``perf_counter`` reading when the first ``row`` line was parsed.
    first_row_at: Optional[float] = None


class Client:
    """One closed-loop caller: at most one request in flight."""

    def __init__(self, url: str) -> None:
        self.host, self.port = split_url(url)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connection(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        assert self._reader is not None
        return self._reader, self._writer

    async def request(self, method: str, path: str, payload: Optional[dict] = None) -> Tuple[int, dict]:
        """One JSON exchange on the keep-alive connection."""
        reader, writer = await self._connection()
        try:
            writer.write(request_bytes(method, path, payload))
            await writer.drain()
            status, headers = await _read_head(reader)
            body = await reader.readexactly(int(headers.get("content-length", "0")))
        except BaseException:
            # A half-read reply would desynchronize the next exchange.
            await self.close()
            raise
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, (json.loads(body) if body else {})

    async def stream(self, path: str, payload: dict) -> StreamReply:
        """One chunked ndjson exchange on a connection of its own."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(request_bytes("POST", path, payload))
            await writer.drain()
            status, headers = await _read_head(reader)
            reply = StreamReply(status=status)
            if headers.get("transfer-encoding", "").lower() != "chunked":
                body = await reader.readexactly(int(headers.get("content-length", "0")))
                reply.error = body.decode("utf-8", "replace")
                return reply
            buffer = b""
            while True:
                size = int((await reader.readline()).strip() or b"0", 16)
                if size == 0:
                    await reader.readline()
                    break
                buffer += await reader.readexactly(size)
                await reader.readexactly(2)
                while b"\n" in buffer:
                    line, _, buffer = buffer.partition(b"\n")
                    self._absorb_line(reply, line)
            if buffer.strip():
                self._absorb_line(reply, buffer)
            return reply
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    def _absorb_line(reply: StreamReply, line: bytes) -> None:
        if not line.strip():
            return
        item = json.loads(line)
        if "row" in item:
            if reply.first_row_at is None:
                reply.first_row_at = time.perf_counter()
            reply.rows.append(item["row"])
        elif "summary" in item:
            reply.summary = item["summary"]
        elif "error" in item:
            reply.error = str(item["error"])

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def wait_healthy(url: str, path: str, timeout: float = 30.0) -> None:
    """Poll ``GET path`` until it answers 200."""
    deadline = time.monotonic() + timeout
    client = Client(url)
    try:
        while True:
            try:
                status, _ = await client.request("GET", path)
                if status == 200:
                    return
            except (ConnectionError, OSError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"{url}{path} did not become healthy in {timeout:.0f}s")
            await asyncio.sleep(0.02)
    finally:
        await client.close()
