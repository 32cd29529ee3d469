"""The one HTTP/1.1 wire module (:mod:`repro.util.http1`) under both servers.

The query server and the fixture lookup server are route tables over the
same connection loop, so every framing rule is checked here once, against
both: hostile framing is answered 4xx or dropped — never an exception in
the loop's handler, never a server that stops serving — the header block
is bounded, and the ``Connection`` header says what the server then does.
Raw sockets on the test's own loop: no client helper sits between the
bytes below and the server.
"""

from __future__ import annotations

import ast
import asyncio
import contextlib
import json
from pathlib import Path
from typing import List, Optional, Tuple

import pytest

from repro import Engine
from repro.examples import running_example
from repro.serve import QueryServer
from repro.sources.fixture_server import start_fixture_server
from repro.util import http1

SERVERS = ("query", "fixture")

#: Per server: the health route, and a POST route with a body it accepts.
ROUTES = {
    "query": ("/healthz", "/query", {"query": running_example().query_text}),
    "fixture": ("/health", "/lookup", {"relation": "r2", "binding": ["volare"]}),
}


@contextlib.asynccontextmanager
async def _serving(kind: str, errors: List[dict]):
    """One server on the running loop, whose exception handler is recorded."""
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: errors.append(context)
    )
    example = running_example()
    if kind == "fixture":
        server = await start_fixture_server(example.instance)
        try:
            yield "127.0.0.1", server.sockets[0].getsockname()[1]
        finally:
            server.close()
    else:
        with Engine(example.schema, example.instance) as engine:
            query_server = await QueryServer(engine).start()
            try:
                yield "127.0.0.1", query_server.port
            finally:
                await query_server.shutdown()


async def _send(
    address: Tuple[str, int], raw: bytes, eof: bool = False
) -> Optional[Tuple[int, dict, bytes]]:
    """Write ``raw``; ``(status, headers, body)`` of the answer, None if the
    server closed the connection without one."""
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(raw)
        if eof:
            writer.write_eof()
        try:
            status, headers = await asyncio.wait_for(http1.read_response_head(reader), 5)
            body = await asyncio.wait_for(http1.read_body(reader, headers), 5)
        except (ConnectionError, asyncio.IncompleteReadError):
            return None
        if headers["connection"] == "close":
            # A reset (the server closed over input it never read) is closed too.
            with contextlib.suppress(ConnectionError):
                assert await asyncio.wait_for(reader.read(), 5) == b""
        return status, headers, body
    finally:
        writer.close()


def _post(path: str, head: str, body: bytes = b"") -> bytes:
    return f"POST {path} HTTP/1.1\r\n{head}\r\n\r\n".encode("ascii") + body


HOSTILE = {
    "content-length-not-a-number": lambda path: (_post(path, "Content-Length: abc"), False),
    "content-length-negative": lambda path: (_post(path, "Content-Length: -5"), False),
    "header-line-70k": lambda path: (_post(path, "X-Junk: " + "a" * (70 * 1024)), False),
    "non-ascii-request-line": lambda path: ("GET /café HTTP/1.1\r\n\r\n".encode(), False),
    "truncated-body": lambda path: (_post(path, "Content-Length: 50", b'{"half":'), True),
    "body-over-max": lambda path: (
        _post(path, f"Content-Length: {http1.MAX_BODY + 1}"),
        False,
    ),
}


@pytest.mark.parametrize("hostile", sorted(HOSTILE))
@pytest.mark.parametrize("kind", SERVERS)
def test_hostile_framing_is_refused_quietly_and_the_server_keeps_serving(
    kind: str, hostile: str
) -> None:
    health, post, _ = ROUTES[kind]
    raw, eof = HOSTILE[hostile](post)
    errors: List[dict] = []

    async def run():
        async with _serving(kind, errors) as address:
            answer = await _send(address, raw, eof)
            healthy = await _send(address, f"GET {health} HTTP/1.1\r\n\r\n".encode())
            await asyncio.sleep(0.01)  # let done-callbacks of the dropped handler run
            return answer, healthy

    answer, healthy = asyncio.run(run())
    if answer is not None:
        status, headers, _ = answer
        assert 400 <= status < 500 and headers["connection"] == "close"
    assert healthy is not None and healthy[0] == 200
    assert errors == []


async def _responses(address: Tuple[str, int], raw: bytes) -> List[Tuple[int, dict]]:
    """Every response the server writes after ``raw`` until it closes the
    connection (a server that keeps it open fails the read's timeout)."""
    reader, writer = await asyncio.open_connection(*address)
    answers: List[Tuple[int, dict]] = []
    try:
        writer.write(raw)
        while True:
            try:
                status, headers = await asyncio.wait_for(http1.read_response_head(reader), 5)
                await asyncio.wait_for(http1.read_body(reader, headers), 5)
            except (ConnectionError, asyncio.IncompleteReadError):
                return answers
            answers.append((status, headers))
    finally:
        writer.close()


@pytest.mark.parametrize("content_length", [False, True], ids=["chunked", "chunked+length"])
@pytest.mark.parametrize("kind", SERVERS)
def test_a_chunked_request_is_answered_once_and_the_connection_closed(
    kind: str, content_length: bool
) -> None:
    """A ``Transfer-Encoding`` body is refused — with a ``Content-Length``
    beside it too — not read as empty: its bytes must never be served as a
    second request."""
    health, post, payload = ROUTES[kind]
    body = http1.dump_json(payload)
    chunked = f"{len(body):x}\r\n".encode("ascii") + body + b"\r\n0\r\n\r\n"
    head = "Transfer-Encoding: chunked"
    if content_length:
        head += f"\r\nContent-Length: {len(chunked)}"
    errors: List[dict] = []

    async def run():
        async with _serving(kind, errors) as address:
            answers = await _responses(address, _post(post, head, chunked))
            healthy = await _send(address, f"GET {health} HTTP/1.1\r\n\r\n".encode())
            return answers, healthy

    answers, healthy = asyncio.run(run())
    assert [(status, headers["connection"]) for status, headers in answers] == [(400, "close")]
    assert healthy is not None and healthy[0] == 200
    assert errors == []


@pytest.mark.parametrize("kind", SERVERS)
def test_header_block_is_bounded(kind: str) -> None:
    """A client that never sends the blank line is cut off, not buffered."""
    health = ROUTES[kind][0]
    lines = [f"X-Filler-{i}: {i}" for i in range(http1.MAX_HEADERS + 1)]
    endless = f"GET {health} HTTP/1.1\r\n" + "\r\n".join(lines) + "\r\n"
    at_the_cap = f"GET {health} HTTP/1.1\r\n" + "\r\n".join(lines[:-1]) + "\r\n\r\n"
    errors: List[dict] = []

    async def run():
        async with _serving(kind, errors) as address:
            # No blank line and no EOF: only the cap can end this exchange.
            return (
                await _send(address, endless.encode()),
                await _send(address, at_the_cap.encode()),
            )

    refused, served = asyncio.run(run())
    assert refused is None or 400 <= refused[0] < 500
    assert served is not None and served[0] == 200
    assert errors == []


@pytest.mark.parametrize("kind", SERVERS)
def test_connection_header_says_what_the_server_does(kind: str) -> None:
    health, post, payload = ROUTES[kind]
    errors: List[dict] = []

    async def run():
        async with _serving(kind, errors) as address:
            # _send asserts EOF follows an answer that says "close".
            closing = await _send(
                address, http1.request_bytes("POST", post, payload, keep_alive=False)
            )
            reader, writer = await asyncio.open_connection(*address)
            kept = []
            for _ in range(2):  # two exchanges on one connection
                writer.write(http1.request_bytes("GET", health))
                status, headers = await asyncio.wait_for(http1.read_response_head(reader), 5)
                await http1.read_body(reader, headers)
                kept.append((status, headers["connection"]))
            writer.close()
            return closing, kept

    closing, kept = asyncio.run(run())
    status, headers, body = closing
    assert (status, headers["connection"]) == (200, "close")
    # Every body either server sends is canonical JSON.
    assert body == http1.dump_json(json.loads(body))
    assert kept == [(200, "keep-alive")] * 2
    assert errors == []


def test_wire_module_stands_alone() -> None:
    """``sources/`` and ``serve/`` both sit on it, so it imports neither —
    nor anything else of the package (``repro.engine`` least of all)."""
    tree = ast.parse(Path(http1.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported and not [name for name in imported if name.startswith("repro")]
