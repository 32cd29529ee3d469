"""The four workloads and the two ways of driving the program.

``lib_*`` call one :class:`repro.Engine` from one caller in this process;
``serve_*`` drive the HTTP server subprocess with :data:`CLIENTS`
closed-loop callers on one event loop.  Every workload is an endless,
seeded operation stream measured for a fixed number of seconds; the
operations, their order and the answer checks are the same on both sides of
any comparison, only how many fit in the time differs.

Three things are pinned to operation counts rather than to the clock, so
that they do not depend on how many operations fit in the time:
``accesses_per_query`` is taken over the first ``window`` operations (the
callers meet at a barrier there, so no later operation can steal one of
their accesses), ``peak_rss_mb`` is read when the last of them has completed,
and the library engines forget their session every ``window`` operations —
outside any timed operation — which keeps every round as cold as the first
and memory bounded.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

from catalog import POINT_TEMPLATES, Catalog, label_keys, query_text, song_decks, song_of_label
from client import Client, wait_healthy
from metrics import Tally, slices_of
from probe import spin
from targets import Children, cpu_seconds, peak_rss_mb

#: Closed-loop callers of the served workloads.  Fixed, not ``nproc``: the
#: server is one thread, and ``serve_fanout_slow`` is defined by exactly two
#: requests in flight racing for one label's bindings.
CLIENTS = 2
HOT_SONGS = 200
REQUEST_TIMEOUT = 30.0


@dataclass(frozen=True)
class Op:
    text: str
    stream: bool
    template: str
    key: str


def _op(template: str, key: str, stream: bool) -> Op:
    return Op(query_text(template, key), stream, template, key)


def point_ops(catalog: Catalog, rng: random.Random, window: int) -> Iterator[Op]:
    """3 in 4 execute one of the five point templates, 1 in 4 stream ``disc``.

    Keys come in decks of ``window``: half zipf(1.1) over :data:`HOT_SONGS`
    hot titles, half distinct cold ones.  Streams use one template so that
    the first-answer median does not sit between two templates' modes.
    """
    templates = itertools.cycle(POINT_TEMPLATES)
    for index, key in enumerate(song_decks(catalog, rng, window, HOT_SONGS)):
        if index % 4 == 3:
            yield _op("disc", key, True)
        else:
            yield _op(next(templates), key, False)


def fanout_ops(catalog: Catalog, rng: random.Random, window: int) -> Iterator[Op]:
    """The roster template over every label in turn; 1 in 4 streamed."""
    for index, (_, key) in enumerate(label_keys(catalog, rng)):
        yield _op("roster", key, index % 4 == 3)


def slow_ops(catalog: Catalog, rng: random.Random, window: int) -> Iterator[Op]:
    """Even ops fan out over a roster, odd ops are the 3-atom ``disc`` point.

    Of every six roster ops the 2nd and 4th reuse their predecessor's label
    with another song: the predecessor is still in flight on the other
    caller, so the two race for the same bindings and one waits on the
    other's claims.  Every 4th op streams; those are always roster ops on a
    fresh label, so first-answer time has one mode.
    """
    labels = label_keys(catalog, rng)
    label = key = ""
    for index in itertools.count():
        if index % 2:
            yield _op("disc", rng.choice(catalog.songs), False)
            continue
        if (index // 2) % 6 in (1, 3):
            previous = key
            while key == previous:
                key = song_of_label(catalog, label, rng)
        else:
            label, key = next(labels)
        yield _op("roster", key, index % 4 == 0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    served: bool
    artists: int
    labels: int
    #: Operations whose accesses are counted; also the library engines'
    #: session-reset period.
    window: int
    #: Discarded operations before timing starts.
    warmup: int
    make_ops: Callable[[Catalog, random.Random, int], Iterator[Op]]
    #: Seconds the fixture source adds per lookup; 0 = in-memory sources.
    fixture_delay: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lib_point",
            why=(
                "library calls of 2-5 access point queries: parse, minimize, d-graph/GFP and "
                "plan generation are most of each query, the kernel almost none; hot keys "
                "repeat textually, so plan reuse shows here"
            ),
            served=False, artists=2000, labels=40, window=2000, warmup=200,
            make_ops=point_ops,
        ),  # fmt: skip
        Workload(
            name="lib_fanout",
            why=(
                "library calls of a five-stage roster fan-out (~80 accesses, ~75 answers) on a "
                "cold session: kernel offer/dispatch/absorb/answer-check and the in-memory "
                "source path dominate, planning is a seventh"
            ),
            served=False, artists=10000, labels=400, window=400, warmup=40,
            make_ops=fanout_ops,
        ),  # fmt: skip
        Workload(
            name="serve_point",
            why=(
                "the point mix over HTTP with two closed-loop clients: protocol, admission, "
                "result shaping, JSON and queueing behind the other client are most of the "
                "latency; the session cache is read-mostly"
            ),
            served=True, artists=2000, labels=40, window=2000, warmup=100,
            make_ops=point_ops,
        ),  # fmt: skip
        Workload(
            name="serve_fanout_slow",
            why=(
                "roster fan-out and point queries over HTTP on a source adding 2 ms per lookup, "
                "two clients racing for shared bindings: source wait dominates; cache and "
                "async dispatch are miss-, write- and claim-bound"
            ),
            served=True, artists=10000, labels=2000, window=600, warmup=24,
            make_ops=slow_ops, fixture_delay=0.002,
        ),  # fmt: skip
    )
}


@dataclass
class Measured:
    """Raw outcome of one measured phase."""

    tally: Tally
    peak_rss_mb: float
    known_accesses: int
    rejected: int = 0


def judge(
    tally: Tally,
    catalog: Catalog,
    op: Op,
    in_window: bool,
    answers: FrozenSet[tuple],
    complete: bool,
    accesses: int,
    issued: float,
    done: float,
    first_at: Optional[float],
) -> None:
    """Check one finished operation against the oracle and account for it."""
    if in_window:
        tally.count_accesses(accesses)
    expected = catalog.expected(op.template, op.key)
    if not complete:
        tally.fail(done, f"{op.text}: incomplete")
    elif answers != expected:
        tally.fail(done, f"{op.text}: {len(answers)} answers, oracle has {len(expected)}")
    elif op.stream and first_at is None:
        tally.fail(done, f"{op.text}: stream delivered no row")
    else:
        first = (first_at - issued) * 1e3 if first_at is not None else None
        tally.ok(done, (done - issued) * 1e3, first)


def scaled(workload: Workload, scale: int) -> Tuple[int, int]:
    """``(window, warmup)`` at ``1/scale`` of the full size (``--smoke``)."""
    return max(4, workload.window // scale), max(4, workload.warmup // scale)


class LibTarget:
    """One in-process engine over the catalog, driven by one caller."""

    def __init__(self, workload: Workload, seed: int, scale: int = 1, backend="memory") -> None:
        from repro import Engine

        self.window, warmup = scaled(workload, scale)
        self.catalog = Catalog(seed, workload.artists, workload.labels)
        instance = self.catalog.instance()
        self.engine = Engine(instance.schema, instance, backend=backend)
        for op in itertools.islice(
            workload.make_ops(self.catalog, random.Random(f"warmup/{seed}"), self.window), warmup
        ):
            self.call(op)
        self.engine.reset_session()
        self.ops = workload.make_ops(self.catalog, random.Random(f"ops/{seed}"), self.window)

    def call(self, op: Op):
        """One operation as a library user writes it: ``(result, answers, first_row_at)``."""
        if op.stream:
            return self.execute(self.plan(op), op)
        result = self.engine.execute(op.text)
        return result, result.answers, None

    def plan(self, op: Op):
        return self.engine.plan(op.text)

    def execute(self, prepared, op: Op):
        """The second half of :meth:`call`, for callers that time planning apart."""
        if not op.stream:
            result = prepared.execute()
            return result, result.answers, None
        rows, first_at = set(), None
        for answer in prepared.stream():
            if first_at is None:
                first_at = time.perf_counter()
            rows.add(answer.row)
        return prepared.last_stream_result, frozenset(rows), first_at

    def measure(self, seconds: float) -> Measured:
        """Operations back to back for ``seconds``, a host probe after each.

        Only the time inside operations counts as busy, and only the CPU
        time spent there as the engine's: the oracle check, the probe and
        the session resets happen between operations, off the clock.
        """
        tally = Tally()
        gc.collect()
        busy = cpu = 0.0
        start = time.perf_counter()
        tally.marks.append((start, cpu, busy))
        deadline = start + seconds
        slices = slices_of(seconds)
        peak_rss = None
        for index, op in enumerate(self.ops):
            if index and index % self.window == 0:
                if peak_rss is None:
                    peak_rss = peak_rss_mb("self")
                self.engine.reset_session()
            issued = time.perf_counter()
            if issued >= deadline:
                tally.marks.append((issued, cpu, busy))
                break
            if len(tally.marks) < slices and issued >= start + len(tally.marks) * seconds / slices:
                tally.marks.append((issued, cpu, busy))
            cpu_before = time.process_time()
            failure = None
            try:
                result, answers, first_at = self.call(op)
            except Exception as error:  # noqa: BLE001 - a failed op is a counted outcome
                failure = f"{op.text}: {type(error).__name__}: {error}"
            done = time.perf_counter()
            cpu += time.process_time() - cpu_before
            busy += done - issued
            if failure is not None:
                tally.fail(done, failure)
            else:
                judge(
                    tally, self.catalog, op, index < self.window, answers,
                    result is not None and result.complete,
                    result.total_accesses if result is not None else 0,
                    issued, done, first_at,
                )  # fmt: skip
            tally.probes.append((time.perf_counter(), spin()))
        return Measured(
            tally=tally,
            peak_rss_mb=peak_rss or peak_rss_mb("self"),
            known_accesses=self.engine.session.known_accesses,
        )

    def close(self) -> None:
        self.engine.close()


class ServeTarget:
    """The query server (and, when slow, the fixture) as subprocesses."""

    def __init__(self, workload: Workload, seed: int, scale: int = 1) -> None:
        self.window, warmup = scaled(workload, scale)
        self.children = Children()
        self.fixture_url: Optional[str] = None
        try:
            shape = (seed, workload.artists, workload.labels)
            fixture = None
            if workload.fixture_delay:
                fixture = self.children.spawn(
                    "fixture", *shape, "--delay", str(workload.fixture_delay)
                )
            self.server = self.children.spawn(
                "query", *shape, "--backend", "-" if fixture else "memory"
            )
            # The children generate their copies while this one is built.
            self.catalog = Catalog(*shape)
            if fixture is not None:
                self.fixture_url = Children.url_of(fixture)
                Children.tell(self.server, self.fixture_url)
            self.url = Children.url_of(self.server)
            warm = itertools.islice(
                workload.make_ops(self.catalog, random.Random(f"warmup/{seed}"), self.window),
                warmup,
            )
            asyncio.run(self._warm(list(warm)))
        except BaseException:
            self.children.close()
            raise
        self.ops = workload.make_ops(self.catalog, random.Random(f"ops/{seed}"), self.window)

    async def _warm(self, ops: List[Op]) -> None:
        if self.fixture_url:
            await wait_healthy(self.fixture_url, "/health")
        await wait_healthy(self.url, "/healthz")
        client = Client(self.url)
        try:
            for op in ops:
                await self.call(client, op)
        finally:
            await client.close()

    @staticmethod
    async def call(client: Client, op: Op):
        """One operation: ``(status, answers, complete, accesses, first_row_at)``."""
        payload = {"query": op.text}
        if op.stream:
            reply = await asyncio.wait_for(client.stream("/query/stream", payload), REQUEST_TIMEOUT)
            summary = reply.summary or {}
            return (
                reply.status,
                frozenset(tuple(row) for row in reply.rows),
                bool(summary.get("complete")) and reply.error is None,
                int(summary.get("total_accesses", 0)),
                reply.first_row_at,
            )
        status, body = await asyncio.wait_for(
            client.request("POST", "/query", payload), REQUEST_TIMEOUT
        )
        return (
            status,
            frozenset(tuple(row) for row in body.get("answers", ())),
            bool(body.get("complete")),
            int(body.get("total_accesses", 0)),
            None,
        )

    def measure(self, seconds: float) -> Measured:
        return asyncio.run(self._measure(seconds))

    async def _measure(self, seconds: float) -> Measured:
        tally = Tally()
        ops = enumerate(self.ops)
        window_done = asyncio.Event()
        finished_in_window = 0
        peak_rss = None
        gc.collect()
        pid = self.server.pid
        start = time.perf_counter()
        deadline = start + seconds

        def mark() -> None:
            # Callers never pause, so all of the wall time is busy time.
            now = time.perf_counter()
            tally.marks.append((now, cpu_seconds(pid), now - start))

        async def mark_slices() -> None:
            slices = slices_of(seconds)
            for boundary in range(1, slices):
                await asyncio.sleep(start + boundary * seconds / slices - time.perf_counter())
                mark()

        mark()

        async def caller(client: Client) -> None:
            nonlocal finished_in_window, peak_rss
            while time.perf_counter() < deadline:
                index, op = next(ops)
                if index >= self.window and not window_done.is_set():
                    # Every op of the window has been taken; wait until the
                    # other callers' last ones have counted their accesses.
                    await window_done.wait()
                issued = time.perf_counter()
                try:
                    status, answers, complete, accesses, first_at = await self.call(client, op)
                    done = time.perf_counter()
                    if status != 200:
                        tally.fail(done, f"{op.text}: HTTP {status}")
                    else:
                        judge(
                            tally, self.catalog, op, index < self.window, answers,
                            complete, accesses, issued, done, first_at,
                        )  # fmt: skip
                except (asyncio.TimeoutError, OSError, ValueError, EOFError) as error:
                    tally.fail(time.perf_counter(), f"{op.text}: {type(error).__name__}: {error}")
                    await client.close()
                if index < self.window:
                    finished_in_window += 1
                    if finished_in_window == self.window:
                        peak_rss = peak_rss_mb(pid)
                        window_done.set()

        pool = [Client(self.url) for _ in range(CLIENTS)]
        marker = asyncio.ensure_future(mark_slices())
        try:
            await asyncio.gather(*(caller(client) for client in pool))
            mark()
            _, served = await pool[0].request("GET", "/metrics")
        finally:
            marker.cancel()
            for client in pool:
                await client.close()
        return Measured(
            tally=tally,
            peak_rss_mb=peak_rss or peak_rss_mb(pid),
            known_accesses=int(served["session"]["known_accesses"]),
            rejected=sum(served["rejections"].values()),
        )

    def close(self) -> None:
        self.children.close()


def build(workload: Workload, seed: int, scale: int = 1):
    """Set the workload's target up, warm-up included; the caller closes it."""
    return (ServeTarget if workload.served else LibTarget)(workload, seed, scale)
