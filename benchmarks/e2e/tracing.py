"""The traced run: spans around each layer's public functions.

Tracing lives in the harness only — nothing is added inside ``src/``.  For
each operation the harness calls ``Engine.plan`` and
``PreparedPlan.execute``/``stream`` (or their async forms, as the server
does) and ``Result.to_dict`` under spans, with a timing
:class:`~repro.sources.backend.SourceBackend` passed as the documented
``backend=`` factory so every ``lookup`` is a child span of the execution.
It then *probes* the planning pipeline piece by piece on the same query —
``parse_query``, ``minimize_query``, ``eliminate_constants``,
``build_dependency_graph``, ``greatest_fixpoint``/``optimize``,
``compute_ordering``, ``MinimalPlanGenerator.generate`` — and the wire
encoding, each under its own span.  Kernel phases come from the profile the
program already returns with every result.

Served workloads add the client round trip to the real server, followed by
the same query on an identical in-process engine (the *twin*), which is
what gets decomposed; ``serve.overhead_us`` is the difference.

End-to-end numbers never come from here: a traced invocation first runs the
same operations untraced, and ``trace.overhead_share`` is the difference.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import itertools
import json
import statistics
import time
from typing import Dict, Iterator, List, Optional, Tuple

from client import Client, request_bytes
from metrics import Span, Tally, percentile, peak_overlap, self_times, union_length
from probe import REFERENCE_MS, spin
from targets import HERE, ROOT
from workloads import LibTarget, Op, ServeTarget, Workload, judge

from repro.graph.dgraph import build_dependency_graph
from repro.graph.gfp import MarkedDependencyGraph, greatest_fixpoint, optimize
from repro.graph.ordering import compute_ordering
from repro.plan.minimal import MinimalPlanGenerator
from repro.query.minimize import minimize_query
from repro.query.parser import parse_query
from repro.query.preprocess import eliminate_constants
from repro.serve import ServeConfig, protocol
from repro.sources.backend import SourceBackend, build_backend

OUT = HERE / "out"


class Tracer:
    """Spans kept in memory; lookups attach to the open execution."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.query = 0
        self.execution: Optional[int] = None
        #: ``(lookups, rows)`` of every backend call, in span order.
        self.lookups: List[Tuple[int, int]] = []

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[int] = None) -> Iterator[int]:
        index = self.add(self.query, name, time.perf_counter(), 0.0, parent)
        try:
            yield index
        finally:
            self.spans[index].end = time.perf_counter()

    def add(self, query: int, name: str, start: float, end: float, parent: Optional[int]) -> int:
        self.spans.append(Span(query, name, start, end, parent))
        return len(self.spans) - 1

    def lookup(self, start: float, end: float, lookups: int, rows: int) -> None:
        self.add(self.query, "sources.lookup", start, end, self.execution)
        self.lookups.append((lookups, rows))

    def to_rows(self) -> List[Dict[str, object]]:
        return [
            {"query": s.query, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]


class TimingBackend(SourceBackend):
    """Records a span around every read of the backend it wraps."""

    kind = "timing"

    def __init__(self, inner: SourceBackend, tracer: Tracer) -> None:
        self.inner, self.tracer, self.schema = inner, tracer, inner.schema

    def lookup(self, binding):
        start = time.perf_counter()
        rows = self.inner.lookup(binding)
        self.tracer.lookup(start, time.perf_counter(), 1, len(rows))
        return rows

    def lookup_many(self, bindings):
        start = time.perf_counter()
        results = self.inner.lookup_many(bindings)
        self.tracer.lookup(
            start, time.perf_counter(), len(results), sum(len(rows) for rows in results)
        )
        return results

    def close(self) -> None:
        self.inner.close()


class AsyncTimingBackend(TimingBackend):
    """The same around a backend with a native async read (the HTTP one)."""

    async def alookup(self, binding):
        start = time.perf_counter()
        rows = await self.inner.alookup(binding)
        self.tracer.lookup(start, time.perf_counter(), 1, len(rows))
        return rows


def timing_factory(kind: str, tracer: Tracer):
    def factory(relation) -> SourceBackend:
        inner = build_backend(relation, kind)
        wrapper = AsyncTimingBackend if hasattr(inner, "alookup") else TimingBackend
        return wrapper(inner, tracer)

    return factory


class Twin(LibTarget):
    """An in-process engine called the way the server calls it."""

    def __init__(self, workload: Workload, seed: int, scale: int, backend, loop) -> None:
        config = ServeConfig()
        self.loop = loop
        self.overrides = {
            "optimizer": config.optimizer,
            "concurrency": config.concurrency,
            "max_in_flight": config.max_in_flight,
        }
        self.strategy = config.strategy
        super().__init__(workload, seed, scale, backend=backend)

    def execute(self, prepared, op: Op):
        return self.loop.run_until_complete(self._execute(prepared, op))

    async def _execute(self, prepared, op: Op):
        if not op.stream:
            result = await prepared.aexecute(strategy=self.strategy, **self.overrides)
            return result, result.answers, None
        rows, first_at = set(), None
        stream = prepared.astream(
            strategy="distillation", answer_check_interval=1, **self.overrides
        )
        async for answer in stream:
            if first_at is None:
                first_at = time.perf_counter()
            rows.add(answer.row)
        return prepared.last_stream_result, frozenset(rows), first_at

    def call(self, op: Op):
        return self.execute(self.plan(op), op)


async def _parse_probe(raw: bytes) -> Tuple[float, float]:
    reader = asyncio.StreamReader()
    reader.feed_data(raw)
    reader.feed_eof()
    start = time.perf_counter()
    await protocol.read_request(reader)
    return start, time.perf_counter()


class TracedPass:
    """Runs operations one caller at a time and records every span."""

    def __init__(self, target: LibTarget, tracer: Tracer, served: bool, loop) -> None:
        self.target, self.tracer, self.served, self.loop = target, tracer, served, loop
        self.tally = Tally()
        self.generator = MinimalPlanGenerator(target.engine.schema)
        self.profiles: List[dict] = []
        self.atoms = [0, 0]  # before, after minimization
        self.arcs = [0, 0]  # all, deleted
        self.caches = 0
        self.accesses = self.meta_hits = 0
        self.response_bytes = 0
        self.done: List[tuple] = []
        #: One host probe after every traced operation, in milliseconds.
        self.probes: List[float] = []

    def run(self, index: int, op: Op) -> None:
        tracer, target, engine = self.tracer, self.target, self.target.engine
        tracer.query = index
        if index and index % target.window == 0:
            engine.reset_session()
        hits_before = engine.session.meta_hits
        issued = time.perf_counter()
        with tracer.span("op") as root:
            with tracer.span("engine.plan", root):
                prepared = target.plan(op)
            with tracer.span("engine.execute", root) as tracer.execution:
                result, answers, first_at = target.execute(prepared, op)
            done = time.perf_counter()
            tracer.execution = None
            with tracer.span("engine.shape", root):
                body = result.to_dict(include_timings=not self.served)
        judge(
            self.tally, target.catalog, op, True, answers, result.complete,
            result.total_accesses, issued, done, first_at,
        )  # fmt: skip
        self.accesses += result.total_accesses
        self.meta_hits += engine.session.meta_hits - hits_before
        self.profiles.append(result.kernel_profile.to_dict())
        self.done.append((index, op, answers, body))
        self.probes.append(spin())

    def probe_all(self) -> None:
        """Probe every traced operation, after all of them have run.

        Probing between operations would leave the planning code and its
        allocations warm for the next ``Engine.plan`` and flatter it.  The
        collector is held off meanwhile: a full collection of the catalog's
        heap costs as much as a hundred probes and would land on one of them.
        """
        gc.collect()
        gc.disable()
        try:
            for index, op, answers, body in self.done:
                self.tracer.query = index
                self._probe(op, answers, body)
        finally:
            gc.enable()

    def _probe(self, op: Op, answers, body: dict) -> None:
        """The planning pipeline and the wire format, one public call at a time."""
        tracer, schema = self.tracer, self.target.engine.schema
        with tracer.span("probe") as root:
            with tracer.span("query.parse", root):
                parsed = parse_query(op.text)
            with tracer.span("query.minimize", root):
                minimized = minimize_query(parsed)
            with tracer.span("query.preprocess", root):
                preprocessed = eliminate_constants(minimized, schema)
            with tracer.span("graph.dgraph", root):
                graph = build_dependency_graph(preprocessed)
            with tracer.span("graph.gfp", root):
                solution = greatest_fixpoint(graph)
                optimized = optimize(graph, solution)
            with tracer.span("graph.ordering", root):
                compute_ordering(optimized, preprocessed.query)
            with tracer.span("plan.generate", root):
                plan = self.generator.generate(parsed)
            with tracer.span("serve.encode", root):
                if op.stream:
                    wire = b"".join(protocol.chunk({"row": list(row)}) for row in answers)
                    wire += protocol.chunk({"summary": body})
                else:
                    wire = protocol.response(200, body)
            raw = request_bytes("POST", "/query", {"query": op.text})
            start, end = self.loop.run_until_complete(_parse_probe(raw))
            tracer.add(tracer.query, "serve.parse_request", start, end, root)
        self.atoms[0] += len(parsed.body)
        self.atoms[1] += len(minimized.body)
        counts = MarkedDependencyGraph(graph, solution).counts()
        self.arcs[0] += counts["arcs"]
        self.arcs[1] += counts["deleted"]
        self.caches += len(plan.caches)
        self.response_bytes += len(wire)


def _layer_metrics(trace: TracedPass, served: bool, untraced_ms: List[float]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (``*_us`` are medians per query).

    ``untraced_ms`` are the same operations' plan + execute times from the
    untraced reference pass: what the server's share is measured against, so
    that the tracing overhead is not mistaken for a cheap server.
    """
    spans = trace.tracer.spans
    own = self_times(spans)
    by_name: Dict[str, List[float]] = {}
    by_query: Dict[str, Dict[int, float]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span.end - span.start)
        by_query.setdefault(span.name, {})[span.query] = span.end - span.start
    queries = sorted(by_query["op"])
    n = len(queries)

    def total(name: str) -> float:
        return sum(by_name.get(name, ()))

    def per_query_us(values: List[float]) -> float:
        return statistics.median(values) * 1e6 if values else 0.0

    def median_us(name: str) -> float:
        return per_query_us(by_name.get(name, []))

    phases = ("offer", "dispatch", "absorb", "answer_check")
    phase_s = {p: [prof["timings_seconds"][p] for prof in trace.profiles] for p in phases}
    kernel_s = [sum(phase_s[p][i] for p in phases) for i in range(n)]
    counters = {
        name: sum(prof["counters"][name] for prof in trace.profiles) / n
        for name in (
            "offer_passes", "dispatch_steps", "completions", "completion_batches",
            "incremental_checks", "full_checks",
        )  # fmt: skip
    }
    pieces = ("query.minimize", "query.preprocess", "graph.dgraph", "graph.gfp", "graph.ordering")
    plan_self = [
        max(0.0, by_query["plan.generate"][q] - sum(by_query[p][q] for p in pieces))
        for q in queries
    ]
    execute = [by_query["engine.execute"][q] for q in queries]
    engine_self = [max(0.0, execute[i] - kernel_s[i]) for i in range(n)]
    lookups = [(s.start, s.end) for s in spans if s.name == "sources.lookup"]
    # An execution's self time is its duration minus its lookups' cover.
    cover = sum(
        (span.end - span.start) - own[index]
        for index, span in enumerate(spans)
        if span.name == "engine.execute"
    )
    in_process = total("engine.plan") + total("engine.execute") + total("engine.shape")
    # Round trips the twin did not get to before its time ended are left out.
    roundtrips = [by_query["serve.roundtrip"][q] for q in queries] if served else []
    wall = sum(roundtrips) if served else in_process
    twin = [untraced_ms[q] / 1e3 + by_query["engine.shape"][q] for q in queries]
    # Per operation the difference is small against the jitter of either side
    # (timers, collections), so the server's time is n medians, not a sum.
    overhead = statistics.median(r - t for r, t in zip(roundtrips, twin)) if served else 0.0
    layer_s = {
        "query": total("query.parse") + total("query.minimize") + total("query.preprocess"),
        "graph": total("graph.dgraph") + total("graph.gfp") + total("graph.ordering"),
        "plan": sum(plan_self),
        "engine": max(0.0, total("engine.plan") - total("query.parse") - total("plan.generate"))
        + sum(engine_self)
        + total("engine.shape"),
        "runtime": max(0.0, sum(kernel_s) - cover),
        "sources": cover,
        "serve": max(0.0, overhead) * n,
    }
    n_lookups = sum(count for count, _ in trace.tracer.lookups)
    rows = sum(r for _, r in trace.tracer.lookups)
    empty = sum(1 for count, r in trace.tracer.lookups if count == 1 and r == 0)
    metrics = {
        "query.parse_us": median_us("query.parse"),
        "query.minimize_us": median_us("query.minimize"),
        "query.preprocess_us": median_us("query.preprocess"),
        "query.atoms_removed_ratio": (trace.atoms[0] - trace.atoms[1]) / trace.atoms[0],
        "graph.dgraph_us": median_us("graph.dgraph"),
        "graph.gfp_us": median_us("graph.gfp"),
        "graph.ordering_us": median_us("graph.ordering"),
        "graph.arcs_deleted_ratio": trace.arcs[1] / max(1, trace.arcs[0]),
        "plan.generate_us": median_us("plan.generate"),
        "plan.self_us": per_query_us(plan_self),
        "plan.caches_per_plan": trace.caches / n,
        "engine.plan_us": median_us("engine.plan"),
        "engine.execute_us": median_us("engine.execute"),
        "engine.self_us": per_query_us(engine_self),
        "engine.shape_us": median_us("engine.shape"),
        "engine.session_known_accesses": float(trace.target.engine.session.known_accesses),
        **{f"runtime.{p}_us": per_query_us(phase_s[p]) for p in phases},
        **{f"runtime.{name}": value for name, value in counters.items()},
        "sources.lookups": n_lookups / n,
        "sources.lookup_us": median_us("sources.lookup"),
        "sources.busy_share": union_length(lookups) / wall,
        "sources.in_flight_peak": float(peak_overlap(lookups)),
        "sources.rows_per_lookup": rows / max(1, n_lookups),
        "sources.empty_lookup_ratio": empty / max(1, n_lookups),
        "sources.meta_hit_ratio": trace.meta_hits / max(1, trace.meta_hits + trace.accesses),
        "serve.roundtrip_us": per_query_us(roundtrips),
        "serve.overhead_us": overhead * 1e6,
        "serve.parse_request_us": median_us("serve.parse_request"),
        "serve.encode_us": median_us("serve.encode"),
        "serve.bytes_per_response": trace.response_bytes / n,
        "env.host_factor": statistics.median(trace.probes) / REFERENCE_MS,
    }
    metrics.update({f"{layer}.share": seconds / wall for layer, seconds in layer_s.items()})
    return metrics


def run_traced(
    workload: Workload, seed: int, seconds: float, scale: int, header: Dict[str, object]
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Untraced reference pass, traced pass, and for servers a closed-loop pass.

    ``header`` (the run's environment) is written out with the spans.
    """
    served = workload.served
    loop = asyncio.new_event_loop()
    tracer = Tracer()
    tallies: List[Tally] = []
    closers = [loop.close]
    try:
        kind = "memory"
        if served:
            server = ServeTarget(workload, seed, scale)
            closers.append(server.close)
            client = Client(server.url)
            closers.append(lambda: loop.run_until_complete(client.close()))
            kind = server.fixture_url or kind
            reference: LibTarget = Twin(workload, seed, scale, kind, loop)
            traced: LibTarget = Twin(workload, seed, scale, timing_factory(kind, tracer), loop)
        else:
            reference = LibTarget(workload, seed, scale)
            traced = LibTarget(workload, seed, scale, backend=timing_factory(kind, tracer))
        closers += [reference.close, traced.close]
        # The warm-up of the traced target ran through the timing backend too.
        tracer.spans.clear()
        tracer.lookups.clear()

        # The twin runs where the server runs, next to the fixture.
        beside_server = server.children.alongside if served else contextlib.nullcontext
        with beside_server():
            untraced = reference.measure(seconds * 0.2).tally
        trace = TracedPass(traced, tracer, served, loop)
        tallies.append(trace.tally)
        ops = list(itertools.islice(traced.ops, untraced.attempted))
        if served:
            # All round trips first, then the twin: interleaved, every twin
            # operation would start on caches the wait had let go cold.
            deadline = time.perf_counter() + seconds * 0.3
            for index, op in enumerate(ops):
                if time.perf_counter() >= deadline:
                    del ops[index:]
                    break
                next(server.ops)  # the closed-loop pass continues after these
                tracer.query = index
                with tracer.span("serve.roundtrip"):
                    loop.run_until_complete(ServeTarget.call(client, op))
        deadline = time.perf_counter() + seconds * 0.3
        with beside_server():
            for index, op in enumerate(ops):
                if time.perf_counter() >= deadline:
                    break
                trace.run(index, op)
            trace.probe_all()
        done = len(trace.done)

        metrics = _layer_metrics(trace, served, untraced.latency_ms)
        traced_s = sum(
            s.end - s.start for s in tracer.spans if s.name in ("engine.plan", "engine.execute")
        )
        untraced_s = sum(untraced.latency_ms[:done]) / 1e3
        metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
        metrics.update({"serve.queue_wait_us": 0.0, "serve.rejected_share": 0.0})
        if served:
            closed = server.measure(seconds * 0.2)
            tallies.append(closed.tally)
            metrics["serve.queue_wait_us"] = max(
                0.0, percentile(closed.tally.latency_ms, 50) * 1e3 - metrics["serve.roundtrip_us"]
            )
            metrics["serve.rejected_share"] = closed.rejected / max(1, closed.tally.attempted)
    finally:
        for close in reversed(closers):
            close()

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace_{workload.name}.json"
    path.write_text(
        json.dumps({**header, "workload": workload.name, "spans": tracer.to_rows()}),
        encoding="utf-8",
    )
    details = {
        "attempted": sum(tally.attempted for tally in tallies),
        "failed": sum(tally.failed for tally in tallies),
        "failures": [reason for tally in tallies for reason in tally.failures],
        "traced_ops": done,
        "spans": len(tracer.spans),
        "trace_file": str(path.relative_to(ROOT)),
    }
    return metrics, details
