"""Sample statistics, operation accounting and span arithmetic.

Nothing here knows about the program under test; the unit tests in
``tests/test_harness.py`` pin the rules the README states.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from probe import REFERENCE_MS

#: A percentile is reported as supported only with this many samples beyond it.
TAIL_SAMPLES = 10
#: Seconds of a measured phase per slice, or as near as divides the phase evenly.
#: A slice is the unit the host's speed is judged over, not a unit of reporting.
SLICE_SECONDS = 0.5


def slices_of(seconds: float) -> int:
    """How many equal slices a measured phase of ``seconds`` is cut into."""
    return max(1, round(seconds / SLICE_SECONDS))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0-100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least :data:`TAIL_SAMPLES` beyond ``q``."""
    return n * (100.0 - q) / 100.0 >= TAIL_SAMPLES


@dataclass
class Tally:
    """Operation accounting of one measured phase.

    A failed operation (non-200, rejected, incomplete, timed out, or
    differing from the oracle) counts against ``attempted`` and contributes
    no latency sample.
    """

    #: ``(completed_at, latency_ms, first_answer_ms)`` per successful operation.
    samples: List[Tuple[float, float, Optional[float]]] = field(default_factory=list)
    #: Completion times of the failed operations, and up to five reasons.
    failed_at: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: ``(time, cpu_seconds, busy_seconds)`` read at every slice boundary, both
    #: ends included.  ``cpu_seconds`` is the CPU time of the process that runs
    #: the engine, ``busy_seconds`` the wall time in which operations were in
    #: progress (all of it when callers never pause), both cumulative.
    marks: List[Tuple[float, float, float]] = field(default_factory=list)
    #: ``(time, milliseconds)`` of every host probe taken during the phase.
    probes: List[Tuple[float, float]] = field(default_factory=list)
    #: Accesses and operations inside the counting window (see README).
    window_accesses: int = 0
    window_ops: int = 0

    def ok(self, at: float, latency_ms: float, first_answer_ms: Optional[float] = None) -> None:
        self.samples.append((at, latency_ms, first_answer_ms))

    def fail(self, at: float, reason: str) -> None:
        self.failed_at.append(at)
        if len(self.failures) < 5:
            self.failures.append(reason)

    def count_accesses(self, accesses: int) -> None:
        self.window_accesses += accesses
        self.window_ops += 1

    @property
    def failed(self) -> int:
        return len(self.failed_at)

    @property
    def attempted(self) -> int:
        return len(self.samples) + len(self.failed_at)

    @property
    def latency_ms(self) -> List[float]:
        return [latency for _, latency, _ in self.samples]

    @property
    def first_answer_ms(self) -> List[float]:
        return [first for _, _, first in self.samples if first is not None]


def host_factor(probes: Sequence[Tuple[float, float]], start: float, end: float) -> Optional[float]:
    """How many times slower than the reference host ``(start, end]`` ran.

    The median probe of the interval over :data:`probe.REFERENCE_MS`; ``None``
    when no probe fell inside it.
    """
    inside = [ms for at, ms in probes if start < at <= end]
    return statistics.median(inside) / REFERENCE_MS if inside else None


def timing_metrics(tally: Tally) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The five timing metrics, on the reference host and as the clock read them.

    Slices run between consecutive ``marks``, and each slice is put on the
    reference host before the percentiles are taken over the whole phase.
    With ``f`` the slice's :func:`host_factor` and ``u`` the share of the
    slice's busy time the engine's process spent on a CPU, that CPU time
    would have been ``u / f`` on the reference host and the waiting (for
    sources, for the wire) just as long.  So every latency sample of the
    slice is scaled by ``u / f + 1 - u`` and so is its busy time, which
    throughput divides by; its CPU time is scaled by ``1 / f``.  A slice no
    probe fell into is left out, samples and all — unless the tally has no
    probes whatever, which means ``f = 1``.

    Returns ``(on the reference host, raw)``; raw also has the median
    ``host_factor``.
    """
    latencies: List[Tuple[float, float]] = []  # (raw, on the reference host)
    firsts: List[Tuple[float, float]] = []
    factors: List[float] = []
    completed = attempted = 0
    busy_raw = busy_ref = cpu_raw = cpu_ref = 0.0
    for (start, cpu_before, busy_before), (end, cpu_after, busy_after) in zip(
        tally.marks, tally.marks[1:]
    ):
        factor = host_factor(tally.probes, start, end) if tally.probes else 1.0
        inside = [sample for sample in tally.samples if start < sample[0] <= end]
        tried = len(inside) + sum(1 for at in tally.failed_at if start < at <= end)
        busy, cpu = busy_after - busy_before, cpu_after - cpu_before
        if factor is None or not tried or busy <= 0:
            continue
        on_cpu = min(1.0, cpu / busy)
        stretch = on_cpu / factor + 1.0 - on_cpu
        factors.append(factor)
        latencies += [(latency, latency * stretch) for _, latency, _ in inside]
        firsts += [(first, first * stretch) for _, _, first in inside if first is not None]
        completed += len(inside)
        attempted += tried
        busy_raw += busy
        busy_ref += busy * stretch
        cpu_raw += cpu
        cpu_ref += cpu / factor
    sides: List[Dict[str, float]] = []
    for side, busy, cpu in ((1, busy_ref, cpu_ref), (0, busy_raw, cpu_raw)):
        metrics: Dict[str, float] = {}
        if latencies:
            values = [pair[side] for pair in latencies]
            metrics["latency_p50_ms"] = percentile(values, 50)
            metrics["latency_p95_ms"] = percentile(values, 95)
            metrics["throughput_qps"] = completed / busy
        if firsts:
            metrics["first_answer_p50_ms"] = percentile([pair[side] for pair in firsts], 50)
        if attempted:
            metrics["cpu_ms_per_query"] = cpu * 1e3 / attempted
        sides.append(metrics)
    if factors:
        sides[1]["host_factor"] = statistics.median(factors)
    return sides[0], sides[1]


# -- spans ---------------------------------------------------------------------
@dataclass
class Span:
    """One traced interval: ``parent`` is an index into the list of spans."""

    query: int
    name: str
    start: float
    end: float
    parent: Optional[int]


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def peak_overlap(intervals: Iterable[Tuple[float, float]]) -> int:
    """Largest number of intervals open at one moment."""
    events = sorted(
        [(start, 1) for start, _ in intervals] + [(end, -1) for _, end in intervals],
        key=lambda event: (event[0], event[1]),
    )
    peak = current = 0
    for _, step in events:
        current += step
        peak = max(peak, current)
    return peak


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping children
    (concurrent lookups) are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start, end = max(span.start, parent.start), min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    return [
        (span.end - span.start) - union_length(children.get(index, ()))
        for index, span in enumerate(spans)
    ]
