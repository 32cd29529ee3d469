"""The harness's own rules: run with ``python -m pytest benchmarks/e2e/tests``."""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402  (puts the program under test on the path)
from catalog import Catalog, selftest  # noqa: E402
from metrics import (  # noqa: E402
    Span,
    Tally,
    host_factor,
    peak_overlap,
    percentile,
    self_times,
    supported,
    timing_metrics,
    union_length,
)
from probe import REFERENCE_MS  # noqa: E402
from workloads import WORKLOADS, Op, judge, slow_ops  # noqa: E402


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert percentile(samples, 50) == 50
    assert percentile(samples, 95) == 95
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert not supported(199, 95)
    assert supported(200, 95)
    assert not supported(999, 99)
    assert supported(1000, 99)
    assert supported(20, 50) and not supported(19, 50)


def test_failures_count_against_attempted_and_have_no_latency_sample():
    catalog = Catalog(seed=5, artists=20, labels=4)
    key = catalog.songs[0]
    op = Op("q", True, "nation", key)
    right = catalog.expected("nation", key)
    tally = Tally()
    judge(tally, catalog, op, True, right, True, 2, 10.0, 10.002, 10.001)
    judge(tally, catalog, op, True, frozenset({("nowhere",)}), True, 2, 10.0, 10.002, 10.001)
    judge(tally, catalog, op, False, right, False, 2, 10.0, 10.002, 10.001)  # incomplete
    judge(tally, catalog, op, False, right, True, 0, 10.0, 10.002, None)  # stream without a row
    tally.fail(10.5, "timeout")
    assert (tally.attempted, tally.failed) == (5, 4)
    assert tally.latency_ms == [pytest.approx(2.0)]
    assert tally.first_answer_ms == [pytest.approx(1.0)]
    # Accesses are counted inside the window whether or not the op passed.
    assert (tally.window_ops, tally.window_accesses) == (2, 4)


def test_timing_metrics_without_probes_are_what_the_clock_read():
    tally = Tally()
    # Three one-second slices of a caller that never pauses; the engine's
    # process is on a CPU for 0.4, 0.8 and 0.4 s of them.
    tally.marks = [(0.0, 0.0, 0.0), (1.0, 0.4, 1.0), (2.0, 1.2, 2.0), (3.0, 1.6, 3.0)]
    for second, (count, latency) in enumerate([(100, 2.0), (50, 9.0), (100, 2.0)]):
        for op in range(count):
            stream = op % 4 == 0
            tally.ok(second + (op + 1) / count, latency, latency / 2 if stream else None)
    tally.fail(1.5, "timeout")  # attempted, no latency sample
    metrics, raw = timing_metrics(tally)
    # No probes: the host is taken to be the reference host.
    assert metrics == pytest.approx({name: raw[name] for name in metrics})
    assert raw["latency_p50_ms"] == 2.0
    assert raw["latency_p95_ms"] == 9.0
    assert raw["first_answer_p50_ms"] == 1.0
    assert metrics["throughput_qps"] == pytest.approx(250 / 3)  # verified-correct ops only
    assert metrics["cpu_ms_per_query"] == pytest.approx(1600 / 251)  # over attempted ops


def test_slices_are_put_on_the_reference_host():
    # The first slice ran on a host twice as slow as the reference (by the
    # median probe) with the engine's process on a CPU for half of the busy
    # second: that half would have taken half as long, the waiting just as long.
    probes = [(0.2, 2 * REFERENCE_MS), (0.5, 2 * REFERENCE_MS), (0.8, 9 * REFERENCE_MS)]
    probes += [(1.5, REFERENCE_MS)]
    assert host_factor(probes, 0.0, 1.0) == pytest.approx(2.0)
    assert host_factor(probes, 2.0, 3.0) is None
    tally = Tally(marks=[(0.0, 0.0, 0.0), (1.0, 0.5, 1.0), (2.0, 1.0, 2.0)], probes=probes)
    for op in range(100):
        tally.ok((op + 1) / 100, 8.0, 4.0)  # on the slow host: 6 and 3 on the reference
        tally.ok(1 + (op + 1) / 100, 6.0, 3.0)  # on the reference host
    metrics, raw = timing_metrics(tally)
    assert raw["host_factor"] == pytest.approx(1.5)
    assert (raw["latency_p50_ms"], raw["latency_p95_ms"]) == (6.0, 8.0)
    assert (raw["throughput_qps"], raw["cpu_ms_per_query"]) == (100.0, 5.0)
    assert metrics["latency_p50_ms"] == metrics["latency_p95_ms"] == pytest.approx(6.0)
    assert metrics["first_answer_p50_ms"] == pytest.approx(3.0)
    assert metrics["throughput_qps"] == pytest.approx(200 / 1.75)
    assert metrics["cpu_ms_per_query"] == pytest.approx(750 / 200)
    # A slice no probe fell into is left out, samples and all.
    tally.marks.append((3.0, 1.5, 3.0))
    tally.ok(2.5, 80.0, 40.0)
    assert timing_metrics(tally)[0] == metrics


def test_span_self_time_is_duration_minus_children_cover():
    spans = [
        Span(0, "execute", 0.0, 10.0, None),
        Span(0, "lookup", 1.0, 4.0, 0),
        Span(0, "lookup", 3.0, 6.0, 0),  # overlaps the first: counted once
        Span(0, "lookup", 9.0, 12.0, 0),  # clipped to the parent's end
        Span(0, "inner", 3.5, 3.75, 2),  # a grandchild only reduces its parent
    ]
    assert self_times(spans) == [4.0, 3.0, 2.75, 3.0, 0.25]
    assert union_length([(1, 4), (3, 6), (9, 10)]) == 6
    assert union_length([]) == 0
    assert peak_overlap([(1, 4), (3, 6), (3.5, 3.75), (9, 10)]) == 3
    assert peak_overlap([(1, 2), (2, 3)]) == 1


def test_same_seed_same_operations_and_oracle_agrees_with_engine():
    assert selftest(seed=11, keys=200) == 0
    catalog = Catalog(seed=11, artists=200, labels=100)  # more labels than fresh draws
    first = list(itertools.islice(slow_ops(catalog, random.Random("ops/11"), 600), 240))
    again = list(itertools.islice(slow_ops(catalog, random.Random("ops/11"), 600), 240))
    assert first == again
    other = list(itertools.islice(slow_ops(catalog, random.Random("ops/12"), 600), 240))
    assert first != other
    # Every 4th op streams a roster query on a fresh label; two in six roster
    # ops reuse their predecessor's label with another song.
    rosters = first[0::2]
    assert all(op.template == "roster" for op in rosters)
    assert all(op.template == "disc" and not op.stream for op in first[1::2])
    assert [op.stream for op in first[:8]] == [True, False, False, False] * 2
    label_of = {s: catalog.label_of[catalog.song_info[s][1]] for s in catalog.songs}
    for position, (before, op) in enumerate(zip(rosters, rosters[1:]), start=1):
        reuse = position % 6 in (1, 3)
        assert (label_of[before.key] == label_of[op.key]) == reuse
        assert not (reuse and (op.stream or before.key == op.key))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_accesses_per_query_repeats_exactly_across_smoke_runs(name):
    workload = WORKLOADS[name]
    seconds = run.spec()["run_seconds"] / run.SMOKE_SCALE
    outcomes = [
        run.run_end_to_end(workload, seed=7, seconds=seconds, scale=run.SMOKE_SCALE, setups=1)
        for _ in range(2)
    ]
    for metrics, details in outcomes:
        assert details["failed"] == 0, details["failures"]
        assert details["window_complete"]
        assert set(metrics) == set(run.end_to_end())
    assert outcomes[0][0]["accesses_per_query"] == outcomes[1][0]["accesses_per_query"]
    assert outcomes[0][1]["window_ops"] == outcomes[1][1]["window_ops"]
