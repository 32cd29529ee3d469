"""End-to-end benchmark of the query engine: one command, every metric.

::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--repeat-check]

Generates the inputs from ``--seed``, runs the workloads, checks every
answer against the benchmark's own oracle and prints every metric by name
with its unit and sample count, and the attempted and failed operation
counts.  With ``--workload`` the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of an untraced run, or with ``--trace 1`` the per-layer metrics of a
traced run.  See ``README.md`` beside this file for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from targets import ROOT, add_program_to_path, engine_cpu, on_engine_cpu  # noqa: E402

add_program_to_path()

import tracing  # noqa: E402
from metrics import host_factor, percentile, supported, timing_metrics  # noqa: E402
from probe import Prober  # noqa: E402
from workloads import WORKLOADS, Workload, build  # noqa: E402


@functools.lru_cache(maxsize=None)
def spec() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds are defined there."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def end_to_end() -> Dict[str, dict]:
    return {metric["name"]: metric for metric in spec()["end_to_end"]}


def per_layer() -> Dict[str, dict]:
    return {metric["name"]: metric for metric in spec()["per_layer"]}


#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
SMOKE_SCALE = 20


def environment(seed: int, seconds: float) -> Dict[str, object]:
    """What every output carries, so runs from different machines are not mixed up."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="ascii").strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text(encoding="ascii").strip() if target and target.is_file() else ref
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "commit": commit,
    }


# -- the untraced run -------------------------------------------------------------
def run_end_to_end(
    workload: Workload, seed: int, seconds: float, scale: int = 1, setups: int = SETUP_REPEATS
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Set up ``setups`` times, measure once; returns metrics and details.

    A :class:`~probe.Prober` shares the engine's CPU from the first set-up
    on.  A served workload keeps it through the measured phase; a library
    workload, whose engine runs in this process, probes for itself there.
    """
    setup_spans: List[Tuple[float, float]] = []
    target = None
    with contextlib.ExitStack() as stack:
        prober = stack.enter_context(Prober(engine_cpu()))
        if not workload.served:
            stack.enter_context(on_engine_cpu())
        for _ in range(setups):
            if target is not None:
                target.close()
                target = None
                gc.collect()
            started = time.perf_counter()
            target = build(workload, seed, scale)
            setup_spans.append((started, time.perf_counter()))
        assert target is not None
        stack.callback(target.close)
        if workload.served:
            measured = target.measure(seconds)
            probes = measured.tally.probes = prober.stop()
        else:
            probes = prober.stop()
            measured = target.measure(seconds)
    tally = measured.tally
    if not tally.samples:
        raise SystemExit(f"error: no operation of {workload.name} succeeded: {tally.failures}")
    if not tally.first_answer_ms:
        raise SystemExit(f"error: no streamed operation of {workload.name} succeeded")
    latencies = tally.latency_ms
    setup_raw = [end - start for start, end in setup_spans]
    setup_factors = [host_factor(probes, start, end) or 1.0 for start, end in setup_spans]
    on_reference, raw = timing_metrics(tally)
    metrics = {
        **on_reference,
        "accesses_per_query": tally.window_accesses / max(1, tally.window_ops),
        "peak_rss_mb": measured.peak_rss_mb,
        "setup_s": statistics.median(t / f for t, f in zip(setup_raw, setup_factors)),
    }
    details = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "latency_samples": len(latencies),
        "first_answer_samples": len(tally.first_answer_ms),
        "slices": len(tally.marks) - 1,
        "probes": len(tally.probes),
        "p95_supported": supported(len(latencies), 95),
        **{f"raw_{name}": value for name, value in raw.items()},
        "raw_setup_s": setup_raw,
        "setup_host_factors": setup_factors,
        "raw_latency_p99_ms": percentile(latencies, 99),
        "measured_wall_s": tally.marks[-1][0] - tally.marks[0][0],
        "window_ops": tally.window_ops,
        "window_complete": tally.window_ops == target.window,
        "session_known_accesses": measured.known_accesses,
        "rejected": measured.rejected,
    }
    return metrics, details


def print_metrics(title: str, metrics: Dict[str, float], rules: Dict[str, dict], details: dict) -> None:
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.4f} {rules[name]['unit']}")
    for name, value in details.items():
        print(f"    {name}: {value}")


def result_line(attempted: int, failed: int, metrics: Dict[str, float], rules: Dict[str, dict]) -> str:
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": rules[name]["unit"]} for name in rules
            },
        }
    )


def run_one(workload: Workload, args: argparse.Namespace) -> Tuple[int, int, Dict[str, float], Dict[str, dict]]:
    scale = SMOKE_SCALE if args.smoke else 1
    seconds = args.seconds / scale
    if args.trace:
        load = os.getloadavg()[0]
        header = environment(args.seed, args.seconds)
        with contextlib.nullcontext() if workload.served else on_engine_cpu():
            metrics, details = tracing.run_traced(workload, args.seed, seconds, scale, header)
        metrics["env.loadavg"] = load
        print_metrics(f"{workload.name} (traced)", metrics, per_layer(), details)
        return details["attempted"], details["failed"], metrics, per_layer()
    setups = 1 if args.smoke else SETUP_REPEATS
    metrics, details = run_end_to_end(workload, args.seed, seconds, scale, setups)
    print_metrics(workload.name, metrics, end_to_end(), details)
    return details["attempted"], details["failed"], metrics, end_to_end()


# -- the repeat check ----------------------------------------------------------------
def repeat_check(names: List[str], args: argparse.Namespace) -> int:
    """Two sets of five runs of this checkout; fails when they disagree.

    A metric passes when the two sets' medians differ by at most its bound
    and neither set's spread exceeds it.  Spread is the driver's: the
    distance between the quartiles over the median — here the second and
    fourth of five values, so that one disturbed run in a set, which on a
    shared host can be a third slower than its neighbours, does not decide.
    Every run is a process of its own, as the driver's are: VmHWM never
    goes down.
    """
    failures = 0
    print("| workload | metric | set | median | min | max | spread | verdict |", flush=True)
    print("|---|---|---|---|---|---|---|---|")
    for name in names:
        sets: List[Dict[str, List[float]]] = []
        for which in range(2):
            values: Dict[str, List[float]] = {metric: [] for metric in end_to_end()}
            for run in range(5):
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed + which * 5 + run), "--seconds", str(args.seconds),
                ]  # fmt: skip
                done = subprocess.run(command, capture_output=True, text=True, check=True)
                outcome = json.loads(done.stdout.strip().splitlines()[-1])
                if outcome["failed"]:
                    print(f"error: {' '.join(command)}: failed operations", file=sys.stderr)
                    failures += 1
                for metric, reading in outcome["metrics"].items():
                    values[metric].append(reading["value"])
            sets.append(values)
        for metric, rule in end_to_end().items():
            medians = [statistics.median(values[metric]) for values in sets]
            for which, values in enumerate(sets):
                low, high = min(values[metric]), max(values[metric])
                first, _, third = statistics.quantiles(values[metric], n=4, method="inclusive")
                spread = (third - first) / medians[which]
                # setup_s is bounded on its medians only, as the driver does.
                ok = spread <= rule["bound"] or metric == "setup_s"
                failures += not ok
                print(
                    f"| {name} | {metric} | {which + 1} | {medians[which]:.4f} | {low:.4f} "
                    f"| {high:.4f} | {spread:.2%} | {'ok' if ok else 'SPREAD'} |"
                )
            change = (medians[1] - medians[0]) / medians[0]
            ok = abs(change) <= rule["bound"]
            failures += not ok
            print(
                f"| {name} | {metric} | 2 vs 1 | | | | {change:+.2%} "
                f"| {'ok' if ok else 'MEDIANS DIFFER'} |"
            )
    print(f"repeat check: {'passed' if not failures else f'{failures} failure(s)'}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec()["run_seconds"]))
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced pass and per-layer metrics; 0 (default): end-to-end metrics",
    )  # fmt: skip
    parser.add_argument("--smoke", action="store_true", help="one twentieth of everything")
    parser.add_argument("--repeat-check", action="store_true", help="two sets of five runs")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else [w["name"] for w in spec()["workloads"]]
    print(json.dumps(environment(args.seed, args.seconds)))
    if args.repeat_check:
        return repeat_check(names, args)
    failed_total = 0
    for name in names:
        attempted, failed, metrics, rules = run_one(WORKLOADS[name], args)
        failed_total += failed
    if args.workload:
        print(result_line(attempted, failed, metrics, rules))
    return 1 if failed_total and not args.workload else 0


if __name__ == "__main__":
    sys.exit(main())
