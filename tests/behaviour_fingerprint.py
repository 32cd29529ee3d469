"""One digest of what the engine *does*, for any checkout of it.

A behaviour-preserving change must print the same two lines for its parent
and for itself::

    python tests/behaviour_fingerprint.py --src /path/to/parent/src
    python tests/behaviour_fingerprint.py --src src

The digest covers the differential-fuzz cases (seeds 0-24, the generator the
fuzz suite itself uses) through every door — 3 strategies x {memory, sqlite}
cache store x {simulated, async} dispatch x {execute, aexecute, stream} —
recording answers, ``to_dict(include_timings=False)``, ``failed_at_position``
and the access log: *ordered*, with sequence numbers and simulated times,
under simulated dispatch (the clocks are deterministic), as a sorted access
set under async dispatch (completion order is the wall clock's).  On top:
the same cases under seeded faults with retries on the simulated clocks
(``RetryStats``, the ``attempts x latency + backoff`` charges), the access
order on ``empty-branch`` (145 structural vs ``[17, 0, 0]`` with
``optimizer="cost"`` on one session) and ``explain()`` / ``to_datalog()`` /
``describe()`` on a plan-cache miss and hit.

Not a test (pytest does not collect it) and deliberately thin on imports:
only the engine's public surface, looked up after ``--src`` has chosen the
checkout, so the script of one commit runs against the source of another.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path
from typing import Iterator, List, Tuple

STRATEGIES = ("naive", "fast_fail", "distillation")
SEEDS = range(25)


def generate_case(seed: int):
    """One random scenario: topology, parameters and per-relation latencies.

    Parameter ranges are sized so the naive strategy's all-relations
    extraction stays tractable (its value-pool cross products grow fast).
    """
    # Imported here so that ``--src`` picks the checkout first.
    from repro.examples import make_scenario

    rng = random.Random(seed)
    kind = rng.choice(
        [
            "chain",
            "star",
            "diamond",
            "skewed-fanout",
            "cycle",
            "wide-fanout",
            "chaos",
            "empty-branch",
        ]
    )
    if kind == "chain":
        example = make_scenario(kind, length=rng.randint(1, 3), width=rng.randint(1, 5))
    elif kind == "star":
        example = make_scenario(
            kind,
            rays=rng.randint(1, 4),
            width=rng.randint(1, 7),
            selectivity=rng.choice([0.25, 0.5, 1.0]),
        )
    elif kind == "diamond":
        example = make_scenario(
            kind, width=rng.randint(1, 7), selectivity=rng.choice([0.5, 1.0])
        )
    elif kind == "skewed-fanout":
        keys = rng.randint(1, 4)
        example = make_scenario(
            kind,
            keys=keys,
            hot_keys=rng.randint(0, keys),
            hot_fanout=rng.randint(1, 6),
            cold_fanout=rng.randint(1, 3),
        )
    elif kind == "cycle":
        size = rng.randint(2, 8)
        example = make_scenario(kind, size=size, seeds=rng.randint(1, min(3, size)))
    elif kind == "wide-fanout":
        example = make_scenario(kind, width=rng.randint(1, 4), fanout=rng.randint(1, 5))
    elif kind == "empty-branch":
        example = make_scenario(
            kind,
            width=rng.randint(2, 3),
            fanout=rng.randint(1, 6),
            empty_name=rng.choice(["aempty", "zempty"]),
        )
    else:
        example = make_scenario(
            kind,
            width=rng.randint(1, 6),
            rays=rng.randint(1, 3),
            selectivity=rng.choice([0.5, 1.0]),
        )
    latencies = {
        relation.name: rng.choice([0.0, 0.005, 0.01, 0.02])
        for relation in example.schema
    }
    return example, latencies


def _access_log(result, ordered: bool) -> List[object]:
    if not ordered:
        return sorted(
            [access.relation, repr(access.binding)] for access in result.access_log.access_set()
        )
    return [
        [
            record.access.relation,
            repr(record.access.binding),
            sorted(map(repr, record.rows)),
            record.sequence_number,
            repr(record.simulated_time),
        ]
        for record in result.access_log
    ]


def _through(door: str, prepared, strategy: str, concurrency: str):
    """One execution through one door: ``(result, streamed rows or None)``."""
    if door == "execute":
        return prepared.execute(strategy=strategy, concurrency=concurrency), None
    if door == "aexecute":
        return asyncio.run(prepared.aexecute(strategy=strategy, concurrency=concurrency)), None
    # Sorted: answers of one check share a timestamp and leave in set order.
    streamed = sorted(
        [repr(answer.row), repr(answer.simulated_time) if concurrency == "simulated" else None]
        for answer in prepared.stream(strategy=strategy, concurrency=concurrency)
    )
    return prepared.last_stream_result, streamed


def fuzz_entries(scratch: Path) -> Iterator[Tuple[str, object]]:
    from repro import Engine
    from repro.engine.strategy import resolve_strategy
    from repro.sources.wrapper import SourceRegistry

    for seed in SEEDS:
        example, latencies = generate_case(seed)
        for strategy in STRATEGIES:
            doors = ["execute", "aexecute"]
            if resolve_strategy(strategy).supports_streaming:
                doors.append("stream")
            for store in ("memory", "sqlite"):
                for concurrency in ("simulated", "async"):
                    for door in doors:
                        key = f"{seed}/{strategy}/{store}/{concurrency}/{door}"
                        registry = SourceRegistry(
                            example.instance, per_relation_latency=latencies
                        )
                        cache = None
                        if store == "sqlite":
                            cache = f"sqlite:{scratch / key.replace('/', '-')}.db"
                        with Engine(example.schema, registry, cache=cache) as engine:
                            result, streamed = _through(
                                door, engine.plan(example.query_text), strategy, concurrency
                            )
                        yield key, {
                            "scenario": example.name,
                            "answers_expected": result.answers == example.expected_answers,
                            "payload": result.to_dict(include_timings=False),
                            "failed_at_position": result.failed_at_position,
                            "access_log": _access_log(result, concurrency == "simulated"),
                            "streamed": streamed,
                        }


def fault_entries() -> Iterator[Tuple[str, object]]:
    """The fuzz cases under seeded transient faults and timeouts, retried,
    on the simulated clocks — where ``attempts x latency + backoff`` is
    deterministic, so the timed payload and the ordered log both count."""
    from repro import Engine, RetryPolicy
    from repro.sources.faults import FaultSchedule
    from repro.sources.wrapper import SourceRegistry

    for seed in SEEDS:
        example, latencies = generate_case(seed)
        for strategy in STRATEGIES:
            registry = SourceRegistry(example.instance, per_relation_latency=latencies)
            registry.inject_faults(
                FaultSchedule(seed=seed, transient_rate=0.3, timeout_rate=0.1, max_consecutive=3)
            )
            with Engine(example.schema, registry) as engine:
                result = engine.execute(
                    example.query_text,
                    strategy=strategy,
                    retry=RetryPolicy(max_attempts=3, base_delay=0.01),
                )
            payload = result.to_dict()
            payload.pop("elapsed_seconds")
            yield f"{seed}/{strategy}/faults", {
                "payload": payload,
                "access_log": _access_log(result, ordered=True),
            }


def access_order_entries() -> Iterator[Tuple[str, object]]:
    from repro import Engine
    from repro.examples import make_scenario

    example = make_scenario("empty-branch")
    with Engine(example.schema, example.instance) as engine:
        result = engine.execute(example.query_text, optimizer="structural")
        yield "empty-branch/structural", [result.total_accesses, sorted(result.answers)]
    with Engine(example.schema, example.instance) as engine:
        runs = [engine.execute(example.query_text, optimizer="cost") for _ in range(3)]
        yield "empty-branch/cost", [
            [run.total_accesses for run in runs],
            [run.failed_at_position for run in runs],
        ]


def plan_cache_entries() -> Iterator[Tuple[str, object]]:
    from repro import Engine
    from repro.examples import running_example

    example = running_example()
    with Engine(example.schema, example.instance) as engine:
        for lookup in ("miss", "hit"):
            prepared = engine.plan(example.query_text)
            explanation = prepared.explain()
            yield f"plan-cache/{lookup}", {
                "explain": explanation.to_dict(),
                "datalog": str(prepared.to_datalog()),
                "describe": explanation.describe(),
            }
        yield "plan-cache/stats", engine.session_stats()["plan_cache"]


def fingerprint() -> Tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory(prefix="behaviour-fingerprint-") as scratch:
        sources = (
            fuzz_entries(Path(scratch)),
            fault_entries(),
            access_order_entries(),
            plan_cache_entries(),
        )
        for source in sources:
            for key, entry in source:
                line = json.dumps([key, entry], sort_keys=True, default=repr)
                digest.update(line.encode("utf-8") + b"\n")
                count += 1
    return count, digest.hexdigest()


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src",
        default=str(Path(__file__).resolve().parents[1] / "src"),
        help="the src/ directory of the checkout to fingerprint (default: this one)",
    )
    args = parser.parse_args(argv)
    source = Path(args.src).resolve()
    if not (source / "repro").is_dir():
        parser.error(f"no repro package under {source}")
    sys.path.insert(0, str(source))
    count, digest = fingerprint()
    print(f"entries {count}")
    print(f"sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
