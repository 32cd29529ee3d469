"""The cache store: spec parsing, persistence, the on-disk format guard and
cross-process sharing of one "never repeat an access" domain.
"""

from __future__ import annotations

import json
import os
import re
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro import Engine
from repro.examples import mixed_workload, running_example, star_example
from repro.sources.store import (
    CacheStoreError,
    ClaimStatus,
    MemoryCacheStore,
    SQLiteCacheStore,
    build_store,
)


# -- configuration ----------------------------------------------------------


def test_cache_config_parse_specs(tmp_path) -> None:
    assert isinstance(build_store("memory"), MemoryCacheStore)
    path = str(tmp_path / "x.db")
    store = build_store(f"sqlite:{path}")
    try:
        assert isinstance(store, SQLiteCacheStore)
        assert (store.kind, store.path, store.persistent) == ("sqlite", path, True)
    finally:
        store.close()
    for spec in ("sqlite", "sqlite:"):
        with pytest.raises(CacheStoreError, match="needs a path"):
            build_store(spec)
    with pytest.raises(CacheStoreError, match="unknown cache store"):
        build_store("redis://nope")


def test_cache_config_coerce_accepts_store_instance_and_rejects_junk(example) -> None:
    store = MemoryCacheStore()
    assert build_store(store) is store
    assert Engine(example.schema, example.instance, cache=store).session.store is store
    assert isinstance(build_store(None), MemoryCacheStore)
    with pytest.raises(CacheStoreError, match="not int"):
        build_store(42)  # type: ignore[arg-type]
    with pytest.raises(CacheStoreError, match="not int"):
        Engine(example.schema, example.instance, cache=42)  # type: ignore[arg-type]


def test_build_store_rejects_unknown_kind(example) -> None:
    with pytest.raises(CacheStoreError, match="unknown cache store"):
        Engine(example.schema, example.instance, cache="carrier-pigeon")


# -- the in-memory store ------------------------------------------------------


def test_memory_default_store_preserves_session_semantics(example) -> None:
    engine = Engine(example.schema, example.instance)
    assert engine.session.store.kind == "memory"
    assert not engine.session.store.persistent
    first = engine.execute(example.query_text, strategy="fast_fail")
    second = engine.execute(example.query_text, strategy="fast_fail")
    assert second.answers == first.answers == example.expected_answers
    assert first.total_accesses > 0
    assert second.total_accesses == 0  # every access served by the store
    stats = engine.session.stats()["cache_store"]
    assert stats["kind"] == "memory"
    # One record per performed access, and it stays: nothing is evicted.
    assert stats["binding_entries"] == first.total_accesses
    assert stats["accesses_recorded"] == first.total_accesses


def test_memory_claim_is_trivially_owned() -> None:
    store = MemoryCacheStore()
    assert store.claim("r", ("x",)) == (ClaimStatus.OWNED, None)
    store.release("r", ("x",))  # releasing an unrecorded claim is a no-op
    assert store.get("r", ("x",)) is None and store.count("r") == 0


# -- the SQLite store: persistence and warm starts --------------------------


def _sqlite_engine(example, path) -> Engine:
    return Engine(example.schema, example.instance, cache=f"sqlite:{path}")


def _record_counts(engine: Engine) -> tuple:
    """The two views of "recorded accesses": per-relation sum and store gauge."""
    stats = engine.session.stats()
    assert stats["known_accesses"] == engine.session.known_accesses
    return stats["known_accesses"], stats["cache_store"]["binding_entries"]


def test_sqlite_warm_restart_repeats_zero_accesses(tmp_path) -> None:
    example = star_example(rays=3, width=6)
    path = tmp_path / "store.db"
    with _sqlite_engine(example, path) as engine:
        cold = engine.execute(example.query_text, strategy="fast_fail")
    assert cold.total_accesses > 0
    with _sqlite_engine(example, path) as engine:
        warm = engine.execute(example.query_text, strategy="fast_fail")
        stats = engine.session.stats()["cache_store"]
    assert warm.answers == cold.answers == example.expected_answers
    assert warm.total_accesses == 0  # every access replayed from disk
    assert stats["binding_hits"] > 0


def test_sqlite_store_cold_run_matches_memory_counts(tmp_path) -> None:
    example = star_example(rays=2, width=5)
    with _sqlite_engine(example, tmp_path / "store.db") as engine:
        stored = engine.execute(example.query_text, strategy="fast_fail")
        stored_counts = _record_counts(engine)
    with Engine(example.schema, example.instance) as engine:
        plain = engine.execute(example.query_text, strategy="fast_fail")
        plain_counts = _record_counts(engine)
    assert stored.answers == plain.answers
    assert stored.total_accesses == plain.total_accesses
    # Both stores count one record per performed access, the same way.
    assert stored_counts == plain_counts == (plain.total_accesses,) * 2


def test_sqlite_hit_counters_survive_restart(tmp_path) -> None:
    example = star_example(rays=2, width=4)
    path = tmp_path / "store.db"
    with _sqlite_engine(example, path) as engine:
        engine.execute(example.query_text, strategy="fast_fail")
        engine.execute(example.query_text, strategy="fast_fail")  # all hits
    store = SQLiteCacheStore(str(path))
    try:
        persisted = store.persisted_hit_counters()
    finally:
        store.close()
    assert persisted and sum(persisted.values()) > 0
    # A restarted engine reports those counters apart from its live hits, so
    # ``meta_hits + persisted_meta_hits`` covers the store's full history.
    with _sqlite_engine(example, path) as engine:
        engine.execute(example.query_text, strategy="fast_fail")
        merged = engine.session_stats()["relations"]
        # A reset erases the store, and with it the inherited base.
        engine.reset_session()
        assert engine.session_stats()["relations"] == {}
    assert {name: row["persisted_meta_hits"] for name, row in merged.items()} == persisted
    history = sum(row["meta_hits"] + row["persisted_meta_hits"] for row in merged.values())
    assert history > sum(persisted.values())


def test_sqlite_fingerprint_mismatch_raises(tmp_path) -> None:
    path = tmp_path / "store.db"
    first = star_example(rays=2, width=3)
    with _sqlite_engine(first, path) as engine:
        engine.execute(first.query_text, strategy="fast_fail")
    other = running_example()  # different schema entirely
    with pytest.raises(CacheStoreError, match="different source schema"):
        _sqlite_engine(other, path)


def test_sqlite_rejects_unserializable_binding(tmp_path, example) -> None:
    store = SQLiteCacheStore(str(tmp_path / "store.db"))
    try:
        with pytest.raises(CacheStoreError, match="cannot be serialized"):
            store.put("r", (object(),), frozenset())
        with pytest.raises(CacheStoreError, match="does not round-trip"):
            store.put("r", ((1, 2),), frozenset())  # a tuple comes back a list
    finally:
        store.close()


def test_sqlite_session_reset_erases_persisted_domain(tmp_path) -> None:
    example = star_example(rays=2, width=3)
    path = tmp_path / "store.db"
    with _sqlite_engine(example, path) as engine:
        cold = engine.execute(example.query_text, strategy="fast_fail")
        engine.reset_session()
        again = engine.execute(example.query_text, strategy="fast_fail")
    assert again.answers == cold.answers
    assert again.total_accesses == cold.total_accesses  # domain was wiped


def _write_version_1_store(path) -> None:
    """A file as the previous on-disk layout left it (timestamped records)."""
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(
            "CREATE TABLE records (relation TEXT NOT NULL, binding TEXT NOT NULL,"
            " rows TEXT NOT NULL, created REAL NOT NULL, last_used REAL NOT NULL,"
            " PRIMARY KEY (relation, binding))"
        )
        conn.execute("CREATE TABLE store_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
        conn.execute("INSERT INTO store_meta VALUES ('format_version', '1')")
    conn.close()


def test_sqlite_refuses_an_older_on_disk_format_before_the_first_query(
    tmp_path, example, capsys
) -> None:
    """A version-1 file would fail a NOT NULL insert mid-run; say so up front."""
    from repro.cli import main

    path = str(tmp_path / "old.db")
    _write_version_1_store(path)
    for construct in (
        lambda: SQLiteCacheStore(path),
        lambda: build_store(f"sqlite:{path}"),
        lambda: Engine(example.schema, example.instance, cache=f"sqlite:{path}"),
    ):
        with pytest.raises(CacheStoreError, match="format version 1.*expects 2"):
            construct()
    assert main(["run", "--example", "--cache-store", f"sqlite:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "format version 1" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


# -- cross-process claims ----------------------------------------------------


def test_sqlite_claim_wait_and_stale_takeover(tmp_path, example) -> None:
    path = str(tmp_path / "store.db")
    relation = next(iter(example.schema)).name
    now = [0.0]
    alive = SQLiteCacheStore(
        path, stale_claim_after=5.0, claimant="alive", clock=lambda: now[0]
    )
    rival = SQLiteCacheStore(
        path, stale_claim_after=5.0, claimant="rival", clock=lambda: now[0]
    )
    try:
        assert alive.claim(relation, ("k",)) == (ClaimStatus.OWNED, None)
        # Re-claiming one's own access stays OWNED (idempotent).
        assert alive.claim(relation, ("k",)) == (ClaimStatus.OWNED, None)
        # A live foreign claim makes the rival wait...
        now[0] = 1.0
        assert rival.claim(relation, ("k",)) == (ClaimStatus.WAIT, None)
        # ...until it goes stale, at which point the rival takes it over.
        now[0] = 6.5
        assert rival.claim(relation, ("k",)) == (ClaimStatus.OWNED, None)
        assert rival.counters.claim_takeovers == 1
        # The original owner's release no longer touches the rival's claim.
        alive.release(relation, ("k",))
        assert alive.claim(relation, ("k",)) == (ClaimStatus.WAIT, None)
        rows = frozenset({("k", "v")})
        rival.put(relation, ("k",), rows)
        assert alive.claim(relation, ("k",)) == (ClaimStatus.SERVED, rows)
    finally:
        alive.close()
        rival.close()


_RACE_CHILD = """
import json, sys
from repro.engine.engine import Engine
from repro.examples import star_example

example = star_example(rays=3, width=8)
with Engine(example.schema, example.instance, cache="sqlite:" + sys.argv[1]) as engine:
    (result,) = engine.execute_many(
        [example.query_text], strategy="fast_fail", max_parallel=2
    )
    accesses = engine.session_stats()["total_accesses"]
assert result.answers == example.expected_answers
print(json.dumps({"accesses": accesses}))
"""


def _spawn(script: str, *args: str) -> subprocess.Popen:
    """A Python child running ``script`` against this checkout's package."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", script, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )


def test_two_processes_share_one_access_domain(tmp_path) -> None:
    """Two racing processes perform each access exactly once between them."""
    example = star_example(rays=3, width=8)
    with Engine(example.schema, example.instance) as engine:
        solo = engine.execute(example.query_text, strategy="fast_fail")
    path = str(tmp_path / "race.db")
    children = [_spawn(_RACE_CHILD, path) for _ in range(2)]
    totals = []
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err.decode()
        totals.append(json.loads(out)["accesses"])
    # However the two processes interleave, the claim table guarantees the
    # union of their work is the solo run — no access is ever repeated.
    assert sum(totals) == solo.total_accesses


_OPEN_CHILD = """
import sys, time
from repro.sources.store import SQLiteCacheStore

directory, start, rounds, gap = sys.argv[1], float(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
failed = 0
for round_ in range(rounds):
    time.sleep(max(0.0, start + round_ * gap - time.time()))
    try:
        SQLiteCacheStore(f"{directory}/open{round_}.db").close()
    except Exception as error:
        failed += 1
        print(f"round {round_}: {error!r}", file=sys.stderr)
sys.exit(1 if failed else 0)
"""


def test_processes_opening_one_fresh_file_together_all_succeed(tmp_path) -> None:
    """Four processes open the same fresh store file at the same instant,
    twenty times over (a new file per round), and every open succeeds.

    Switching a fresh file to WAL does not wait on the busy timeout, so
    without the store's retry a process that opens the file while a peer
    switches it fails with "database is locked".
    """
    rounds, gap = 20, 0.1
    # Every child sleeps until the same wall-clock instant per round; the
    # first one is far enough ahead for the children's imports.
    start = time.time() + 1.5
    children = [
        _spawn(_OPEN_CHILD, str(tmp_path), repr(start), str(rounds), str(gap))
        for _ in range(4)
    ]
    for child in children:
        _, err = child.communicate(timeout=120)
        assert child.returncode == 0, err.decode()
    assert len(list(tmp_path.glob("open*.db"))) == rounds


# -- reporting ---------------------------------------------------------------


def test_session_stats_carry_cache_tier_stats(tmp_path) -> None:
    workload = mixed_workload(("star", "diamond"), repeat=2)
    with Engine(
        workload.schema, workload.instance, cache=f"sqlite:{tmp_path / 'w.db'}"
    ) as engine:
        engine.execute_many(workload.query_texts(), strategy="fast_fail")
        stats = engine.session_stats()
    store = stats["cache_store"]
    assert store["kind"] == "sqlite" and store["persistent"]
    assert stats["meta_hits"] > 0
    assert 0.0 < stats["hit_rate"] < 1.0
    assert store["binding_entries"] == stats["total_accesses"] > 0


def test_workload_json_reports_the_cache_store(tmp_path, capsys) -> None:
    from repro.cli import main

    path = f"sqlite:{tmp_path / 'w.db'}"
    argv = ["workload", "--mix", "star,diamond", "--cache-store", path, "--json"]
    assert main(argv) == 0
    cold = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    warm = json.loads(capsys.readouterr().out)
    for payload in (cold, warm):
        assert set(payload["cache"]) == {
            "store", "persistent", "binding_hits", "binding_hit_rate", "binding_entries"
        }
        assert payload["cache"]["store"] == "sqlite" and payload["cache"]["persistent"]
        assert payload["cache"]["binding_hits"] == payload["meta_hits"] > 0
        assert payload["cache"]["binding_hit_rate"] == payload["hit_rate"]
    assert cold["total_accesses"] == cold["cache"]["binding_entries"] > 0
    assert warm["total_accesses"] == 0
    assert warm["cache"]["binding_entries"] == cold["cache"]["binding_entries"]


def test_per_relation_hits_sum_to_the_totals_across_restarts(tmp_path, capsys) -> None:
    """Three processes' worth of runs on one store: each run's per-relation
    ``meta_hits`` sum to its own total, and its ``persisted_meta_hits`` to
    the hits every earlier run made."""
    from repro.cli import main

    path = f"sqlite:{tmp_path / 'w.db'}"
    argv = ["workload", "--mix", "star,diamond", "--repeat", "2", "--cache-store", path]
    earlier = 0
    for _ in range(3):
        assert main([*argv, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        relations = payload["relations"].values()
        assert sum(row["meta_hits"] for row in relations) == payload["meta_hits"] > 0
        assert sum(row["persisted_meta_hits"] for row in relations) == earlier
        assert payload["persisted_meta_hits"] == earlier
        earlier += payload["meta_hits"]
    # The text report: the per-relation lines print both counts, and each
    # column sums to what the run and its predecessors made.
    assert main(argv) == 0
    text = capsys.readouterr().out
    total = int(re.search(r"meta hits (\d+) ", text).group(1))
    lines = re.findall(r"(\d+) meta hits \(\+(\d+) persisted\)", text)
    assert sum(int(live) for live, _ in lines) == total > 0
    assert sum(int(base) for _, base in lines) == earlier


def test_cli_cache_store_flags(tmp_path, capsys) -> None:
    from repro.cli import main

    path = str(tmp_path / "cli.db")
    assert main(["run", "--example", "--cache-store", f"sqlite:{path}", "--json"]) == 0
    cold = json.loads(capsys.readouterr().out)
    assert main(["run", "--example", "--cache-store", f"sqlite:{path}", "--json"]) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["answers"] == cold["answers"]
    assert cold["total_accesses"] > 0 and warm["total_accesses"] == 0
    # Pointing a differently-schemaed workload at the same store trips the
    # fingerprint guard instead of silently serving the wrong rows.
    assert (
        main(["workload", "--mix", "star", "--cache-store", f"sqlite:{path}", "--json"])
        == 2
    )
    captured = capsys.readouterr()
    assert "different source schema" in captured.err
    other = str(tmp_path / "workload.db")
    assert (
        main(["workload", "--mix", "star", "--cache-store", f"sqlite:{other}", "--json"])
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["cache"]["store"] == "sqlite"
    # One cache flag is left; the result tier and the bounds went with theirs.
    for removed in (["--result-cache"], ["--cache-ttl", "5"], ["--cache-max-entries", "9"]):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--example", *removed])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
