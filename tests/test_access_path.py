"""The access path: one protocol, lean records, an on-demand log, a quiet gate.

What every access pays between the kernel's offer and its completion is
written once (:meth:`repro.runtime.dispatch.Dispatcher._access`) and driven
by a sync and an async trampoline.  These tests pin

* what that path may *cost*, counted in Python-level calls and lock
  releases, not on a clock — and what a warm point query (no access at all)
  costs around it, to plan and to run;
* that the record types it builds stay immutable, hashable and ordered;
* that the access log's on-demand aggregates equal an eager reference after
  any interleaving of writes and reads;
* that the meta-cache gate neither strands a waiter nor notifies nobody;
* that the two trampolines resolve a scripted backend identically —
  outcomes, retry accounting, budget, claim/abandon sequence — and that the
  second copies of the protocol are gone;
* that the async door costs a task only for an access that really
  suspends, and that a coroutine waiting on another's claim is woken by its
  release instead of polling for it;
* that what the path no longer locks stays exact: a memory store shared by
  racing sessions loses no record and no count, and a run's retry
  accounting is exact while executor threads do its reads.
"""

from __future__ import annotations

import asyncio
import random
import sys
import threading
import time
from typing import Dict, FrozenSet, List, Set, Tuple

import pytest

from repro import Engine
from repro.examples import make_scenario, running_example
from repro.model.instance import DatabaseInstance
from repro.model.schema import RelationSchema, Schema
from repro.runtime.dispatch import AsyncDispatcher, Dispatcher, SequentialDispatcher
from repro.runtime.kernel import AccessBudget, AccessRequest, Completion, StreamedAnswer
from repro.sources.access import AccessRecord, AccessTuple
from repro.sources.backend import SourceBackend
from repro.sources.cache import MetaCache
from repro.sources.faults import FaultSchedule
from repro.sources.fixture_server import FixtureServer
from repro.sources.log import AccessLog
from repro.sources.resilience import (
    BreakerConfig,
    ResilienceConfig,
    ResilienceContext,
    RetryPolicy,
    RetryStats,
    SourceUnavailableError,
    TransientSourceError,
)
from repro.sources.store import ClaimStatus, MemoryCacheStore
from repro.sources.wrapper import SourceRegistry, SourceWrapper


# -- (a) what an access may cost ---------------------------------------------------
#: Retry, timeout and breaker all on: at zero faults they may cost a few
#: calls per access, never an access.
RESILIENT = {
    "retry": RetryPolicy(max_attempts=3, base_delay=0.001),
    "timeout": 30.0,
    "breaker": BreakerConfig(failure_threshold=3, cooldown=1.0),
}


def test_python_calls_per_access_inside_sequential_step() -> None:
    """At most 22 Python-level calls per counted access inside
    ``SequentialDispatcher.step``, with the resilience knobs off and on (19
    and 21 on CPython 3.11; 23 and 25 while the log built two records per
    access and a claim asked the in-memory store too, 43 before the
    protocol was written once).  A count, not a timing: it reads the same
    on any host."""
    example = make_scenario("wide-fanout")
    engine = Engine(example.schema, example.instance)
    plain = engine.execute(example.query_text, strategy="fast_fail")  # plan, imports, memos
    engine.execute(example.query_text, strategy="fast_fail", share_session_cache=False, **RESILIENT)

    step_code = SequentialDispatcher.step.__code__
    depth = calls = 0

    def profiler(frame, event, arg) -> None:
        nonlocal depth, calls
        if event == "call":
            if frame.f_code is step_code:
                depth += 1
            elif depth:
                calls += 1
        elif event == "return" and frame.f_code is step_code:
            depth -= 1

    for options in ({}, RESILIENT):
        engine.reset_session()
        calls = 0
        sys.setprofile(profiler)
        try:
            result = engine.execute(example.query_text, strategy="fast_fail", **options)
        finally:
            sys.setprofile(None)
        assert result.answers == example.expected_answers
        assert result.total_accesses == plain.total_accesses > 1000
        assert result.complete and not result.failed_relations
        assert calls / result.total_accesses <= 22, (options, calls / result.total_accesses)


def test_python_calls_per_access_of_a_streamed_run() -> None:
    """At most 48 Python-level calls per access over a whole streamed
    distillation run — the simulated-parallel dispatcher's ticks, the offer
    passes, the answer checks and the generators the answers pass through:
    45.8 on CPython 3.11; 49.8 while the log built two records per access
    and a claim asked the in-memory store too, and 60.7 where one pivot
    program per body atom re-walked the join at every check.  Wide
    fan-out completes about one access per simulated tick, so this is the
    per-tick cost; a count, not a timing."""
    example = make_scenario("wide-fanout")
    engine = Engine(example.schema, example.instance)
    prepared = engine.plan(example.query_text)
    assert {answer.row for answer in prepared.stream()} == example.expected_answers
    engine.reset_session()
    calls = 0

    def profiler(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        rows = [answer.row for answer in prepared.stream()]
    finally:
        sys.setprofile(None)
    result = prepared.last_stream_result
    assert len(rows) == len(set(rows)) and set(rows) == result.answers
    assert result.kernel_profile.completion_batches > 1000
    assert calls / result.total_accesses <= 48, calls / result.total_accesses


class CountingLock:
    """A ``threading.Lock`` that counts its releases (on :attr:`releases`
    of the class), and those made while :attr:`inside` is set apart."""

    releases = within = 0
    inside = False
    _allocate = threading.Lock

    def __init__(self) -> None:
        self._lock = CountingLock._allocate()

    def acquire(self, *args, **kwargs) -> bool:
        return self._lock.acquire(*args, **kwargs)

    __enter__ = acquire

    def release(self) -> None:
        CountingLock.releases += 1
        CountingLock.within += CountingLock.inside
        self._lock.release()

    def __exit__(self, *exc) -> None:
        self.release()

    def locked(self) -> bool:
        return self._lock.locked()


def test_lock_releases_per_access(monkeypatch) -> None:
    """An access takes four locks: the meta-cache's for the offer probe, the
    claim and the record, and the wrapper's for its count — three of them
    inside ``SequentialDispatcher.step`` (8 and 6 while the in-memory store,
    a run's retry accounting and a claim's store round each took one more).
    Counted over a whole executed and a whole streamed wide-fanout run,
    where every lock the engine takes is a counting one; a run adds a few
    of its own (the session's bookkeeping), not one per access."""
    monkeypatch.setattr(threading, "Lock", CountingLock)
    step = SequentialDispatcher.step

    def counted_step(self):
        CountingLock.inside = True
        try:
            return step(self)
        finally:
            CountingLock.inside = False

    monkeypatch.setattr(SequentialDispatcher, "step", counted_step)
    example = make_scenario("wide-fanout")
    engine = Engine(example.schema, example.instance)
    prepared = engine.plan(example.query_text)
    for door in ("execute", "stream"):
        engine.reset_session()
        CountingLock.releases = CountingLock.within = 0
        if door == "execute":
            result = prepared.execute(strategy="fast_fail")
        else:
            assert {a.row for a in prepared.stream()} == example.expected_answers
            result = prepared.last_stream_result
        accesses = result.total_accesses
        assert result.answers == example.expected_answers and accesses > 1000
        assert CountingLock.releases <= 4 * accesses + 8, (door, CountingLock.releases / accesses)
        if door == "execute":
            assert CountingLock.within <= 3 * accesses, CountingLock.within / accesses


#: A music catalog in the shape of the paper's running example: every
#: artist has a song, two albums and a label in a city.
CATALOG = Schema.from_signatures(
    {
        "artist": ("ioo", ["Artist", "Nation", "Year"]),
        "song": ("ioo", ["Song", "Year", "Artist"]),
        "discography": ("io", ["Artist", "Album"]),
        "signed": ("io", ["Artist", "Label"]),
        "label_city": ("io", ["Label", "City"]),
    }
)

#: ``name -> (query, Python calls Engine.plan may make, calls
#: PreparedPlan.execute may make)`` for the query warm: its text parsed, its
#: shape planned and every binding it needs already in the session
#: meta-caches, so the run reads no source.  Counted on CPython 3.11 (later
#: versions inline comprehensions and count fewer): 19 / 215 and 19 / 308,
#: where planning re-checked the memo's query and every run re-derived its
#: plan's tables, 82 / 295 and 100 / 432.
WARM_QUERIES = {
    "disc": (
        "q(Al, N) <- song('song_7', Y, A), artist(A, N, Y1), discography(A, Al)",
        22,
        225,
    ),
    "albumcity": (
        "q(Al, C) <- song('song_7', Y, A), artist(A, N, Y1), discography(A, Al), "
        "signed(A, L), label_city(L, C)",
        22,
        320,
    ),
}


@pytest.mark.parametrize("name", sorted(WARM_QUERIES))
def test_python_calls_of_a_warm_point_query(name: str) -> None:
    """What a warm point query costs outside its (empty) source reads:
    planning is a parse-memo hit, a shape-key lookup and a bind; the run
    only sets up, replays meta-cache hits through the fixpoint and tears
    down.  Counted under ``sys.setprofile``, so it reads the same on any host."""
    rows = {
        "artist": [(f"artist_{i}", f"nation_{i % 3}", 1950 + i) for i in range(10)],
        "song": [(f"song_{i}", 1970 + i, f"artist_{i}") for i in range(10)],
        "discography": [(f"artist_{i}", f"album_{i}{s}") for i in range(10) for s in "ab"],
        "signed": [(f"artist_{i}", f"label_{i % 4}") for i in range(10)],
        "label_city": [(f"label_{i}", f"city_{i}") for i in range(4)],
    }
    engine = Engine(CATALOG, DatabaseInstance(CATALOG, rows))
    text, plan_bound, execute_bound = WARM_QUERIES[name]
    for _ in range(2):
        engine.execute(text)
    calls = 0

    def profiler(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        prepared = engine.plan(text)
    finally:
        sys.setprofile(None)
    plan_calls, calls = calls, 0
    sys.setprofile(profiler)
    try:
        result = prepared.execute()
    finally:
        sys.setprofile(None)
    assert result.total_accesses == 0 and len(result.answers) == 2
    assert plan_calls <= plan_bound and calls <= execute_bound, (plan_calls, calls)


#: Keyed query templates over the running example: 2, 3 and 5 atoms (the
#: last loses three to minimization), one constant each.
PLAN_REUSE_TEMPLATES = (
    "q(N) <- r1(A, N, Y1), r2('{k}', Y2, A)",
    "q(N, A2) <- r2('{k}', Y, A), r1(A, N, Y1), r3(N, A2)",
    "q(N) <- r1(A, N, Y1), r2('{k}', Y2, A), r2('{k}', Y3, A2), "
    "r1(A2, N2, Y4), r1(A2, N3, Y5)",
)


def test_a_warm_plan_costs_at_most_a_fifth_of_a_cold_one() -> None:
    """``Engine.plan`` of a shape already planned (another key of the same
    template) against its first planning, in Python calls: 20 / 20 / 36
    warm against 1,297 / 1,609 / 2,690 cold on CPython 3.11.  Planning never
    reads the data, so the keys need not exist."""
    example = running_example()
    engine = Engine(example.schema, example.instance)

    def plan_calls(text: str) -> int:
        calls = 0

        def profiler(frame, event, arg) -> None:
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(profiler)
        try:
            engine.plan(text)
        finally:
            sys.setprofile(None)
        return calls

    cold = [plan_calls(template.format(k="first")) for template in PLAN_REUSE_TEMPLATES]
    warm = [
        max(plan_calls(template.format(k=f"song {index}")) for index in range(100))
        for template in PLAN_REUSE_TEMPLATES
    ]
    stats = engine.session_stats()["plan_cache"]
    assert (stats["misses"], stats["hits"]) == (3, 300), stats
    assert all(5 * w <= c for w, c in zip(warm, cold)), (warm, cold)


# -- (b) the records -----------------------------------------------------------------
def test_records_are_immutable_hashable_and_ordered() -> None:
    access = AccessTuple("r", ("a", 1))
    record = AccessRecord(access, frozenset({("a", 1, "x"), ("a", 1, "y")}), 3, 0.5)
    request = AccessRequest("c_r", "r", ("a", 1))
    completion = Completion(request, record.rows, 0.5)
    answer = StreamedAnswer(("x",), 0.5)
    for instance in (access, record, request, completion, answer):
        for field in instance._fields:
            with pytest.raises(AttributeError):
                setattr(instance, field, None)
        assert hash(instance) == hash(type(instance)(*instance))
        assert instance == type(instance)(*instance)
    assert (completion.counted, completion.failed) == (True, False)
    assert (record.relation, record.row_count, record.simulated_time) == ("r", 2, 0.5)
    assert AccessRecord(access, frozenset(), 0).simulated_time == 0.0
    assert str(access) == "r['a', 1]"
    assert str(AccessTuple("free", ())) == "free[]"

    log = AccessLog()
    for relation, binding in [("s", ("b",)), ("r", ("z",)), ("r", ("a",)), ("s", ("a",))]:
        log.record(relation, binding, frozenset(), 0.0)
    assert [str(a) for a in sorted(log.access_set())] == [
        "r['a']", "r['z']", "s['a']", "s['b']"
    ]  # fmt: skip
    # What the log builds when read is the same kind of record.
    for sequence, read in enumerate(log):
        assert type(read) is AccessRecord and type(read.access) is AccessTuple
        assert read == AccessRecord(read.access, frozenset(), sequence, 0.0)
        assert hash(read) == hash(AccessRecord(*read))
        with pytest.raises(AttributeError):
            read.rows = None


# -- (c) the log ---------------------------------------------------------------------
class EagerLog:
    """The reference: every aggregate recomputed from the records, eagerly."""

    def __init__(self) -> None:
        self.records: List[AccessRecord] = []

    def view(self) -> Dict[str, object]:
        relations = list(dict.fromkeys(record.relation for record in self.records))
        rows: Dict[str, Set[Tuple[object, ...]]] = {name: set() for name in relations}
        for record in self.records:
            rows[record.relation] |= record.rows
        counts = {n: sum(r.relation == n for r in self.records) for n in relations}
        return {
            "records": list(self.records),
            "access_set": frozenset(record.access for record in self.records),
            "total": len(self.records),
            "relations": relations,
            "rows": {name: frozenset(rows[name]) for name in relations},
            "summary": {name: (counts[name], len(rows[name])) for name in relations},
        }


def _view(log: AccessLog, probe: random.Random) -> Dict[str, object]:
    """The same view through the log's own readers, in a random read order."""
    relations = log.accessed_relations()
    readers = {
        "rows": lambda: {name: log.rows_of(name) for name in relations},
        "row_counts": lambda: {name: log.row_count_of(name) for name in relations},
        "summary": log.per_relation_summary,
        "accesses": lambda: {name: log.accesses_of(name) for name in relations},
    }
    read = {}
    for name in probe.sample(sorted(readers), len(readers)):
        read[name] = readers[name]()
    assert read["row_counts"] == {name: len(rows) for name, rows in read["rows"].items()}
    assert read["accesses"] == {name: pair[0] for name, pair in read["summary"].items()}
    assert log.rows_of("never-accessed") == frozenset() and log.accesses_of("nope") == 0
    return {
        "records": list(log),
        "access_set": log.access_set(),
        "total": log.total_accesses,
        "relations": relations,
        "rows": read["rows"],
        "summary": read["summary"],
    }


@pytest.mark.parametrize("seed", range(5))
def test_log_aggregates_match_eager_reference_under_any_interleaving(seed: int) -> None:
    rng = random.Random(seed)
    log, reference = AccessLog(), EagerLog()

    def fresh_record(sequence: int) -> AccessRecord:
        relation = rng.choice("rstu")
        rows = frozenset((relation, rng.randrange(6)) for _ in range(rng.randrange(4)))
        binding = tuple(rng.randrange(50) for _ in range(rng.randrange(3)))
        return AccessRecord(AccessTuple(relation, binding), rows, sequence, rng.random())

    for _ in range(120):
        if rng.random() < 0.6:
            record = fresh_record(len(log))
            log.record(record.relation, record.access.binding, record.rows, record.simulated_time)
            reference.records.append(record)
        else:
            assert _view(log, rng) == reference.view()
    assert _view(log, rng) == reference.view()
    assert len(log) == log.total_accesses == len(reference.records)


# -- (d) the gate --------------------------------------------------------------------
def _meta() -> MetaCache:
    return MetaCache(RelationSchema.build("r", "io", ["A", "B"]))


def test_racing_claimants_never_strand_a_waiter() -> None:
    """Two threads contend for one binding, 500 rounds: each round's winner
    abandons or records, the loser waits in ``claim`` — and always wakes."""
    meta = _meta()
    rows = frozenset({("k", 1)})
    rounds = 500
    errors: List[str] = []
    barrier = threading.Barrier(2)

    def contend() -> None:
        try:
            for round_ in range(rounds):
                binding = ("k", round_)
                barrier.wait(timeout=10)
                served = meta.claim(binding)
                if served is None and round_ % 3 == 0:
                    # The owner's first attempt fails every third round, so a
                    # waiter also sees abandon -> re-contend -> own.
                    meta.abandon(binding)
                    served = meta.claim(binding)
                if served is None:
                    meta.record(binding, rows)
                    served = rows
                if served != rows:
                    errors.append(f"round {round_}: served {served!r}")
        except Exception as error:  # noqa: BLE001 - reported by the main thread
            errors.append(repr(error))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=contend, daemon=True) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads), "a claimant is stranded"
    assert not errors, errors[:3]
    assert len(meta) == rounds


def test_gate_notifies_only_registered_waiters(monkeypatch) -> None:
    notified = []
    notify_all = threading.Condition.notify_all

    def counting(self) -> None:
        notified.append(self)
        notify_all(self)

    monkeypatch.setattr(threading.Condition, "notify_all", counting)
    meta = _meta()
    rows = frozenset({("a", 1)})
    # Nobody waits: claim/record, claim/abandon and a served hit notify no one.
    assert meta.try_claim(("a",)) == (ClaimStatus.OWNED, None)
    meta.record(("a",), rows)
    assert meta.try_claim(("b",)) == (ClaimStatus.OWNED, None)
    meta.abandon(("b",))
    assert meta.claim(("a",)) == rows
    meta.record(("unclaimed",), rows)
    assert notified == []

    # Somebody waits: the release wakes it.
    assert meta.claim(("c",)) is None
    served: List[FrozenSet] = []
    waiter = threading.Thread(target=lambda: served.append(meta.claim(("c",))), daemon=True)
    waiter.start()
    deadline = time.monotonic() + 10
    while not meta._waiters and time.monotonic() < deadline:
        time.sleep(0.001)
    assert meta._waiters == 1
    meta.record(("c",), rows)
    waiter.join(timeout=10)
    assert not waiter.is_alive() and served == [rows]
    # (Thread.start() notifies a condition of its own; count the gate's.)
    assert sum(condition is meta._cond for condition in notified) == 1
    assert meta._waiters == 0


# -- (e) one protocol, two trampolines -----------------------------------------------
ROWS = frozenset({("k", "v")})


class ScriptedBackend(SourceBackend):
    """Answers each binding from a script of per-attempt actions: a fault
    class to raise, a number of seconds to take before answering, or None
    to answer at once.  An exhausted script answers at once.  It has both
    reads, so the sync and the async trampoline see the very same source."""

    kind = "scripted"

    def __init__(self, name: str, script: Dict[Tuple[object, ...], list]) -> None:
        self.schema = RelationSchema.build(name, "io", ["K", "V"])
        self.script = {binding: list(actions) for binding, actions in script.items()}
        self.reads: List[Tuple[object, ...]] = []

    def _next(self, binding):
        self.reads.append(binding)
        actions = self.script.get(binding)
        action = actions.pop(0) if actions else None
        if isinstance(action, type):
            raise action(self.schema.name, binding, "scripted")
        return action

    def lookup(self, binding):
        delay = self._next(binding)
        if delay:
            time.sleep(delay)
        return ROWS

    async def alookup(self, binding):
        delay = self._next(binding)
        if delay:
            await asyncio.sleep(delay)
        return ROWS


class RecordingMeta(MetaCache):
    """A meta-cache that writes down how every claim was settled."""

    def __init__(self, relation: RelationSchema, events: list) -> None:
        super().__init__(relation)
        self.events = events

    def try_claim(self, binding, wait=False, wake=None):
        status, rows = super().try_claim(binding, wait, wake)
        if status is not ClaimStatus.WAIT:
            self.events.append((self._name, status.value, binding))
        return status, rows

    def record(self, binding, rows) -> None:
        self.events.append((self._name, "record", binding))
        super().record(binding, rows)

    def abandon(self, binding) -> None:
        self.events.append((self._name, "abandon", binding))
        super().abandon(binding)


class Registry:
    """The two methods of ``SourceRegistry`` a dispatcher resolves a relation by."""

    def __init__(self, wrappers: Dict[str, SourceWrapper]) -> None:
        self.wrappers = wrappers

    def wrapper(self, relation: str) -> SourceWrapper:
        return self.wrappers[relation]

    def latency_of(self, relation: str, default: float = 0.0) -> float:
        return 0.01


class Gate:
    dedup_accesses = True

    def __init__(self, metas: Dict[str, MetaCache]) -> None:
        self.metas = metas

    def meta_for(self, relation: str) -> MetaCache:
        return self.metas[relation]


#: (relation, binding) in the order the script is played.
SCRIPT = [
    ("flaky", ("twice",)),  # transient x2, then rows
    ("gone", ("k",)),  # permanently down
    ("gone", ("again",)),  # ... so the relation is not read again
    ("slow", ("k",)),  # slower than the timeout once, then in time
    ("broken", ("k",)),  # enough failures to open the breaker
    ("broken", ("next",)),  # ... which short-circuits the next access
    ("shared", ("k",)),  # claimed by another execution: WAIT, then SERVED
    ("flaky", ("twice",)),  # recorded by now: served by the gate
]
RESILIENCE = ResilienceConfig(
    retry=RetryPolicy(max_attempts=3, base_delay=0.001, multiplier=2.0, max_delay=0.01),
    timeout=0.02,
    breaker=BreakerConfig(failure_threshold=3, cooldown=1e6),
)


def _scripted(dispatcher_class):
    """A dispatcher of the given class over fresh scripted sources."""
    events: list = []
    backends = {
        "flaky": ScriptedBackend("flaky", {("twice",): [TransientSourceError] * 2}),
        "gone": ScriptedBackend("gone", {("k",): [SourceUnavailableError]}),
        "slow": ScriptedBackend("slow", {("k",): [0.06]}),
        "broken": ScriptedBackend("broken", {("k",): [TransientSourceError] * 3}),
        "shared": ScriptedBackend("shared", {}),
    }
    metas = {name: RecordingMeta(backend.schema, events) for name, backend in backends.items()}
    registry = Registry({name: SourceWrapper(backend) for name, backend in backends.items()})
    dispatcher = dispatcher_class(registry, AccessLog(), AccessBudget(None))
    dispatcher.gate = Gate(metas)
    dispatcher.resilience = ResilienceContext(RESILIENCE)
    dispatcher.resilience.bind_clock(dispatcher.now, dispatcher.wall_clock)
    return dispatcher, metas, backends, events


def _summary(dispatcher, completions: List[Completion], backends, events) -> Dict[str, object]:
    stats = dispatcher.resilience.stats.to_dict()
    return {
        "completions": [
            (c.request.relation, c.request.binding, c.rows, c.counted, c.failed)
            for c in completions
        ],
        "stats": stats,
        "failed_relations": dispatcher.resilience.snapshot_failed_relations(),
        "net_grants": dispatcher.budget.total_granted - dispatcher.budget.refunded,
        "logged": [str(record.access) for record in dispatcher.log],
        "reads": {name: backend.reads for name, backend in backends.items()},
        "events": events,
    }


def _play_sync() -> Dict[str, object]:
    dispatcher, metas, backends, events = _scripted(SequentialDispatcher)
    completions: List[Completion] = []
    for relation, binding in SCRIPT:
        if relation == "shared":
            assert metas[relation].try_claim(binding)[0] is ClaimStatus.OWNED  # "another run"
            fulfil = threading.Timer(0.05, metas[relation].record, (binding, ROWS))
            fulfil.start()
        dispatcher.submit(AccessRequest(f"c_{relation}", relation, binding))
        completions.extend(dispatcher.step())
    fulfil.join(timeout=10)
    assert not dispatcher.has_work() and not fulfil.is_alive()
    return _summary(dispatcher, completions, backends, events)


def _play_async() -> Dict[str, object]:
    async def play():
        dispatcher, metas, backends, events = _scripted(AsyncDispatcher)
        completions: List[Completion] = []
        for relation, binding in SCRIPT:
            if relation == "shared":
                assert metas[relation].try_claim(binding)[0] is ClaimStatus.OWNED
                asyncio.get_running_loop().call_later(
                    0.05, metas[relation].record, binding, ROWS
                )
            dispatcher.submit(AccessRequest(f"c_{relation}", relation, binding))
            dispatcher.refill(dispatcher.now())
            while dispatcher.has_work():
                completions.extend(await dispatcher.astep())
        await dispatcher.aclose()
        dispatcher.close()
        return _summary(dispatcher, completions, backends, events)

    return asyncio.run(play())


def test_sync_and_async_trampolines_resolve_a_scripted_source_identically() -> None:
    sync, asynchronous = _play_sync(), _play_async()
    assert sync == asynchronous

    # ... and identically *right*.
    assert sync["completions"] == [
        ("flaky", ("twice",), ROWS, True, False),
        ("gone", ("k",), frozenset(), False, True),
        ("gone", ("again",), frozenset(), False, True),
        ("slow", ("k",), ROWS, True, False),
        ("broken", ("k",), frozenset(), False, True),
        ("broken", ("next",), frozenset(), False, True),
        ("shared", ("k",), ROWS, False, False),
        ("flaky", ("twice",), ROWS, False, False),
    ]
    stats = sync["stats"]
    assert (stats["attempts"], stats["retries"]) == (3 + 1 + 2 + 3, 2 + 0 + 1 + 2)
    assert (stats["transient_faults"], stats["timeouts"]) == (5, 1)
    assert (stats["failures"], stats["short_circuited"], stats["breaker_trips"]) == (4, 2, 1)
    assert stats["refunded"] == 4
    assert stats["backoff_seconds"] == pytest.approx(0.001 + 0.002 + 0.001 + 0.001 + 0.002)
    assert sync["failed_relations"] == ("broken", "gone")
    assert sync["net_grants"] == len(sync["logged"]) == 2
    assert sync["logged"] == ["flaky['twice']", "slow['k']"]
    assert sync["reads"]["gone"] == [("k",)] and sync["reads"]["broken"] == [("k",)] * 3
    assert sync["events"] == [
        ("flaky", "owned", ("twice",)), ("flaky", "record", ("twice",)),
        ("gone", "owned", ("k",)), ("gone", "abandon", ("k",)),
        ("gone", "owned", ("again",)), ("gone", "abandon", ("again",)),
        ("slow", "owned", ("k",)), ("slow", "record", ("k",)),
        ("broken", "owned", ("k",)), ("broken", "abandon", ("k",)),
        ("broken", "owned", ("next",)), ("broken", "abandon", ("next",)),
        ("shared", "owned", ("k",)),  # the other execution's claim ...
        ("shared", "record", ("k",)),  # ... and its fulfilment
        ("shared", "served", ("k",)),
        ("flaky", "served", ("twice",)),
    ]  # fmt: skip


def test_sequential_clock_charges_attempts_and_backoff() -> None:
    """The simulated clock never sleeps a backoff: it charges ``attempts x
    latency + backoff`` (latency 0.01 here), failed accesses included."""
    dispatcher, _, _, _ = _scripted(SequentialDispatcher)
    started = time.perf_counter()
    dispatcher.submit(AccessRequest("c", "flaky", ("twice",)))
    dispatcher.submit(AccessRequest("c", "broken", ("k",)))
    first, second = dispatcher.step()
    assert first.finish_time == pytest.approx(3 * 0.01 + 0.003)
    assert second.finish_time == pytest.approx(first.finish_time + 3 * 0.01 + 0.003)
    assert dispatcher.total_time() == dispatcher.sequential_time == second.finish_time
    assert time.perf_counter() - started < 0.5


def test_budget_denial_abandons_the_claim_and_stalls() -> None:
    dispatcher, metas, backends, events = _scripted(SequentialDispatcher)
    dispatcher.budget = AccessBudget(1)
    dispatcher.submit(AccessRequest("c", "shared", ("a",)))
    dispatcher.submit(AccessRequest("c", "shared", ("b",)))
    assert [c.request.binding for c in dispatcher.step()] == [("a",)]
    assert dispatcher.step() is None and dispatcher.budget.denied
    assert backends["shared"].reads == [("a",)]
    assert events[-2:] == [("shared", "owned", ("b",)), ("shared", "abandon", ("b",))]
    assert metas["shared"].try_claim(("b",))[0] is ClaimStatus.OWNED


def test_non_fault_errors_propagate_with_the_claim_released() -> None:
    dispatcher, metas, backends, _ = _scripted(SequentialDispatcher)
    backends["shared"].script[("bug",)] = [ZeroDivisionError]
    dispatcher.submit(AccessRequest("c", "shared", ("bug",)))
    with pytest.raises(ZeroDivisionError):
        dispatcher.step()
    assert metas["shared"].try_claim(("bug",))[0] is ClaimStatus.OWNED
    assert dispatcher.budget.total_granted == 1  # a bug is not a refund


def test_cancelling_an_async_read_releases_claim_and_grant() -> None:
    async def play():
        dispatcher, metas, backends, events = _scripted(AsyncDispatcher)
        backends["shared"].script[("k",)] = [30.0]  # a read nobody will wait out
        dispatcher.submit(AccessRequest("c", "shared", ("k",)))
        dispatcher.refill(dispatcher.now())
        while not backends["shared"].reads:
            await asyncio.sleep(0.001)
        assert metas["shared"].try_claim(("k",))[0] is ClaimStatus.WAIT  # held mid-read
        await dispatcher.aclose()
        dispatcher.close()
        assert asyncio.all_tasks() == {asyncio.current_task()}
        return dispatcher, metas, events

    dispatcher, metas, events = asyncio.run(play())
    assert events == [("shared", "owned", ("k",)), ("shared", "abandon", ("k",))]
    assert metas["shared"].try_claim(("k",))[0] is ClaimStatus.OWNED
    assert dispatcher.budget.total_granted - dispatcher.budget.refunded == 0
    assert dispatcher.log.total_accesses == 0 and not dispatcher.has_work()


def test_the_second_copies_are_gone() -> None:
    assert not hasattr(ResilienceContext, "aperform")
    assert not hasattr(AsyncDispatcher, "_perform_one")
    assert not hasattr(Dispatcher, "_acquire_rows")
    # One protocol, inherited — not overridden — by every dispatcher.
    for dispatcher_class in (SequentialDispatcher, AsyncDispatcher):
        assert dispatcher_class._access is Dispatcher._access
    # A contended claim is woken, not polled.
    assert not hasattr(AsyncDispatcher(Registry({}), AccessLog(), AccessBudget(None)), "claim_poll")


# -- (f) a task only for an access that suspends ------------------------------------
FANOUT = make_scenario("wide-fanout", width=5, fanout=4)
DOORS = [
    ("aexecute", "naive"),
    ("aexecute", "fast_fail"),
    ("aexecute", "distillation"),
    ("astream", "distillation"),  # the only strategy that streams
]


@pytest.fixture(scope="module")
def fixture_url():
    with FixtureServer(FANOUT.instance) as server:
        yield server.url


async def _tasks_per_run(engine: Engine, door: str, strategy: str) -> Tuple[int, int]:
    """``(tasks created, accesses performed)`` by one async run on this loop."""
    loop = asyncio.get_running_loop()
    created: List[object] = []

    def counting(loop, coro, **kwargs):
        created.append(coro)
        return asyncio.Task(coro, loop=loop, **kwargs)

    loop.set_task_factory(counting)
    try:
        prepared = engine.plan(FANOUT.query_text)
        if door == "aexecute":
            result = await prepared.aexecute(strategy=strategy, concurrency="async")
        else:
            async for _ in prepared.astream(strategy=strategy, concurrency="async"):
                pass
            result = prepared.last_stream_result
    finally:
        loop.set_task_factory(None)
        engine.close()  # on the loop its pooled HTTP connections belong to
    assert result.answers == FANOUT.expected_answers
    return len(created), result.total_accesses


@pytest.mark.parametrize("door, strategy", DOORS)
@pytest.mark.parametrize("source", ["memory", "callable", "http"])
def test_only_an_access_that_suspends_costs_a_task(source, door, strategy, request) -> None:
    """An in-memory read never suspends, so it finishes where it was
    launched: no task per access.  A read on an executor thread or a socket
    suspends: exactly one task per performed read."""
    backend = request.getfixturevalue("fixture_url") if source == "http" else source
    with Engine(FANOUT.schema, SourceRegistry(FANOUT.instance, backend=backend)) as engine:
        tasks, performed = asyncio.run(_tasks_per_run(engine, door, strategy))
    assert performed > 20
    assert tasks == (0 if source == "memory" else performed)


# -- (g) a claim waiter is woken -------------------------------------------------------
class GatedBackend(SourceBackend):
    """Every read suspends on a future the test resolves (or fails) itself;
    each read's future is queued on ``gates`` as the read starts."""

    kind = "gated"

    def __init__(self) -> None:
        self.schema = RelationSchema.build("shared", "io", ["K", "V"])
        self.reads: List[Tuple[object, ...]] = []
        self.gates: "asyncio.Queue[asyncio.Future]" = asyncio.Queue()

    def lookup(self, binding):  # pragma: no cover - only the async door reads it
        raise AssertionError("read through the async door only")

    async def alookup(self, binding):
        self.reads.append(binding)
        gate = asyncio.get_running_loop().create_future()
        self.gates.put_nowait(gate)
        return await gate


def _over(backend: GatedBackend, meta: MetaCache) -> AsyncDispatcher:
    """An async dispatcher of its own — one execution — over a shared gate."""
    dispatcher = AsyncDispatcher(
        Registry({"shared": SourceWrapper(backend)}), AccessLog(), AccessBudget(None)
    )
    dispatcher.gate = Gate({"shared": meta})
    dispatcher.resilience.bind_clock(dispatcher.now, dispatcher.wall_clock)
    return dispatcher


def _race(backend: GatedBackend, meta: MetaCache) -> Tuple[AsyncDispatcher, AsyncDispatcher]:
    """Two executions launch the same access: the first owns the claim and
    is reading, the second waits on it."""
    owner, waiter = _over(backend, meta), _over(backend, meta)
    for dispatcher in (owner, waiter):
        dispatcher.submit(AccessRequest("c_shared", "shared", ("k",)))
        dispatcher.refill(dispatcher.now())
    return owner, waiter


@pytest.fixture
def sleeps(monkeypatch) -> List[float]:
    """Every ``asyncio.sleep`` anybody starts while the test runs."""
    started: List[float] = []
    sleep = asyncio.sleep

    async def counting(delay, result=None):
        started.append(delay)
        return await sleep(delay, result)

    monkeypatch.setattr(asyncio, "sleep", counting)
    return started


def test_a_claim_waiter_is_woken_by_the_owners_record(sleeps) -> None:
    async def play():
        backend, events = GatedBackend(), []
        owner, waiter = _race(backend, RecordingMeta(backend.schema, events))
        (await backend.gates.get()).set_result(ROWS)
        (read,), (served,) = await asyncio.gather(owner.astep(), waiter.astep())
        return backend, events, read, served

    backend, events, read, served = asyncio.run(play())
    assert (read.rows, read.counted) == (ROWS, True)
    assert (served.rows, served.counted, served.failed) == (ROWS, False, False)
    assert backend.reads == [("k",)]
    assert events == [
        ("shared", "owned", ("k",)), ("shared", "record", ("k",)), ("shared", "served", ("k",))
    ]  # fmt: skip
    assert sleeps == []  # woken by the record, not by polling for it


def test_a_claim_waiter_is_woken_by_abandon_and_reads_itself(sleeps) -> None:
    async def play():
        backend, events = GatedBackend(), []
        owner, waiter = _race(backend, RecordingMeta(backend.schema, events))
        (await backend.gates.get()).set_exception(
            SourceUnavailableError("shared", ("k",), "gone for the owner")
        )
        (failed,) = await owner.astep()
        # The abandon woke the waiter: it now owns the claim and reads.
        (await asyncio.wait_for(backend.gates.get(), 10)).set_result(ROWS)
        (read,) = await waiter.astep()
        return backend, events, failed, read

    backend, events, failed, read = asyncio.run(play())
    assert (failed.failed, read.counted, read.rows) == (True, True, ROWS)
    assert backend.reads == [("k",), ("k",)]
    assert events == [
        ("shared", "owned", ("k",)), ("shared", "abandon", ("k",)),
        ("shared", "owned", ("k",)), ("shared", "record", ("k",)),
    ]  # fmt: skip
    assert sleeps == []


def test_a_coroutine_waiting_on_a_threads_claim_is_woken_across_threads() -> None:
    """The owner records on another thread: the wake-up crosses to the
    waiter's loop (``call_soon_threadsafe``), and the waiter is served."""
    meta = _meta()
    assert meta.try_claim(("k",))[0] is ClaimStatus.OWNED  # a thread's execution

    async def play():
        waiting = asyncio.ensure_future(meta.aclaim(("k",)))
        while not meta._wakeups:
            await asyncio.sleep(0)
        owner = threading.Thread(target=meta.record, args=(("k",), ROWS))
        owner.start()
        served = await asyncio.wait_for(waiting, 10)
        owner.join(timeout=10)
        return served, owner.is_alive()

    assert asyncio.run(play()) == (ROWS, False)
    assert meta._wakeups == {}


# -- (h) what the path no longer locks stays exact ----------------------------------
def _race_sessions(engines: List[Engine], text: str) -> Tuple[List[object], List[str]]:
    """Each engine — one session — executes ``text`` twice on its own thread,
    all at once; returns the results and any error a thread raised."""
    results: List[object] = []
    errors: List[str] = []
    barrier = threading.Barrier(len(engines))

    def session(engine: Engine, strategy: str) -> None:
        try:
            barrier.wait(timeout=10)
            for _ in range(2):
                results.append(engine.execute(text, strategy=strategy))
        except Exception as error:  # noqa: BLE001 - reported by the main thread
            errors.append(repr(error))

    # (naive reads past the session meta-caches, so it records nothing.)
    strategies = ("fast_fail", "distillation")
    threads = [
        threading.Thread(target=session, args=(engine, strategies[index % 2]), daemon=True)
        for index, engine in enumerate(engines)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    return results, errors


def test_sessions_sharing_a_memory_store_lose_no_record_and_no_count() -> None:
    """Four sessions share one ``MemoryCacheStore`` and race through the same
    accesses — claiming, recording and hitting overlapping bindings — while
    a fifth thread reads ``stats()`` the whole time.  The store takes no
    lock, yet no record is lost, ``stats()`` never raises, its counters
    never step back, and each counter is exact: ``binding_hits`` is every
    session's meta-cache hits, ``accesses_recorded`` every performed access
    (two sessions may both perform one binding: neither sees the other's
    claim) and ``binding_entries`` the distinct accesses — also across
    ``reset_session()``, which clears the store but not its counters."""
    example = make_scenario("wide-fanout", width=10, fanout=20)
    store = MemoryCacheStore()
    engines = [Engine(example.schema, example.instance, cache=store) for _ in range(4)]
    for engine in engines:
        engine.plan(example.query_text)  # planned outside the race
    done = threading.Event()
    readings: List[Dict[str, object]] = []
    reader_errors: List[str] = []

    def read_stats() -> None:
        while not done.is_set():
            try:
                readings.append(store.stats())
            except Exception as error:  # noqa: BLE001 - reported by the main thread
                reader_errors.append(repr(error))
                return

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    reader = threading.Thread(target=read_stats, daemon=True)
    reader.start()
    expected = {"binding_hits": 0, "accesses_recorded": 0}
    try:
        for _ in range(2):  # the second round after every session's reset
            results, errors = _race_sessions(engines, example.query_text)
            assert not errors, errors[:3]
            assert all(r.answers == example.expected_answers for r in results)
            expected["binding_hits"] += sum(engine.session.meta_hits for engine in engines)
            expected["accesses_recorded"] += sum(r.total_accesses for r in results)
            performed = {
                (record.access.relation, record.access.binding): record.rows
                for result in results
                for record in result.access_log
            }
            stats = store.stats()
            assert stats["binding_entries"] == len(performed) > 100
            assert {k: stats[k] for k in expected} == expected
            for (relation, binding), rows in performed.items():
                assert store.get(relation, binding) == rows  # no record lost
            expected["binding_hits"] += len(performed)  # the reads just made
            for engine in engines:
                engine.reset_session()
            assert store.stats()["binding_entries"] == 0
    finally:
        done.set()
        reader.join(timeout=10)
        sys.setswitchinterval(switch)
    assert not reader_errors, reader_errors[:3]
    assert len(readings) > 10
    for key in expected:
        series = [reading[key] for reading in readings]
        assert series == sorted(series), key  # monotone, across the resets too


def test_retry_accounting_is_exact_when_executor_threads_read() -> None:
    """An async run over a blocking backend reads on executor threads, with
    seeded transient faults and timeouts injected; the run's coordinating
    thread alone writes its ``RetryStats``, which take no lock, and they
    equal what the fault schedule plans for the bindings the run performed
    — and the simulated run's, read for read."""
    example = make_scenario("wide-fanout", width=10, fanout=20)
    schedule = FaultSchedule(seed=11, transient_rate=0.3, timeout_rate=0.1)
    retry = RetryPolicy(max_attempts=schedule.max_consecutive + 1, base_delay=0.0)
    stats = {}
    for concurrency in ("async", "simulated"):
        engine = Engine(example.schema, example.instance)
        engine.registry.inject_faults(schedule)
        result = engine.execute(
            example.query_text,
            strategy="distillation",
            concurrency=concurrency,
            retry=retry,
            max_in_flight=16,
        )
        assert result.complete and result.answers == example.expected_answers
        plans = [
            schedule.plan_for(record.access.relation, record.access.binding)[0]
            for record in result.access_log
        ]
        faults = [kind for plan in plans for kind in plan]
        stats[concurrency] = result.retry_stats.to_dict()
        assert stats[concurrency] == {
            **RetryStats().to_dict(),
            "attempts": len(plans) + len(faults),
            "retries": len(faults),
            "transient_faults": faults.count("transient"),
            "timeouts": faults.count("timeout"),
        }
        reads = sum(sum(wrapper.backend._attempts.values()) for wrapper in engine.registry)
        assert reads == stats[concurrency]["attempts"] and len(faults) > 50
        engine.close()
    assert stats["async"] == stats["simulated"]


def test_meta_caches_sharing_a_memory_store_count_every_hit_and_record() -> None:
    """The same contract at the gate, hammered: four threads — one session's
    meta-caches each, over one store — probe, claim and record 300
    overlapping bindings of two relations, 5,000 rounds apiece, with the
    interpreter switching threads as often as it can."""
    store = MemoryCacheStore()
    relations = [RelationSchema.build(name, "io", ["K", "V"]) for name in ("r", "s")]
    tallies: List[Dict[str, object]] = []
    barrier = threading.Barrier(4)

    def session(seed: int) -> None:
        metas = [MetaCache(relation, store) for relation in relations]
        rng = random.Random(seed)
        recorded: Set[Tuple[str, Tuple[int]]] = set()
        records = 0
        barrier.wait(timeout=10)
        for _ in range(5000):
            meta = rng.choice(metas)
            binding = (rng.randrange(300),)
            if meta.lookup(binding) is not None:
                continue
            status, _ = meta.try_claim(binding)
            if status is ClaimStatus.OWNED:
                meta.record(binding, frozenset({(binding[0], meta._name)}))
                recorded.add((meta._name, binding))
                records += 1
        tallies.append(
            {"hits": sum(meta.hits for meta in metas), "records": records, "keys": recorded}
        )

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=session, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert len(tallies) == 4
    keys = set().union(*(tally["keys"] for tally in tallies))
    stats = store.stats()
    assert stats["binding_hits"] == sum(tally["hits"] for tally in tallies) > 10000
    assert stats["accesses_recorded"] == sum(tally["records"] for tally in tallies)
    assert stats["binding_entries"] == len(keys) == 600
    assert all(store.get(name, binding) == {(binding[0], name)} for name, binding in keys)
