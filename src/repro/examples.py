"""Ready-made schemas and instances, including the paper's running example.

The running example follows the song database used throughout the paper
(and in the parser's docstring): ``r1`` relates an artist to their nation
and year of birth and requires the artist as input, ``r2`` relates a song
to its year and artist and requires the song as input, and ``r3`` is a
by-nation listing that is irrelevant for the example query.  The query

    ``q(N) <- r1(A, N, Y1), r2('volare', Y2, A)``

asks for the nation of the artist of the song *volare*; under the access
limitations the only way in is through the constant ``'volare'``, which the
constant-elimination step turns into an artificial free relation.

Besides the running example, this module is the scenario-generator library:
parameterized d-graph topologies (``chain``, ``wide-fanout``, ``star``,
``diamond``, ``skewed-fanout``, ``cycle``) that the tests and the CLI
use to exercise every backend × strategy combination on qualitatively
different dependency shapes.  Every generator returns an :class:`Example`
carrying its expected answers, so any execution over it doubles as a
correctness check.  :data:`SCENARIOS` maps scenario names to generators and
:func:`make_scenario` builds one by name with keyword parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Tuple

from repro.exceptions import ReproError
from repro.model.instance import DatabaseInstance
from repro.model.schema import Schema


@dataclass(frozen=True)
class Example:
    """A packaged example: schema, data, a query, and its expected answers."""

    name: str
    schema: Schema
    instance: DatabaseInstance
    query_text: str
    expected_answers: FrozenSet[Tuple[object, ...]]


def running_example() -> Example:
    """The paper's running example (song database with access limitations)."""
    schema = Schema.from_signatures(
        {
            # r1^ioo(Artist, Nation, Year): given an artist, their nation and birth year.
            "r1": ("ioo", ["Artist", "Nation", "Year"]),
            # r2^ioo(Song, Year, Artist): given a song, its year and artist.
            "r2": ("ioo", ["Song", "Year", "Artist"]),
            # r3^io(Nation, Artist): given a nation, artists from it.  Irrelevant
            # for the example query: it cannot contribute obtainable answers.
            "r3": ("io", ["Nation", "Artist"]),
        }
    )
    instance = DatabaseInstance(
        schema,
        {
            "r1": [
                ("Domenico Modugno", "Italy", 1928),
                ("Adriano Celentano", "Italy", 1938),
                ("Edith Piaf", "France", 1915),
            ],
            "r2": [
                ("volare", 1958, "Domenico Modugno"),
                ("azzurro", 1968, "Adriano Celentano"),
                ("la vie en rose", 1946, "Edith Piaf"),
            ],
            "r3": [
                ("Italy", "Domenico Modugno"),
                ("Italy", "Adriano Celentano"),
                ("France", "Edith Piaf"),
            ],
        },
    )
    return Example(
        name="running-example",
        schema=schema,
        instance=instance,
        query_text="q(N) <- r1(A, N, Y1), r2('volare', Y2, A)",
        expected_answers=frozenset({("Italy",)}),
    )


def chain_example(length: int = 3, width: int = 4) -> Example:
    """A synthetic chain ``free -> s1 -> s2 -> ...`` used by tests and the CLI.

    ``free^oo(D0, D1)`` seeds values; each ``s_k^ioo(D_k, D_{k+1}, Aux)``
    consumes the previous stage's output.  The query joins the whole chain.
    ``width`` controls how many distinct values flow through each stage.
    Every stage also has a ``junk_k^io(D_k, Aux)`` relation that does not
    occur in the query: the naive strategy accesses it with every value of
    ``D_k`` while the plan-based strategies prune it as irrelevant: the
    access-count gap the paper's optimization is about.
    """
    if length < 1:
        raise ValueError("chain_example needs length >= 1")
    signatures = {"free": ("oo", ["D0", "D1"])}
    for k in range(1, length + 1):
        signatures[f"s{k}"] = ("ioo", [f"D{k}", f"D{k + 1}", "Aux"])
        signatures[f"junk{k}"] = ("io", [f"D{k}", "Aux"])
    schema = Schema.from_signatures(signatures)

    instance = DatabaseInstance(schema)
    for i in range(width):
        instance.add_tuple("free", (f"v0_{i}", f"v1_{i}"))
    for k in range(1, length + 1):
        for i in range(width):
            instance.add_tuple(f"s{k}", (f"v{k}_{i}", f"v{k + 1}_{i}", f"aux{k}_{i}"))
            instance.add_tuple(f"junk{k}", (f"v{k}_{i}", f"junkaux{k}_{i}"))

    body = ["free(X0, X1)"]
    for k in range(1, length + 1):
        body.append(f"s{k}(X{k}, X{k + 1}, A{k})")
    query_text = f"q(X{length + 1}) <- " + ", ".join(body)
    expected = frozenset({(f"v{length + 1}_{i}",) for i in range(width)})
    return Example(
        name=f"chain-{length}x{width}",
        schema=schema,
        instance=instance,
        query_text=query_text,
        expected_answers=expected,
    )


def wide_fanout_example(width: int = 36, fanout: int = 28) -> Example:
    """A workload with a very wide middle tier, stressing binding generation.

    ``seed^oo(D1, Aux)`` emits ``width`` values; ``fan^ioo(D1, D2, Aux)``
    expands each of them into ``fanout`` distinct mid-tier values; and
    ``collect^ioo(D2, D3, Aux)`` maps every mid-tier value to one answer, so
    the collect cache accumulates ``width * fanout`` input values one access
    at a time.  An executor that re-enumerates the full provider cross
    product on every pass does quadratic work in that tier, while the
    delta-driven generators touch each value once.  ``junk^io(D2, Aux)``
    does not occur in the query and is pruned by the plan-based strategies,
    exactly like the chain's junk relations.
    """
    if width < 1 or fanout < 1:
        raise ValueError("wide_fanout_example needs width >= 1 and fanout >= 1")
    schema = Schema.from_signatures(
        {
            "seed": ("oo", ["D1", "Aux"]),
            "fan": ("ioo", ["D1", "D2", "Aux"]),
            "collect": ("ioo", ["D2", "D3", "Aux"]),
            "junk": ("io", ["D2", "Aux"]),
        }
    )
    instance = DatabaseInstance(schema)
    for i in range(width):
        instance.add_tuple("seed", (f"u{i}", f"sa{i}"))
        for j in range(fanout):
            mid = f"m{i}_{j}"
            instance.add_tuple("fan", (f"u{i}", mid, f"fa{i}_{j}"))
            instance.add_tuple("collect", (mid, f"z{i}_{j}", f"ca{i}_{j}"))
            instance.add_tuple("junk", (mid, f"ja{i}_{j}"))
    query_text = "q(X3) <- seed(X1, A0), fan(X1, X2, A1), collect(X2, X3, A2)"
    expected = frozenset(
        {(f"z{i}_{j}",) for i in range(width) for j in range(fanout)}
    )
    return Example(
        name=f"wide-fanout-{width}x{fanout}",
        schema=schema,
        instance=instance,
        query_text=query_text,
        expected_answers=expected,
    )


def _cutoff(count: int, selectivity: float) -> int:
    """How many of ``count`` seed values survive a join of the given selectivity."""
    if not 0.0 < selectivity <= 1.0:
        raise ValueError("selectivity must be in (0, 1]")
    return max(1, int(count * selectivity))


def star_example(rays: int = 3, width: int = 6, selectivity: float = 1.0) -> Example:
    """A star topology: one free hub joined with ``rays`` independent spokes.

    ``hub^oo(D0, Aux)`` emits ``width`` values; each ``spoke_k^ioo(D0, S_k,
    Aux)`` answers for the first ``width * selectivity`` of them.  The query
    joins the hub with every spoke, so a hub value is an answer only when
    *all* spokes know it.  All spokes depend only on the hub — the d-graph
    is one source fanning out to ``rays`` mutually independent sources,
    which is the best case for parallel dispatch (every spoke can run
    concurrently) and the worst case for a scheduler that serializes
    positions.  ``noise^io(D0, Aux)`` does not occur in the query and is
    pruned by the plan-based strategies.
    """
    if rays < 1 or width < 1:
        raise ValueError("star_example needs rays >= 1 and width >= 1")
    keep = _cutoff(width, selectivity)
    signatures = {"hub": ("oo", ["D0", "Aux"]), "noise": ("io", ["D0", "Aux"])}
    for k in range(1, rays + 1):
        signatures[f"spoke{k}"] = ("ioo", ["D0", f"S{k}", "Aux"])
    schema = Schema.from_signatures(signatures)

    instance = DatabaseInstance(schema)
    for i in range(width):
        instance.add_tuple("hub", (f"h{i}", f"ha{i}"))
        instance.add_tuple("noise", (f"h{i}", f"na{i}"))
        if i < keep:
            for k in range(1, rays + 1):
                instance.add_tuple(f"spoke{k}", (f"h{i}", f"s{k}_{i}", f"sa{k}_{i}"))

    body = ["hub(X0, A0)"]
    for k in range(1, rays + 1):
        body.append(f"spoke{k}(X0, Y{k}, B{k})")
    query_text = "q(X0) <- " + ", ".join(body)
    expected = frozenset({(f"h{i}",) for i in range(keep)})
    return Example(
        name=f"star-{rays}x{width}",
        schema=schema,
        instance=instance,
        query_text=query_text,
        expected_answers=expected,
    )


def diamond_example(width: int = 8, selectivity: float = 1.0) -> Example:
    """A diamond topology: one source splits into two branches that re-join.

    ``src^oo(D0, Aux)`` emits ``width`` values; ``left^ioo(D0, DL, Aux)``
    and ``right^ioo(D0, DR, Aux)`` map each of them to a branch value; and
    ``sink^iio(DL, DR, Aux)`` requires *both* branch values as input — its
    cache has two domain providers, so a binding is enabled only when the
    left and the right branch have both delivered (the conjunctive-provider
    path of the binding generator).  ``selectivity`` is the fraction of
    branch pairs the sink actually relates.
    """
    if width < 1:
        raise ValueError("diamond_example needs width >= 1")
    keep = _cutoff(width, selectivity)
    schema = Schema.from_signatures(
        {
            "src": ("oo", ["D0", "Aux"]),
            "left": ("ioo", ["D0", "DL", "Aux"]),
            "right": ("ioo", ["D0", "DR", "Aux"]),
            "sink": ("iio", ["DL", "DR", "Out"]),
        }
    )
    instance = DatabaseInstance(schema)
    for i in range(width):
        instance.add_tuple("src", (f"v{i}", f"va{i}"))
        instance.add_tuple("left", (f"v{i}", f"l{i}", f"la{i}"))
        instance.add_tuple("right", (f"v{i}", f"r{i}", f"ra{i}"))
        if i < keep:
            instance.add_tuple("sink", (f"l{i}", f"r{i}", f"z{i}"))
    query_text = "q(Z) <- src(X, A0), left(X, L, A1), right(X, R, A2), sink(L, R, Z)"
    expected = frozenset({(f"z{i}",) for i in range(keep)})
    return Example(
        name=f"diamond-{width}",
        schema=schema,
        instance=instance,
        query_text=query_text,
        expected_answers=expected,
    )


def skewed_fanout_example(
    keys: int = 6,
    hot_keys: int = 1,
    hot_fanout: int = 32,
    cold_fanout: int = 2,
) -> Example:
    """A fanout workload with heavy key skew: a few hot keys, many cold ones.

    Like :func:`wide_fanout_example` but the first ``hot_keys`` seed values
    expand into ``hot_fanout`` mid-tier values each while the rest expand
    into ``cold_fanout`` — so one wrapper's queue dwarfs the others', which
    is what distinguishes schedulers that overlap sources from ones that
    round-robin them.  ``junk^io(D2, Aux)`` is irrelevant for the query.
    """
    if keys < 1 or hot_keys < 0 or hot_keys > keys:
        raise ValueError("skewed_fanout_example needs keys >= 1 and 0 <= hot_keys <= keys")
    if hot_fanout < 1 or cold_fanout < 1:
        raise ValueError("skewed_fanout_example needs positive fanouts")
    schema = Schema.from_signatures(
        {
            "seed": ("oo", ["D1", "Aux"]),
            "fan": ("ioo", ["D1", "D2", "Aux"]),
            "collect": ("ioo", ["D2", "D3", "Aux"]),
            "junk": ("io", ["D2", "Aux"]),
        }
    )
    instance = DatabaseInstance(schema)
    expected = set()
    for i in range(keys):
        instance.add_tuple("seed", (f"u{i}", f"sa{i}"))
        fanout = hot_fanout if i < hot_keys else cold_fanout
        for j in range(fanout):
            mid = f"m{i}_{j}"
            instance.add_tuple("fan", (f"u{i}", mid, f"fa{i}_{j}"))
            instance.add_tuple("collect", (mid, f"z{i}_{j}", f"ca{i}_{j}"))
            instance.add_tuple("junk", (mid, f"ja{i}_{j}"))
            expected.add((f"z{i}_{j}",))
    query_text = "q(X3) <- seed(X1, A0), fan(X1, X2, A1), collect(X2, X3, A2)"
    return Example(
        name=f"skewed-fanout-{keys}x{hot_fanout}/{cold_fanout}",
        schema=schema,
        instance=instance,
        query_text=query_text,
        expected_answers=frozenset(expected),
    )


def _zipf_fanouts(keys: int, total_rows: int, exponent: float) -> list:
    """Deterministic zipf-ish fanout per key: ``fanout_k`` ∝ ``1/(k+1)^s``.

    Scaled so the fanouts sum to roughly ``total_rows`` (each key keeps at
    least one row).  No randomness: the same parameters always produce the
    same skew, so scale scenarios stay reproducible and carry exact
    expected answers.
    """
    weights = [1.0 / float(k + 1) ** exponent for k in range(keys)]
    scale = total_rows / sum(weights)
    return [max(1, int(round(weight * scale))) for weight in weights]


def zipf_fanout_example(
    keys: int = 50, fan_rows: int = 1000, exponent: float = 1.1
) -> Example:
    """The scale tier's skewed fanout: zipf-distributed key popularity.

    Same three-tier shape as :func:`wide_fanout_example` (``seed`` → ``fan``
    → ``collect`` plus an irrelevant ``junk``), but the number of mid-tier
    values per seed key follows a deterministic zipf law — the first key
    expands into a large fraction of all ``fan_rows`` rows while the tail
    keys expand into a handful.  At ``fan_rows=3500`` the instance holds
    over 10⁴ tuples, which is what the slow scale test runs.
    The skew stresses exactly what uniform fanout cannot: one wrapper's
    queue and one cache's delta stream dwarf all the others.
    """
    if keys < 1 or fan_rows < keys:
        raise ValueError("zipf_fanout_example needs keys >= 1 and fan_rows >= keys")
    if exponent <= 0.0:
        raise ValueError("zipf_fanout_example needs exponent > 0")
    schema = Schema.from_signatures(
        {
            "seed": ("oo", ["D1", "Aux"]),
            "fan": ("ioo", ["D1", "D2", "Aux"]),
            "collect": ("ioo", ["D2", "D3", "Aux"]),
            "junk": ("io", ["D2", "Aux"]),
        }
    )
    fanouts = _zipf_fanouts(keys, fan_rows, exponent)
    instance = DatabaseInstance(schema)
    expected = set()
    for i, fanout in enumerate(fanouts):
        instance.add_tuple("seed", (f"u{i}", f"sa{i}"))
        for j in range(fanout):
            mid = f"m{i}_{j}"
            instance.add_tuple("fan", (f"u{i}", mid, f"fa{i}_{j}"))
            instance.add_tuple("collect", (mid, f"z{i}_{j}", f"ca{i}_{j}"))
            instance.add_tuple("junk", (mid, f"ja{i}_{j}"))
            expected.add((f"z{i}_{j}",))
    return Example(
        name=f"zipf-fanout-{keys}x{fan_rows}@{exponent}",
        schema=schema,
        instance=instance,
        query_text="q(X3) <- seed(X1, A0), fan(X1, X2, A1), collect(X2, X3, A2)",
        expected_answers=frozenset(expected),
    )


def deep_cycle_example(size: int = 1000, seeds: int = 2, hops: int = 3) -> Example:
    """The scale tier's cyclic d-graph: a large ring pumped to fixpoint.

    Like :func:`cyclic_example` but sized for the 10⁴-tuple tier and with a
    parameterized number of query hops.  ``step^ioo(D1, D1, Aux)`` maps
    every ring value to its successor — output and input share one abstract
    domain, so the d-graph has a genuine cycle.  The contrast at scale: the
    ⊂-minimal plan proves each hop only needs the previous hop's outputs
    and stops after ``hops + seeds``-ish accesses, while the naive baseline
    pours every retrieved value back into its pool and pumps the *entire*
    ring through ``step`` — ``size`` accesses driven one delta at a time,
    the worst case for an executor that re-scans full pool contents per
    pass.
    """
    if size < 1 or not 1 <= seeds <= size:
        raise ValueError("deep_cycle_example needs size >= 1 and 1 <= seeds <= size")
    if hops < 1:
        raise ValueError("deep_cycle_example needs hops >= 1")
    schema = Schema.from_signatures(
        {
            "seed": ("oo", ["D1", "Aux"]),
            "step": ("ioo", ["D1", "D1", "Aux"]),
        }
    )
    instance = DatabaseInstance(schema)
    for i in range(seeds):
        instance.add_tuple("seed", (f"v{i}", f"sa{i}"))
    for i in range(size):
        instance.add_tuple("step", (f"v{i}", f"v{(i + 1) % size}", f"ta{i}"))
    body = ["seed(X0, A0)"]
    for h in range(1, hops + 1):
        body.append(f"step(X{h - 1}, X{h}, B{h})")
    query_text = f"q(X{hops}) <- " + ", ".join(body)
    expected = frozenset({(f"v{(i + hops) % size}",) for i in range(seeds)})
    return Example(
        name=f"deep-cycle-{size}x{seeds}h{hops}",
        schema=schema,
        instance=instance,
        query_text=query_text,
        expected_answers=expected,
    )


def cyclic_example(size: int = 8, seeds: int = 2) -> Example:
    """A cyclic d-graph: a relation whose output feeds its own input domain.

    ``step^ioo(D1, D1, Aux)`` maps every ring value to its successor, so the
    step cache is one of its own domain providers — the dependency graph has
    a genuine cycle and the fixpoint pumps the whole ring through the cache
    even though the query only takes two hops from the ``seeds`` entry
    points emitted by ``seed^oo(D1, Aux)``.
    """
    if size < 1 or not 1 <= seeds <= size:
        raise ValueError("cyclic_example needs size >= 1 and 1 <= seeds <= size")
    schema = Schema.from_signatures(
        {
            "seed": ("oo", ["D1", "Aux"]),
            "step": ("ioo", ["D1", "D1", "Aux"]),
        }
    )
    instance = DatabaseInstance(schema)
    for i in range(seeds):
        instance.add_tuple("seed", (f"v{i}", f"sa{i}"))
    for i in range(size):
        instance.add_tuple("step", (f"v{i}", f"v{(i + 1) % size}", f"ta{i}"))
    query_text = "q(Z) <- seed(X, A0), step(X, Y, A1), step(Y, Z, A2)"
    expected = frozenset({(f"v{(i + 2) % size}",) for i in range(seeds)})
    return Example(
        name=f"cycle-{size}x{seeds}",
        schema=schema,
        instance=instance,
        query_text=query_text,
        expected_answers=expected,
    )


def chaos_example(width: int = 8, rays: int = 3, selectivity: float = 1.0) -> Example:
    """The fault-tolerance stress topology: a star with a joined tail stage.

    ``hub^oo(D0, Aux)`` emits ``width`` values; each ``spoke_k^ioo(D0,
    S_k, Aux)`` answers for the surviving fraction; ``tail^ioo(S1, Out,
    Aux)`` maps the first spoke's values to the answers.  The shape mixes
    the failure modes that matter: independent parallel sources (the
    spokes — one flaky spoke starves the whole join), a second-hop
    dependency (the tail — an upstream failure silently empties it), and
    an irrelevant ``noise^io(D0, Aux)`` relation that only the naive
    strategy touches.  The topology itself is deterministic; faults are
    injected on top via :class:`~repro.sources.faults.FlakyBackend`
    (``repro run --scenario chaos --fail rate=0.2``), so
    ``expected_answers`` is always the fault-free answer set that a
    ``Result.complete`` execution must reproduce exactly.
    """
    if width < 1 or rays < 1:
        raise ValueError("chaos_example needs width >= 1 and rays >= 1")
    keep = _cutoff(width, selectivity)
    signatures = {
        "hub": ("oo", ["D0", "Aux"]),
        "noise": ("io", ["D0", "Aux"]),
        "tail": ("ioo", ["S1", "Out", "Aux"]),
    }
    for k in range(1, rays + 1):
        signatures[f"spoke{k}"] = ("ioo", ["D0", f"S{k}", "Aux"])
    schema = Schema.from_signatures(signatures)

    instance = DatabaseInstance(schema)
    for i in range(width):
        instance.add_tuple("hub", (f"h{i}", f"ha{i}"))
        instance.add_tuple("noise", (f"h{i}", f"na{i}"))
        if i < keep:
            for k in range(1, rays + 1):
                instance.add_tuple(f"spoke{k}", (f"h{i}", f"s{k}_{i}", f"sa{k}_{i}"))
            instance.add_tuple("tail", (f"s1_{i}", f"z{i}", f"ta{i}"))

    body = ["hub(X0, A0)"]
    for k in range(1, rays + 1):
        body.append(f"spoke{k}(X0, Y{k}, B{k})")
    body.append("tail(Y1, Z, C0)")
    query_text = "q(Z) <- " + ", ".join(body)
    expected = frozenset({(f"z{i}",) for i in range(keep)})
    return Example(
        name=f"chaos-{rays}x{width}",
        schema=schema,
        instance=instance,
        query_text=query_text,
        expected_answers=expected,
    )


def empty_branch_example(
    width: int = 8, fanout: int = 16, empty_name: str = "zempty"
) -> Example:
    """A query with an empty answer and a choice of access order.

    ``seed^oo(D0, Aux)`` emits ``width`` keys that feed two independent
    branches: an expensive one — ``big^ioo(D0, T, Aux)`` with ``fanout``
    rows per key, each feeding one access to ``tail^io(T, Z)`` — and a
    cheap one, ``<empty_name>^io(D0, E)``, which has no tuples at all.  The
    answer is empty, and fast-failing can prove it after ``1 + width +
    width`` accesses (seed, ``big``, the empty relation) — if the empty
    relation is populated before ``tail``.  The ordering constraints allow
    either order; the plan's static positions break the tie between
    ``tail`` and the empty relation by name, so the default order makes
    all ``width * fanout`` ``tail`` accesses first when the name sorts
    after ``tail`` (``zempty``: 145 accesses) and none when it sorts
    before (``aempty``: 17).  ``optimizer="cost"`` reads 17 either way.
    """
    if width < 1 or fanout < 1:
        raise ValueError("empty_branch_example needs width >= 1 and fanout >= 1")
    if not empty_name.isidentifier() or empty_name in ("seed", "big", "tail"):
        raise ValueError(f"empty_branch_example cannot name a relation {empty_name!r}")
    schema = Schema.from_signatures(
        {
            "seed": ("oo", ["D0", "Aux"]),
            "big": ("ioo", ["D0", "T", "Aux"]),
            "tail": ("io", ["T", "Z"]),
            empty_name: ("io", ["D0", "E"]),
        }
    )
    instance = DatabaseInstance(schema)
    for i in range(width):
        instance.add_tuple("seed", (f"u{i}", f"sa{i}"))
        for j in range(fanout):
            instance.add_tuple("big", (f"u{i}", f"t{i}_{j}", f"ba{i}_{j}"))
            instance.add_tuple("tail", (f"t{i}_{j}", f"z{i}_{j}"))
    query_text = f"q(Z) <- seed(X, A0), big(X, T, A1), tail(T, Z), {empty_name}(X, E)"
    return Example(
        name=f"empty-branch-{width}x{fanout}-{empty_name}",
        schema=schema,
        instance=instance,
        query_text=query_text,
        expected_answers=frozenset(),
    )


#: The scenario-generator registry: name -> parameterized Example factory.
SCENARIOS: Dict[str, Callable[..., Example]] = {
    "running": running_example,
    "chain": chain_example,
    "wide-fanout": wide_fanout_example,
    "star": star_example,
    "diamond": diamond_example,
    "skewed-fanout": skewed_fanout_example,
    "cycle": cyclic_example,
    "chaos": chaos_example,
    "empty-branch": empty_branch_example,
    "zipf-fanout": zipf_fanout_example,
    "deep-cycle": deep_cycle_example,
}


@dataclass(frozen=True)
class WorkloadQuery:
    """One query of a mixed workload, with its expected answers."""

    text: str
    expected_answers: FrozenSet[Tuple[object, ...]]
    scenario: str


@dataclass(frozen=True)
class MixedWorkload:
    """Several scenario topologies merged into one engine-ready workload.

    The relations (and abstract domains) of every constituent scenario are
    prefixed with a per-scenario alias, so the merged schema keeps the
    scenarios' d-graphs disjoint: each query plans exactly as it would
    standalone, and queries of different scenarios touch disjoint sources —
    the shape of a multi-tenant query stream.  Queries repeat ``repeat``
    times, so a session replaying the stream exercises its meta-caches.
    """

    name: str
    schema: Schema
    instance: DatabaseInstance
    queries: Tuple[WorkloadQuery, ...]

    def query_texts(self) -> Tuple[str, ...]:
        return tuple(query.text for query in self.queries)


def mixed_workload(
    mix: Tuple[str, ...] = ("star", "diamond", "chain"),
    repeat: int = 2,
) -> MixedWorkload:
    """Build a mixed multi-scenario workload for concurrent execution.

    Args:
        mix: scenario names from :data:`SCENARIOS` (defaults keep the
            instance small enough for tests and CI smoke runs).
        repeat: how many times each scenario's query appears in the stream;
            repeats after the first are answerable entirely from a
            session's meta-caches.
    """
    if repeat < 1:
        raise ReproError("mixed_workload needs repeat >= 1")
    if not mix:
        raise ReproError("mixed_workload needs at least one scenario")
    from repro.query.atoms import Atom
    from repro.query.parser import parse_query

    schema = Schema()
    instance: DatabaseInstance
    merged_tuples = []
    per_scenario: list[WorkloadQuery] = []
    for index, scenario in enumerate(mix):
        example = make_scenario(scenario)
        alias = f"w{index}_"
        for relation in example.schema:
            schema.add_relation(
                alias + relation.name,
                str(relation.pattern),
                [alias + domain.name for domain in relation.domains],
            )
        for relation_instance in example.instance:
            merged_tuples.append(
                (alias + relation_instance.schema.name, relation_instance.as_set())
            )
        parsed = parse_query(example.query_text)
        rewritten = parsed.with_body(
            [Atom(alias + atom.predicate, atom.terms) for atom in parsed.body]
        )
        per_scenario.append(
            WorkloadQuery(
                text=str(rewritten),
                expected_answers=example.expected_answers,
                scenario=scenario,
            )
        )
    instance = DatabaseInstance(schema)
    for name, rows in merged_tuples:
        instance.add_tuples(name, rows)
    queries = tuple(per_scenario) * repeat
    return MixedWorkload(
        name="+".join(mix) + f"-x{repeat}",
        schema=schema,
        instance=instance,
        queries=queries,
    )


def make_scenario(name: str, **params: object) -> Example:
    """Build a scenario by registry name, forwarding keyword parameters.

    Raises :class:`~repro.exceptions.ReproError` for unknown names and for
    parameters the generator rejects, so CLI callers get a clean message.
    """
    try:
        factory = SCENARIOS[name]
    except KeyError:
        available = ", ".join(sorted(SCENARIOS))
        raise ReproError(f"unknown scenario {name!r}; available: {available}") from None
    try:
        return factory(**params)  # type: ignore[arg-type]
    except (TypeError, ValueError) as error:
        raise ReproError(f"cannot build scenario {name!r}: {error}") from None
