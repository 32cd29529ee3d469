"""Edge cases of the ordering and queryability analyses.

Degenerate shapes the mainline scenario tests never hit: empty constraint
systems, plans with a single source, cyclic d-graphs (sources sharing a
position), branching d-graphs (no unique ordering, hence no ∀-minimal
plan), and queries blocked by non-queryable relations — or merely next to
one, which a plan must leave out.
"""

from __future__ import annotations

import pytest

# The fuzz suite's case generator, shared with the fingerprint tool.
from behaviour_fingerprint import SEEDS, generate_case

from repro.examples import SCENARIOS, make_scenario
from repro.graph import analyze_relevance, compute_ordering
from repro.graph.ordering import OrderingConstraints, SourceOrdering, ordering_constraints
from repro.graph.queryability import (
    analyze_queryability,
    is_answerable,
    non_queryable_relations,
    obtainable_domains,
    queryable_relations,
)
from repro.model.domains import AbstractDomain
from repro.model.schema import Schema
from repro.plan.minimal import MinimalPlanGenerator
from repro.query import parse_query


def _ordering_for(example):
    query = parse_query(example.query_text)
    analysis = analyze_relevance(query, example.schema)
    return analysis, compute_ordering(analysis.optimized)


# -- ordering: degenerate constraint systems -----------------------------------


def test_empty_constraint_system() -> None:
    constraints = OrderingConstraints(groups=(), successors={})
    assert constraints.is_admissible(())
    assert not constraints.is_admissible((("ghost",),))
    assert constraints.predecessors() == {}
    assert constraints.strict_edges == ()


def test_empty_source_ordering_renders() -> None:
    ordering = SourceOrdering(positions={}, groups=(), is_unique=True)
    assert ordering.number_of_positions == 0
    assert str(ordering) == "(empty ordering)"
    assert ordering.admits_forall_minimal_plan


def test_single_source_plan() -> None:
    """A single free relation: one source, one group, trivially unique."""
    schema = Schema.from_signatures({"r": ("oo", ["D", "Aux"])})
    query = parse_query("q(X) <- r(X, A)")
    analysis = analyze_relevance(query, schema)
    ordering = compute_ordering(analysis.optimized)
    assert ordering.number_of_positions == 1
    assert ordering.is_unique
    assert ordering.admits_forall_minimal_plan
    (group,) = ordering.groups
    assert len(group) == 1
    assert ordering.sources_at(1) == group
    assert ordering.position_of(group[0]) == 1
    constraints = ordering_constraints(analysis.optimized)
    assert constraints.groups == (group,)
    assert constraints.successors[group] == ()


def test_cyclic_dgraph_sources_share_a_position() -> None:
    """Two sources providing for each other: a genuine cyclic d-path.

    ``fwd`` needs ``back``'s output and vice versa (the seed only primes
    the pump), so the GFP solution keeps both arcs of the cycle, marked
    weak, and the ordering puts both sources at the same position.
    """
    schema = Schema.from_signatures(
        {
            "seed": ("ooo", ["D3", "D2", "Aux"]),
            "fwd": ("iio", ["D1", "D3", "D2"]),
            "back": ("io", ["D2", "D1"]),
        }
    )
    query = parse_query("q(Y) <- seed(S, B, A), fwd(X, S, Y), back(Y, X)")
    assert is_answerable(query, schema)
    analysis = analyze_relevance(query, schema)
    ordering = compute_ordering(analysis.optimized)
    assert ordering.number_of_positions == 2
    cyclic_group = ordering.sources_at(2)
    assert sorted(cyclic_group) == ["back#1", "fwd#1"]
    assert ordering.position_of("back#1") == ordering.position_of("fwd#1")
    # The cyclic arcs are weak, so no strict edge crosses the group.
    constraints = ordering_constraints(analysis.optimized)
    assert constraints.group_of("back#1") == constraints.group_of("fwd#1")
    assert constraints.strict_edges == ()
    # The condensation is a chain: unique ordering, and by Section IV a
    # ∀-minimal plan exists despite the cycle.
    assert ordering.is_unique
    assert ordering.admits_forall_minimal_plan


def test_branching_dgraph_admits_no_forall_minimal_plan() -> None:
    """Two incomparable spokes: several orderings, hence no ∀-minimal plan."""
    analysis, ordering = _ordering_for(make_scenario("star", rays=2, width=2))
    assert not ordering.is_unique
    assert not ordering.admits_forall_minimal_plan
    # Every linearization is still admissible — non-uniqueness only means
    # the *choice* among them is heuristic.
    constraints = ordering_constraints(analysis.optimized)
    assert constraints.is_admissible(ordering.groups)


# -- queryability ---------------------------------------------------------------


def _song_schema() -> Schema:
    return Schema.from_signatures(
        {
            "r1": ("ioo", ["Artist", "Nation", "Year"]),
            "r2": ("ioo", ["Song", "Year", "Artist"]),
            "r3": ("io", ["Nation", "Artist"]),
        }
    )


def test_constants_seed_the_obtainable_domains() -> None:
    schema = _song_schema()
    query = parse_query("q(N) <- r1(A, N, Y1), r2('volare', Y2, A)")
    domains = obtainable_domains(query, schema)
    # 'volare' seeds Song; r2 yields Year and Artist; r1 yields Nation.
    assert {AbstractDomain("Song"), AbstractDomain("Artist"), AbstractDomain("Nation")} <= set(
        domains
    )
    assert queryable_relations(query, schema) == frozenset({"r1", "r2", "r3"})
    assert non_queryable_relations(query, schema) == frozenset()
    assert is_answerable(query, schema)


def test_constantless_query_over_limited_relations_is_blocked() -> None:
    """No constants, no free relation: nothing is obtainable at all."""
    schema = _song_schema()
    query = parse_query("q(N) <- r1(A, N, Y)")
    assert obtainable_domains(query, schema) == frozenset()
    assert queryable_relations(query, schema) == frozenset()
    assert non_queryable_relations(query, schema) == frozenset({"r1", "r2", "r3"})
    report = analyze_queryability(query, schema)
    assert not report.answerable
    assert report.offending_atoms == ("r1(A, N, Y)",)
    assert "NOT answerable" in str(report)


def test_free_relations_are_always_queryable() -> None:
    """A free relation needs no input values, so it seeds the fixpoint."""
    schema = Schema.from_signatures(
        {
            "free": ("oo", ["D", "Aux"]),
            "needs_d": ("io", ["D", "Out"]),
            "unreachable": ("io", ["Other", "D"]),
        }
    )
    query = parse_query("q(X) <- free(V, A), needs_d(V, X)")
    assert queryable_relations(query, schema) == frozenset({"free", "needs_d"})
    assert non_queryable_relations(query, schema) == frozenset({"unreachable"})
    # The non-queryable relation does not occur in the query: still answerable.
    assert is_answerable(query, schema)
    report = analyze_queryability(query, schema)
    assert report.answerable
    assert report.offending_atoms == ()
    assert "answerable" in str(report)


def test_query_touching_a_non_queryable_relation_is_unanswerable() -> None:
    schema = Schema.from_signatures(
        {
            "free": ("oo", ["D", "Aux"]),
            "blocked": ("io", ["Other", "D"]),
        }
    )
    query = parse_query("q(X) <- free(V, A), blocked(W, X)")
    assert non_queryable_relations(query, schema) == frozenset({"blocked"})
    assert not is_answerable(query, schema)
    report = analyze_queryability(query, schema)
    assert not report.answerable
    assert len(report.offending_atoms) == 1


def _assert_plan_leaves_out_the_non_queryable(schema: Schema, query_text: str) -> None:
    query = parse_query(query_text)
    plan = MinimalPlanGenerator(schema).generate(query)
    assert not plan.relevant_relations & non_queryable_relations(query, schema)
    # Every provider predicate the program reads is one of its rule heads.
    program = plan.to_datalog()
    providers = {
        predicate
        for rule in program
        for predicate in rule.body_predicates()
        if predicate.startswith("s_")
    }
    assert providers <= program.idb_predicates(), providers - program.idb_predicates()


def test_a_plan_leaves_out_a_relation_it_can_never_access() -> None:
    # Nothing yields a B, so s can never be accessed; it used to stay in the
    # d-graph as a white source, get a cache and feed u through a provider
    # ``s_s_hat_0`` that no rule defines.
    schema = Schema.from_signatures(
        {
            "r": ("i", ["A"]),
            "t": ("o", ["C"]),
            "u": ("io", ["C", "A"]),
            "s": ("io", ["B", "C"]),
        }
    )
    query = parse_query("q(X) <- r(X)")
    assert non_queryable_relations(query, schema) == frozenset({"s"})
    plan = MinimalPlanGenerator(schema).generate(query)
    assert plan.relevant_relations == frozenset({"r", "t", "u"})
    assert "s" in plan.irrelevant_relations
    assert "s_s_hat_0" not in str(plan.to_datalog())
    _assert_plan_leaves_out_the_non_queryable(schema, "q(X) <- r(X)")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_no_scenario_plan_keeps_a_non_queryable_relation(name: str) -> None:
    example = make_scenario(name)
    _assert_plan_leaves_out_the_non_queryable(example.schema, example.query_text)


@pytest.mark.parametrize("seed", SEEDS)
def test_no_fuzz_case_plan_keeps_a_non_queryable_relation(seed: int) -> None:
    example, _ = generate_case(seed)
    _assert_plan_leaves_out_the_non_queryable(example.schema, example.query_text)
