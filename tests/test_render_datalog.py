"""The test references for d-paths and the Datalog view of plans.

:mod:`support.dpath` (d-paths, free-reachability of input nodes) and
:mod:`support.datalog` (bottom-up semi-naive evaluation of a plan's Datalog
view, Section IV) are references the other suites check the engine
against; these tests pin their own contracts: the free-reachability
invariant on a marked d-graph, simple d-path enumeration, and the fixpoint
of :func:`support.datalog.evaluate_program` agreeing with the engine's
answers.
"""

from __future__ import annotations

import pytest

from repro import Engine
from repro.datalog.program import DatalogProgram, Rule
from repro.examples import cyclic_example, running_example
from repro.graph import analyze_relevance
from repro.query import parse_query
from repro.query.atoms import Atom
from repro.query.terms import Constant, Variable
from support.datalog import evaluate_program, evaluate_rule_once
from support.dpath import (
    all_black_inputs_free_reachable,
    d_paths_from_free_sources,
    free_reachable_nodes,
    reaches_black_node,
    unreachable_black_inputs,
)


@pytest.fixture()
def analysis():
    example = running_example()
    return analyze_relevance(parse_query(example.query_text), example.schema)


# -- d-paths and free-reachability ------------------------------------------------
def test_black_inputs_of_answerable_query_are_free_reachable(analysis) -> None:
    # The GFP invariant: every black input node stays free-reachable.
    assert all_black_inputs_free_reachable(analysis.marked)
    assert unreachable_black_inputs(analysis.marked) == []
    reachable = free_reachable_nodes(analysis.marked)
    black_inputs = {
        node
        for source in analysis.marked.graph.black_sources()
        for node in source.input_nodes
    }
    assert black_inputs <= reachable


def test_d_paths_start_free_and_reach_the_black_sources(analysis) -> None:
    paths = d_paths_from_free_sources(analysis.graph)
    assert paths, "the running example has at least the volare chain"
    free_ids = {source.source_id for source in analysis.graph.free_sources()}
    for path in paths:
        assert path[0].tail.source_id in free_ids
        # Simple paths never revisit a source.
        visited = [arc.head.source_id for arc in path]
        assert len(visited) == len(set(visited))
    assert any(reaches_black_node(path) for path in paths)


def test_d_paths_respect_the_max_paths_bound(analysis) -> None:
    assert len(d_paths_from_free_sources(analysis.graph, max_paths=1)) == 1


def test_d_paths_over_a_restricted_arc_set(analysis) -> None:
    from repro.graph.gfp import ArcMark

    surviving = [
        arc
        for arc in analysis.graph.arcs
        if analysis.marked.mark_of(arc) is not ArcMark.DELETED
    ]
    paths = d_paths_from_free_sources(analysis.graph, arcs=surviving)
    deleted = set(analysis.graph.arcs) - set(surviving)
    assert paths
    for path in paths:
        assert not (set(path) & deleted)


# -- bottom-up Datalog evaluation ---------------------------------------------------
def _var(name: str) -> Variable:
    return Variable(name)


def test_evaluate_rule_once_grounds_heads() -> None:
    rule = Rule(
        head=Atom("out", (_var("X"), Constant("tag"))),
        body=[Atom("edge", (_var("X"), _var("Y")))],
    )
    derived = evaluate_rule_once(rule, {"edge": {("a", "b"), ("b", "c")}})
    assert derived == {("a", "tag"), ("b", "tag")}


def _closure_program() -> DatalogProgram:
    program = DatalogProgram()
    program.add_rule(
        Rule(head=Atom("path", (_var("X"), _var("Y"))), body=[Atom("edge", (_var("X"), _var("Y")))])
    )
    program.add_rule(
        Rule(
            head=Atom("path", (_var("X"), _var("Z"))),
            body=[Atom("path", (_var("X"), _var("Y"))), Atom("edge", (_var("Y"), _var("Z")))],
        )
    )
    return program


def test_transitive_closure_reaches_the_fixpoint() -> None:
    edges = {("a", "b"), ("b", "c"), ("c", "d")}
    result = evaluate_program(_closure_program(), edb={"edge": edges})
    assert result["path"] == {
        ("a", "b"), ("b", "c"), ("c", "d"),
        ("a", "c"), ("b", "d"), ("a", "d"),
    }


def test_max_rounds_truncates_the_fixpoint() -> None:
    edges = {(f"n{i}", f"n{i + 1}") for i in range(6)}
    full = evaluate_program(_closure_program(), edb={"edge": edges})
    truncated = evaluate_program(_closure_program(), edb={"edge": edges}, max_rounds=1)
    assert truncated["path"] < full["path"]


def test_edb_callback_serves_missing_predicates() -> None:
    seen = []

    def callback(predicate: str):
        seen.append(predicate)
        return {("a", "b")}

    result = evaluate_program(_closure_program(), edb_callback=callback)
    assert seen == ["edge"]
    assert result["path"] == {("a", "b")}


@pytest.mark.parametrize("example_factory", [running_example, cyclic_example])
def test_plan_datalog_program_agrees_with_the_engine(example_factory) -> None:
    # The Datalog view of a plan (Section IV), evaluated bottom-up over the
    # full source extensions, derives exactly the engine's answers for the
    # query predicate.
    example = example_factory()
    with Engine(example.schema, example.instance) as engine:
        prepared = engine.plan(example.query_text)
        answers = prepared.execute(strategy="fast_fail").answers
        program = prepared.to_datalog()
    extensions = evaluate_program(
        program,
        edb_callback=lambda predicate: example.instance[predicate].as_set(),
    )
    head = prepared.plan.rewritten_query.head_predicate
    assert extensions[head] == answers == example.expected_answers
