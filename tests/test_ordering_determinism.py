"""The source ordering must be deterministic and hash-seed independent.

``repro.util.algorithms.condensation`` iterates adjacency *sets*, whose
order depends on string hashing; :func:`repro.graph.ordering.ordering_constraints`
is where that wobble is normalized away.  These tests pin the contract two
ways: in-process (the constraint system is canonical, every container
sorted) and across interpreter processes launched with different
``PYTHONHASHSEED`` values (the ordering is byte-identical).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.examples import make_scenario, running_example
from repro.graph import analyze_relevance, compute_ordering
from repro.graph.ordering import ordering_constraints
from repro.query import parse_query

SCENARIO_SPECS = (
    ("running", {}),
    ("chain", {"length": 3, "width": 2}),
    ("star", {"rays": 3, "width": 2}),
    ("diamond", {"width": 2}),
    ("cycle", {"size": 4, "seeds": 1}),
    ("empty-branch", {"width": 2, "fanout": 3}),
)

#: Run in a fresh interpreter: print, for every scenario, the ordering groups
#: and the canonical constraint system.  Any hash-seed dependence left in the
#: pipeline shows up as differing stdout between seeds.
_PROBE = """
import json
from repro.examples import make_scenario, running_example
from repro.graph import analyze_relevance, compute_ordering
from repro.graph.ordering import ordering_constraints
from repro.query import parse_query

specs = {specs!r}
out = {{}}
for name, params in specs:
    example = running_example() if name == "running" else make_scenario(name, **params)
    query = parse_query(example.query_text)
    analysis = analyze_relevance(query, example.schema)
    ordering = compute_ordering(analysis.optimized)
    constraints = ordering_constraints(analysis.optimized)
    out[name] = {{
        "groups": [list(group) for group in ordering.groups],
        "positions": dict(sorted(ordering.positions.items())),
        "unique": ordering.is_unique,
        "predecessors": [list(before) for before in ordering.predecessors],
        "dag": {{
            ",".join(group): [",".join(s) for s in successors]
            for group, successors in sorted(constraints.successors.items())
        }},
        "strict": [list(edge) for edge in constraints.strict_edges],
    }}
print(json.dumps(out, sort_keys=True))
""".format(specs=SCENARIO_SPECS)


def _probe_output(hash_seed: str) -> str:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return completed.stdout


def test_ordering_is_hash_seed_independent() -> None:
    outputs = {seed: _probe_output(seed) for seed in ("0", "1", "4242")}
    baseline = outputs["0"]
    assert baseline.strip(), "probe produced no output"
    for seed, output in outputs.items():
        assert output == baseline, f"ordering differs under PYTHONHASHSEED={seed}"


def _constraints_for(example):
    query = parse_query(example.query_text)
    analysis = analyze_relevance(query, example.schema)
    return analysis, ordering_constraints(analysis.optimized)


@pytest.mark.parametrize("name,params", SCENARIO_SPECS)
def test_constraint_system_is_canonical(name: str, params: dict) -> None:
    example = running_example() if name == "running" else make_scenario(name, **params)
    _analysis, constraints = _constraints_for(example)
    assert list(constraints.groups) == sorted(constraints.groups)
    for group in constraints.groups:
        assert list(group) == sorted(group)
        for successor in constraints.successors[group]:
            assert successor in constraints.groups
        assert list(constraints.successors[group]) == sorted(constraints.successors[group])
    assert list(constraints.strict_edges) == sorted(constraints.strict_edges)


@pytest.mark.parametrize("name,params", SCENARIO_SPECS)
def test_computed_ordering_is_admissible(name: str, params: dict) -> None:
    example = running_example() if name == "running" else make_scenario(name, **params)
    analysis, constraints = _constraints_for(example)
    ordering = compute_ordering(analysis.optimized)
    # compute_ordering linearizes exactly the constraint groups ...
    assert sorted(ordering.groups) == sorted(constraints.groups)
    # ... in an admissible (topological) order.
    assert constraints.is_admissible(ordering.groups)
    for source_id, position in ordering.positions.items():
        assert constraints.group_of(source_id) == ordering.groups[position - 1]
    # The ordering keeps the DAG it linearized, as positions.
    before = constraints.predecessors()
    for position, group in enumerate(ordering.groups, start=1):
        assert [ordering.groups[p - 1] for p in ordering.predecessors_of(position)] == sorted(
            before[group], key=ordering.groups.index
        )
        assert all(p < position for p in ordering.predecessors_of(position))


def test_inadmissible_sequences_are_rejected() -> None:
    _analysis, constraints = _constraints_for(running_example())
    ordering = compute_ordering(_analysis.optimized)
    assert len(ordering.groups) >= 2
    reversed_groups = tuple(reversed(ordering.groups))
    assert not constraints.is_admissible(reversed_groups)
    # Wrong group multiset: dropping a group is never admissible.
    assert not constraints.is_admissible(ordering.groups[:-1])


def test_predecessors_mirror_successors() -> None:
    _analysis, constraints = _constraints_for(make_scenario("diamond", width=2))
    predecessors = constraints.predecessors()
    for group, successors in constraints.successors.items():
        for successor in successors:
            assert group in predecessors[successor]
    edge_count = sum(len(successors) for successors in constraints.successors.values())
    assert edge_count == sum(len(befores) for befores in predecessors.values())


def test_join_first_heuristic_only_breaks_ties() -> None:
    """Switching the heuristic off still yields an admissible linearization."""
    analysis, constraints = _constraints_for(make_scenario("star", rays=3, width=2))
    with_heuristic = compute_ordering(analysis.optimized, join_first_heuristic=True)
    without = compute_ordering(analysis.optimized, join_first_heuristic=False)
    assert constraints.is_admissible(with_heuristic.groups)
    assert constraints.is_admissible(without.groups)
    assert with_heuristic.is_unique == without.is_unique
