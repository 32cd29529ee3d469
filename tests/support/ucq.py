"""The scale tier's UCQ workload: one shared prefix, several collect tails."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from repro.examples import _zipf_fanouts
from repro.exceptions import ReproError
from repro.model.instance import DatabaseInstance
from repro.model.schema import Schema


@dataclass(frozen=True)
class UCQWorkload:
    """A union of conjunctive queries over one shared schema and instance.

    The engine evaluates conjunctive queries; a UCQ runs as one engine
    session executing every branch and unioning the answer sets.  Because
    all branches share the session's meta-caches, the accesses common to
    several branches (here: the whole ``seed``/``fan`` prefix) are performed
    exactly once for the whole union — the session-level "never repeat an
    access" invariant applied across the branches of one query.

    Attributes:
        name: workload identifier (carries the size parameters).
        schema / instance: the shared database.
        branch_queries: one conjunctive query text per UCQ branch.
        expected_union: the union of the branches' expected answers.
    """

    name: str
    schema: Schema
    instance: DatabaseInstance
    branch_queries: Tuple[str, ...]
    expected_union: FrozenSet[Tuple[object, ...]]


def ucq_fanout_workload(
    keys: int = 20, fan_rows: int = 400, branches: int = 3, exponent: float = 1.1
) -> UCQWorkload:
    """A UCQ over a zipf-skewed fanout: one shared prefix, many collect tails.

    ``seed^oo`` and ``fan^ioo`` form the shared prefix (fanouts zipf-skewed
    as in :func:`zipf_fanout_example`); each branch ``b`` has its own
    ``collect{b}^ioo`` tail, and the UCQ is the union of the per-branch
    three-atom chains.  Branch answer sets are disjoint by construction, so
    ``expected_union`` has ``branches * fan_rows``-ish rows and any
    duplicate suppression bug shows up as a count mismatch.
    """
    if branches < 1:
        raise ReproError("ucq_fanout_workload needs branches >= 1")
    if keys < 1 or fan_rows < keys:
        raise ReproError("ucq_fanout_workload needs keys >= 1 and fan_rows >= keys")
    signatures: Dict[str, Tuple[str, list]] = {
        "seed": ("oo", ["D1", "Aux"]),
        "fan": ("ioo", ["D1", "D2", "Aux"]),
    }
    for b in range(1, branches + 1):
        signatures[f"collect{b}"] = ("ioo", ["D2", f"D3_{b}", "Aux"])
    schema = Schema.from_signatures(signatures)
    fanouts = _zipf_fanouts(keys, fan_rows, exponent)
    instance = DatabaseInstance(schema)
    expected = set()
    for i, fanout in enumerate(fanouts):
        instance.add_tuple("seed", (f"u{i}", f"sa{i}"))
        for j in range(fanout):
            mid = f"m{i}_{j}"
            instance.add_tuple("fan", (f"u{i}", mid, f"fa{i}_{j}"))
            for b in range(1, branches + 1):
                instance.add_tuple(f"collect{b}", (mid, f"z{b}_{i}_{j}", f"ca{b}_{i}_{j}"))
                expected.add((f"z{b}_{i}_{j}",))
    queries = tuple(
        f"q(X3) <- seed(X1, A0), fan(X1, X2, A1), collect{b}(X2, X3, A2)"
        for b in range(1, branches + 1)
    )
    return UCQWorkload(
        name=f"ucq-fanout-{keys}x{fan_rows}u{branches}",
        schema=schema,
        instance=instance,
        branch_queries=queries,
        expected_union=frozenset(expected),
    )
