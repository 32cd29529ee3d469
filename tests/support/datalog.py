"""Bottom-up evaluation of positive Datalog programs, as a test reference.

The evaluator implements the standard semi-naive strategy: at every round,
each rule is evaluated requiring at least one body atom to match a tuple that
is new since the previous round, until no rule derives anything new.  EDB
predicates can be served either from explicit facts or through an
:class:`EdbCallback`.  It evaluates a plan's Datalog view
(``PreparedPlan.to_datalog()``) for oracle B (:mod:`support.generated`);
rule bodies go through the reference evaluator (:mod:`support.evaluate`),
so the oracle shares no evaluator with the engine.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.datalog.program import DatalogProgram, Rule
from repro.query.atoms import Atom
from repro.query.terms import Constant
from support.evaluate import evaluate_conjunction
from support.substitution import Substitution

Row = Tuple[object, ...]
Extension = Dict[str, Set[Row]]

#: Callback invoked for EDB predicates that have no explicit facts.  It
#: receives the predicate name and must return the (current) extension.
EdbCallback = Callable[[str], Iterable[Row]]


def _ground_head(rule: Rule, substitution: Substitution) -> Optional[Row]:
    """Instantiate the head of a rule under a substitution; None if non-ground."""
    row: List[object] = []
    for term in rule.head.terms:
        value = substitution.apply(term)
        if isinstance(value, Constant):
            row.append(value.value)
        else:
            return None
    return tuple(row)


def evaluate_rule_once(
    rule: Rule,
    extensions: Mapping[str, Iterable[Row]],
) -> Set[Row]:
    """Evaluate one rule against the given extensions and return derived head rows."""
    derived: Set[Row] = set()
    for substitution in evaluate_conjunction(rule.body, extensions):
        head_row = _ground_head(rule, substitution)
        if head_row is not None:
            derived.add(head_row)
    return derived


def _evaluate_rule_seminaive(
    rule: Rule,
    extensions: Extension,
    delta: Mapping[str, Set[Row]],
) -> Set[Row]:
    """Evaluate a rule requiring at least one body atom to use a delta tuple.

    The classical semi-naive rewriting evaluates, for each body atom over a
    predicate with a non-empty delta, a version of the rule in which that atom
    ranges over the delta and the preceding atoms range over the full
    extensions.  For the small rule bodies produced by the plan generator the
    simpler formulation below (full evaluation of one delta-restricted copy
    per position) is entirely adequate.
    """
    derived: Set[Row] = set()
    for pivot, atom in enumerate(rule.body):
        pivot_delta = delta.get(atom.predicate)
        if not pivot_delta:
            continue
        restricted: Dict[str, Iterable[Row]] = dict(extensions)
        # Only the pivot atom is restricted to the delta; other occurrences of
        # the same predicate keep the full extension, which is achieved by
        # renaming the pivot predicate apart.
        pivot_predicate = f"__delta__{atom.predicate}__{pivot}"
        restricted[pivot_predicate] = pivot_delta
        body = list(rule.body)
        body[pivot] = Atom(pivot_predicate, atom.terms)
        for substitution in evaluate_conjunction(body, restricted):
            head_row = _ground_head(rule, substitution)
            if head_row is not None:
                derived.add(head_row)
    return derived


def evaluate_program(
    program: DatalogProgram,
    edb: Optional[Mapping[str, Iterable[Row]]] = None,
    edb_callback: Optional[EdbCallback] = None,
    max_rounds: Optional[int] = None,
) -> Dict[str, Set[Row]]:
    """Compute the least fixpoint of ``program``.

    Args:
        program: the Datalog program to evaluate.
        edb: extensions of the EDB predicates (merged with the program's own
            facts; program facts win on conflicts by union).
        edb_callback: optional callback consulted once per EDB predicate that
            has neither explicit facts nor an ``edb`` entry.
        max_rounds: optional safety bound on the number of fixpoint rounds.

    Returns:
        A dict mapping every predicate (EDB and IDB) to its final extension.
    """
    extensions: Extension = {}
    for predicate, rows in program.facts.items():
        extensions.setdefault(predicate, set()).update(rows)
    if edb:
        for predicate, rows in edb.items():
            extensions.setdefault(predicate, set()).update(tuple(row) for row in rows)
    if edb_callback is not None:
        for predicate in program.edb_predicates():
            if predicate not in extensions:
                extensions[predicate] = {tuple(row) for row in edb_callback(predicate)}
    for predicate in program.idb_predicates():
        extensions.setdefault(predicate, set())

    # Initial round: plain (naive) evaluation seeds the deltas.
    delta: Dict[str, Set[Row]] = {}
    for rule in program.rules:
        new_rows = evaluate_rule_once(rule, extensions) - extensions[rule.head.predicate]
        if new_rows:
            extensions[rule.head.predicate].update(new_rows)
            delta.setdefault(rule.head.predicate, set()).update(new_rows)

    rounds = 0
    while delta:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            break
        next_delta: Dict[str, Set[Row]] = {}
        for rule in program.rules:
            if not any(atom.predicate in delta for atom in rule.body):
                continue
            new_rows = (
                _evaluate_rule_seminaive(rule, extensions, delta)
                - extensions[rule.head.predicate]
            )
            if new_rows:
                extensions[rule.head.predicate].update(new_rows)
                next_delta.setdefault(rule.head.predicate, set()).update(new_rows)
        delta = next_delta
    return extensions
