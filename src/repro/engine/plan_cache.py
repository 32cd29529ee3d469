"""Plan reuse: one ⊂-minimal plan per query *shape*.

The planning pipeline (minimize → eliminate constants → d-graph → GFP →
ordering → plan) looks at a constant only through *which positions hold the
same constant* and the abstract domains of those positions; the value
itself enters the plan as the single fact of its artificial relation.  Two
queries that differ only in their constants therefore have the same plan up
to those facts.

The *shape* of a query is the query with every distinct constant replaced
by a numbered :class:`Parameter`, in order of first occurrence (body, then
head): ``q(N) <- r1(A, N, Y), r2('volare', Y2, A)`` has the shape
``q(N) <- r1(A, N, Y), r2($1, Y2, A)``.  Variable names and atom order stay
literal.  The engine plans the shape once, keeps the resulting
:class:`~repro.plan.plan.QueryPlan` in a bounded LRU, and *binds* it to
each query's own constants.  Misses and hits go through the same
plan-the-shape-then-bind path, so nothing a caller can observe depends on
whether a plan was cached or on which constants were seen first.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.plan.minimal import MinimalPlanGenerator
from repro.plan.plan import QueryPlan
from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.terms import Constant, Term

#: Shapes an engine keeps planned.  Fixed: shapes are chosen by clients, and
#: a long-running server must not grow with them.
PLAN_CACHE_ENTRIES = 256

#: ``(head predicate, head labels, ((predicate, labels), ...))`` — a label is
#: a variable's name or a constant's parameter index.
ShapeKey = Hashable


@dataclass(frozen=True)
class Parameter:
    """Stand-in value for the ``index``-th distinct constant of a query."""

    index: int

    def __str__(self) -> str:
        return f"${self.index + 1}"


def query_shape(query: ConjunctiveQuery) -> Tuple[ShapeKey, Tuple[Constant, ...]]:
    """The cache key of ``query``'s shape and its distinct constants, in parameter order.

    Equal constants share a parameter, so the equality pattern among the
    constants — which minimization and the per-(constant, domain) artificial
    relations depend on — is part of the key.
    """
    # Keyed on the value: two constants are equal exactly when their values are.
    numbering: Dict[object, int] = {}
    constants: List[Constant] = []
    labelled: List[Tuple[object, ...]] = []
    for terms in [atom.terms for atom in query.body] + [query.head_terms]:
        labels: List[object] = []
        for term in terms:
            if type(term) is Constant:
                index = numbering.get(term.value)
                if index is None:
                    index = numbering[term.value] = len(constants)
                    constants.append(term)
                labels.append(index)
            else:
                labels.append(term.name)
        labelled.append(tuple(labels))
    head = labelled.pop()
    body = tuple(zip([atom.predicate for atom in query.body], labelled))
    return (query.head_predicate, head, body), tuple(constants)


def _map_terms(query: ConjunctiveQuery, swap: Callable[[Term], Term]) -> ConjunctiveQuery:
    """``query`` with every term swapped — only ever a constant for a constant,
    so the result is as valid as ``query`` and is built without re-checking."""
    return ConjunctiveQuery.trusted(
        query.head_predicate,
        tuple(map(swap, query.head_terms)),
        tuple([Atom.trusted(atom.predicate, tuple(map(swap, atom.terms))) for atom in query.body]),
    )


def parameterize(query: ConjunctiveQuery, constants: Tuple[Constant, ...]) -> ConjunctiveQuery:
    """``query`` with ``constants[i]`` replaced by ``Constant(Parameter(i))``."""
    stand_in = {constant: Constant(Parameter(index)) for index, constant in enumerate(constants)}
    return _map_terms(query, lambda term: stand_in.get(term, term))


def bind_plan(
    template: QueryPlan, query: ConjunctiveQuery, constants: Tuple[Constant, ...]
) -> QueryPlan:
    """The plan of ``query``, given the plan of its shape.

    Rebinds what carries values — ``original_query``, ``minimized_query``,
    ``constant_facts`` and the head of ``rewritten_query``.  Everything
    structural (``preprocessed``, ``analysis``, ``ordering``, ``caches``) is
    shared with the template and stays expressed over the shape: artificial
    relations and their variables are named after parameters (``c__1_Title``),
    never after a value.

    The swapped queries are built with the trusted constructors: a parameter
    is swapped for a constant and nothing else changes, so each stays as
    valid as the template's checked one.  The copy shares every other field
    with the template by reference.
    """
    if not constants:
        return template

    def bound(term: Term) -> Term:
        return constants[term.value.index] if type(term) is Constant else term

    if template.minimized_query is template.original_query:
        minimized = query
    else:
        minimized = _map_terms(template.minimized_query, bound)
    rewritten = template.rewritten_query
    if template.compiled.head_constants:
        rewritten = _map_terms(rewritten, bound)
    facts = {}
    for relation_name, rows in template.constant_facts.items():
        ((parameter,),) = rows
        facts[relation_name] = frozenset({(constants[parameter.index].value,)})
    plan = object.__new__(QueryPlan)
    plan.__dict__.update(
        template.__dict__,
        original_query=query,
        minimized_query=minimized,
        constant_facts=facts,
        rewritten_query=rewritten,
    )
    return plan


class PlanCache:
    """Plans queries through ``generator``, once per shape.

    A thread-safe LRU of shape plans with hit/miss accounting.  Only
    successful plans are stored.  Two threads missing the same shape both
    plan it; planning is deterministic, so whichever stores last changes
    nothing.
    """

    def __init__(self, generator: MinimalPlanGenerator) -> None:
        self._generator = generator
        self._lock = threading.Lock()
        self._plans: "OrderedDict[ShapeKey, QueryPlan]" = OrderedDict()
        self._hits = self._misses = self._evictions = 0

    def plan(self, query: ConjunctiveQuery) -> QueryPlan:
        """The ⊂-minimal plan of ``query``: its shape's plan, bound to its constants."""
        shape, constants = query_shape(query)
        template = self._lookup(shape)
        if template is None:
            try:
                template = self._generator.generate(parameterize(query, constants))
            except ReproError:
                # Planning does not look at values, so the query itself fails
                # the same way — with a message that reads in its constants.
                self._generator.generate(query)
                raise
            self._store(shape, template)
        return bind_plan(template, query, constants)

    def _lookup(self, shape: ShapeKey) -> Optional[QueryPlan]:
        with self._lock:
            plan = self._plans.get(shape)
            if plan is None:
                self._misses += 1
            else:
                self._hits += 1
                self._plans.move_to_end(shape)
            return plan

    def _store(self, shape: ShapeKey, plan: QueryPlan) -> None:
        with self._lock:
            self._plans[shape] = plan
            self._plans.move_to_end(shape)
            if len(self._plans) > PLAN_CACHE_ENTRIES:
                self._plans.popitem(last=False)
                self._evictions += 1

    def stats(self) -> Dict[str, object]:
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
                "entries": len(self._plans),
                "evictions": self._evictions,
            }
