"""The ``explain()`` pipeline: a structured account of how a plan was built.

An :class:`Explanation` packages everything the planning pipeline derived —
the minimized query, d-graph statistics, the marked arcs of the GFP
solution, relevance, the source ordering, every cache predicate with its
domain providers, and the Datalog rendering — in one inspectable object
with both a human-readable :meth:`~Explanation.describe` and a
JSON-serializable :meth:`~Explanation.to_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.prepared import PreparedPlan


@dataclass(frozen=True)
class ArcInfo:
    """One arc of the d-graph with the mark the GFP solution gave it."""

    arc: str
    mark: str


@dataclass(frozen=True)
class ProviderInfo:
    """How one input argument of a cache obtains its values."""

    input_position: int
    predicate: str
    conjunctive: bool
    origins: Tuple[Tuple[str, int], ...]

    def render(self) -> str:
        connector = " AND " if self.conjunctive else " OR "
        rendered = connector.join(f"{cache}[{pos}]" for cache, pos in self.origins)
        return f"{self.predicate} := {rendered or '(no provider)'}"


@dataclass(frozen=True)
class CacheInfo:
    """One cache predicate of the plan, flattened for inspection."""

    name: str
    relation: str
    position: int
    kind: str  # "query-atom" | "auxiliary" | "artificial"
    providers: Tuple[ProviderInfo, ...]


@dataclass(frozen=True)
class Explanation:
    """Everything the planner derived for one query.

    Attributes:
        query: the query as posed.
        minimized_query: the Chandra–Merlin-minimal equivalent actually
            planned.
        answerable: whether a plan producing all obtainable answers exists.
        relevant_relations / irrelevant_relations: the relevance split of the
            schema (irrelevant relations are never accessed by the plan).
        dgraph_stats: arc counts by mark plus graph size (Figure 10 raw
            material).
        arcs: every arc of the d-graph with its mark (strong / weak /
            deleted).
        ordering_groups: source ids per ordering position (sources sharing a
            group lie on a cyclic d-path).
        ordering_unique: True when exactly one ordering is possible.
        admits_forall_minimal_plan: the ∀-minimality condition of Section IV.
        caches: every cache predicate with its providers.
        datalog: the plan rendered as the Datalog program of Section IV.
        kernel_profile: the runtime kernel's per-phase profile of the most
            recent execution (offer / dispatch / absorb / answer-check
            timings and counters), or None when the plan has not run.
    """

    query: str
    minimized_query: str
    answerable: bool
    relevant_relations: Tuple[str, ...]
    irrelevant_relations: Tuple[str, ...]
    dgraph_stats: Dict[str, int]
    arcs: Tuple[ArcInfo, ...]
    ordering_groups: Tuple[Tuple[str, ...], ...]
    ordering_unique: bool
    admits_forall_minimal_plan: bool
    caches: Tuple[CacheInfo, ...]
    datalog: str
    kernel_profile: Optional[Dict[str, object]] = None

    # -- rendering -----------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable view (used by the CLI's ``explain --json``)."""
        payload: Dict[str, object] = {
            "query": self.query,
            "minimized_query": self.minimized_query,
            "answerable": self.answerable,
            "relevant_relations": list(self.relevant_relations),
            "irrelevant_relations": list(self.irrelevant_relations),
            "dgraph_stats": dict(self.dgraph_stats),
            "arcs": [{"arc": arc.arc, "mark": arc.mark} for arc in self.arcs],
            "ordering": {
                "groups": [list(group) for group in self.ordering_groups],
                "unique": self.ordering_unique,
                "admits_forall_minimal_plan": self.admits_forall_minimal_plan,
            },
            "caches": [
                {
                    "name": cache.name,
                    "relation": cache.relation,
                    "position": cache.position,
                    "kind": cache.kind,
                    "providers": [provider.render() for provider in cache.providers],
                }
                for cache in self.caches
            ],
            "datalog": self.datalog,
        }
        if self.kernel_profile is not None:
            payload["kernel_profile"] = self.kernel_profile
        return payload

    def describe(self) -> str:
        """Multi-line human-readable explanation."""
        lines: List[str] = []
        lines.append(f"query        : {self.query}")
        if self.minimized_query != self.query:
            lines.append(f"minimized    : {self.minimized_query}")
        lines.append(f"answerable   : {self.answerable}")
        lines.append(f"relevant     : {list(self.relevant_relations)}")
        lines.append(f"irrelevant   : {list(self.irrelevant_relations)}")
        lines.append(
            "d-graph      : "
            + ", ".join(f"{key}={value}" for key, value in sorted(self.dgraph_stats.items()))
        )
        lines.append("arcs:")
        for arc in self.arcs:
            lines.append(f"  [{arc.mark:>7}] {arc.arc}")
        ordering = " < ".join("{" + ", ".join(group) + "}" for group in self.ordering_groups)
        lines.append(f"ordering     : {ordering or '(empty)'}")
        lines.append(f"unique order : {self.ordering_unique}")
        lines.append(f"forall-minimal plan exists: {self.admits_forall_minimal_plan}")
        lines.append("caches:")
        for cache in self.caches:
            lines.append(f"  pos {cache.position}: {cache.name} over {cache.relation} ({cache.kind})")
            for provider in cache.providers:
                lines.append(f"      arg {provider.input_position}: {provider.render()}")
        lines.append("datalog program:")
        for line in self.datalog.splitlines():
            lines.append(f"  {line}")
        if self.kernel_profile is not None:
            lines.append("kernel profile (last run):")
            timings = self.kernel_profile.get("timings_seconds") or {}
            counters = self.kernel_profile.get("counters") or {}
            for phase in ("offer", "dispatch", "absorb", "answer_check"):
                seconds = timings.get(phase)
                if seconds is not None:
                    lines.append(f"  {phase:<12}: {float(seconds) * 1000.0:.2f} ms")
            lines.append(
                "  completions : {completions} in {completion_batches} batches".format(
                    completions=counters.get("completions", 0),
                    completion_batches=counters.get("completion_batches", 0),
                )
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


def build_explanation(prepared: "PreparedPlan") -> Explanation:
    """Assemble the explanation of a prepared plan."""
    plan = prepared.plan
    analysis = plan.analysis

    arcs = tuple(
        ArcInfo(arc=str(arc), mark=str(analysis.marked.mark_of(arc)))
        for arc in sorted(analysis.graph.arcs, key=str)
    )

    caches: List[CacheInfo] = []
    for cache in sorted(plan.caches.values(), key=lambda c: (c.position, c.name)):
        kind = (
            "artificial"
            if cache.is_artificial
            else ("query-atom" if cache.is_query_cache else "auxiliary")
        )
        providers = tuple(
            ProviderInfo(
                input_position=provider.input_position,
                predicate=provider.predicate,
                conjunctive=provider.conjunctive,
                origins=provider.origins,
            )
            for provider in cache.providers
        )
        caches.append(
            CacheInfo(
                name=cache.name,
                relation=cache.relation.name,
                position=cache.position,
                kind=kind,
                providers=providers,
            )
        )

    profile = getattr(prepared, "last_kernel_profile", None)
    return Explanation(
        query=str(plan.original_query),
        minimized_query=str(plan.minimized_query),
        answerable=plan.answerable,
        relevant_relations=tuple(sorted(plan.relevant_relations)),
        irrelevant_relations=tuple(sorted(plan.irrelevant_relations)),
        dgraph_stats=analysis.arc_statistics(),
        arcs=arcs,
        ordering_groups=plan.ordering.groups,
        ordering_unique=plan.ordering.is_unique,
        admits_forall_minimal_plan=plan.admits_forall_minimal_plan,
        caches=tuple(caches),
        datalog=str(plan.to_datalog()),
        kernel_profile=profile.to_dict() if profile is not None else None,
    )
