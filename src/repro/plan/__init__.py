"""Query plans: data structures and generation.

* :mod:`~repro.plan.plan` — the plan data structures (cache predicates,
  provider specifications, the rewritten query and the Datalog rendering);
* :mod:`~repro.plan.minimal` — generation of a ⊂-minimal plan from the
  optimized d-graph (Section IV);
* :mod:`~repro.plan.bindings` — delta-driven binding generation over the
  cache tables' value logs.

Executing a plan is not this package's business: the fixpoint loop, the
scheduling policies of the paper's three evaluation methods and the
dispatchers live in :mod:`repro.runtime`, and the engine's execution
driver (:mod:`repro.engine.strategies`) pairs them.
"""

from repro.plan.minimal import MinimalPlanGenerator, generate_minimal_plan
from repro.plan.plan import CachePredicate, ProviderSpec, QueryPlan

__all__ = [
    "CachePredicate",
    "MinimalPlanGenerator",
    "ProviderSpec",
    "QueryPlan",
    "generate_minimal_plan",
]
