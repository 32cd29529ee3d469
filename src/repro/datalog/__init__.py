"""A small Datalog substrate.

Query plans in the paper are expressed as Datalog programs (Section IV) and
evaluated under the usual least-fixpoint semantics, augmented with the
fast-failing execution strategy.  This package provides the program
representation — :class:`~repro.datalog.program.Rule` and
:class:`~repro.datalog.program.DatalogProgram`, positive Datalog rules and
programs with facts — that ``PreparedPlan.to_datalog()`` returns.  The
engine never evaluates one: it runs the plan's compiled join programs.  A
bottom-up evaluator of these programs is a reference the tests keep.
"""

from repro.datalog.program import DatalogProgram, Rule

__all__ = [
    "DatalogProgram",
    "Rule",
]
