"""Exception hierarchy for the ``repro`` library.

All exceptions raised by the library derive from :class:`ReproError`, so that
callers can catch any library-specific failure with a single ``except``
clause while still being able to discriminate finer-grained conditions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library.

    Every error can carry the offending ``query`` and/or ``plan`` so that
    callers of the public :mod:`repro.engine` API can recover the context of
    a failure programmatically (both default to ``None``).
    """

    def __init__(self, *args: object, query: object = None, plan: object = None) -> None:
        super().__init__(*args)
        self.query = query
        self.plan = plan

    def with_context(self, *, query: object = None, plan: object = None) -> "ReproError":
        """Attach query/plan context in place (keeps the original traceback)."""
        if query is not None and self.query is None:
            self.query = query
        if plan is not None and self.plan is None:
            self.plan = plan
        return self


class SchemaError(ReproError):
    """A schema object is malformed or used inconsistently.

    Raised, for instance, when an access pattern length does not match the
    number of abstract domains of a relation schema, or when two different
    relation schemata with the same name are added to a schema.
    """


class InstanceError(ReproError):
    """A database instance violates its schema.

    Raised when a tuple has the wrong arity for its relation, or when a
    relation instance is created for a relation that is not in the schema.
    """


class QueryError(ReproError):
    """A query is syntactically or semantically malformed.

    Raised, for instance, when an atom's arity does not match the arity of
    the corresponding relation schema, or when a head variable does not
    appear in the body of a conjunctive query.
    """


class ParseError(QueryError):
    """A textual query or rule could not be parsed."""


class UnanswerableQueryError(QueryError):
    """The query mentions a relation that is not queryable.

    Following Section II of the paper, a query is *answerable* if and only if
    no non-queryable relation occurs in it; plans are only generated for
    answerable queries.
    """


class PlanError(ReproError):
    """A query plan could not be generated or is internally inconsistent."""


class OrderingError(PlanError):
    """No consistent ordering of the sources of an optimized d-graph exists.

    This should not happen for solutions produced by the GFP algorithm; the
    exception exists to signal violations of that invariant (e.g. a strong
    arc found inside a cycle of the source-level ordering graph).
    """


class ExecutionError(ReproError):
    """A query plan failed during execution."""


class AccessError(ExecutionError):
    """An illegal access was attempted against a source.

    Raised when an access tuple does not bind every input argument of the
    target relation, or binds it with a value of the wrong abstract domain.
    """


class DatalogError(ReproError):
    """A Datalog program is malformed (e.g. an unsafe rule)."""


class EngineError(ReproError):
    """A failure at the :mod:`repro.engine` façade boundary.

    Raised when the engine is constructed or used inconsistently (e.g. a
    source registry over a different schema than the engine's).
    """


class StrategyError(EngineError):
    """An execution strategy is unknown or unusable.

    Raised by the strategy registry when a strategy name does not resolve,
    or when a strategy is asked for a capability it lacks (e.g. streaming).
    """
