"""Small self-contained utilities shared by the rest of the library."""

from repro.util.algorithms import (
    condensation,
    has_unique_topological_order,
    strongly_connected_components,
    topological_sort,
)

__all__ = [
    "condensation",
    "has_unique_topological_order",
    "strongly_connected_components",
    "topological_sort",
]
