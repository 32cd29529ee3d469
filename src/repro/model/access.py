"""Access modes and access patterns.

An *access pattern* is a sequence of ``i`` (input) and ``o`` (output) symbols,
one per argument of a relation.  Input arguments must be bound with a
constant before the relation can be queried; output arguments are returned by
the access.  A relation whose pattern contains no ``i`` is *free*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Sequence, Tuple, Union

from repro.exceptions import SchemaError


class AccessMode(enum.Enum):
    """Access mode of a single relation argument."""

    INPUT = "i"
    OUTPUT = "o"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_symbol(cls, symbol: str) -> "AccessMode":
        """Parse a one-character mode symbol (``'i'`` or ``'o'``)."""
        normalized = symbol.lower()
        if normalized == "i":
            return cls.INPUT
        if normalized == "o":
            return cls.OUTPUT
        raise SchemaError(f"invalid access mode symbol: {symbol!r} (expected 'i' or 'o')")

    @property
    def is_input(self) -> bool:
        return self is AccessMode.INPUT

    @property
    def is_output(self) -> bool:
        return self is AccessMode.OUTPUT


ModesLike = Union[str, Sequence[AccessMode]]


@dataclass(frozen=True)
class AccessPattern:
    """An immutable sequence of :class:`AccessMode` values.

    Instances are usually built from the compact string notation of the
    paper, e.g. ``AccessPattern.parse("ooi")`` for a ternary relation whose
    third argument is an input argument.
    """

    modes: Tuple[AccessMode, ...]
    #: Zero-based positions of the input arguments, in order.
    input_positions: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: Zero-based positions of the output arguments, in order.
    output_positions: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.modes, tuple):
            object.__setattr__(self, "modes", tuple(self.modes))
        for mode in self.modes:
            if not isinstance(mode, AccessMode):
                raise SchemaError(f"access pattern contains a non-mode element: {mode!r}")
        # Derived once: planner and kernel read these on every source they touch.
        object.__setattr__(
            self, "input_positions", tuple(i for i, m in enumerate(self.modes) if m.is_input)
        )
        object.__setattr__(
            self, "output_positions", tuple(i for i, m in enumerate(self.modes) if m.is_output)
        )

    # -- construction -----------------------------------------------------
    @classmethod
    def parse(cls, pattern: ModesLike) -> "AccessPattern":
        """Build an access pattern from a string such as ``"ioo"``.

        Sequences of :class:`AccessMode` are accepted as well, which makes
        the constructor usable in generic code.
        """
        if isinstance(pattern, AccessPattern):
            return pattern
        if isinstance(pattern, str):
            return cls(tuple(AccessMode.from_symbol(symbol) for symbol in pattern))
        return cls(tuple(pattern))

    # -- inspection --------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of arguments covered by the pattern."""
        return len(self.modes)

    @property
    def is_free(self) -> bool:
        """True when the pattern has no input argument."""
        return not self.input_positions

    def mode_at(self, position: int) -> AccessMode:
        """Mode of the argument at the given zero-based position."""
        return self.modes[position]

    # -- dunder ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.modes)

    def __iter__(self) -> Iterator[AccessMode]:
        return iter(self.modes)

    def __getitem__(self, position: int) -> AccessMode:
        return self.modes[position]

    def __str__(self) -> str:
        return "".join(mode.value for mode in self.modes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AccessPattern({str(self)!r})"
