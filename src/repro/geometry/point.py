"""Exact 2-D points.

Coordinates are exact rationals (`int` or :class:`fractions.Fraction`);
floats are rejected so geometric predicates never suffer rounding error.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Tuple, Union

Coordinate = Union[int, Fraction]


def check_coordinate(value) -> Coordinate:
    """Validate one coordinate, rejecting floats and other inexact types."""
    if isinstance(value, bool):
        raise TypeError("coordinates must be int or Fraction, got bool")
    if isinstance(value, Rational):
        return value
    raise TypeError(
        f"coordinates must be exact rationals (int or Fraction), got "
        f"{type(value).__name__}"
    )


class Point:
    """An exact point on the plane."""

    __slots__ = ("x", "y")

    def __init__(self, x: Coordinate, y: Coordinate):
        self.x = check_coordinate(x)
        self.y = check_coordinate(y)

    def __reduce__(self):
        return (Point, (self.x, self.y))

    def __setstate__(self, state) -> None:
        """Decode the slot-state records of streams written before
        :meth:`__reduce__` existed, re-checking both coordinates."""
        slots = state[1]
        self.x = check_coordinate(slots["x"])
        self.y = check_coordinate(slots["y"])

    def as_tuple(self) -> Tuple[Coordinate, Coordinate]:
        return (self.x, self.y)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __lt__(self, other: "Point") -> bool:
        """Lexicographic (x, y) order — the sweep/endpoint order."""
        return (self.x, self.y) < (other.x, other.y)

    def __le__(self, other: "Point") -> bool:
        return (self.x, self.y) <= (other.x, other.y)

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        return f"Point({self.x!r}, {self.y!r})"
