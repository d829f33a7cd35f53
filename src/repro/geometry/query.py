"""Generalized vertical query segments.

The paper's queries are *generalized segments* — a line, a ray, or a segment
— with a fixed direction, taken vertical w.l.o.g. (footnote 1; see
:mod:`repro.geometry.transform` for the reduction from any other fixed
direction).  :class:`VerticalQuery` represents all three kinds: unbounded
ends are ``None``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .filtered import ball, compare_y_at
from .point import Coordinate, check_coordinate
from .segment import Segment


class VerticalQuery:
    """A vertical generalized segment ``x = x0``, ``ylo <= y <= yhi``.

    ``ylo is None`` means unbounded below; ``yhi is None`` unbounded above.
    A full line has both ends unbounded; a ray exactly one.
    """

    __slots__ = ("x", "ylo", "yhi", "_balls")

    def __init__(
        self,
        x: Coordinate,
        ylo: Optional[Coordinate] = None,
        yhi: Optional[Coordinate] = None,
    ):
        self.x = check_coordinate(x)
        self.ylo = check_coordinate(ylo) if ylo is not None else None
        self.yhi = check_coordinate(yhi) if yhi is not None else None
        if self.ylo is not None and self.yhi is not None and self.ylo > self.yhi:
            raise ValueError(f"empty query: ylo={ylo} > yhi={yhi}")
        self._balls = None

    def balls(self):
        """Cached ``(x, ylo, yhi)`` :func:`~repro.geometry.filtered.ball`\\ s
        for the filtered comparison kernels (``None`` for absent ends)."""
        cached = self._balls
        if cached is None:
            cached = (
                ball(self.x),
                ball(self.ylo) if self.ylo is not None else None,
                ball(self.yhi) if self.yhi is not None else None,
            )
            self._balls = cached
        return cached

    # ------------------------------------------------------------------
    # constructors for the three query kinds
    # ------------------------------------------------------------------
    @classmethod
    def line(cls, x: Coordinate) -> "VerticalQuery":
        """The full vertical line ``x = x0`` (a stabbing query)."""
        return cls(x)

    @classmethod
    def ray_up(cls, x: Coordinate, ylo: Coordinate) -> "VerticalQuery":
        """The upward ray from ``(x, ylo)``."""
        return cls(x, ylo=ylo)

    @classmethod
    def ray_down(cls, x: Coordinate, yhi: Coordinate) -> "VerticalQuery":
        """The downward ray from ``(x, yhi)``."""
        return cls(x, yhi=yhi)

    @classmethod
    def segment(cls, x: Coordinate, ylo: Coordinate, yhi: Coordinate) -> "VerticalQuery":
        """The vertical segment from ``(x, ylo)`` to ``(x, yhi)``."""
        return cls(x, ylo=ylo, yhi=yhi)

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        """One of ``"line"``, ``"ray"``, ``"segment"``."""
        if self.ylo is None and self.yhi is None:
            return "line"
        if self.ylo is None or self.yhi is None:
            return "ray"
        return "segment"

    @property
    def is_stabbing(self) -> bool:
        """True for a full-line query (the classical stabbing query)."""
        return self.kind == "line"

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def covers_y(self, y: Coordinate) -> bool:
        """True when the point ``(x, y)`` lies on the query."""
        if self.ylo is not None and y < self.ylo:
            return False
        if self.yhi is not None and y > self.yhi:
            return False
        return True

    def y_interval_overlaps(self, lo: Coordinate, hi: Coordinate) -> bool:
        """True when the closed y-interval ``[lo, hi]`` meets the query's."""
        if self.yhi is not None and lo > self.yhi:
            return False
        if self.ylo is not None and hi < self.ylo:
            return False
        return True

    def __reduce__(self):
        return (VerticalQuery, (self.x, self.ylo, self.yhi))

    def __eq__(self, other) -> bool:
        if not isinstance(other, VerticalQuery):
            return NotImplemented
        return (self.x, self.ylo, self.yhi) == (other.x, other.ylo, other.yhi)

    def __hash__(self) -> int:
        return hash((self.x, self.ylo, self.yhi))

    def __repr__(self) -> str:
        return f"VerticalQuery(x={self.x!r}, ylo={self.ylo!r}, yhi={self.yhi!r})"


def vs_intersects(segment: Segment, query: VerticalQuery) -> bool:
    """Exact test: does a database segment meet a vertical generalized segment?

    This is the ground-truth predicate used by the brute-force oracle and by
    every engine when filtering candidates.
    """
    x0 = query.x
    if not segment.spans_x(x0):
        return False
    if segment.is_vertical:
        return query.y_interval_overlaps(segment.ymin, segment.ymax)
    xb, lob, hib = query.balls()
    if query.ylo is not None and compare_y_at(segment, x0, query.ylo, xb, lob) < 0:
        return False
    if query.yhi is not None and compare_y_at(segment, x0, query.yhi, xb, hib) > 0:
        return False
    return True


def query_as_segment(query: VerticalQuery, ybound: Coordinate) -> Segment:
    """Materialise a query as a plane segment, clipping unbounded ends.

    ``ybound`` must exceed every |y| in the data set; used by visualisations
    and cross-checks.
    """
    lo = query.ylo if query.ylo is not None else -Fraction(ybound)
    hi = query.yhi if query.yhi is not None else Fraction(ybound)
    return Segment.from_coords(query.x, lo, query.x, hi, label=("query", query.x))
