"""Plane segments.

A :class:`Segment` is a closed, possibly degenerate-free straight segment
with exact rational endpoints.  Segments are normalised so that the first
endpoint is lexicographically smaller; a ``label`` identifies the segment
through splitting and re-storage (the two-level structures store fragments
of a segment in several places but must report the original exactly once).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Optional

from .filtered import segment_fp
from .point import Coordinate, Point

_EXACT_TYPES = (int, Fraction)
_new_object = object.__new__


def _rebuild_segment(sx, sy, ex, ey, label) -> "Segment":
    """Unpickle a :class:`Segment` from its five fields.

    The target of :meth:`Segment.__reduce__`, so every stream that
    carries a segment (pool results, daemon frames, arena pages) names
    this one function.  Every coordinate is checked exactly as
    :func:`~repro.geometry.point.check_coordinate` does and ``_fp`` is
    recomputed here, so no stream can plant a float coordinate or a
    stale float cache.  Exact ``int``/``Fraction`` endpoints already in
    lexicographic order take a direct slot-assignment path; anything
    else goes through the full constructor (which rejects it or
    normalises it).
    """
    if (type(sx) in _EXACT_TYPES and type(sy) in _EXACT_TYPES
            and type(ex) in _EXACT_TYPES and type(ey) in _EXACT_TYPES
            and (sx, sy) < (ex, ey) and label is not None):
        start = _new_object(Point)
        start.x = sx
        start.y = sy
        end = _new_object(Point)
        end.x = ex
        end.y = ey
        segment = _new_object(Segment)
        segment.start = start
        segment.end = end
        segment.label = label
        segment._fp = segment_fp(sx, sy, ex, ey)
        return segment
    return Segment(Point(sx, sy), Point(ex, ey), label=label)


class Segment:
    """A non-degenerate closed plane segment with exact endpoints.

    Parameters
    ----------
    p, q:
        The endpoints (order irrelevant; stored lexicographically).
    label:
        Stable identity used for duplicate-free reporting.  Defaults to the
        endpoint pair itself, which is adequate when all segments are
        distinct.
    """

    __slots__ = ("start", "end", "label", "_fp")

    def __init__(self, p: Point, q: Point, label: Optional[Hashable] = None):
        if p == q:
            raise ValueError(f"degenerate segment at {p!r}")
        if q < p:
            p, q = q, p
        self.start = p
        self.end = q
        self.label = label if label is not None else (p.as_tuple(), q.as_tuple())
        # Float coefficients (+ error radii) for the filtered-arithmetic
        # fast path; None disables it for this segment (exact still works).
        self._fp = segment_fp(p.x, p.y, q.x, q.y)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coords(
        cls,
        x1: Coordinate,
        y1: Coordinate,
        x2: Coordinate,
        y2: Coordinate,
        label: Optional[Hashable] = None,
    ) -> "Segment":
        return cls(Point(x1, y1), Point(x2, y2), label=label)

    # ------------------------------------------------------------------
    # extents
    # ------------------------------------------------------------------
    @property
    def xmin(self) -> Coordinate:
        return self.start.x

    @property
    def xmax(self) -> Coordinate:
        return self.end.x

    @property
    def ymin(self) -> Coordinate:
        return min(self.start.y, self.end.y)

    @property
    def ymax(self) -> Coordinate:
        return max(self.start.y, self.end.y)

    @property
    def is_vertical(self) -> bool:
        return self.start.x == self.end.x

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def y_at(self, x: Coordinate) -> Fraction:
        """The y-coordinate of the segment at vertical line ``x``.

        Requires ``xmin <= x <= xmax`` and a non-vertical segment.
        """
        if self.is_vertical:
            raise ValueError("y_at is undefined for a vertical segment")
        if not (self.xmin <= x <= self.xmax):
            raise ValueError(f"x={x} outside segment x-range [{self.xmin}, {self.xmax}]")
        return self.y_at_unchecked(x)

    def y_at_unchecked(self, x: Coordinate) -> Fraction:
        """:meth:`y_at` without the vertical/range validation.

        For index inner loops whose invariants already guarantee a
        non-vertical segment spanning ``x``.
        """
        dx = self.end.x - self.start.x
        return self.start.y + Fraction(self.end.y - self.start.y) * Fraction(
            x - self.start.x, dx
        )

    def spans_x(self, x: Coordinate) -> bool:
        """True when the vertical line at ``x`` meets the segment's x-extent."""
        return self.xmin <= x <= self.xmax

    def with_label(self, label: Hashable) -> "Segment":
        return Segment(self.start, self.end, label=label)

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------
    def __reduce__(self):
        start, end = self.start, self.end
        return (_rebuild_segment, (start.x, start.y, end.x, end.y, self.label))

    def __setstate__(self, state) -> None:
        """Decode the slot-state records of streams written before
        :meth:`__reduce__` existed (format-2 snapshots): the endpoints
        are re-validated and ``_fp`` recomputed, never taken from the
        stream."""
        slots = state[1]
        start, end = slots["start"], slots["end"]
        fresh = _rebuild_segment(start.x, start.y, end.x, end.y,
                                 slots["label"])
        self.start = fresh.start
        self.end = fresh.end
        self.label = fresh.label
        self._fp = fresh._fp

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Segment):
            return NotImplemented
        return (
            self.start == other.start
            and self.end == other.end
            and self.label == other.label
        )

    def __hash__(self) -> int:
        return hash((self.start, self.end, self.label))

    def __repr__(self) -> str:
        return (
            f"Segment(({self.start.x!r}, {self.start.y!r}) -> "
            f"({self.end.x!r}, {self.end.y!r}), label={self.label!r})"
        )
