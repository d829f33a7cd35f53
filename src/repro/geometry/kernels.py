"""Vectorized page kernels over columnar payload caches.

The PR 3 filter made every *single* comparison cheap; what remains on the
hot path is the Python interpreter driving one comparison per stored
segment per page.  This module removes that loop: a page's payload is
mirrored once into struct-of-arrays columnar form (cached on the
:class:`~repro.iosim.page.Page` itself, invalidated on any write), and
the per-page predicates — ``vs_intersects`` over a leaf page,
``classify`` over a PST node, ``_cmp_key_y`` over a G-tree leaf — run as
one batched kernel per (page, query) pair.

Two kernel tiers share each dispatch point, selected by row count:

* **numpy tier** (``n >= NUMPY_MIN_ROWS``): one array expression per
  comparison over the whole page.  Array-op dispatch costs ~1us per
  ufunc regardless of width, so this tier only wins on wide pages —
  its per-row cost is nearly zero but its fixed cost is ~50 ufunc
  launches.
* **fused tier** (``MIN_ROWS <= n < NUMPY_MIN_ROWS``): a single-pass
  Python loop with every predicate inlined — no per-row function calls,
  no attribute chasing, short-circuits preserved.  Setup (query balls,
  locals) is paid once per page instead of once per row, which beats
  the scalar per-row calls from a handful of rows up.

Exactness contract.  The float expressions here are *verbatim elementwise
replicas* of the scalar filtered kernels in
:mod:`repro.geometry.filtered` — same operations, same order, same
``_EPS``/``_SLOP``/``_TINY`` error accounting — so the certified/
uncertified partition of rows is bit-identical to the scalar code, and a
certified sign is the exact sign by the same forward-error argument
(DESIGN.md §9).  Rows the kernel cannot certify (or whose cached float
coefficients are missing) are resolved by calling the *scalar* predicate
for that row, which performs its own exact fallback and its own
telemetry.  Filter telemetry is therefore preserved exactly: certified
rows are bulk-counted as fast hits only where the scalar code would have
consulted them (short-circuit consumption is mirrored mask-wise), and
fallback rows count themselves.

Control-flow contract.  Kernels never touch the pager or the device —
columns are built from already-fetched page payloads — so the page fetch
sequence, and with it every simulated I/O count, is identical whether
the kernels are enabled, disabled (:func:`set_vectorized`), or
unavailable (no numpy).  ``REPRO_SCALAR_KERNELS=1`` forces the scalar
paths; exact-only mode (``REPRO_EXACT_ONLY``) disables the kernels too,
since they *are* the float fast path.
"""

from __future__ import annotations

import os
from typing import Any, List, Optional, Sequence, Tuple

from . import filtered
from .filtered import _EPS, _SLOP, _TINY, STATS, ball

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the wheel bakes numpy in
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

#: Below this many rows even the fused loop's per-page setup exceeds the
#: scalar per-row calls it replaces; such pages stay scalar.
MIN_ROWS = 4

#: At and above this many rows the numpy tier's ~50 fixed array-op
#: launches amortize below the fused loop's per-row interpreter cost.
#: On uniform rows the crossover is ~100-190 (intersect/classify), but
#: the fused loop is *data-adaptive*: its exact early exits (the BELOW
#: reach test, the span test) retire most rows of a real page for one
#: cheap compare, while the array expressions pay the full certified
#: filter on every row.  In-engine A/B on the E20 workload puts the
#: realistic crossover past 128-row pages, so the threshold sits at 256
#: — wide scan pages vectorize, tree nodes stay fused.
NUMPY_MIN_ROWS = 256

#: Classification codes (:func:`classify_page`), matching the order of
#: the string constants in ``core.linebased.search``.
BELOW, LEFT, HIT, RIGHT = 0, 1, 2, 3


def _env_scalar() -> bool:
    return os.environ.get("REPRO_SCALAR_KERNELS", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


_vectorized = not _env_scalar()


def set_vectorized(flag: bool) -> None:
    """Enable/disable the vectorized kernels (the E20 A/B switch).

    Results and I/O counts are identical either way; only wall-clock
    changes.  The fused tier is pure Python, so the switch works with
    or without numpy (the numpy tier is simply absent without it).
    """
    global _vectorized
    _vectorized = bool(flag)


def vectorized_enabled() -> bool:
    """True when page kernels will actually run (off in exact-only mode)."""
    return _vectorized and not filtered.exact_only_enabled()


def kernel_stats() -> dict:
    """JSON-ready kernel configuration snapshot (for ``io_report()``)."""
    return {
        "have_numpy": HAVE_NUMPY,
        "vectorized": vectorized_enabled(),
        "min_rows": MIN_ROWS,
        "numpy_min_rows": NUMPY_MIN_ROWS,
    }


# ----------------------------------------------------------------------
# per-page column caches
# ----------------------------------------------------------------------
def _cached_columns(page, kind: str, items: Sequence, builder):
    """The page's columnar mirror, built once and reused until a write.

    ``page`` may be ``None`` (no cache host — e.g. the stab-filter's
    in-memory candidate list); the columns are then built per call.
    """
    if page is not None:
        cached = getattr(page, "cols", None)
        if cached is not None and cached[0] == kind and cached[1].n == len(items):
            return cached[1]
    cols = builder(items)
    if page is not None:
        page.cols = (kind, cols)
    return cols


class SegColumns:
    """Struct-of-arrays mirror of a page of plane :class:`Segment`\\ s.

    Eight columns are the rows' cached ``segment_fp`` tuples; the
    derived ``xmax``/``ey`` balls (sound by triangle inequality, used
    only for the plain span/overlap compares that carry no telemetry)
    avoid re-deriving ``ball()`` per endpoint.  ``valid`` marks rows
    whose fast path exists at all; ``vertical`` is the exact
    ``is_vertical`` flag, evaluated once at build time.
    """

    __slots__ = ("n", "sx", "esx", "sy", "esy", "dx", "edx", "dy", "edy",
                 "xmax", "exmax", "ey", "eey", "valid", "vertical")

    def __init__(self, n, sx, esx, sy, esy, dx, edx, dy, edy,
                 xmax, exmax, ey, eey, valid, vertical):
        self.n = n
        self.sx, self.esx, self.sy, self.esy = sx, esx, sy, esy
        self.dx, self.edx, self.dy, self.edy = dx, edx, dy, edy
        self.xmax, self.exmax, self.ey, self.eey = xmax, exmax, ey, eey
        self.valid = valid
        self.vertical = vertical

    @classmethod
    def build(cls, items: Sequence) -> "SegColumns":
        n = len(items)
        zeros8 = (0.0,) * 8
        mat = np.array([s._fp if s._fp is not None else zeros8 for s in items],
                       dtype=np.float64).reshape(n, 8)
        valid = np.array([s._fp is not None for s in items], dtype=bool)
        vertical = np.array([s.is_vertical for s in items], dtype=bool)
        sx, esx = mat[:, 0], mat[:, 1]
        sy, esy = mat[:, 2], mat[:, 3]
        dx, edx = mat[:, 4], mat[:, 5]
        dy, edy = mat[:, 6], mat[:, 7]
        with np.errstate(over="ignore", invalid="ignore"):
            xmax = sx + dx
            exmax = esx + edx + np.abs(xmax) * _EPS
            ey = sy + dy
            eey = esy + edy + np.abs(ey) * _EPS
        return cls(n, sx, esx, sy, esy, dx, edx, dy, edy,
                   xmax, exmax, ey, eey, valid, vertical)

    def take(self, idx) -> "SegColumns":
        """Row-subset gather (label-deduped / bbox-prefiltered scans)."""
        return SegColumns(
            len(idx), self.sx[idx], self.esx[idx], self.sy[idx],
            self.esy[idx], self.dx[idx], self.edx[idx], self.dy[idx],
            self.edy[idx], self.xmax[idx], self.exmax[idx], self.ey[idx],
            self.eey[idx], self.valid[idx], self.vertical[idx])


class LBColumns:
    """Columns of a PST items page of :class:`LineBasedSegment`\\ s
    (the rows' cached ``lb_fp`` tuples)."""

    __slots__ = ("n", "u0", "eu0", "du", "edu", "h1", "eh1", "valid")

    def __init__(self, n, u0, eu0, du, edu, h1, eh1, valid):
        self.n = n
        self.u0, self.eu0 = u0, eu0
        self.du, self.edu = du, edu
        self.h1, self.eh1 = h1, eh1
        self.valid = valid

    @classmethod
    def build(cls, items: Sequence) -> "LBColumns":
        n = len(items)
        zeros6 = (0.0,) * 6
        mat = np.array([s._fp if s._fp is not None else zeros6 for s in items],
                       dtype=np.float64).reshape(n, 6)
        valid = np.array([s._fp is not None for s in items], dtype=bool)
        return cls(n, mat[:, 0], mat[:, 1], mat[:, 2], mat[:, 3],
                   mat[:, 4], mat[:, 5], valid)


class GKeyColumns:
    """Columns of a G-tree multislab leaf: balls of each entry key's
    ``(y_left, x_left, y_right, x_right)`` geometry."""

    __slots__ = ("n", "yl", "eyl", "xl", "exl", "yr", "eyr", "xr", "exr",
                 "valid")

    def __init__(self, n, yl, eyl, xl, exl, yr, eyr, xr, exr, valid):
        self.n = n
        self.yl, self.eyl = yl, eyl
        self.xl, self.exl = xl, exl
        self.yr, self.eyr = yr, eyr
        self.xr, self.exr = xr, exr
        self.valid = valid

    @classmethod
    def build(cls, items: Sequence) -> "GKeyColumns":
        n = len(items)
        rows: List[Tuple[float, ...]] = []
        valid_rows: List[bool] = []
        zeros8 = (0.0,) * 8
        for key, _entry in items:
            _y_mid, y_left, x_left, y_right, x_right = key
            byl = ball(y_left)
            bxl = ball(x_left)
            byr = ball(y_right)
            bxr = ball(x_right)
            if byl is None or bxl is None or byr is None or bxr is None:
                rows.append(zeros8)
                valid_rows.append(False)
            else:
                rows.append((byl[0], byl[1], bxl[0], bxl[1],
                             byr[0], byr[1], bxr[0], bxr[1]))
                valid_rows.append(True)
        mat = np.array(rows, dtype=np.float64).reshape(n, 8)
        valid = np.array(valid_rows, dtype=bool)
        return cls(n, mat[:, 0], mat[:, 1], mat[:, 2], mat[:, 3],
                   mat[:, 4], mat[:, 5], mat[:, 6], mat[:, 7], valid)


def segment_columns(page, items: Sequence) -> "SegColumns":
    return _cached_columns(page, "seg", items, SegColumns.build)


def lb_columns(page, items: Sequence) -> "LBColumns":
    return _cached_columns(page, "lb", items, LBColumns.build)


def gkey_columns(page, items: Sequence) -> "GKeyColumns":
    return _cached_columns(page, "gkey", items, GKeyColumns.build)


# ----------------------------------------------------------------------
# certified plain compares (no telemetry — mirror exact `<`/`>` checks)
# ----------------------------------------------------------------------
def _plain_sign(d, err_terms):
    """(signs, resolved) of a plain exact compare evaluated in floats.

    ``d`` approximates the true difference within ``err_terms``; the sign
    is certified where ``|d|`` clears the (slop-padded) radius.  Plain
    compares carry no filter telemetry in the scalar code, so none here.
    """
    err = (err_terms + np.abs(d) * _EPS) * _SLOP + _TINY
    return d, np.abs(d) > err


# ----------------------------------------------------------------------
# vs_intersects over a page of plane segments
# ----------------------------------------------------------------------
def intersect_hits_py(items: Sequence, query) -> Optional[list]:
    """Fused-tier ``[s for s in items if vs_intersects(s, query)]``.

    One pass, every predicate inlined: the exact span/vertical tests and
    a verbatim replica of ``filtered.compare_y_at``'s float expressions
    (same operations, same order), with the scalar short-circuits
    preserved row by row.  Certified compares are tallied as fast hits
    exactly where the scalar code would have counted them; uncertified
    rows fall through to the scalar ``compare_y_at``, which performs its
    own exact fallback and telemetry.  Returns ``None`` when the query
    has no usable float bounds (callers then run the scalar loop).
    """
    xb, lob, hib = query.balls()
    if xb is None:
        return None
    ylo, yhi = query.ylo, query.yhi
    if ylo is not None and lob is None:
        return None
    if yhi is not None and hib is None:
        return None
    x0 = query.x
    fx, ex = xb
    fbl = ebl = fbh = ebh = 0.0
    if ylo is not None:
        fbl, ebl = lob
    if yhi is not None:
        fbh, ebh = hib
    compare = filtered.compare_y_at
    eps, slop, tiny = _EPS, _SLOP, _TINY
    abs_ = abs  # local binding: the loop calls it ~20x per row
    hits: list = []
    ap = hits.append
    fast = 0
    for s in items:
        st = s.start
        en = s.end
        if not (st.x <= x0 <= en.x):  # spans_x, exact
            continue
        if st.x == en.x:
            # Vertical: exact y-interval overlap (normalisation makes
            # ymin = start.y, ymax = end.y for a vertical segment).
            if yhi is not None and st.y > yhi:
                continue
            if ylo is not None and en.y < ylo:
                continue
            ap(s)
            continue
        if ylo is None and yhi is None:
            ap(s)
            continue
        fp = s._fp
        if fp is None:
            if ylo is not None and compare(s, x0, ylo, xb, lob) < 0:
                continue
            if yhi is not None and compare(s, x0, yhi, xb, hib) > 0:
                continue
            ap(s)
            continue
        fsx, esx, fsy, esy, dx, edx, dy, edy = fp
        # compare_y_at's second product is bound-independent; computing
        # it once per row is bit-identical (the terms are independent).
        d2 = fx - fsx
        e2 = ex + esx + abs_(d2) * eps
        t2 = dy * d2
        et2 = abs_(dy) * e2 + abs_(d2) * edy + e2 * edy + abs_(t2) * eps
        if ylo is not None:
            d1 = fsy - fbl
            e1 = esy + ebl + abs_(d1) * eps
            t1 = d1 * dx
            et1 = abs_(d1) * edx + abs_(dx) * e1 + e1 * edx + abs_(t1) * eps
            v = t1 + t2
            err = (et1 + et2 + abs_(v) * eps) * slop + tiny
            if -v > err:          # y_at(x) < ylo -> miss
                fast += 1
                continue
            if v > err:
                fast += 1
            elif compare(s, x0, ylo, xb, lob) < 0:
                continue
        if yhi is not None:
            d1 = fsy - fbh
            e1 = esy + ebh + abs_(d1) * eps
            t1 = d1 * dx
            et1 = abs_(d1) * edx + abs_(dx) * e1 + e1 * edx + abs_(t1) * eps
            v = t1 + t2
            err = (et1 + et2 + abs_(v) * eps) * slop + tiny
            if v > err:           # y_at(x) > yhi -> miss
                fast += 1
                continue
            if -v > err:
                fast += 1
            elif compare(s, x0, yhi, xb, hib) > 0:
                continue
        ap(s)
    STATS.fast_hits += fast
    return hits


def intersect_rows(items: Sequence, query, cols: Optional["SegColumns"],
                   ) -> Optional[Any]:
    """numpy-tier boolean mask of ``vs_intersects(s, query)`` over ``items``.

    Returns ``None`` when the kernels are off or the query has no usable
    float bounds (callers then run the scalar loop or the fused tier).
    Results, and the exact-arithmetic fallback/telemetry counts, match
    the scalar loop bit for bit: certified rows are bulk-counted only
    for the compares the scalar short-circuit would have consumed, and
    every uncertified row is resolved by the scalar predicate.
    """
    if not vectorized_enabled() or cols is None:
        return None
    n = len(items)
    if n != cols.n:
        return None
    xb, lob, hib = query.balls()
    if xb is None:
        return None
    if query.ylo is not None and lob is None:
        return None
    if query.yhi is not None and hib is None:
        return None
    from .query import vs_intersects

    fx, ex = xb
    x0 = query.x
    valid = cols.valid
    with np.errstate(over="ignore", invalid="ignore"):
        # --- spans_x: xmin <= x <= xmax (plain compares) ---------------
        d_lo, r_lo = _plain_sign(fx - cols.sx, ex + cols.esx)
        d_hi, r_hi = _plain_sign(cols.xmax - fx, cols.exmax + ex)
        r_lo = r_lo & valid
        r_hi = r_hi & valid
        spans = np.zeros(n, dtype=bool)
        spans_known = (r_lo & (d_lo < 0)) | (r_hi & (d_hi < 0))  # certainly out
        inside = r_lo & (d_lo > 0) & r_hi & (d_hi > 0)
        spans[inside] = True
        spans_known |= inside
        for i in np.flatnonzero(~spans_known):
            spans[i] = items[i].spans_x(x0)  # exact, no telemetry

        result = np.zeros(n, dtype=bool)
        vertical = cols.vertical & spans
        if vertical.any():
            # y_interval_overlaps (plain compares).  Normalisation makes
            # ymin = start.y, ymax = end.y for a vertical segment.
            ok = np.ones(n, dtype=bool)
            known = np.ones(n, dtype=bool)
            if query.yhi is not None:
                fbh, ebh = hib
                d, r = _plain_sign(cols.sy - fbh, cols.esy + ebh)
                r = r & valid
                ok &= ~(r & (d > 0))          # ymin > yhi -> miss
                known &= r
            if query.ylo is not None:
                fbl, ebl = lob
                d, r = _plain_sign(fbl - cols.ey, cols.eey + ebl)
                r = r & valid
                ok &= ~(r & (d > 0))          # ymax < ylo -> miss
                known &= r
            result[vertical & known] = ok[vertical & known]
            for i in np.flatnonzero(vertical & ~known):
                s = items[i]
                result[i] = query.y_interval_overlaps(s.ymin, s.ymax)

        consulted = spans & ~cols.vertical
        if not consulted.any():
            return result
        if query.ylo is None and query.yhi is None:
            result |= consulted
            return result

        # --- compare_y_at, verbatim replica of filtered.compare_y_at ---
        # The second product is bound-independent: shared by both ends.
        d2 = fx - cols.sx
        e2 = ex + cols.esx + np.abs(d2) * _EPS
        t2 = cols.dy * d2
        et2 = (np.abs(cols.dy) * e2 + np.abs(d2) * cols.edy + e2 * cols.edy
               + np.abs(t2) * _EPS)

        def y_sign(bball):
            fb, eb = bball
            d1 = cols.sy - fb
            e1 = cols.esy + eb + np.abs(d1) * _EPS
            t1 = d1 * cols.dx
            et1 = (np.abs(d1) * cols.edx + np.abs(cols.dx) * e1 + e1 * cols.edx
                   + np.abs(t1) * _EPS)
            v = t1 + t2
            err = (et1 + et2 + np.abs(v) * _EPS) * _SLOP + _TINY
            pos = v > err
            neg = -v > err
            return pos, neg, (pos | neg) & valid

        alive = consulted.copy()
        if query.ylo is not None:
            pos, neg, resolved = y_sign(lob)
            certified = consulted & resolved
            STATS.fast_hits += int(np.count_nonzero(certified))
            alive &= ~(certified & neg)  # y_at(x) < ylo -> miss
            for i in np.flatnonzero(consulted & ~resolved):
                if filtered.compare_y_at(items[i], x0, query.ylo, xb, lob) < 0:
                    alive[i] = False
        if query.yhi is not None:
            consulted_hi = alive
            pos, neg, resolved = y_sign(hib)
            certified = consulted_hi & resolved
            STATS.fast_hits += int(np.count_nonzero(certified))
            alive = alive & ~(certified & pos)  # y_at(x) > yhi -> miss
            for i in np.flatnonzero(consulted_hi & ~resolved):
                if filtered.compare_y_at(items[i], x0, query.yhi, xb, hib) > 0:
                    alive[i] = False
        result |= alive
        return result


def page_query_hits(page, query, items: Optional[Sequence] = None) -> list:
    """``[s for s in items if vs_intersects(s, query)]``, kernelized.

    The drop-in form of every engine's leaf scan: the numpy tier on wide
    pages, the fused loop on narrow ones, the original scalar
    comprehension otherwise.
    """
    if items is None:
        items = page.items
    n = len(items)
    if vectorized_enabled() and n >= MIN_ROWS:
        if HAVE_NUMPY and n >= NUMPY_MIN_ROWS:
            mask = intersect_rows(items, query, segment_columns(page, items))
            if mask is not None:
                return [items[int(i)] for i in np.flatnonzero(mask)]
        hits = intersect_hits_py(items, query)
        if hits is not None:
            return hits
    from .query import vs_intersects

    return [s for s in items if vs_intersects(s, query)]


def subset_query_hits(page, query, idx: Sequence[int],
                      items: Optional[Sequence] = None) -> Optional[list]:
    """Hits among ``items[i] for i in idx`` (row order), or ``None``.

    Serves the scans that prefilter rows before the geometric test (the
    grid's label dedup, the R-tree's bbox check): the kernel runs on the
    gathered subset only — exactly the rows the scalar loop would have
    compared.  On the numpy tier the full page columns stay cached and
    the subset is a row gather.
    """
    if not vectorized_enabled() or len(idx) < MIN_ROWS:
        return None
    if items is None:
        items = page.items
    if HAVE_NUMPY and len(idx) >= NUMPY_MIN_ROWS:
        cols = segment_columns(page, items)
        if cols.n == len(items):
            sub_items = [items[i] for i in idx]
            mask = intersect_rows(sub_items, query,
                                  cols.take(np.asarray(idx, dtype=np.intp)))
            if mask is not None:
                return [sub_items[int(i)] for i in np.flatnonzero(mask)]
            return None
    return intersect_hits_py([items[i] for i in idx], query)


def list_query_hits(items: Sequence, query) -> Optional[list]:
    """Hits among an in-memory segment list (no page to host the cache —
    the stab-filter's already-fetched candidates).  numpy-tier columns
    are built per call straight from the segments' cached fp tuples, so
    the build is one array construction, not per-row arithmetic."""
    n = len(items)
    if not vectorized_enabled() or n < MIN_ROWS:
        return None
    if HAVE_NUMPY and n >= NUMPY_MIN_ROWS:
        mask = intersect_rows(items, query, SegColumns.build(items))
        if mask is not None:
            return [items[int(i)] for i in np.flatnonzero(mask)]
        return None
    return intersect_hits_py(items, query)


def rtree_subset_hits(page, query, idx: Sequence[int],
                      items: Optional[Sequence] = None) -> Optional[list]:
    """:func:`subset_query_hits` for R-tree leaves, whose rows are
    ``(bbox, segment)`` tuples (``idx`` holds the bbox-overlap survivors)."""
    if not vectorized_enabled() or len(idx) < MIN_ROWS:
        return None
    if items is None:
        items = page.items
    if HAVE_NUMPY and len(idx) >= NUMPY_MIN_ROWS:
        cols = _cached_columns(
            page, "rtree-seg", items,
            lambda rows: SegColumns.build([s for _b, s in rows]))
        if cols.n == len(items):
            sub_items = [items[i][1] for i in idx]
            mask = intersect_rows(sub_items, query,
                                  cols.take(np.asarray(idx, dtype=np.intp)))
            if mask is not None:
                return [sub_items[int(i)] for i in np.flatnonzero(mask)]
            return None
    return intersect_hits_py([items[i][1] for i in idx], query)


# ----------------------------------------------------------------------
# PST classify over a node's items page
# ----------------------------------------------------------------------
def classify_summary_py(items: Sequence, query
                        ) -> Optional[Tuple[list, Optional[int],
                                            Optional[int]]]:
    """Fused-tier ``(hit_rows, last_left_row, first_right_row)``.

    A single-pass replica of the scalar ``classify`` over a whole page:
    the exact reach-height test, then ``filtered.compare_u_at``'s float
    expressions inlined verbatim for each present bound, with the
    scalar short-circuits (BELOW consumes no window compare, LEFT one)
    preserved row by row.  Certified compares are bulk-tallied as fast
    hits; uncertified rows fall through to the scalar ``compare_u_at``
    (which counts itself).  Only HIT rows and the two boundary
    witnesses are materialised — exactly what the PST search consumes.
    Returns ``None`` when the query has no usable float bounds.
    """
    hb, lob, hib = query.balls()
    if hb is None:
        return None
    ulo, uhi = query.ulo, query.uhi
    if ulo is not None and lob is None:
        return None
    if uhi is not None and hib is None:
        return None
    fh, eh = hb
    afh = abs(fh)
    fbl = ebl = fbh = ebh = 0.0
    if ulo is not None:
        fbl, ebl = lob
    if uhi is not None:
        fbh, ebh = hib
    h = query.h
    compare = filtered.compare_u_at
    eps, slop, tiny = _EPS, _SLOP, _TINY
    abs_ = abs  # local binding: the loop calls it ~20x per row
    hit_rows: list = []
    ap = hit_rows.append
    last_left = first_right = None
    fast = 0
    i = -1
    for s in items:
        i += 1
        if s.h1 < h:              # BELOW: no witness, exact compare
            continue
        fp = s._fp
        if fp is None:
            if ulo is not None and compare(s, h, ulo, hb, lob) < 0:
                last_left = i
            elif uhi is not None and compare(s, h, uhi, hb, hib) > 0:
                if first_right is None:
                    first_right = i
            else:
                ap(i)
            continue
        if ulo is None and uhi is None:
            ap(i)
            continue
        u0, eu0, du, edu, h1, eh1 = fp
        # compare_u_at's second product is bound-independent; computing
        # it once per row is bit-identical (the terms are independent).
        t2 = du * fh
        et2 = abs_(du) * eh + afh * edu + edu * eh + abs_(t2) * eps
        if ulo is not None:
            d0 = u0 - fbl
            ed = eu0 + ebl + abs_(d0) * eps
            t1 = d0 * h1
            et1 = abs_(d0) * eh1 + abs_(h1) * ed + ed * eh1 + abs_(t1) * eps
            v = t1 + t2
            err = (et1 + et2 + abs_(v) * eps) * slop + tiny
            if -v > err:          # u(h) < ulo -> passes left
                fast += 1
                last_left = i
                continue
            if v > err:
                fast += 1
            elif compare(s, h, ulo, hb, lob) < 0:
                last_left = i
                continue
        if uhi is not None:
            d0 = u0 - fbh
            ed = eu0 + ebh + abs_(d0) * eps
            t1 = d0 * h1
            et1 = abs_(d0) * eh1 + abs_(h1) * ed + ed * eh1 + abs_(t1) * eps
            v = t1 + t2
            err = (et1 + et2 + abs_(v) * eps) * slop + tiny
            if v > err:           # u(h) > uhi -> passes right
                fast += 1
                if first_right is None:
                    first_right = i
                continue
            if -v > err:
                fast += 1
            elif compare(s, h, uhi, hb, hib) > 0:
                if first_right is None:
                    first_right = i
                continue
        ap(i)
    STATS.fast_hits += fast
    return hit_rows, last_left, first_right


def classify_rows(items: Sequence, query, cols: Optional["LBColumns"]
                  ) -> Optional[Any]:
    """numpy-tier ``int8`` codes (:data:`BELOW`/:data:`LEFT`/:data:`HIT`/
    :data:`RIGHT`) matching ``classify(s, query)`` row-wise, or ``None``
    (scalar path).

    Mirrors the scalar short-circuit for telemetry: BELOW rows consume
    no window compare, LEFT rows one, the rest two (present bounds
    permitting); certified consumption is bulk-counted, uncertified rows
    re-run the scalar ``compare_u_at``.
    """
    if not vectorized_enabled() or cols is None:
        return None
    n = len(items)
    if n != cols.n:
        return None
    hb, lob, hib = query.balls()
    if hb is None:
        return None
    if query.ulo is not None and lob is None:
        return None
    if query.uhi is not None and hib is None:
        return None
    fh, eh = hb
    h = query.h
    valid = cols.valid
    with np.errstate(over="ignore", invalid="ignore"):
        # --- below: h1 < h (plain compare) -----------------------------
        d, resolved = _plain_sign(fh - cols.h1, eh + cols.eh1)
        resolved = resolved & valid
        below = resolved & (d > 0)
        for i in np.flatnonzero(~resolved):
            if items[i].h1 < h:
                below[i] = True
        codes = np.full(n, HIT, dtype=np.int8)
        codes[below] = BELOW
        reach = ~below
        if not reach.any() or (query.ulo is None and query.uhi is None):
            return codes

        # --- compare_u_at, verbatim replica ----------------------------
        # t2 = du*h is bound-independent: shared by both window tests.
        t2 = cols.du * fh
        et2 = (np.abs(cols.du) * eh + abs(fh) * cols.edu + cols.edu * eh
               + np.abs(t2) * _EPS)

        def u_sign(bball):
            fb, eb = bball
            d0 = cols.u0 - fb
            ed = cols.eu0 + eb + np.abs(d0) * _EPS
            t1 = d0 * cols.h1
            et1 = (np.abs(d0) * cols.eh1 + np.abs(cols.h1) * ed + ed * cols.eh1
                   + np.abs(t1) * _EPS)
            v = t1 + t2
            err = (et1 + et2 + np.abs(v) * _EPS) * _SLOP + _TINY
            pos = v > err
            neg = -v > err
            return pos, neg, (pos | neg) & valid

        if query.ulo is not None:
            pos, neg, resolved = u_sign(lob)
            certified = reach & resolved
            STATS.fast_hits += int(np.count_nonzero(certified))
            left = certified & neg
            for i in np.flatnonzero(reach & ~resolved):
                if filtered.compare_u_at(items[i], h, query.ulo, hb, lob) < 0:
                    left[i] = True
            codes[left] = LEFT
            reach = reach & ~left
        if query.uhi is not None and reach.any():
            pos, neg, resolved = u_sign(hib)
            certified = reach & resolved
            STATS.fast_hits += int(np.count_nonzero(certified))
            right = certified & pos
            for i in np.flatnonzero(reach & ~resolved):
                if filtered.compare_u_at(items[i], h, query.uhi, hb, hib) > 0:
                    right[i] = True
            codes[right] = RIGHT
        return codes


def page_classify_summary(page, query, items: Optional[Sequence] = None
                          ) -> Optional[Tuple[list, Optional[int],
                                              Optional[int]]]:
    """``(hit_rows, last_left_row, first_right_row)`` for one node page.

    The shape the PST search actually consumes: HIT row indices in
    storage order plus the page's two tightest witnesses (items are
    sorted by base key, so the last LEFT row and the first RIGHT row
    carry the same final bounds as absorbing every non-hit row).
    Dispatches numpy / fused by row count; ``None`` means scalar path.
    """
    if items is None:
        items = page.items
    n = len(items)
    if not vectorized_enabled() or n < MIN_ROWS:
        return None
    if HAVE_NUMPY and n >= NUMPY_MIN_ROWS:
        codes = classify_rows(items, query,
                              lb_columns(page, items) if page is not None
                              else LBColumns.build(items))
        if codes is not None:
            hit_rows = [int(i) for i in np.flatnonzero(codes == HIT)]
            left_rows = np.flatnonzero(codes == LEFT)
            right_rows = np.flatnonzero(codes == RIGHT)
            return (hit_rows,
                    int(left_rows[-1]) if left_rows.size else None,
                    int(right_rows[0]) if right_rows.size else None)
        return None
    return classify_summary_py(items, query)


# ----------------------------------------------------------------------
# G-tree key comparisons over a multislab leaf
# ----------------------------------------------------------------------
def gkey_sign_table(page, items: Sequence, x, bound, xb, bb
                    ) -> Optional[Tuple[Any, Any, Any]]:
    """Per-row ``_cmp_key_y(key, x, bound)`` signs for a whole leaf.

    Returns ``(signs, resolved, interp)`` — ``int8`` signs valid where
    ``resolved``; ``interp`` marks rows decided through the (telemetry-
    counted) interpolation kernel rather than a clamped plain compare.
    Telemetry is charged by the *consumer* (the scan walks rows in list
    order and may break early), so this function counts nothing.
    Returns ``None`` when vectorization is off or inputs lack balls.
    """
    if not vectorized_enabled() or not HAVE_NUMPY or xb is None:
        return None
    n = len(items)
    if n < MIN_ROWS:
        return None
    cols = gkey_columns(page, items)
    if cols.n != n:
        return None
    fx, ex = xb
    valid = cols.valid
    with np.errstate(over="ignore", invalid="ignore"):
        # Clamp decisions: x <= x_left / x >= x_right (plain compares).
        dl, rl = _plain_sign(cols.xl - fx, cols.exl + ex)
        dr, rr = _plain_sign(fx - cols.xr, cols.exr + ex)
        left_clamp = rl & (dl > 0)
        strict_inside = rl & (dl < 0) & rr & (dr < 0)
        right_clamp = rl & (dl < 0) & rr & (dr > 0)
        clamp_known = (left_clamp | right_clamp | strict_inside) & valid

        signs = np.zeros(n, dtype=np.int8)
        resolved = np.zeros(n, dtype=bool)
        interp = np.zeros(n, dtype=bool)

        if bb is not None:
            fb, eb = bb
            # Clamped rows: plain endpoint-vs-bound compare.
            for clamp_mask, fy, ey in ((left_clamp, cols.yl, cols.eyl),
                                       (right_clamp, cols.yr, cols.eyr)):
                d, r = _plain_sign(fy - fb, ey + eb)
                m = clamp_mask & clamp_known & r
                signs[m] = np.sign(d[m]).astype(np.int8)
                resolved |= m
            # Interpolating rows: verbatim replica of compare_interp.
            d1 = cols.yl - fb
            e1 = cols.eyl + eb + np.abs(d1) * _EPS
            w = cols.xr - cols.xl
            ew = cols.exr + cols.exl + np.abs(w) * _EPS
            t1 = d1 * w
            et1 = (np.abs(d1) * ew + np.abs(w) * e1 + e1 * ew
                   + np.abs(t1) * _EPS)
            d2 = cols.yr - cols.yl
            e2 = cols.eyr + cols.eyl + np.abs(d2) * _EPS
            a = fx - cols.xl
            ea = ex + cols.exl + np.abs(a) * _EPS
            t2 = d2 * a
            et2 = (np.abs(d2) * ea + np.abs(a) * e2 + e2 * ea
                   + np.abs(t2) * _EPS)
            v = t1 + t2
            err = (et1 + et2 + np.abs(v) * _EPS) * _SLOP + _TINY
            pos = v > err
            neg = -v > err
            m = strict_inside & clamp_known & (pos | neg)
            signs[m & pos] = 1
            signs[m & neg] = -1
            resolved |= m
            interp[m] = True
    return signs, resolved, interp
