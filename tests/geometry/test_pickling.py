"""Round-trip properties of the compact value encodings.

``Segment`` pickles as its five fields through ``_rebuild_segment``,
``Point`` as ``Point(x, y)`` and ``VerticalQuery`` as ``VerticalQuery(x,
ylo, yhi)``.  These properties pin that every encoding decodes equal —
through plain ``pickle``, the restricted unpickler, and an arena page —
that the float cache is always recomputed, never trusted, and that the
slot-state records of older snapshots still decode.
"""

import copyreg
import io
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Segment, VerticalQuery
from repro.geometry.filtered import segment_fp
from repro.geometry.segment import _rebuild_segment
from repro.iosim import ArenaView, BlockDevice, SnapshotFormatError, build_arena
from repro.iosim import restricted_loads

coords = st.one_of(
    st.integers(-10**6, 10**6),
    st.integers(-2**80, 2**80),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9),
)
labels = st.one_of(
    st.integers(),
    st.text(max_size=8),
    st.tuples(st.integers(), st.text(max_size=4)),
)


@st.composite
def segments(draw):
    x1, y1, x2, y2 = (draw(coords) for _ in range(4))
    assume((x1, y1) != (x2, y2))
    return Segment.from_coords(x1, y1, x2, y2, label=draw(labels))


@st.composite
def queries(draw):
    x = draw(coords)
    ylo = draw(st.one_of(st.none(), coords))
    yhi = draw(st.one_of(st.none(), coords))
    if ylo is not None and yhi is not None and ylo > yhi:
        ylo, yhi = yhi, ylo
    return VerticalQuery(x, ylo, yhi)


DECODERS = (pickle.loads, restricted_loads)


def _same_segment(a, b):
    assert a == b
    assert (a.start.x, a.start.y, a.end.x, a.end.y) == (
        b.start.x, b.start.y, b.end.x, b.end.y)
    assert type(a.start) is Point and type(a.end) is Point
    assert a._fp == segment_fp(a.start.x, a.start.y, a.end.x, a.end.y)


@given(segments(), st.integers(2, pickle.HIGHEST_PROTOCOL))
@settings(max_examples=200, deadline=None)
def test_segment_round_trip(segment, protocol):
    blob = pickle.dumps(segment, protocol=protocol)
    for loads in DECODERS:
        _same_segment(loads(blob), segment)


@given(coords, coords)
@settings(max_examples=100, deadline=None)
def test_point_round_trip(x, y):
    point = Point(x, y)
    for loads in DECODERS:
        assert loads(pickle.dumps(point, protocol=5)) == point


@given(queries())
@settings(max_examples=100, deadline=None)
def test_query_round_trip(query):
    for loads in DECODERS:
        back = loads(pickle.dumps(query, protocol=5))
        assert back == query
        assert back.balls() == query.balls()


def _arena_page(items):
    device = BlockDevice(max(8, len(items)))
    page = device.alloc()
    page.items = items
    device.write(page)
    view = ArenaView(build_arena(device, {"engine": "demo"}))
    return view.decode_page(page.page_id)


@given(st.lists(segments(), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_identity_within_a_page_survives_the_arena(segs):
    # Every segment appears twice; the decoded page must share, not copy.
    decoded = _arena_page(segs + segs).items
    n = len(segs)
    for i, segment in enumerate(segs):
        _same_segment(decoded[i], segment)
        assert decoded[i] is decoded[n + i]


class _Forged:
    """Pickles as an arbitrary call: a stream a hostile writer could send."""

    def __init__(self, func, args):
        self.func, self.args = func, args

    def __reduce__(self):
        return (self.func, self.args)


@given(st.integers(0, 3), st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=50, deadline=None)
def test_float_coordinate_in_a_reduced_stream_is_rejected(slot, value):
    fields = [0, 0, 5, 7]
    fields[slot] = value
    blob = pickle.dumps(_Forged(_rebuild_segment, (*fields, "x")), protocol=5)
    with pytest.raises(TypeError, match="exact rationals"):
        restricted_loads(blob)
    for forged in (_Forged(Point, (value, 1)),
                   _Forged(VerticalQuery, (value, None, None))):
        with pytest.raises(TypeError):
            restricted_loads(pickle.dumps(forged, protocol=5))


@given(coords, coords)
@settings(max_examples=50, deadline=None)
def test_degenerate_segment_in_a_reduced_stream_is_rejected(x, y):
    blob = pickle.dumps(_Forged(_rebuild_segment, (x, y, x, y, "x")),
                        protocol=5)
    with pytest.raises(ValueError, match="degenerate"):
        restricted_loads(blob)


def test_bool_coordinate_is_rejected():
    blob = pickle.dumps(_Forged(_rebuild_segment, (True, 0, 2, 2, "x")),
                        protocol=5)
    with pytest.raises(TypeError, match="bool"):
        restricted_loads(blob)


def test_reversed_endpoints_are_normalised():
    back = restricted_loads(pickle.dumps(
        _Forged(_rebuild_segment, (5, 7, 0, 0, "x")), protocol=5))
    assert back == Segment.from_coords(0, 0, 5, 7, label="x")


def test_forged_segment_in_an_arena_page_is_a_format_error():
    device = BlockDevice(8)
    page = device.alloc()
    page.items = [_Forged(_rebuild_segment, (0.5, 0, 1, 1, "x"))]
    device.write(page)
    view = ArenaView(build_arena(device, {"engine": "demo"}))
    with pytest.raises(SnapshotFormatError, match="undecodable blob"):
        view.decode_page(page.page_id)


# ----------------------------------------------------------------------
# slot-state streams (snapshots written before the compact reducers)
# ----------------------------------------------------------------------
class _SlotStatePickler(pickle.Pickler):
    """Pickles points and segments the way the default ``object``
    reduction did before they defined ``__reduce__``: ``NEWOBJ`` plus a
    ``(None, slots)`` state.  (``object.__reduce_ex__`` itself now
    defers to the class's ``__reduce__``, so the tuple is spelled out.)
    """

    def reducer_override(self, obj):
        if type(obj) in (Point, Segment):
            slots = {name: getattr(obj, name) for name in type(obj).__slots__}
            return (copyreg.__newobj__, (type(obj),), (None, slots))
        return NotImplemented


def _slot_state_dumps(obj):
    out = io.BytesIO()
    _SlotStatePickler(out, protocol=5).dump(obj)
    return out.getvalue()


@given(st.lists(segments(), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_slot_state_page_blob_decodes_equal(segs):
    items = segs + segs[:1]
    blob = _slot_state_dumps((items, {"kind": "leaf"}))
    decoded, header = restricted_loads(blob)
    assert header == {"kind": "leaf"}
    assert decoded == items
    for got, want in zip(decoded, items):
        _same_segment(got, want)
    assert decoded[0] is decoded[-1]


def test_slot_state_stream_cannot_plant_a_stale_float_cache():
    segment = Segment.from_coords(0, 0, 3, 9, label="s")
    segment._fp = (99.0,) * 8
    back = restricted_loads(_slot_state_dumps(segment))
    assert back._fp == segment_fp(0, 0, 3, 9)


def test_slot_state_stream_with_a_float_point_is_rejected():
    point = Point(1, 2)
    point.x = 0.5  # what a hostile writer could put in the slot dict
    with pytest.raises(TypeError, match="exact rationals"):
        restricted_loads(_slot_state_dumps(point))


def test_rebuilt_segment_keeps_fraction_and_int_types():
    segment = Segment.from_coords(Fraction(1, 3), 2, 4, Fraction(-7, 2),
                                  label=("t", 1))
    back = restricted_loads(pickle.dumps(segment, protocol=5))
    assert type(back.start.x) is Fraction and type(back.start.y) is int
    assert type(back.end.y) is Fraction
