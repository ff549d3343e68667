import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from crowdtrace import (
    MBR,
    Location,
    Segment,
    STKey,
    XzConfig,
    XzElement,
    bin_of,
    encode_key,
    sequence_code,
    spatial_scan_ranges,
    st_scan_ranges,
    xz2_element,
)
from crowdtrace.model import WORLD, TimeRange
from crowdtrace.xz import bins_of, xz2_codes
from conftest import loc


def enumerate_preorder(g):
    """Every element at depth <= g with its unit-square cell, in pre-order."""
    out = []

    def rec(digits, x0, y0, side):
        out.append((digits, (x0, y0, side)))
        if len(digits) == g:
            return
        half = side / 2.0
        for d in range(4):
            rec(digits + (d,), x0 + (d & 1) * half, y0 + (d >> 1) * half, half)

    rec((), 0.0, 0.0, 1.0)
    return out


def norm_window(window: MBR):
    x0 = (window.min_lon - (-180.0)) / 360.0
    y0 = (window.min_lat - (-90.0)) / 180.0
    x1 = (window.max_lon - (-180.0)) / 360.0
    y1 = (window.max_lat - (-90.0)) / 180.0
    return max(x0, 0.0), max(y0, 0.0), min(x1, 1.0), min(y1, 1.0)


def brute_force_codes(g: int, window: MBR) -> set[int]:
    """Codes of every element whose doubled cell intersects the window."""
    cfg = XzConfig(resolution=g)
    wx0, wy0, wx1, wy1 = norm_window(window)
    hits = set()
    for digits, (cx, cy, side) in enumerate_preorder(g):
        if cx <= wx1 and cy <= wy1 and cx + 2 * side >= wx0 and cy + 2 * side >= wy0:
            hits.add(sequence_code(XzElement(digits), cfg))
    return hits


def covered(ranges) -> set[int]:
    out = set()
    for lo, hi in ranges:
        out.update(range(lo, hi))
    return out


# --- element assignment ---------------------------------------------------------


def test_element_for_box_smaller_than_half_its_cell():
    from crowdtrace import xz2_element

    cfg = XzConfig(resolution=15)
    # inside the north-west / south-east / south-west chain: cell "21" is
    # [-90, 0) x [0, 45); this box is just over a quarter of it, anchored low
    box = MBR(-85.0, 2.0, -55.0, 17.0)
    assert xz2_element(box, cfg).digits == (2, 1, 0)


def test_element_for_box_spanning_near_half_world():
    from crowdtrace import xz2_element

    cfg = XzConfig(resolution=15)
    box = MBR(-170.0, -80.0, 0.0, 5.0)
    assert xz2_element(box, cfg).digits == (0,)


def test_element_for_whole_world_is_root():
    from crowdtrace import xz2_element

    cfg = XzConfig(resolution=15)
    assert xz2_element(MBR(-180.0, -90.0, 180.0, 90.0), cfg).digits == ()


def test_element_outside_world_rejected():
    from crowdtrace import xz2_element

    cfg = XzConfig(resolution=4)
    for box in (MBR(-181.0, 0.0, 5.0, 5.0), MBR(math.nan, 0.0, 5.0, 5.0)):
        with pytest.raises(ValueError):
            xz2_element(box, cfg)


def test_element_assignment_properties():
    from crowdtrace import xz2_element

    rng = random.Random(42)
    cfg = XzConfig(resolution=8)
    for _ in range(300):
        x0 = rng.uniform(-180, 179)
        y0 = rng.uniform(-90, 89)
        w = rng.uniform(0, 360) * rng.choice([1e-6, 1e-3, 0.1, 0.5])
        h = rng.uniform(0, 180) * rng.choice([1e-6, 1e-3, 0.1, 0.5])
        box = MBR(x0, y0, min(x0 + w, 180.0), min(y0 + h, 90.0))
        elem = xz2_element(box, cfg)
        cx, cy, side = elem.cell()
        bx0, by0, bx1, by1 = norm_window(box)
        # the cell contains the min corner and the doubled cell covers the box
        assert cx <= bx0 and by0 >= cy
        assert bx0 < cx + side + 1e-12 and by0 < cy + side + 1e-12
        assert bx1 <= cx + 2 * side + 1e-12 and by1 <= cy + 2 * side + 1e-12
        # deepest such cell: the next level's cell is smaller than the box
        if len(elem.digits) < cfg.resolution:
            assert side / 2.0 < max(bx1 - bx0, by1 - by0)


# --- closed-form cells against the quadtree descent ------------------------------

@st.composite
def boxes(draw):
    """Boxes inside the world: random ones of any size, ones whose min corner
    or extent sits on or one ulp off a dyadic cell edge, corners on the
    world's edges, and points."""
    w, h = WORLD.max_lon - WORLD.min_lon, WORLD.max_lat - WORLD.min_lat
    nudge = st.sampled_from([-math.inf, None, None, math.inf])

    def coord(lo, span):
        kind = draw(st.sampled_from(["random", "dyadic", "edge"]))
        if kind == "random":
            return draw(st.floats(lo, lo + span))
        if kind == "edge":
            return draw(st.sampled_from([lo, lo + span]))
        d = draw(st.integers(0, 31))
        x = lo + span * draw(st.integers(0, 2**d)) / 2**d
        toward = draw(nudge)
        return x if toward is None else math.nextafter(x, toward)

    def extent(span):
        kind = draw(st.sampled_from(["zero", "random", "dyadic"]))
        if kind == "zero":
            return 0.0
        if kind == "random":
            return span * draw(st.floats(0.0, 1.0)) * 2.0 ** -draw(st.integers(0, 40))
        e = span / 2 ** draw(st.integers(0, 33))
        toward = draw(nudge)
        return e if toward is None else max(0.0, math.nextafter(e, toward))

    x0 = min(max(coord(WORLD.min_lon, w), WORLD.min_lon), WORLD.max_lon)
    y0 = min(max(coord(WORLD.min_lat, h), WORLD.min_lat), WORLD.max_lat)
    return MBR(x0, y0, min(x0 + extent(w), WORLD.max_lon), min(y0 + extent(h), WORLD.max_lat))


def _columns(box_list):
    return [np.array([getattr(b, f) for b in box_list]) for f in ("min_lon", "min_lat", "max_lon", "max_lat")]


@st.composite
def layouts(draw):
    return XzConfig(resolution=draw(st.integers(1, 31))), draw(st.lists(boxes(), min_size=1, max_size=30))


@given(layouts())
@settings(max_examples=400, deadline=None)
def test_closed_form_cells_match_descent(layout):
    cfg, box_list = layout
    want = [reference.xz2_element(b, cfg) for b in box_list]
    assert [xz2_element(b, cfg) for b in box_list] == want
    assert xz2_codes(*_columns(box_list), cfg).tolist() == [sequence_code(e, cfg) for e in want]


@pytest.mark.parametrize("g", [1, 2, 15, 30, 31])
def test_closed_form_cells_on_the_world_edges(g):
    cfg = XzConfig(resolution=g)
    tiny = math.ulp(180.0)
    box_list = [
        MBR(180.0, 90.0, 180.0, 90.0), MBR(-180.0, -90.0, -180.0, -90.0), MBR(-180.0, 90.0, -180.0, 90.0),
        MBR(180.0 - tiny, 90.0 - tiny, 180.0, 90.0), MBR(-180.0, -90.0, 180.0, 90.0),
        MBR(0.0, 0.0, 0.0, 0.0), MBR(-0.0, -0.0, 0.0, 0.0), MBR(-tiny, -tiny, tiny, tiny),
        MBR(179.0, -90.0, 180.0, 90.0), MBR(-180.0, 89.0, 180.0, 90.0),
    ]
    want = [reference.xz2_element(b, cfg) for b in box_list]
    assert [xz2_element(b, cfg) for b in box_list] == want
    assert xz2_codes(*_columns(box_list), cfg).tolist() == [sequence_code(e, cfg) for e in want]
    assert len(want[0].digits) == len(want[1].digits) == g  # a point sits in a leaf


def test_closed_form_keys_match_descent_keys():
    cfg = XzConfig(resolution=15)
    rng = random.Random(9)
    for i in range(300):
        x, y = rng.uniform(-180, 179), rng.uniform(-90, 89)
        seg = Segment.build(f"s{i}#0", f"s{i}", [Location(x, y, 100), Location(x + rng.random(), y + rng.random(), 160)])
        key = encode_key(seg, cfg)
        assert key.xz2 == sequence_code(reference.xz2_element(seg.mbr, cfg), cfg)


@pytest.mark.parametrize("box", [MBR(-180.5, 40.0, 101.0, 41.0), MBR(110.0, 40.0, 180.5, 41.0),
                                 MBR(110.0, -90.5, 111.0, 31.0), MBR(110.0, 40.0, 111.0, 90.5),
                                 MBR(math.nan, 40.0, 111.0, 41.0), MBR(110.0, 40.0, 111.0, math.nan)])
def test_boxes_outside_the_world_raise(box):
    cfg = XzConfig(resolution=8)
    with pytest.raises(ValueError, match="outside indexed world"):
        reference.xz2_element(box, cfg)
    with pytest.raises(ValueError, match="outside indexed world"):
        xz2_element(box, cfg)
    inside = MBR(105.0, 35.0, 106.0, 36.0)
    with pytest.raises(ValueError, match="outside indexed world"):
        xz2_codes(*_columns([inside, box, inside]), cfg)


# --- sequence codes --------------------------------------------------------------


def test_code_of_root_is_zero():
    for g in (1, 3, 15, 31):
        assert sequence_code(XzElement(()), XzConfig(resolution=g)) == 0


def test_code_of_first_child_is_one():
    assert sequence_code(XzElement((0,)), XzConfig(resolution=15)) == 1


def test_code_by_preorder_enumeration_g3():
    cfg = XzConfig(resolution=3)
    elements = enumerate_preorder(3)
    position = {digits: i for i, (digits, _) in enumerate(elements)}
    assert sequence_code(XzElement((2, 1, 0)), cfg) == position[(2, 1, 0)] == 50


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_codes_are_exactly_preorder_positions(g):
    cfg = XzConfig(resolution=g)
    for i, (digits, _) in enumerate(enumerate_preorder(g)):
        assert sequence_code(XzElement(digits), cfg) == i


@pytest.mark.parametrize("g", [4, 6])
def test_code_bijectivity(g):
    cfg = XzConfig(resolution=g)
    codes = {sequence_code(XzElement(d), cfg) for d, _ in enumerate_preorder(g)}
    assert len(codes) == (4 ** (g + 1) - 1) // 3 == cfg.total_elements()
    assert min(codes) == 0 and max(codes) == cfg.total_elements() - 1


def test_code_rejects_too_deep_element():
    with pytest.raises(ValueError):
        sequence_code(XzElement((0, 1, 2)), XzConfig(resolution=2))


# --- time bins -------------------------------------------------------------------


def test_bin_of_epoch_is_zero():
    assert bin_of(0, XzConfig()) == 0


def test_bin_of_one_period_later():
    cfg = XzConfig(period_len=86_400)
    assert bin_of(86_400, cfg) == 1
    assert bin_of(86_399, cfg) == 0


def test_bin_of_before_epoch_rejected():
    with pytest.raises(ValueError):
        bin_of(-1, XzConfig())


@pytest.mark.parametrize("period_len", [2**63, 99999999999999999999, 0])
def test_a_period_that_does_not_fit_an_int64_is_refused(period_len):
    with pytest.raises(ValueError, match="period"):
        XzConfig(period_len=period_len)


def test_the_longest_period_bins_timestamps():
    cfg = XzConfig(period_len=2**63 - 1)
    assert bin_of(2**63 - 2, cfg) == 0
    assert bins_of(np.array([0, 2**63 - 1]), cfg).tolist() == [0, 1]


# --- row keys ---------------------------------------------------------------------


def _segment(sid: str, east: float = 0.0, t: int = 1000) -> Segment:
    return Segment.build(sid, sid.split("#")[0], [loc(east, 0, t), loc(east + 5, 0, t + 60)])


def test_key_layout_and_parse():
    cfg = XzConfig(resolution=15)
    seg = _segment("tr#0")
    key = encode_key(seg, cfg)
    raw = key.packed()
    assert len(raw) == 13 + len(b"tr#0")
    zero, bin_, code = struct.unpack_from(">BIQ", raw)
    assert STKey(bin_, code, raw[13:].decode("utf-8")) == key
    assert (zero, bin_, code) == (0, key.bin, key.xz2)
    assert raw[13:] == b"tr#0"


def test_same_geometry_different_sid_differ_only_in_suffix():
    cfg = XzConfig()
    a = Segment.build("tr#0", "tr", [loc(0, 0, 50), loc(5, 0, 110)])
    b = Segment.build("tr#1", "tr", [loc(0, 0, 50), loc(5, 0, 110)])
    ka, kb = encode_key(a, cfg).packed(), encode_key(b, cfg).packed()
    assert ka[:13] == kb[:13]
    assert ka[13:] == b"tr#0" and kb[13:] == b"tr#1"


def test_single_shard_keys_start_with_zero_byte():
    cfg = XzConfig()
    for i in range(20):
        raw = encode_key(_segment(f"t{i}#0", east=i * 50.0), cfg).packed()
        assert raw[0] == 0


def test_cross_period_segment_rejected():
    cfg = XzConfig(period_len=100)
    seg = Segment.build("a#0", "a", [loc(0, 0, 90), loc(0, 0, 150)])
    with pytest.raises(ValueError):
        encode_key(seg, cfg)


def test_key_byte_order_equals_tuple_order():
    rng = random.Random(7)
    cfg = XzConfig(resolution=12, period_len=600)
    keys = []
    for i in range(10_000):
        east = rng.uniform(-2_000_000, 2_000_000)
        north = rng.uniform(-2_000_000, 2_000_000)
        t = rng.randrange(0, 50_000)
        seg = Segment.build(
            f"t{rng.randrange(1000)}#{i}",
            "t",
            [loc(east / 1000, north / 1000, t)],
        )
        keys.append(encode_key(seg, cfg))
    by_bytes = sorted(keys, key=lambda k: k.packed())
    by_tuple = sorted(keys, key=lambda k: (k.bin, k.xz2, k.sid))
    assert [k.packed() for k in by_bytes] == [k.packed() for k in by_tuple]


# --- scan planning ----------------------------------------------------------------


def test_world_window_single_full_interval():
    cfg = XzConfig(resolution=5)
    ranges = spatial_scan_ranges(MBR(-180, -90, 180, 90), cfg)
    assert ranges == [(0, cfg.total_elements())]


@pytest.mark.parametrize("g", [2, 3, 4])
def test_scan_codes_equal_brute_force_exhaustive(g):
    cfg = XzConfig(resolution=g)
    rng = random.Random(g)
    for _ in range(60):
        x0 = rng.uniform(-180, 180)
        y0 = rng.uniform(-90, 90)
        x1 = min(180.0, x0 + rng.uniform(0, 120))
        y1 = min(90.0, y0 + rng.uniform(0, 60))
        window = MBR(x0, y0, x1, y1)
        got = covered(spatial_scan_ranges(window, cfg))
        assert got == brute_force_codes(g, window)


def test_scan_codes_equal_brute_force_g6_random():
    cfg = XzConfig(resolution=6)
    rng = random.Random(66)
    for _ in range(40):
        x0 = rng.uniform(-180, 180)
        y0 = rng.uniform(-90, 90)
        scale = rng.choice([0.5, 5.0, 40.0])
        window = MBR(x0, y0, min(180.0, x0 + rng.uniform(0, scale)), min(90.0, y0 + rng.uniform(0, scale / 2)))
        got = covered(spatial_scan_ranges(window, cfg))
        want = brute_force_codes(6, window)
        assert got == want


def test_window_inside_single_leaf_includes_ancestor_chain():
    g = 4
    cfg = XzConfig(resolution=g)
    # a window strictly inside the leaf holding this point
    window = MBR(100.001, 40.001, 100.002, 40.002)
    got = covered(spatial_scan_ranges(window, cfg))
    assert got == brute_force_codes(g, window)
    from crowdtrace import xz2_element

    leaf = xz2_element(window, cfg)
    assert len(leaf.digits) == g
    for depth in range(g + 1):
        ancestor = XzElement(leaf.digits[:depth])
        assert sequence_code(ancestor, cfg) in got


def test_scan_ranges_sorted_and_disjoint():
    cfg = XzConfig(resolution=6)
    rng = random.Random(3)
    for _ in range(50):
        x0 = rng.uniform(-180, 175)
        y0 = rng.uniform(-90, 85)
        window = MBR(x0, y0, x0 + 4.0, y0 + 2.0)
        ranges = spatial_scan_ranges(window, cfg)
        for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert hi1 < lo2  # sorted, disjoint and not mergeable further
        assert all(lo < hi for lo, hi in ranges)


def test_disjoint_window_yields_nothing():
    cfg = XzConfig(resolution=4)
    assert spatial_scan_ranges(MBR(190.0, 20.0, 200.0, 30.0), cfg) == []
    assert spatial_scan_ranges(MBR(20.0, 95.0, 30.0, 100.0), cfg) == []


# --- spatio-temporal ranges --------------------------------------------------------


def test_st_ranges_single_bin_single_shard():
    cfg = XzConfig(resolution=4, period_len=1000)
    window = MBR(10.0, 10.0, 11.0, 11.0)
    k = len(spatial_scan_ranges(window, cfg))
    ranges = st_scan_ranges(window, TimeRange(1500, 1600), cfg)
    # bin 1 plus the leading bin 0
    assert len(ranges) == 2 * k
    bins = {struct.unpack_from(">BIQ", r.low)[1] for r in ranges}
    assert bins == {0, 1}
    ranges = st_scan_ranges(window, TimeRange(1100, 3900), cfg)  # bins 1..3 plus leading 0
    assert len(ranges) == 4 * k
    assert [r.low for r in ranges] == sorted(r.low for r in ranges)


def test_st_ranges_clamp_before_epoch():
    cfg = XzConfig(resolution=4, period_len=1000)
    window = MBR(10.0, 10.0, 11.0, 11.0)
    ranges = st_scan_ranges(window, TimeRange(-500, 100), cfg)
    bins = {struct.unpack_from(">BIQ", r.low)[1] for r in ranges}
    assert bins == {0}
    assert st_scan_ranges(window, TimeRange(-500, -100), cfg) == []
