import math
import random
import struct
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdtrace import (
    MBR,
    FileBackend,
    Location,
    MemoryBackend,
    Segment,
    SegmentationConfig,
    TimeRange,
    Trajectory,
    XzConfig,
    decode_segment,
    encode_segment,
    ingest,
    load_trajectory,
    st_query,
    storage_segments,
)
import crowdtrace.store as store
from crowdtrace.store import expand_time_range, st_read
from crowdtrace.xz import KEY_HEAD, bin_of, encode_key, period_spans, st_scan_ranges
from conftest import loc, open_backend as _open
import reference
from reference import ALL_KEYS, expand_mbr, peek_header, scan_all

CFG = XzConfig(resolution=10)
SEG = SegmentationConfig()


def make_store(trajectories, cfg=CFG, seg_cfg=SEG):
    backend = MemoryBackend()
    n = ingest(trajectories, cfg, seg_cfg, backend)
    return backend, n


# --- codec -------------------------------------------------------------------------

locations_strategy = st.lists(
    st.builds(
        Location,
        lon=st.floats(-180.0, 180.0, allow_nan=False),
        lat=st.floats(-90.0, 90.0, allow_nan=False),
        t=st.integers(0, 2**40),
    ),
    min_size=1,
    max_size=30,
).map(lambda ls: sorted(ls, key=lambda l: l.t))


@given(locations_strategy, st.text(min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_codec_roundtrip_exact(locs, name):
    seg = Segment.build(f"{name}#0", name, locs)
    buf = encode_segment(seg)
    assert decode_segment(buf) == seg
    box = seg.mbr
    assert peek_header(buf) == (
        box.min_lon, box.min_lat, box.max_lon, box.max_lat, seg.st, seg.et, seg.traj_id)


# --- backends ------------------------------------------------------------------------


def backend_contract(backend):
    backend.put(b"\x02b", b"two")
    backend.put(b"\x01a", b"one")
    backend.put(b"\x03c", b"three")
    assert [k for k, _ in backend.scan(b"\x01", b"\x03")] == [b"\x01a", b"\x02b"]
    assert [v for _, v in backend.scan(b"", b"\xff")] == [b"one", b"two", b"three"]
    backend.put(b"\x02b", b"TWO")  # overwrite in place
    assert [v for _, v in backend.scan(b"\x02", b"\x03")] == [b"TWO"]
    assert len(backend) == 3


def test_memory_backend_contract():
    backend_contract(MemoryBackend())


def test_file_backend_contract(tmp_path):
    with FileBackend(str(tmp_path / "segments.log")) as backend:
        backend_contract(backend)


def test_file_backend_survives_reopen(tmp_path):
    path = str(tmp_path / "segments.log")
    with FileBackend(path) as backend:
        backend.put(b"k1", b"v1")
        backend.put(b"k2", b"v2")
        backend.put(b"k1", b"v1-final")
    with FileBackend(path) as backend:
        assert dict(backend.scan(b"", b"\xff")) == {b"k1": b"v1-final", b"k2": b"v2"}


def test_file_backend_torn_tail_is_cut_by_the_next_write(tmp_path):
    path = tmp_path / "segments.log"
    with FileBackend(str(path)) as backend:
        backend.put(b"k1", b"v1")
        backend.put(b"k2", b"v2")
    with open(path, "ab") as fh:
        fh.write(b"\x07\x00\x00")  # a torn frame header
    torn = path.read_bytes()
    with FileBackend(str(path)) as backend:
        assert dict(backend.scan(b"", b"\xff")) == {b"k1": b"v1", b"k2": b"v2"}
    assert path.read_bytes() == torn  # reading alone leaves the file as it was
    with FileBackend(str(path)) as backend:
        backend.put(b"k3", b"v3")
    with FileBackend(str(path)) as backend:
        assert dict(backend.scan(b"", b"\xff")) == {b"k1": b"v1", b"k2": b"v2", b"k3": b"v3"}


def test_file_backend_torn_value_is_cut_by_the_next_write(tmp_path):
    path = tmp_path / "segments.log"
    with FileBackend(str(path)) as backend:
        backend.put(b"k1", b"v1")
        backend.put(b"k2", b"a value cut short")
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size - 5)
    with FileBackend(str(path)) as backend:
        assert dict(backend.scan(b"", b"\xff")) == {b"k1": b"v1"}
        backend.put(b"k3", b"v3")
    with FileBackend(str(path)) as backend:
        assert dict(backend.scan(b"", b"\xff")) == {b"k1": b"v1", b"k3": b"v3"}


def test_file_backend_skips_a_put_of_the_bytes_the_key_holds(tmp_path):
    path = tmp_path / "segments.log"
    one_frame = len(b"CTLOG1\n") + 8 + len(b"k1") + len(b"value-1")
    with FileBackend(str(path)) as backend:
        backend.put(b"k1", b"value-1")
        backend.put(b"k1", b"value-1")  # the first copy is still in the write buffer
    assert path.stat().st_size == one_frame
    with FileBackend(str(path)) as backend:
        backend.put(b"k1", b"value-1")
        backend.put(b"k1", b"value-2")  # same length, other bytes: appended, and it wins
        assert dict(backend.scan(b"", b"\xff")) == {b"k1": b"value-2"}
    assert path.stat().st_size == 2 * one_frame - len(b"CTLOG1\n")
    with FileBackend(str(path)) as backend:
        assert dict(backend.scan(b"", b"\xff")) == {b"k1": b"value-2"}
        backend.put(b"k1", b"value-1")  # back to the first bytes: a new frame again
        backend.put(b"k2", b"longer value")
        backend.put(b"k2", b"longer value")
    with FileBackend(str(path)) as backend:
        assert dict(backend.scan(b"", b"\xff")) == {b"k1": b"value-1", b"k2": b"longer value"}


def test_file_backend_skipped_put_leaves_a_torn_tail_for_the_next_write(tmp_path):
    path = tmp_path / "segments.log"
    with FileBackend(str(path)) as backend:
        backend.put(b"k1", b"v1")
    with open(path, "ab") as fh:
        fh.write(b"\x07\x00\x00")  # a torn frame header
    torn = path.read_bytes()
    with FileBackend(str(path)) as backend:
        backend.put(b"k1", b"v1")
    assert path.read_bytes() == torn
    with FileBackend(str(path)) as backend:
        backend.put(b"k1", b"v1")
        backend.put(b"k2", b"v2")
    with FileBackend(str(path)) as backend:
        assert dict(backend.scan(b"", b"\xff")) == {b"k1": b"v1", b"k2": b"v2"}


def test_file_backend_concurrent_scans(tmp_path):
    rng = random.Random(4)
    items = {bytes([rng.randrange(256) for _ in range(6)]): rng.randbytes(rng.randint(1, 300))
             for _ in range(400)}
    # segment records under row keys, which no raw key above falls among
    cfg = XzConfig(resolution=12, period_len=3600)
    segments = MemoryBackend()
    for i in range(300):
        t0 = 3600 * rng.randrange(0, 4) + rng.randrange(0, 3000)
        east, north = rng.uniform(-3_000, 3_000), rng.uniform(-3_000, 3_000)
        seg = Segment.build(f"t{i}#0", f"t{i}", [loc(east, north, t0), loc(east + 40, north, t0 + 90)])
        segments.put(encode_key(seg, cfg).packed(), encode_segment(seg))
    items.update(segments.scan(b"", b"\xff"))
    path = str(tmp_path / "segments.log")
    with FileBackend(path) as backend:
        for key, value in items.items():
            backend.put(key, value)
    want = sorted(items.items())
    windows = []
    for _ in range(20):
        sw = loc(rng.uniform(-3_500, 2_500), rng.uniform(-3_500, 2_500), 0)
        t0 = rng.randrange(0, 14_000)
        windows.append((MBR(sw.lon, sw.lat, sw.lon + 0.01, sw.lat + 0.008), TimeRange(t0, t0 + 2_000)))
    want_hits = [_decode_everything(segments, expand_mbr(w, 50.0), expand_time_range(tr, 120.0))
                 for w, tr in windows]
    assert sum(map(len, want_hits)) > 0
    errors = []

    def reader(seed):
        r = random.Random(seed)
        try:
            for _ in range(30):
                low, high = sorted(r.randbytes(2) for _ in range(2))
                got = list(backend.scan(low, high))
                assert got == [(k, v) for k, v in want if low <= k < high]
        except BaseException as exc:  # surfaced below, from the main thread
            errors.append(exc)

    def querier(seed):
        order = list(range(len(windows)))
        random.Random(seed).shuffle(order)
        try:
            for i in order:
                w, tr = windows[i]
                assert st_query(w, tr, 50.0, 120.0, backend, cfg) == want_hits[i]
        except BaseException as exc:
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the lazy sort too
    try:
        with FileBackend(path) as backend:  # the threads race to build its sorted keys
            threads = [threading.Thread(target=fn, args=(i,))
                       for i in range(4) for fn in (reader, querier)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_file_backend_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.log"
    path.write_bytes(b"whatever this is")
    with pytest.raises(ValueError):
        FileBackend(str(path))


def test_backend_equivalence_random_workload(tmp_path):
    rng = random.Random(11)
    mem = MemoryBackend()
    disk = FileBackend(str(tmp_path / "segments.log"))
    keys = [bytes([rng.randrange(256) for _ in range(8)]) for _ in range(500)]
    for i, key in enumerate(keys):
        value = f"v{i}".encode()
        mem.put(key, value)
        disk.put(key, value)
    for _ in range(50):
        low = bytes([rng.randrange(256) for _ in range(4)])
        high = bytes([rng.randrange(256) for _ in range(4)])
        if low > high:
            low, high = high, low
        assert list(mem.scan(low, high)) == list(disk.scan(low, high))
    disk.close()


def _segment_value(i: int, east: float = 0.0, t0: int = 100) -> bytes:
    seg = Segment.build(f"s{i}#0", f"s{i}", [loc(east, 0, t0), loc(east + 30, 10, t0 + 60)])
    return encode_segment(seg)


def assert_header_columns(backend, want: dict[bytes, bytes]):
    """The backend holds ``want``, and the key-ordered header columns the
    window tests read are the header of every stored value, in key order, to
    the bit (so a -0.0 corner stays -0.0)."""
    order = backend._order()
    stored = list(backend.scan(b"", b"\xff" * 64))
    assert stored == sorted(want.items())
    assert order.keys == [k for k, _ in stored]
    heads = np.empty(len(stored), store._HEADER_DTYPE)
    for name, column in zip(store._HEADER_DTYPE.names, order.columns):
        heads[name] = column
    assert [tuple(h) for h in heads.tolist()] == [peek_header(v)[:6] for _, v in stored]
    assert heads.tobytes() == b"".join(v[: store._HEADER.size] for _, v in stored)


EVERYWHERE = (MBR(-180.0, -90.0, 180.0, 90.0), TimeRange(-(2**70), 2**70))


def _refine_all(backend, w=EVERYWHERE[0], t=EVERYWHERE[1]):
    return list(backend.read(backend.refine([store.ScanRange(b"", b"\xff" * 64)], w, t)))


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_header_columns_follow_every_put(tmp_path, kind):
    backend = _open(kind, tmp_path)
    want = {f"k{i:02d}".encode(): _segment_value(i, east=100.0 * i) for i in range(20)}
    zero = Segment.build("z#0", "z", [Location(-0.0, 0.0, 5), Location(0.0, -0.0, 9)])
    want[b"k99"] = encode_segment(zero)  # -0.0 and 0.0 box corners
    for key, value in want.items():
        backend.put(key, value)
    assert_header_columns(backend, want)
    old_box = decode_segment(want[b"k03"]).mbr
    moved = want[b"k03"] = _segment_value(3, east=-5_000.0)
    backend.put(b"k03", moved)  # an overwrite with a changed box
    assert_header_columns(backend, want)
    tr = TimeRange(0, 1_000)
    assert moved in _refine_all(backend, decode_segment(moved).mbr, tr)
    assert [v for v in _refine_all(backend, old_box, tr) if peek_header(v)[6] == "s3"] == []
    backend.put(b"k03", moved)  # the bytes the key holds: skipped by the file log
    assert_header_columns(backend, want)
    want[b"k50"] = _segment_value(50, east=-3_000.0)
    backend.put(b"k50", want[b"k50"])  # a new key after a scan
    assert_header_columns(backend, want)
    assert want[b"k50"] in _refine_all(backend, decode_segment(want[b"k50"]).mbr, tr)
    if kind == "file":
        backend.close()
        assert len(backend) == 0  # a closed backend lets its index go
        with FileBackend(str(tmp_path / "segments.log")) as reopened:
            assert_header_columns(reopened, want)
            assert _refine_all(reopened) == [v for _, v in sorted(want.items())]


def test_header_columns_after_a_torn_tail_is_cut(tmp_path):
    path = tmp_path / "segments.log"
    want = {b"k1": _segment_value(1), b"k2": _segment_value(2, east=500.0)}
    with FileBackend(str(path)) as backend:
        for key, value in want.items():
            backend.put(key, value)
    with open(path, "ab") as fh:
        fh.write(b"\x07\x00\x00")  # a torn frame header
    with FileBackend(str(path)) as backend:
        assert_header_columns(backend, want)
        want[b"k2"] = _segment_value(2, east=900.0)
        want[b"k3"] = _segment_value(3, east=-700.0)
        backend.put(b"k2", want[b"k2"])  # cuts the tail
        backend.put(b"k3", want[b"k3"])
        assert_header_columns(backend, want)
    with FileBackend(str(path)) as backend:
        assert_header_columns(backend, want)


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_value_shorter_than_a_header_passes_no_window(tmp_path, kind):
    backend = _open(kind, tmp_path)
    whole = _segment_value(1)
    backend.put(b"a", b"")
    backend.put(b"b", whole[: store._HEADER.size - 1])
    backend.put(b"c", whole)
    backend.put(b"d", b"short")
    backend.put(b"e", b"")
    backend.put(b"e", whole)  # a short value overwritten by a whole one
    assert _refine_all(backend) == [whole, whole]
    assert dict(backend.scan(b"", b"\xff"))[b"b"] == whole[: store._HEADER.size - 1]
    assert len(backend) == 5
    if kind == "file":
        backend.close()
        with FileBackend(str(tmp_path / "segments.log")) as reopened:
            assert _refine_all(reopened) == [whole, whole]
            assert len(reopened) == 5


def test_refine_bounds_are_inclusive():
    backend = MemoryBackend()
    seg = Segment.build("a#0", "a", [Location(0.001, 0.002, 100), Location(0.002, 0.003, 160)])
    backend.put(b"k", encode_segment(seg))
    touching = [
        (MBR(0.002, 0.003, 0.004, 0.004), TimeRange(160, 200)),  # corner to corner, et == start
        (MBR(-0.001, -0.001, 0.001, 0.002), TimeRange(0, 100)),  # st == end
        (MBR(0.0015, 0.0, 0.0015, 0.0025), TimeRange(130, 130)),  # a degenerate window inside
    ]
    for w, t in touching:
        assert _refine_all(backend, w, t) == [encode_segment(seg)]
    apart = [
        (MBR(math.nextafter(0.002, 1.0), 0.003, 0.004, 0.004), TimeRange(0, 200)),
        (MBR(-0.001, -0.001, 0.001, 0.002), TimeRange(0, 99)),
        (MBR(-0.001, -0.001, 0.001, 0.002), TimeRange(161, 2**70)),
    ]
    for w, t in apart:
        assert _refine_all(backend, w, t) == []


_GRID = st.sampled_from([-0.002, -0.001, -0.0, 0.0, 0.001, 0.002])
_OFFSETS = st.sampled_from([0, 1, 60, 120, 1799, 3599])


@st.composite
def _stored_segments(draw):
    segs = []
    for _ in range(draw(st.integers(1, 12))):
        period = draw(st.integers(0, 2))
        times = sorted(draw(st.lists(_OFFSETS, min_size=1, max_size=4)))
        locs = [Location(draw(_GRID), draw(_GRID), 3600 * period + t) for t in times]
        sid = draw(st.sampled_from(["a#0", "a#1", "b#0", "c#0"]))  # a sid may recur: stale copies
        segs.append(Segment.build(sid, sid[0], locs))
    return segs


@st.composite
def _windows(draw):
    lons = sorted([draw(_GRID), draw(_GRID)])
    lats = sorted([draw(_GRID), draw(_GRID)])
    times = sorted(3600 * draw(st.integers(0, 2)) + draw(_OFFSETS) for _ in range(2))
    return MBR(lons[0], lats[0], lons[1], lats[1]), TimeRange(*times)


@given(_stored_segments(), st.lists(_windows(), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_st_query_backends_agree_with_a_decode_everything_scan(segs, windows):
    cfg = XzConfig(resolution=8, period_len=3600)
    mem = MemoryBackend()
    with tempfile.TemporaryDirectory() as tmp, FileBackend(f"{tmp}/segments.log") as disk:
        for seg in segs:
            key, value = encode_key(seg, cfg).packed(), encode_segment(seg)
            mem.put(key, value)
            disk.put(key, value)
        for w, tr in windows:
            want = _decode_everything(mem, w, tr)  # no reach: window edges meet box edges
            assert st_query(w, tr, 0.0, 0.0, mem, cfg) == want
            assert st_query(w, tr, 0.0, 0.0, disk, cfg) == want


# --- the window's period spans, against the curve ranges planned within them -------------


def _positions_by_path(w, tr, theta_d, theta_t, backend, cfg):
    """``_window_positions``, which tests every record of the window's period
    spans, and the records the curve ranges planned for each grown box keep."""
    t = expand_time_range(tr, theta_t)
    planned = [backend.refine(st_scan_ranges(box, t, cfg), box, t) for box in store.expand_boxes(w, theta_d)]
    return [store._window_positions(w, tr, theta_d, theta_t, backend, cfg).tolist(),
            np.unique(np.concatenate(planned)).tolist()]


def _header_scan(backend, w, tr, theta_d, theta_t):
    """The key-order positions of every record whose header meets the grown
    window: the header tests, one record at a time, over the whole store."""
    boxes, t = store.expand_boxes(w, theta_d), expand_time_range(tr, theta_t)
    found = []
    for at, (_, value) in enumerate(backend.scan(*ALL_KEYS)):
        if len(value) >= store._HEADER.size:
            min_lon, min_lat, max_lon, max_lat, st_, et = store._HEADER.unpack_from(value)
            box = MBR(min_lon, min_lat, max_lon, max_lat)
            if any(box.intersects(b) for b in boxes) and TimeRange(st_, et).intersects(t):
                found.append(at)
    return found


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_window_query_never_serves_an_overwritten_box(tmp_path, kind):
    cfg = XzConfig(resolution=10, period_len=3600)
    old = Segment.build("m#0", "m", [loc(0, 0, 100), loc(10, 0, 160)])
    moved = Segment.build("m#0", "m", [loc(200, 0, 100), loc(210, 0, 160)])
    key = encode_key(old, cfg).packed()
    assert encode_key(moved, cfg).packed() == key  # a store ingest could write: the key still covers the box
    backend = _open(kind, tmp_path)
    for i in range(1, 6):
        seg = Segment.build(f"n{i}#0", f"n{i}", [loc(-500.0 * i, 0, 100), loc(-500.0 * i, 10, 160)])
        backend.put(encode_key(seg, cfg).packed(), encode_segment(seg))
    backend.put(key, encode_segment(old))
    tr = TimeRange(100, 160)

    def sids(box, backend=backend):
        got = st_query(box, tr, 0.0, 0.0, backend, cfg)
        paths = _positions_by_path(box, tr, 0.0, 0.0, backend, cfg)
        assert paths[0] == paths[1] == _header_scan(backend, box, tr, 0.0, 0.0)
        return {s.sid: s for s in got}

    assert sids(old.mbr)["m#0"] == old  # the key-ordered columns now hold the old box
    backend.put(key, encode_segment(moved))
    assert sids(moved.mbr)["m#0"] == moved
    assert "m#0" not in sids(old.mbr)
    late = Segment.build("z#0", "z", [loc(900, 0, 120), loc(905, 0, 150)])
    assert "z#0" not in sids(late.mbr)
    backend.put(encode_key(late, cfg).packed(), encode_segment(late))  # a new key between two reads
    assert sids(late.mbr)["z#0"] == late
    if kind == "file":
        backend.close()
        with FileBackend(str(tmp_path / "segments.log")) as reopened:
            assert sids(moved.mbr, reopened)["m#0"] == moved
            assert "m#0" not in sids(old.mbr, reopened)
            assert sids(late.mbr, reopened)["z#0"] == late
            reopened.put(key, encode_segment(old))  # over a replayed index, which holds a stale frame's slot
            assert sids(old.mbr, reopened)["m#0"] == old
            assert "m#0" not in sids(moved.mbr, reopened)


def test_window_past_the_last_period_a_key_holds():
    cfg = XzConfig(resolution=10, period_len=3600)
    seg = Segment.build("a#0", "a", [loc(0, 0, 100), loc(10, 0, 160)])
    backend = _put_all([seg], cfg)
    beyond = 3600 * 2**32  # the first second of a period no key holds
    assert st_query(seg.mbr, TimeRange(0, beyond + 5), 0.0, 0.0, backend, cfg) == [seg]
    assert st_query(seg.mbr, TimeRange(beyond, beyond + 5), 0.0, 0.0, backend, cfg) == []
    last = Segment.build("b#0", "b", [loc(0, 0, beyond - 60), loc(10, 0, beyond - 1)])
    backend.put(encode_key(last, cfg).packed(), encode_segment(last))
    near = TimeRange(beyond - 2 * 3600, beyond + 5)
    # both the planner and the period spans stop at the last period a key holds
    assert {KEY_HEAD.unpack_from(r.low)[1] for r in st_scan_ranges(seg.mbr, near, cfg)} == {2**32 - 3, 2**32 - 2, 2**32 - 1}
    assert [KEY_HEAD.unpack_from(r.high)[1] for r in period_spans(near, cfg)] == [2**32 - 1]
    assert st_scan_ranges(seg.mbr, TimeRange(beyond + 3600, beyond + 7200), cfg) == []
    assert period_spans(TimeRange(beyond + 3600, beyond + 7200), cfg) == []
    found = _positions_by_path(seg.mbr, near, 0.0, 0.0, backend, cfg)
    assert found[0] == found[1] == _header_scan(backend, seg.mbr, near, 0.0, 0.0) == [1]
    assert st_query(seg.mbr, near, 0.0, 0.0, backend, cfg) == [last]


_EPOCH = 1_000
_LONS = st.sampled_from([-180.0, -179.9999, -179.99, -0.001, 0.0, 0.002, 179.99, 179.9999, 180.0])
_LATS = st.sampled_from([-90.0, -85.0, -84.9999, -0.001, 0.0, 0.002, 84.9999, 85.0, 89.99])


@st.composite
def _spread_segments(draw):
    """Segments over several periods, near the antimeridian, the poles and
    the origin, each within one period of an epoch-shifted config."""
    segs = []
    for i in range(draw(st.integers(0, 14))):
        period = draw(st.integers(0, 3))
        times = sorted(draw(st.lists(st.integers(0, 3599), min_size=1, max_size=3)))
        locs = [Location(draw(_LONS), draw(_LATS), _EPOCH + 3600 * period + t) for t in times]
        sid = f"{draw(st.sampled_from('abc'))}#{i % 3}"  # a sid may recur: stale copies
        segs.append(Segment.build(sid, sid[0], locs))
    return segs


@st.composite
def _spread_windows(draw):
    lons, lats = sorted([draw(_LONS), draw(_LONS)]), sorted([draw(_LATS), draw(_LATS)])
    start = draw(st.integers(_EPOCH - 9_000, _EPOCH + 4 * 3600))
    tr = TimeRange(start, start + draw(st.sampled_from([0, 1, 600, 3599, 8000])))
    return MBR(lons[0], lats[0], lons[1], lats[1]), tr, draw(st.sampled_from([0.0, 50.0, 3_000.0, 500_000.0]))


@given(_spread_segments(), st.integers(1, 3), st.lists(st.integers(0, 3), max_size=3),
       st.lists(_spread_windows(), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_both_access_paths_equal_a_header_scan(segs, num_shards, short_periods, windows):
    cfg = XzConfig(resolution=6, epoch=_EPOCH, period_len=3600, num_shards=num_shards)
    backend = MemoryBackend()
    for seg in segs:
        backend.put(encode_key(seg, cfg).packed(), encode_segment(seg))
    for k, period in enumerate(short_periods):  # short values inside a span: NaN headers meet nothing
        backend.put(KEY_HEAD.pack(k % num_shards, period, k) + b"short", b"short"[: 2 * k])
    for w, tr, theta_d in windows:
        for theta_t in (0.0, 900.0):
            want = _header_scan(backend, w, tr, theta_d, theta_t)
            assert _positions_by_path(w, tr, theta_d, theta_t, backend, cfg) == [want, want]


# --- ingest ----------------------------------------------------------------------------


def test_ingest_empty_input():
    backend, n = make_store([])
    assert n == 0 and len(backend) == 0


def test_ingest_single_point_trajectory():
    backend, n = make_store([Trajectory("a", [loc(0, 0, 100)])])
    assert n == 1
    segs = list(scan_all(backend))
    assert len(segs) == 1 and segs[0].sid == "a#0"


def test_ingest_four_cluster_trajectory():
    points = []
    t = 0
    for cluster in range(4):
        for k in range(5):
            points.append(loc(cluster * 1000.0 + 10.0 * k, 0, t))
            t += 60
    backend, n = make_store([Trajectory("walk", points)])
    assert n == 4


def test_ingest_is_idempotent():
    traj = Trajectory("a", [loc(0, 0, 100), loc(5, 0, 160)])
    backend = MemoryBackend()
    assert ingest([traj], CFG, SEG, backend) == 1
    assert ingest([traj], CFG, SEG, backend) == 1
    assert len(backend) == 1


def test_ingest_rejects_pre_epoch_trajectory():
    cfg = XzConfig(resolution=10, epoch=1000)
    backend = MemoryBackend()
    n = ingest([Trajectory("old", [loc(0, 0, 10)])], cfg, SEG, backend)
    assert n == 0 and len(backend) == 0


# the last timestamp whose period number (epoch 0, one-day periods) fits a key's 32 bits
LAST_KEYED_T = 2**32 * 86_400 - 1


def test_ingest_accepts_the_last_period_a_key_holds():
    backend, n = make_store([Trajectory("a", [loc(0, 0, LAST_KEYED_T)])])
    assert n == 1 and len(backend) == 1


def test_ingest_refuses_a_period_past_the_key_before_any_put():
    backend = MemoryBackend()
    ok = Trajectory("ok", [loc(0, 0, 100), loc(5000, 0, 700)])
    far = Trajectory("far", [loc(0, 0, LAST_KEYED_T + 1)])
    with pytest.raises(ValueError, match="period"):
        ingest([ok, far], CFG, SEG, backend)
    assert len(backend) == 0


def test_storage_segments_split_at_period_boundary():
    cfg = XzConfig(resolution=10, period_len=86_400)
    # a dwell straddling midnight: one stay-point run, two storage segments
    t0 = 86_400 - 120
    points = [loc(0, 0, t0 + 60 * k) for k in range(5)]
    segs = storage_segments(Trajectory("n", points), cfg, SEG)
    assert len(segs) == 2
    assert [s.sid for s in segs] == ["n#0", "n#1"]
    for s in segs:
        assert bin_of(s.st, cfg) == bin_of(s.et, cfg)
    assert sum(len(s.locations) for s in segs) == len(points)


def test_storage_segments_force_close_at_period_length():
    cfg = XzConfig(resolution=10, period_len=600)
    seg_cfg = SegmentationConfig(d_seg=200.0, t_seg=100_000, max_speed=50.0)
    points = [loc(0, 0, 200 * k) for k in range(20)]
    segs = storage_segments(Trajectory("long", points), cfg, seg_cfg)
    assert all(s.et - s.st <= cfg.period_seconds for s in segs)
    assert all(bin_of(s.st, cfg) == bin_of(s.et, cfg) for s in segs)


# --- window expansion --------------------------------------------------------------------


def test_expand_mbr_covers_reach():
    # points at exactly the reach must stay inside the expanded box
    box = MBR(116.39, 39.9, 116.40, 39.91)
    pad = 50.0
    grown = expand_mbr(box, pad)
    for bearing_east, bearing_north in [(0, 1), (0, -1), (1, 0), (-1, 0)]:
        edge = loc(0, 0, 0, lon0=116.39, lat0=39.91)
        probe = loc(bearing_east * pad, bearing_north * pad, 0, lon0=edge.lon, lat0=edge.lat)
        if bearing_north >= 0 and bearing_east <= 0:
            assert grown.contains_point(probe.lon, probe.lat)


def test_expand_time_range():
    assert expand_time_range(TimeRange(100, 200), 120) == TimeRange(-20, 320)
    assert expand_time_range(TimeRange(100, 200), 0.5) == TimeRange(99, 201)


# --- spatio-temporal query ----------------------------------------------------------------


def test_st_query_empty_store():
    backend = MemoryBackend()
    assert st_query(MBR(0, 0, 1, 1), TimeRange(0, 10), 50, 120, backend, CFG) == []


def test_st_query_returns_the_stored_segment_itself():
    traj = Trajectory("a", [loc(0, 0, 100), loc(5, 0, 160)])
    backend, _ = make_store([traj])
    seg = list(scan_all(backend))[0]
    got = st_query(seg.mbr, TimeRange(seg.st, seg.et), 50, 120, backend, CFG)
    assert got == [seg]


def test_st_query_equals_linear_scan():
    rng = random.Random(5)
    cfg = XzConfig(resolution=6, period_len=3600)
    trajectories = []
    for i in range(300):
        t0 = rng.randrange(0, 40_000)
        east = rng.uniform(-40_000, 40_000)
        north = rng.uniform(-20_000, 20_000)
        pts = [
            loc(east + rng.uniform(-80, 80), north + rng.uniform(-80, 80), t0 + 40 * k)
            for k in range(rng.randint(1, 6))
        ]
        trajectories.append(Trajectory(f"t{i}", pts))
    backend, _ = make_store(trajectories, cfg=cfg)
    stored = list(scan_all(backend))

    for _ in range(100):
        east = rng.uniform(-40_000, 40_000)
        north = rng.uniform(-20_000, 20_000)
        window = loc(east, north, 0)
        w = MBR(window.lon, window.lat, loc(east + 5000, north, 0).lon, loc(east, north + 5000, 0).lat)
        tr = TimeRange(rng.randrange(0, 35_000), rng.randrange(35_000, 45_000))
        theta_d, theta_t = rng.choice([(25.0, 60), (50.0, 120), (200.0, 600)])

        got = st_query(w, tr, theta_d, theta_t, backend, cfg)
        ew = expand_mbr(w, theta_d)
        et = expand_time_range(tr, theta_t)
        want = sorted(
            (s for s in stored if s.mbr.intersects(ew) and s.st <= et.end and et.start <= s.et),
            key=lambda s: s.sid,
        )
        assert got == want


def _mixed_file_store(tmp_path, cfg):
    """A file store whose scans meet records failing the header test, plus a
    stale copy of one sid under a second key."""
    rng = random.Random(8)
    backend = FileBackend(str(tmp_path / "segments.log"))
    for i in range(200):
        t0 = 3600 * rng.randrange(0, 6) + rng.randrange(0, 3600 - 150)  # one period each
        east = rng.uniform(-3_000, 3_000)
        north = rng.uniform(-3_000, 3_000)
        pts = [loc(east + rng.uniform(-60, 60), north + rng.uniform(-60, 60), t0 + 30 * k)
               for k in range(rng.randint(1, 5))]
        seg = Segment.build(f"t{i}#0", f"t{i}", pts)
        backend.put(encode_key(seg, cfg).packed(), encode_segment(seg))
    # t0#0 again, moved 2 km east: another key, the same sid
    stale = Segment.build("t0#0", "t0", [loc(2000, 0, 100), loc(2010, 0, 160)])
    backend.put(encode_key(stale, cfg).packed(), encode_segment(stale))
    return backend


def _decode_everything(backend, w, t):
    """The window query as a linear scan that decodes every record in key
    order and keeps the first copy of each sid that passes."""
    found = {}
    for seg in scan_all(backend):
        if seg.mbr.intersects(w) and seg.st <= t.end and t.start <= seg.et:
            found.setdefault(seg.sid, seg)
    return [found[sid] for sid in sorted(found)]


def test_st_query_on_file_backend_equals_decode_everything_scan(tmp_path):
    rng = random.Random(9)
    cfg = XzConfig(resolution=12, period_len=3600)
    backend = _mixed_file_store(tmp_path, cfg)
    windows = []
    for _ in range(60):
        sw = loc(rng.uniform(-3_500, 2_500), rng.uniform(-3_500, 2_500), 0)
        ne = loc(0, 0, 0, lon0=sw.lon + 0.01, lat0=sw.lat + 0.008)
        t0 = rng.randrange(0, 20_000)
        windows.append((MBR(sw.lon, sw.lat, ne.lon, ne.lat), TimeRange(t0, t0 + rng.randrange(0, 3_000))))
    stale_box = MBR(loc(1990, -10).lon, loc(1990, -10).lat, loc(2020, 10).lon, loc(2020, 10).lat)
    windows.append((stale_box, TimeRange(100, 160)))  # the stale copy only
    windows.append((MBR(116.0, 39.5, 117.0, 40.5), TimeRange(0, 30_000)))  # both copies
    try:
        for w, tr in windows:
            got = st_query(w, tr, 50.0, 120.0, backend, cfg)
            want = _decode_everything(backend, expand_mbr(w, 50.0), expand_time_range(tr, 120.0))
            assert got == want
            assert [s.sid for s in got].count("t0#0") <= 1
        got = st_query(stale_box, TimeRange(100, 160), 50.0, 120.0, backend, cfg)
        assert [(s.sid, s.st) for s in got if s.traj_id == "t0"] == [("t0#0", 100)]
    finally:
        backend.close()


def test_st_query_decodes_only_header_survivors(tmp_path, monkeypatch):
    cfg = XzConfig(resolution=12, period_len=3600)
    backend = _mixed_file_store(tmp_path, cfg)
    decoded: list[bytes] = []
    decode = store.decode_segment

    def counted_decode(value):
        decoded.append(value)
        return decode(value)

    monkeypatch.setattr(store, "decode_segment", counted_decode)
    w = MBR(116.38, 39.89, 116.40, 39.91)
    tr = TimeRange(5_000, 9_000)
    ew, et = expand_mbr(w, 50.0), expand_time_range(tr, 120.0)
    try:
        got = st_query(w, tr, 50.0, 120.0, backend, cfg)
        # every record of the planned ranges, in the order st_query meets them
        planned = [v for rng in st_scan_ranges(ew, et, cfg) for _, v in backend.scan(rng.low, rng.high)]
    finally:
        backend.close()
    passing = [v for v in planned
               if (s := decode(v)).mbr.intersects(ew) and s.st <= et.end and et.start <= s.et]
    assert decoded == passing
    assert len(got) == len(passing) > 0
    assert len(planned) > 2 * len(passing)


def test_load_trajectory_gathers_only_its_records(monkeypatch):
    trajectories = [Trajectory(f"t{i}", [loc(300.0 * i, 0, 0), loc(300.0 * i + 5000, 0, 700)])
                    for i in range(20)]
    backend, n = make_store(trajectories)
    asked, gathered, read, decoded = [], [], [], []
    records, points = backend.records, backend.points
    monkeypatch.setattr(backend, "records", lambda at: asked.append(at.tolist()) or records(at))
    monkeypatch.setattr(backend, "points", lambda starts, counts: gathered.append(counts.tolist()) or points(starts, counts))
    monkeypatch.setattr(backend, "_read", lambda slot: read.append(slot))
    monkeypatch.setattr(store, "decode_segment", lambda v: decoded.append(v))
    assert load_trajectory(backend, "t7") == trajectories[7]
    assert n == 40 and asked == [backend.positions_of("t7").tolist()] and len(asked[0]) == 2
    assert gathered == [[1, 1]]  # the id column finds its records; one gather takes their points
    assert read == decoded == []  # no record is read or decoded alone


# --- grouping: st_read's columns -------------------------------------------------------------


def _read_all(backend, cfg=CFG):
    """``st_read`` of one window over the whole test area and time span."""
    box = MBR(loc(-10_000, -10_000).lon, loc(-10_000, -10_000).lat, loc(10_000, 10_000).lon, loc(10_000, 10_000).lat)
    return st_read([(box, TimeRange(0, 20_000))], 50.0, 120.0, backend, cfg)


def _put_all(segs, cfg=CFG):
    backend = MemoryBackend()
    for seg in segs:
        backend.put(encode_key(seg, cfg).packed(), encode_segment(seg))
    return backend


def test_group_single_trajectory():
    segs = storage_segments(Trajectory("a", [loc(0, 0, 0), loc(5000, 0, 700)]), CFG, SEG)
    assert len(segs) == 2  # far apart: two stay points
    grouped = _read_all(_put_all(segs))
    assert grouped.traj_ids == ["a"]
    assert grouped.runs.tolist() == [0, 2]
    assert grouped.points["t"].tolist() == [0, 700]
    # each record's points, in start-time order
    assert grouped.points.tolist() == [(p.lon, p.lat, p.t) for s in segs for p in s.locations]


def test_group_three_candidate_trajectories():
    segs = []
    for tid, east in [("t1", 0.0), ("t2", 300.0), ("t3", 600.0)]:
        segs.extend(
            storage_segments(Trajectory(tid, [loc(east, 0, 0), loc(east, 0, 60)]), CFG, SEG)
        )
    grouped = _read_all(_put_all(segs))
    assert grouped.traj_ids == ["t1", "t2", "t3"]
    assert grouped.runs.tolist() == [0, 2, 4, 6]
    assert grouped.touches.tolist() == [[True, True, True]]


def test_group_is_permutation_invariant():
    rng = random.Random(2)
    segs = []
    for i in range(10):
        pts = [loc(i * 400.0, 0, 1000 * i + 100 * k) for k in range(4)]
        segs.extend(storage_segments(Trajectory(f"t{i % 3}_{i}", pts), CFG, SEG))
    shuffled = segs[:]
    rng.shuffle(shuffled)
    want, got = _read_all(_put_all(segs)), _read_all(_put_all(shuffled))
    assert got.traj_ids == want.traj_ids
    assert got.runs.tolist() == want.runs.tolist()
    assert got.points.tobytes() == want.points.tobytes()
    assert want.traj_ids == sorted(f"t{i % 3}_{i}" for i in range(10))


def test_load_trajectory_roundtrip():
    traj = Trajectory("a", [loc(0, 0, 0), loc(20, 0, 700), loc(5000, 0, 1400)])
    backend, _ = make_store([traj])
    assert load_trajectory(backend, "a") == traj
    assert load_trajectory(backend, "missing") is None


# --- the gather against the record-at-a-time oracles -------------------------------------

_GATHER_CFG = XzConfig(resolution=8, period_len=3600)
_GATHER_IDS = ["a", "b", "é", "a\x00"]


def _raw_value(seg: Segment, traj_id: bytes, sid: bytes, count: int | None = None) -> bytes:
    """``encode_segment`` with the id, the sid and the point count given as raw bytes and number."""
    box = seg.mbr
    return b"".join([store._HEADER.pack(box.min_lon, box.min_lat, box.max_lon, box.max_lat, seg.st, seg.et),
                     store._LEN.pack(len(traj_id)), traj_id, store._LEN.pack(len(sid)), sid,
                     store._COUNT.pack(len(seg.locations) if count is None else count),
                     *(store._POINT.pack(p.lon, p.lat, p.t) for p in seg.locations)])


@st.composite
def _gather_puts(draw):
    """Puts of segment records under their row keys, a sid recurring under
    another key (a stale copy, sometimes naming another trajectory), with
    overwrites that change a value's length, values cut short anywhere, a
    count past the points, trailing bytes, and ids and sids that are not
    UTF-8."""
    puts = []
    for _ in range(draw(st.integers(1, 14))):
        tid = draw(st.sampled_from(_GATHER_IDS))
        sid = f"{draw(st.sampled_from([tid] * 3 + _GATHER_IDS))}#{draw(st.integers(0, 2))}"
        period = draw(st.integers(0, 1))
        times = sorted(draw(st.lists(_OFFSETS, min_size=1, max_size=4)))
        seg = Segment.build(sid, tid, [Location(draw(_GRID), draw(_GRID), 3600 * period + t) for t in times])
        key, value = encode_key(seg, _GATHER_CFG).packed(), encode_segment(seg)
        kind = draw(st.sampled_from(["whole"] * 6 + ["overwrite"] * 3 + ["cut", "count", "long", "bad id", "bad sid"]))
        if kind == "overwrite" and puts:
            key = draw(st.sampled_from([k for k, _ in puts]))
        elif kind == "cut":
            value = value[: draw(st.integers(0, len(value) - 1))]
        elif kind == "count":
            value = _raw_value(seg, tid.encode(), sid.encode(), len(seg.locations) + 1)
        elif kind == "long":
            value += b"trailing"
        elif kind == "bad id":
            value = _raw_value(seg, tid.encode() + b"\xff", sid.encode())
        elif kind == "bad sid":
            value = _raw_value(seg, tid.encode(), sid.encode() + b"\xc3")
        puts.append((key, value))
    return puts


_NOWHERE = (MBR(100.0, 10.0, 100.001, 10.001), TimeRange(0, 10_000))  # a window that finds nothing


def _outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def _fields(got):
    """A ``Retrieved`` as plain values, its points to the bit."""
    if not isinstance(got, store.Retrieved):
        return got
    return (got.traj_ids, got.runs.dtype, got.runs.tolist(), got.points.dtype, got.points.tobytes(),
            got.touches.tolist())


def assert_gathers_agree(backend, windows):
    for theta_d, theta_t in ((0.0, 0.0), (50.0, 120.0)):
        args = (windows, theta_d, theta_t, backend, _GATHER_CFG)
        assert _fields(_outcome(st_read, *args)) == _fields(_outcome(reference.st_read, *args))
    for traj_id in _GATHER_IDS + ["missing", "\udcff"]:
        assert _outcome(load_trajectory, backend, traj_id) == _outcome(reference.load_trajectory_decoded, backend, traj_id)


@given(_gather_puts(), st.lists(st.one_of(_windows(), st.just(_NOWHERE)), max_size=3), st.binary(max_size=9))
@settings(max_examples=150, deadline=None)
def test_gathers_equal_their_record_at_a_time_oracles(puts, windows, tail):
    memory = MemoryBackend()
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/segments.log"
        with FileBackend(path) as disk:
            for backend in (memory, disk):
                for key, value in puts:
                    backend.put(key, value)
                assert_gathers_agree(backend, windows)
        if tail:
            with open(path, "ab") as fh:
                fh.write(store._FRAME.pack(len(tail), 100) + tail)  # a torn frame
        with FileBackend(path) as reopened:
            assert_gathers_agree(reopened, windows)
            for key, value in puts[::3]:  # overwrites over the replayed index, cutting a torn tail first
                reopened.put(key, value + b"x")
            assert_gathers_agree(reopened, windows)


def _stale_sid_store(backend):
    """``feed-update``'s probe shape: ``p#1`` stored under two keys, the
    old copy left behind when the segment grew into another cell."""
    cfg = CFG
    first = Segment.build("p#1", "p", [loc(0, 0, 100), loc(10, 0, 200)])
    grown = Segment.build("p#1", "p", [loc(0, 0, 100), loc(10, 0, 200), loc(30_000, 0, 900)])
    assert encode_key(first, cfg).packed() != encode_key(grown, cfg).packed()
    for seg in (Segment.build("p#0", "p", [loc(0, 0, 0), loc(5, 0, 50)]), first, grown,
                Segment.build("q#0", "q", [loc(20, 0, 150), loc(25, 0, 160)])):
        backend.put(encode_key(seg, cfg).packed(), encode_segment(seg))
    return first, grown


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_gather_keeps_the_first_copy_of_a_stale_sid(tmp_path, kind):
    backend = _open(kind, tmp_path)
    first, grown = _stale_sid_store(backend)
    both = (MBR(first.mbr.min_lon, first.mbr.min_lat, grown.mbr.max_lon, grown.mbr.max_lat), TimeRange(0, 1000))
    far = (MBR(grown.mbr.max_lon, 39.9, grown.mbr.max_lon, 39.9), TimeRange(900, 900))  # the grown copy only
    for windows in ([both], [far], [both, far], [far, both], [far, far, both]):
        got = st_read(windows, 0.0, 0.0, backend, CFG)
        assert _fields(got) == _fields(reference.st_read(windows, 0.0, 0.0, backend, CFG))
        assert got.traj_ids[0] == "p" and got.touches[:, 0].all()
    # p#0, then one copy of p#1: the first in key order
    kept = min((first, grown), key=lambda seg: encode_key(seg, CFG).packed())
    got = st_read([both], 0.0, 0.0, backend, CFG)
    assert got.runs.tolist()[:2] == [0, 2 + len(kept.locations)]
    assert got.points["t"][: got.runs[1]].tolist() == [0, 50] + [p.t for p in kept.locations]
    with pytest.raises(ValueError, match="not sorted by time"):  # the kept re-ingest fault
        load_trajectory(backend, "p")


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_a_later_copy_of_a_sid_touches_nothing(tmp_path, kind):
    """A window touches a trajectory through the first copy of each sid it
    finds; a later copy of that sid, naming another trajectory, does not."""
    backend = _open(kind, tmp_path)
    here, there = ([loc(0, 0, 100), loc(10, 0, 160)], [loc(100_000, 0, 100), loc(100_010, 0, 160)])  # two cells
    keys = [encode_key(Segment.build("s#0", "x", pts), CFG).packed() for pts in (here, there)]
    assert keys[0] != keys[1]
    first, later = (here, there) if keys[0] < keys[1] else (there, here)
    segs = [Segment.build("s#0", "x", first), Segment.build("s#0", "y", later),
            Segment.build("y#1", "y", [loc(0, 9000, 100), loc(5, 9000, 160)])]
    for seg in segs:
        backend.put(encode_key(seg, CFG).packed(), encode_segment(seg))
    both = segs[0].mbr.union(segs[1].mbr)
    windows = [(both, TimeRange(100, 160)), (segs[2].mbr, TimeRange(100, 160))]
    got = st_read(windows, 0.0, 0.0, backend, CFG)
    assert _fields(got) == _fields(reference.st_read(windows, 0.0, 0.0, backend, CFG))
    assert got.traj_ids == ["x", "y"] and got.touches.tolist() == [[True, False], [False, True]]


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_gather_raises_what_the_oracle_raises(tmp_path, kind):
    backend = _open(kind, tmp_path)
    seg = Segment.build("s#0", "s", [loc(0, 0, 100), loc(10, 0, 160)])
    whole = encode_segment(seg)
    window = [(seg.mbr, TimeRange(100, 160))]
    id_end = store._PEEK.size + 1
    cases = [  # a cut inside the id length, the id, the sid length, the sid, the count and the points
        (whole[:49], struct.error), (whole[:id_end], struct.error),
        (whole[: id_end + 3], struct.error), (whole[: id_end + 8], struct.error),
        (whole[:-1], ValueError), (_raw_value(seg, b"s", b"s#0", 3), ValueError),
        (_raw_value(seg, b"\xff", b"s#0"), UnicodeDecodeError), (_raw_value(seg, b"s", b"s#\xff"), UnicodeDecodeError),
    ]
    for value, error in cases:
        backend.put(encode_key(seg, _GATHER_CFG).packed(), value)
        with pytest.raises(error) as raised:
            st_read(window, 0.0, 0.0, backend, _GATHER_CFG)
        assert _outcome(reference.st_read, window, 0.0, 0.0, backend, _GATHER_CFG) == (error, str(raised.value))
        assert _outcome(load_trajectory, backend, "s") == _outcome(reference.load_trajectory_decoded, backend, "s")


# --- the map's life -----------------------------------------------------------------------


def _people(n: int, t0: int = 0) -> list[Trajectory]:
    return [Trajectory(f"t{i}", [loc(40.0 * i, 0, t0 + 60 * i), loc(40.0 * i + 10, 5, t0 + 60 * i + 90)])
            for i in range(n)]


_EVERY_WINDOW = [(MBR(116.0, 39.5, 117.0, 40.5), TimeRange(0, 100_000))]


def test_a_read_after_puts_past_the_map_remaps_it(tmp_path):
    memory = MemoryBackend()
    with FileBackend(str(tmp_path / "segments.log")) as disk:
        for backend in (memory, disk):
            ingest(_people(30), CFG, SEG, backend)
        first = st_read(_EVERY_WINDOW, 0.0, 0.0, disk, CFG)
        mapped = len(disk._map)
        grown = [Trajectory("t3", [*_people(4)[3].locations, loc(130, 5, 400)])]  # a longer value under t3's key
        for backend in (memory, disk):
            ingest(_people(60, t0=50_000) + grown, CFG, SEG, backend)
        got = st_read(_EVERY_WINDOW, 0.0, 0.0, disk, CFG)
        assert len(disk._map) > mapped  # remade to cover the appends
        assert _fields(got) == _fields(st_read(_EVERY_WINDOW, 0.0, 0.0, memory, CFG)) != _fields(first)
        assert load_trajectory(disk, "t3") == load_trajectory(memory, "t3") == grown[0]


def test_close_while_gathered_columns_are_alive(tmp_path):
    with FileBackend(str(tmp_path / "segments.log")) as backend:
        ingest(_people(10), CFG, SEG, backend)
        got = st_read(_EVERY_WINDOW, 0.0, 0.0, backend, CFG)
        traj = load_trajectory(backend, "t4")
        points = got.points.copy()
    assert backend._map is None  # closed: the gathered points are copies, no view of the map is left
    assert got.points.tobytes() == points.tobytes() and len(got) == 10
    assert traj == _people(10)[4]


def test_a_put_after_a_torn_tail_drops_the_map(tmp_path):
    path = tmp_path / "segments.log"
    with FileBackend(str(path)) as backend:
        ingest(_people(5), CFG, SEG, backend)
    with open(path, "ab") as fh:
        fh.write(b"\x07\x00\x00")  # a torn frame header
    memory = MemoryBackend()
    ingest(_people(8), CFG, SEG, memory)
    with FileBackend(str(path)) as backend:
        assert len(st_read(_EVERY_WINDOW, 0.0, 0.0, backend, CFG)) == 5  # maps the torn tail too
        ingest(_people(8), CFG, SEG, backend)  # cuts the tail first
        assert _fields(st_read(_EVERY_WINDOW, 0.0, 0.0, backend, CFG)) == _fields(
            st_read(_EVERY_WINDOW, 0.0, 0.0, memory, CFG))


def test_a_memory_backend_put_after_a_read():
    backend = MemoryBackend()
    ingest(_people(10), CFG, SEG, backend)
    got = st_read(_EVERY_WINDOW, 0.0, 0.0, backend, CFG)
    assert load_trajectory(backend, "t2") == _people(10)[2]
    ingest(_people(20, t0=7_000), CFG, SEG, backend)  # grows the bytearray: no view of it may be left
    assert len(st_read(_EVERY_WINDOW, 0.0, 0.0, backend, CFG)) == 20 and len(got) == 10
    size = len(backend._values)
    ingest(_people(20, t0=7_000), CFG, SEG, backend)  # the bytes every key holds: nothing is appended
    assert len(backend._values) == size
