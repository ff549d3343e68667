"""The index's trajectory-id column and the chunked log replay that fills it,
against the one-frame-at-a-time replay and the scanning lookup kept in
``reference``."""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdtrace.store as store
import reference
from crowdtrace import (
    FileBackend,
    Location,
    MemoryBackend,
    Segment,
    SegmentationConfig,
    Trajectory,
    XzConfig,
    encode_segment,
    ingest,
    load_trajectory,
)
from crowdtrace.xz import encode_key
from conftest import loc, random_trajectory

CFG = XzConfig(resolution=10)
SEG = SegmentationConfig()


class ReferenceFileBackend(FileBackend):
    _replay = reference.replay


def index_state(backend):
    """Everything a replay builds: slots, headers, ids, offsets and lengths,
    point blocks and counts, and where the next write cuts a torn tail."""
    return (backend._slot_of, bytes(backend._headers), backend._ids, list(backend._offsets),
            list(backend._lengths), list(backend._points), list(backend._counts), backend._torn_at)


def write_log(path, frames, tail=b""):
    with open(path, "wb") as fh:
        fh.write(store._LOG_MAGIC)
        for key, value in frames:
            fh.write(store._FRAME.pack(len(key), len(value)) + key + value)
        fh.write(tail)


def assert_replays_agree(path):
    with FileBackend(str(path)) as got, ReferenceFileBackend(str(path)) as want:
        assert index_state(got) == index_state(want)


def _segment_value(traj_id: str, n_points: int = 2, ordinal: int = 0) -> bytes:
    locs = [Location(116.39 + 0.0001 * k, 39.9, 100 + 60 * k) for k in range(n_points)]
    return encode_segment(Segment.build(f"{traj_id}#{ordinal}", traj_id, locs))


_IDS = st.one_of(st.sampled_from(["a", "a#0", "b#", "é", "日本", "t00001", "\x00", "a\x00"]),
                 st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6))


@st.composite
def _values(draw):
    """A value of any length a log may hold: shorter than a header, shorter
    than its id field, cut after its id (in its sid, count or points), a
    whole segment record, one with trailing bytes, or one larger than a chunk."""
    kind = draw(st.sampled_from(["short", "no id length", "cut id", "cut after id", "segment", "long", "large"]))
    if kind == "short":
        size = draw(st.one_of(st.integers(0, store._HEADER.size - 1), st.just(store._HEADER.size - 1)))
        return draw(st.binary(min_size=size, max_size=size))
    whole = _segment_value(draw(_IDS), n_points=draw(st.integers(1, 3)))
    if kind == "no id length":
        return whole[: draw(st.integers(store._HEADER.size, store._PEEK.size - 1))]
    if kind == "cut id":
        id_end = store._PEEK.size + store._LEN.unpack_from(whole, store._HEADER.size)[0]
        return whole[: draw(st.integers(store._PEEK.size, id_end - 1))] if id_end > store._PEEK.size else whole
    if kind == "cut after id":
        id_end = store._PEEK.size + store._LEN.unpack_from(whole, store._HEADER.size)[0]
        return whole[: draw(st.integers(id_end, len(whole) - 1))]
    if kind == "long":
        return whole + draw(st.binary(min_size=1, max_size=30))
    if kind == "large":
        return _segment_value(draw(_IDS), n_points=draw(st.integers(20, 120)))
    return whole


_KEYS = st.sampled_from([b"", b"k0", b"k1", b"k2", b"\x00\xff", b"K" * 200])


@given(
    frames=st.lists(st.tuples(_KEYS, _values()), max_size=25),
    tail=st.binary(max_size=12),
    chunk=st.sampled_from([1, 7, 8, 9, 60, 200, 1000, store.REPLAY_CHUNK]),
)
@settings(max_examples=300, deadline=None)
def test_replay_matches_reference(tmp_path_factory, frames, tail, chunk):
    path = tmp_path_factory.mktemp("log") / "segments.log"
    write_log(path, frames, tail)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(store, "REPLAY_CHUNK", chunk)
        assert_replays_agree(path)


@pytest.mark.parametrize("chunk", [8, 64, 300, store.REPLAY_CHUNK])
def test_replay_of_a_tail_torn_at_every_byte(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(store, "REPLAY_CHUNK", chunk)
    frames = [(b"k%d" % i, _segment_value(f"t{i}", n_points=i + 1)) for i in range(5)]
    frames.append((b"k1", _segment_value("é#1", n_points=4)))  # an overwrite, last
    path = tmp_path / "segments.log"
    write_log(path, frames)
    whole = path.read_bytes()
    last = len(whole) - (store._FRAME.size + len(frames[-1][0]) + len(frames[-1][1]))
    for cut in range(last, len(whole) + 1):
        path.write_bytes(whole[:cut])
        assert_replays_agree(path)
        with FileBackend(str(path)) as backend:
            assert backend._torn_at == (last if last < cut < len(whole) else None)
            assert len(backend._ids) == len(frames) - (cut < len(whole))


def test_replay_reads_a_large_value_only_up_to_its_id(tmp_path, monkeypatch):
    path = tmp_path / "segments.log"
    big = _segment_value("big", n_points=50_000)  # 1.2 MB
    key = b"K" * 100
    write_log(path, [(b"k0", _segment_value("a")), (key, big), (b"k2", _segment_value("b"))])
    monkeypatch.setattr(store, "REPLAY_CHUNK", 64)
    reads = []
    pread = os.pread
    monkeypatch.setattr(os, "pread", lambda fd, n, at: reads.append(n) or pread(fd, n, at))
    with FileBackend(str(path)) as backend:
        assert backend._ids == [b"a", b"big", b"b"]
    assert max(reads) <= 64 + len(key) + store._PEEK.size + len(b"big")
    assert sum(reads) < 2_000


def test_replay_keeps_the_foreign_file_error(tmp_path):
    path = tmp_path / "junk.log"
    path.write_bytes(b"whatever this is")
    with pytest.raises(ValueError, match="not a segment log"):
        FileBackend(str(path))


# --- lookup -------------------------------------------------------------------------


def _open(kind, tmp_path):
    return MemoryBackend() if kind == "memory" else FileBackend(str(tmp_path / "segments.log"))


def assert_lookups_agree(backend, ids):
    for traj_id in ids:
        assert load_trajectory(backend, traj_id) == reference.load_trajectory(backend, traj_id)


@given(ids=st.lists(_IDS, min_size=1, max_size=8, unique=True), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_load_trajectory_matches_reference(tmp_path_factory, ids, seed):
    rng = random.Random(seed)
    trajectories = [random_trajectory(rng, tid, t0=1000) for tid in ids]
    path = str(tmp_path_factory.mktemp("store") / "segments.log")
    asked = ids + ["missing", ids[0] + "#0", ids[0][:-1] or "x"]
    memory = MemoryBackend()
    with FileBackend(path) as disk:
        for backend in (memory, disk):
            ingest(trajectories, CFG, SEG, backend)
            assert_lookups_agree(backend, asked)
    with FileBackend(path) as reopened:
        assert_lookups_agree(reopened, asked)
        for traj_id in asked:
            assert load_trajectory(reopened, traj_id) == load_trajectory(memory, traj_id)


def _stale_frame_store(backend):
    """Track ``p`` as a re-ingest leaves it when its last segment grows into
    another cell: the old frame stays under its old key."""
    first = Segment.build("p#1", "p", [loc(0, 0, 100), loc(10, 0, 200)])
    grown = Segment.build("p#1", "p", [loc(0, 0, 100), loc(10, 0, 200), loc(30_000, 0, 900)])
    old_key, new_key = encode_key(first, CFG).packed(), encode_key(grown, CFG).packed()
    assert old_key != new_key
    head = Segment.build("p#0", "p", [loc(0, 0, 0), loc(5, 0, 50)])
    backend.put(encode_key(head, CFG).packed(), encode_segment(head))
    backend.put(old_key, encode_segment(first))
    backend.put(new_key, encode_segment(grown))


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_stale_frame_still_fails_the_lookup(tmp_path, kind):
    backend = _open(kind, tmp_path)
    _stale_frame_store(backend)
    for lookup in (load_trajectory, reference.load_trajectory):
        with pytest.raises(ValueError, match="not sorted by time"):
            lookup(backend, "p")
    if kind == "file":
        backend.close()
        with FileBackend(str(tmp_path / "segments.log")) as reopened:
            with pytest.raises(ValueError, match="not sorted by time"):
                load_trajectory(reopened, "p")


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_an_overwrite_replaces_the_slots_id(tmp_path, kind):
    backend = _open(kind, tmp_path)
    backend.put(b"k", _segment_value("a"))
    backend.put(b"j", _segment_value("b", ordinal=1))
    assert backend.positions_of("a").tolist() == [1]
    backend.put(b"k", _segment_value("b"))
    assert backend.positions_of("a").tolist() == []
    assert backend.positions_of("b").tolist() == [0, 1]
    if kind == "file":
        backend.close()
        with FileBackend(str(tmp_path / "segments.log")) as reopened:
            assert reopened.positions_of("a").tolist() == []
            assert reopened.positions_of("b").tolist() == [0, 1]


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_values_too_short_for_an_id_match_no_lookup(tmp_path, kind):
    backend = _open(kind, tmp_path)
    whole = _segment_value("a")
    backend.put(b"0", b"")
    backend.put(b"1", whole[: store._PEEK.size - 1])
    backend.put(b"2", whole[: store._PEEK.size])  # the id length, not the id
    backend.put(b"3", whole)
    assert backend._ids == [None, None, None, b"a"]
    assert backend.positions_of("a").tolist() == [3]
    assert backend.positions_of("").tolist() == []
    assert backend.positions_of("\udcff").tolist() == []  # no UTF-8 id is this string
    backend.put(b"4", _segment_value("a\x00"))
    assert backend.positions_of("a").tolist() == [3]
    assert backend.positions_of("a\x00").tolist() == [4]
    assert load_trajectory(backend, "a") == Trajectory("a", [Location(116.39, 39.9, 100),
                                                              Location(116.3901, 39.9, 160)])

