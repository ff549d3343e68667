"""Ordered key-value storage of encoded segments, and the exact window query.

Two interchangeable backends satisfy the same contract: ``put(key, value)``
and ``put_batch(items)``, ``scan(low, high)`` yielding keys in strict byte
order within [low, high), ``refine``, the key-order positions of the records
in key ranges whose segment header meets a window, ``positions_of``, those of
the records of one trajectory, ``read``, the values at such positions, and
``records`` and ``points``, their fields and point blocks as columns. Both
are one ``SortedIndex`` over one buffer that holds a log: a magic, then
length-prefixed (key, value) frames. ``put_batch`` appends a batch's frames
at once, leaving out a put of the bytes a key already holds, and one indexer
takes every frame into the index, whether just written or replayed: each
frame takes the next slot, which keeps only where its value lies in the
buffer and how long it is, and its key's slot becomes that one. Readers see
the index in key order: the keys, and each live record's fixed 48-byte
header (box, st, et), trajectory id and point block as numpy columns, parsed
from the buffer once, by the key-order build that the first read after a
write makes. The backends differ only in where the buffer lives:
``MemoryBackend`` keeps it in a ``bytearray``; ``FileBackend`` in a
single-file log, replayed on open through the read-only map it reads values
through, with the key-order build at the end.

``ingest`` hands trajectories, as lon/lat/t columns (``Tracks``), to the
columnar kernel of ``model`` in batches of about ``BATCH_POINTS`` points; one
kernel pass gates noise, cuts stay-point segments, splits them at period
boundaries and takes their boxes. Each segment's key and record are written
from those columns, with every cell code of a batch computed at once, and
a batch's segments go to one ``put_batch`` in input order. No ``Location``
or ``Segment`` is built.

``st_query`` expands a window by the spatial/temporal reach. A key starts
with its shard and period, so the records of the window's periods are one
contiguous span of keys a shard, and the exact box and time tests run over
those spans' header columns directly, without planning curve ranges within
them. That gives the result of a full linear scan, and only records that
pass are read and decoded.
``st_read`` does the same for many windows at once, and ``load_trajectory``
for the records of one trajectory, each gathering every point it returns by
one numpy index into the buffer; no record is decoded one at a time.
"""

from __future__ import annotations

import logging
import math
import mmap
import struct
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# filter_noise, segment, encode_key and st_scan_ranges stay bound here: perfbench's tracer wraps them in this module
from .model import (
    BATCH_POINTS,
    EARTH_RADIUS_M,
    MBR,
    Cuts,
    Location,
    Segment,
    SegmentationConfig,
    TimeRange,
    Tracks,
    Trajectory,
    cut,
    filter_noise,
    segment,
    segment_batch,
)
from .xz import (
    KEY_HEAD,
    ScanRange,
    XzConfig,
    bins_of,
    encode_key,
    period_spans,
    shard_of,
    st_scan_ranges,
    xz2_codes,
)

log = logging.getLogger(__name__)

MAX_SUPPORTED_LAT = 85.0  # window padding is only exact below this latitude


# the fixed header an encoded segment starts with: box corners, st, et
_HEADER = struct.Struct("<4dqq")
_LEN = struct.Struct("<H")
_PEEK = struct.Struct("<4dqqH")  # _HEADER, then the length of the trajectory id
_HEADER_DTYPE = np.dtype([("min_lon", "<f8"), ("min_lat", "<f8"), ("max_lon", "<f8"),
                          ("max_lat", "<f8"), ("st", "<i8"), ("et", "<i8")])
# kept for a value too short to hold a header: its NaN box meets no window
_NO_HEADER = _HEADER.pack(math.nan, math.nan, math.nan, math.nan, 0, 0)
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_COUNT = struct.Struct("<I")  # after the sid: the number of points that follow
_POINT = struct.Struct("<ddq")
_POINT_DTYPE = np.dtype([("lon", "<f8"), ("lat", "<f8"), ("t", "<i8")])  # _POINT, as columns
_FRAME = struct.Struct("<II")  # a frame's key and value lengths, then the key, then the value
_LOG_MAGIC = b"CTLOG1\n"  # a log's first bytes, before its frames


class _KeyOrder(NamedTuple):
    """The index in key order: the sorted keys, their slots, and their
    records' fields (``_fields``): each header field as one contiguous column
    (``_HEADER_DTYPE`` order), the raw trajectory ids (an object column),
    where each sid starts in the buffer, and where each point block starts
    and how many points it holds."""

    keys: list[bytes]
    slots: np.ndarray
    columns: tuple[np.ndarray, ...]
    ids: np.ndarray
    sid_at: np.ndarray
    starts: np.ndarray
    counts: np.ndarray


class Records(NamedTuple):
    """Records at key-order positions, as columns: their raw trajectory ids
    and sids, their start times, and where each one's point block starts in
    the backend's buffer and how many points it holds (``points`` takes
    them)."""

    ids: list[bytes]
    sids: list[bytes]
    st: np.ndarray
    starts: np.ndarray
    counts: np.ndarray


def _meets(field: Callable[[int], np.ndarray], w: MBR, t: TimeRange) -> np.ndarray:
    """The tests of ``MBR.intersects`` and ``TimeRange.intersects`` as one
    mask, where ``field(k)`` is the k-th header field (``_HEADER_DTYPE``
    order) of the records tested, taken a field at a time so temporaries
    stay small. float64 and int64 compare exactly against the window's
    floats and ints, and stored times fit int64, so clamping the window's
    times to it changes no outcome; a NaN box meets no window."""
    keep = field(0) <= w.max_lon
    keep &= w.min_lon <= field(2)
    keep &= field(1) <= w.max_lat
    keep &= w.min_lat <= field(3)
    keep &= field(4) <= min(t.end, _INT64_MAX)
    keep &= max(t.start, _INT64_MIN) <= field(5)
    return keep


def _gather(raw: np.ndarray, dtype: str, at: np.ndarray, ok: np.ndarray, fill) -> np.ndarray:
    """The ``dtype`` item at byte ``at[i]`` of ``raw`` where ``ok[i]``, else
    ``fill``: one index into a view of ``raw`` whose item ``i`` is the one at
    byte ``i``."""
    out = np.full(len(at), fill, dtype)
    if ok.any():  # then raw holds a whole item
        items = np.ndarray((len(raw) - out.itemsize + 1,), dtype, raw, 0, (1,))
        out[ok] = items[at[ok]]
    return out


def _fields(buf: bytes | bytearray | mmap.mmap, at: np.ndarray, size: np.ndarray) -> tuple:
    """The fields of the records whose values lie at byte ``at`` of ``buf``,
    ``size`` bytes each, each field read only where its value holds it, as
    ``_KeyOrder`` keeps them: the header columns (``_NO_HEADER`` where the
    value is too short for it), the raw trajectory ids (None where too
    short), where the sids start, and where the point blocks start and how
    many points they hold (the value's offset and -1 where the value is too
    short for its sid, count or points)."""
    if isinstance(buf, bytearray):  # its slices are bytearrays, which do not hash; one copy is quicker than many
        buf = bytes(buf)
    raw = np.frombuffer(buf, np.uint8)
    end = at + size
    heads = _gather(raw, f"V{_HEADER.size}", at, size >= _HEADER.size, np.void(_NO_HEADER)).view(_HEADER_DTYPE)
    columns = tuple(np.ascontiguousarray(heads[name]) for name in _HEADER_DTYPE.names)
    id_at = at + _PEEK.size
    id_end = id_at + _gather(raw, "<u2", at + _HEADER.size, id_at <= end, 0)
    has_id = (id_at <= end) & (id_end <= end)
    ids = np.full(len(at), None, object)
    ids[has_id] = [buf[a:b] for a, b in zip(id_at[has_id].tolist(), id_end[has_id].tolist())]
    sid_at = id_end + _LEN.size
    has_sid = has_id & (sid_at <= end)
    count_at = sid_at + _gather(raw, "<u2", id_end, has_sid, 0)
    has_count = has_sid & (count_at + _COUNT.size <= end)
    counts = _gather(raw, "<u4", count_at, has_count, 0).astype(np.int64)
    starts = count_at + _COUNT.size
    whole = has_count & (starts + _POINT.size * counts <= end)
    return columns, ids, sid_at, np.where(whole, starts, at), np.where(whole, counts, -1)


class SortedIndex:
    """The sorted key index both backends share.

    Each slot holds one frame of the backend's buffer (``_buffer``), which a
    subclass keeps: where the frame's value lies in the buffer and how long
    it is, and nothing of the value itself. Every frame indexed (``_index``),
    written or replayed, takes the next slot and gives it to its key, so an
    overwritten frame leaves an unused slot behind, and a live index equals
    the one its buffer replays into. ``put_batch`` appends a batch's frames
    to the buffer at once (``_append``) and indexes them. Readers see the
    index in key order (``_order``), with the fields of each live record
    parsed from the buffer there, once, rebuilt by the first read after a
    frame is indexed. Every numpy view of the buffer or of a per-slot column
    is gone before the call that made it returns, so puts may grow them and
    a map may be closed. Scans must not interleave with writes.
    """

    def __init__(self) -> None:
        self._slot_of: dict[bytes, int] = {}
        self._offsets = array("q")  # by slot: where the value starts in the buffer
        self._lengths = array("I")
        self._sorted: _KeyOrder | None = None  # gone with an indexed frame

    def _index(self, buf: bytes | mmap.mmap, base: int, starts: list[int]) -> None:
        """Index the frames starting at ``starts`` in ``buf``, the buffer from
        offset ``base`` on, each in the next slot: their two length fields
        read by one numpy index, their keys sliced; no value byte is read."""
        raw = np.frombuffer(buf, np.uint8)
        at = np.array(starts, np.intp)
        # row i: the two length fields at byte i
        key_len, val_len = np.ndarray((len(raw) - _FRAME.size + 1, 2), "<u4", raw, 0, (1, 4))[at].T
        val_at = at + _FRAME.size + key_len
        slot = len(self._offsets)
        keys = [buf[a:b] for a, b in zip((at + _FRAME.size).tolist(), val_at.tolist())]
        self._slot_of.update(zip(keys, range(slot, slot + len(keys))))
        self._offsets.frombytes((base + val_at).astype(np.int64).tobytes())
        self._lengths.frombytes(val_len.astype(np.uint32).tobytes())
        self._sorted = None

    def put(self, key: bytes, value: bytes) -> None:
        self.put_batch([(key, value)])

    def put_batch(self, items: Iterable[tuple[bytes, bytes]]) -> None:
        """Write each (key, value) in order, as one append of their frames,
        leaving out a put of the bytes its key already holds, counting the
        batch's earlier puts; the buffer ends as sequential puts leave it."""
        held: dict[bytes, bytes] = {}  # the batch's keys, with their last value
        frames: list[bytes] = []
        starts, size = [], 0
        for key, value in items:
            last = held.get(key)
            if last is None:
                slot = self._slot_of.get(key)
                if slot is not None and self._lengths[slot] == len(value) and self._read(slot) == value:
                    continue
            elif last == value:
                continue
            held[key] = value
            starts.append(size)
            frames += (_FRAME.pack(len(key), len(value)), key, value)
            size += _FRAME.size + len(key) + len(value)
        if starts:
            buf = b"".join(frames)
            self._index(buf, self._append(buf), starts)

    def _append(self, frames: bytes) -> int:
        """Append whole frames to the buffer; returns the offset they start at."""
        raise NotImplementedError

    def _buffer(self) -> bytes | bytearray | mmap.mmap:
        """The bytes every slot's value lies in."""
        raise NotImplementedError

    def _read(self, slot: int) -> bytes:
        offset = self._offsets[slot]
        return bytes(self._buffer()[offset : offset + self._lengths[slot]])

    def _order(self) -> _KeyOrder:
        """The index in key order, rebuilt if a frame was indexed: the live
        slots' values are parsed for their fields (``_fields``) here."""
        order = self._sorted
        if order is None:  # readers racing here each build the same, whole tuple
            keys = sorted(self._slot_of)
            slots = np.fromiter(map(self._slot_of.__getitem__, keys), np.intp, len(keys))
            at = np.frombuffer(self._offsets, np.int64)[slots]
            size = np.frombuffer(self._lengths, np.uint32)[slots].astype(np.int64)
            order = self._sorted = _KeyOrder(keys, slots, *_fields(self._buffer(), at, size))
        return order

    def scan(self, low: bytes, high: bytes) -> Iterator[tuple[bytes, bytes]]:
        """(key, value) of every key in [low, high), in byte order."""
        keys, slots = self._order()[:2]
        lo, hi = bisect_left(keys, low), bisect_left(keys, high)
        yield from zip(keys[lo:hi], map(self._read, slots[lo:hi].tolist()))

    def refine(self, ranges: Iterable[ScanRange], w: MBR, t: TimeRange) -> np.ndarray:
        """The key-order positions of the records in the key ranges whose
        header box intersects ``w`` and whose [st, et] overlaps ``t``, range
        by range: ``_meets`` over contiguous slices of the key-order header
        columns, each found by two bisects; ``read`` takes their values."""
        order = self._order()
        keys, columns = order.keys, order.columns
        found = []
        for r in ranges:
            lo, hi = bisect_left(keys, r.low), bisect_left(keys, r.high)
            found.append(lo + np.flatnonzero(_meets(lambda k: columns[k][lo:hi], w, t)))
        return np.concatenate(found) if found else np.empty(0, np.intp)

    def positions_of(self, traj_id: str) -> np.ndarray:
        """The key-order positions of the records whose value names trajectory
        ``traj_id``; ``read`` takes their values. One mask over the id column."""
        try:
            raw = traj_id.encode("utf-8")
        except UnicodeEncodeError:  # not text any record could name
            return np.empty(0, np.intp)
        # against a 0-d object array: bare bytes would become numpy's 'S' type, which drops trailing NULs
        return np.flatnonzero(self._order().ids == np.array(raw, object))

    def read(self, positions: np.ndarray) -> Iterator[bytes]:
        """The values at key-order positions from ``refine`` or
        ``positions_of``, made since the last new key; each is read as the
        iterator reaches it."""
        return map(self._read, self._order().slots[positions].tolist())

    def records(self, positions: np.ndarray) -> Records:
        """The records at key-order positions, as ``read`` would give them, as
        columns. A value too short for its fields or points, or holding an id
        or a sid that is not UTF-8, is one ``_unpack`` refuses: the first
        such one in key order raises what ``_unpack`` raises on it. The sids
        are the only field sliced a record at a time."""
        order = self._order()
        counts = order.counts[positions]
        if (counts >= 0).all():
            ids = order.ids[positions].tolist()
            starts = order.starts[positions]
            buf = self._buffer()
            sid_at = order.sid_at[positions].tolist()
            sids = [bytes(buf[a:b]) for a, b in zip(sid_at, (starts - _COUNT.size).tolist())]
            try:  # NUL ends no UTF-8 sequence and starts none, so the join is valid only if every part is
                b"\x00".join(sids).decode("utf-8")
                b"\x00".join(set(ids)).decode("utf-8")
                return Records(ids, sids, order.columns[4][positions], starts, counts)
            except UnicodeDecodeError:
                pass
        for value in self.read(positions):
            _unpack(value)
        raise AssertionError("a record found unfit unpacks")

    def points(self, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """The point blocks of ``counts[i]`` points at byte ``starts[i]`` of
        the buffer (``Records``), one after another, as ``_POINT_DTYPE``
        rows: one index into a view of the buffer whose row ``i`` is the
        point at byte ``i``. A copy: no view of the buffer outlives the call."""
        total = int(counts.sum())
        if not total:
            return np.empty(0, _POINT_DTYPE)
        at = np.repeat(starts - _POINT.size * (np.cumsum(counts) - counts), counts)
        at += _POINT.size * np.arange(total)
        raw = np.frombuffer(self._buffer(), np.uint8)
        # rows as opaque bytes: numpy copies them whole, not a field at a time
        rows = np.ndarray((len(raw) - _POINT.size + 1,), f"V{_POINT.size}", raw, 0, (1,))
        return rows[at].view(_POINT_DTYPE)

    def __len__(self) -> int:
        return len(self._slot_of)


class MemoryBackend(SortedIndex):
    """The log held in one ``bytearray``: the magic, then the frames
    ``put_batch`` appends, byte for byte as a ``FileBackend`` writes them;
    the reference backend for tests and oracles."""

    def __init__(self) -> None:
        super().__init__()
        self._values = bytearray(_LOG_MAGIC)

    def _append(self, frames: bytes) -> int:
        base = len(self._values)
        self._values += frames
        return base

    def _buffer(self) -> bytearray:
        return self._values


class FileBackend(SortedIndex):
    """Single-file append-only log of length-prefixed frames; a slot's value
    is an (offset, length) in it.

    The log is open as one file object, which appends, maps and truncates.
    Values are read through a read-only map of the log, made again by a read
    after appends pass its end, so several threads may scan, refine or
    gather on one backend at once. Opening the log replays it into the
    index, later frames winning: the frame heads are walked through the map,
    every whole frame is indexed by one ``_index`` call, and the key-order
    view is built, so the first read finds it made. ``put_batch`` writes a
    batch's frames with one write. A torn frame at the tail, left by a
    writer that stopped mid-frame, is skipped on open and cut off by the
    first write, so new frames follow the last whole one; a backend that
    only reads never changes the file. Closing it closes the map and the
    file and lets the index go. Single writer; scans must not interleave
    with writes.
    """

    def __init__(self, path: str):
        super().__init__()
        self.path = path
        self._map: mmap.mmap | None = None
        self._file = open(path, "a+b")  # an append-mode file starts at its end
        if self._file.tell() == 0:
            self._file.write(_LOG_MAGIC)
            self._file.flush()
        try:
            end = self._replay()
        except ValueError:  # not a segment log
            self.close()
            raise
        self._torn_at = end if self._file.tell() > end else None

    def _replay(self) -> int:
        """Index every whole frame and build the key-order view; returns the
        offset just past the last whole frame. A torn frame at the tail ends
        the walk."""
        buf = self._buffer()
        if buf[: len(_LOG_MAGIC)] != _LOG_MAGIC:
            raise ValueError(f"{self.path} is not a segment log")
        unpack = _FRAME.unpack_from
        starts: list[int] = []
        end, size = len(_LOG_MAGIC), len(buf)
        while end + _FRAME.size <= size:
            key_len, val_len = unpack(buf, end)
            past = end + _FRAME.size + key_len + val_len
            if past > size:
                break  # torn tail write; ignore the partial frame
            starts.append(end)
            end = past
        if starts:
            self._index(buf, 0, starts)
        self._order()
        return end

    def _append(self, frames: bytes) -> int:
        if self._torn_at is not None:
            # frames after the torn one would be lost on the next replay
            log.warning("%s: cutting a torn tail at byte %d", self.path, self._torn_at)
            self._map = None  # it may reach past the cut; no view of it outlives a read
            self._file.truncate(self._torn_at)
            self._file.seek(self._torn_at)
            self._torn_at = None
        base = self._file.tell()
        self._file.write(frames)
        self._file.flush()  # values are read back through the map
        return base

    def _buffer(self) -> mmap.mmap:
        if self._map is None or len(self._map) < self._file.tell():  # appends passed its end
            self._map = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)  # an older map closes with its last view
        return self._map

    def close(self) -> None:
        if self._map is not None:
            self._map.close()
        self._file.close()
        # free the index now, not when the object goes, so the next open can reuse its memory
        self._slot_of, self._offsets, self._lengths, self._sorted, self._map = {}, array("q"), array("I"), None, None

    def __enter__(self) -> "FileBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --- segment record codec -----------------------------------------------------


def encode_segment(seg: Segment) -> bytes:
    """Fixed little-endian value encoding; decode(encode(s)) == s exactly."""
    parts = [
        _HEADER.pack(seg.mbr.min_lon, seg.mbr.min_lat, seg.mbr.max_lon, seg.mbr.max_lat, seg.st, seg.et)
    ]
    for text in (seg.traj_id, seg.sid):
        raw = text.encode("utf-8")
        parts.append(_LEN.pack(len(raw)))
        parts.append(raw)
    parts.append(_COUNT.pack(len(seg.locations)))
    for loc in seg.locations:
        parts.append(_POINT.pack(loc.lon, loc.lat, loc.t))
    return b"".join(parts)


def _unpack(buf: bytes) -> tuple[str, str, tuple, bytes]:
    """An encoded segment's trajectory id, sid, header (box corners, st, et)
    and point bytes, read by offsets; no point is decoded."""
    *head, n = _PEEK.unpack_from(buf, 0)
    sid_at = _PEEK.size + n + _LEN.size
    end = sid_at + _LEN.unpack_from(buf, sid_at - _LEN.size)[0]
    size = _COUNT.unpack_from(buf, end)[0] * _POINT.size
    points = buf[end + _COUNT.size : end + _COUNT.size + size]
    if len(points) != size:
        raise ValueError("segment record shorter than its point count")
    traj_id = buf[_PEEK.size : sid_at - _LEN.size].decode("utf-8")
    return traj_id, buf[sid_at:end].decode("utf-8"), tuple(head), points


def decode_segment(buf: bytes) -> Segment:
    traj_id, sid, (min_lon, min_lat, max_lon, max_lat, st, et), points = _unpack(buf)
    return Segment(
        sid=sid,
        traj_id=traj_id,
        locations=tuple(Location(*p) for p in _POINT.iter_unpack(points)),
        mbr=MBR(min_lon, min_lat, max_lon, max_lat),
        st=st,
        et=et,
    )


# --- ingest -------------------------------------------------------------------


def storage_segments(traj: Trajectory, xz_cfg: XzConfig, seg_cfg: SegmentationConfig) -> list[Segment]:
    """Filter, segment and period-align one trajectory for storage.

    Segments are force-closed at the period length, then split wherever their
    points straddle a period boundary, so each stored segment lives in the
    period of its start time. Ordinals are assigned over the final list.
    """
    return storage_batch([traj], xz_cfg, seg_cfg)[0]


def _storage_cuts(xz_cfg: XzConfig) -> dict:
    """The kernel options that cut storage segments."""
    return dict(max_span=xz_cfg.period_seconds, noise_gate=True, bins=lambda t: bins_of(t, xz_cfg))


def storage_batch(
    trajectories: Sequence[Trajectory], xz_cfg: XzConfig, seg_cfg: SegmentationConfig
) -> list[list[Segment]]:
    """``storage_segments`` of each trajectory, in one pass of the kernel."""
    return segment_batch(trajectories, seg_cfg, **_storage_cuts(xz_cfg))


def ingest(
    trajectories: Iterable[Trajectory] | Tracks,
    xz_cfg: XzConfig,
    seg_cfg: SegmentationConfig,
    backend: SortedIndex,
) -> int:
    """Write every trajectory's storage segments; returns segments written.

    ``trajectories`` are ``Trajectory`` objects or their columns, as
    ``read_points_csv`` gives them. They go through the kernel in batches of
    about ``BATCH_POINTS`` points, and each batch's segments are written by
    one ``put_batch``, in input order, each as ``encode_key`` and
    ``encode_segment`` would write it. Re-ingesting
    identical data leaves the log unchanged; a changed segment overwrites its
    key. Trajectories with timestamps before the index epoch are rejected and
    logged. A timestamp whose period number does not fit a key's 32 bits is a
    ``ValueError`` raised before anything is written.
    """
    tracks = trajectories if isinstance(trajectories, Tracks) else Tracks.of(list(trajectories))
    last = int(tracks.t.max()) if len(tracks.t) else xz_cfg.epoch
    if (last - xz_cfg.epoch) // xz_cfg.period_seconds >= 1 << 32:
        raise ValueError(f"timestamp {last} falls in a period past the last one a key holds")
    early = tracks.t[tracks.offsets[:-1]] < xz_cfg.epoch
    if early.any():
        for k in np.flatnonzero(early).tolist():
            log.warning("rejecting trajectory %r: timestamps precede the epoch", tracks.ids[k])
        tracks = tracks.compress(np.repeat(~early, np.diff(tracks.offsets)))
    written = 0
    for batch in _batches(tracks):
        frames = list(_frames(cut(batch, seg_cfg, **_storage_cuts(xz_cfg)), xz_cfg))
        backend.put_batch(frames)
        written += len(frames)
    return written


def _batches(tracks: Tracks) -> Iterator[Tracks]:
    """Trajectories in input order, in runs closed once they hold
    ``BATCH_POINTS`` points; a trajectory longer than that is a run alone."""
    bounds = tracks.offsets.tolist()
    lo = 0
    for k in range(1, len(bounds)):
        if bounds[k] - bounds[lo] >= BATCH_POINTS:
            yield tracks[lo:k]
            lo = k
    if lo < len(tracks):
        yield tracks[lo:]


def _frames(c: Cuts, xz_cfg: XzConfig) -> Iterator[tuple[bytes, bytes]]:
    """The (key, value) of each segment of a batch, in order: the bytes of
    ``encode_key`` and ``encode_segment``, written from the kernel's columns.
    Headers and points are each one structured array's bytes, sliced."""
    tracks, starts, ends = c.tracks, c.starts, c.ends
    t = tracks.t.astype(np.int64, casting="safe", copy=False)
    heads = np.empty(len(starts), _HEADER_DTYPE)
    for name, column in zip(_HEADER_DTYPE.names, [*c.boxes, t[starts], t[ends - 1]]):
        heads[name] = column
    points = np.empty(len(t), _POINT_DTYPE)
    points["lon"], points["lat"], points["t"] = tracks.lon, tracks.lat, t
    head_bytes, point_bytes = heads.tobytes(), points.tobytes()

    owners = c.owners
    ordinals = np.arange(len(starts)) - np.searchsorted(owners, owners)  # a segment's place in its trajectory
    names = [tid.encode("utf-8") for tid in tracks.ids]
    id_fields = [_LEN.pack(len(raw)) + raw for raw in names]
    h, p = _HEADER.size, _POINT.size
    rows = zip(owners.tolist(), ordinals.tolist(), bins_of(t[starts], xz_cfg).tolist(),
               xz2_codes(*c.boxes, xz_cfg).tolist(), starts.tolist(), ends.tolist())
    for j, (k, ordinal, b, code, s, e) in enumerate(rows):
        sid = names[k] + b"#%d" % ordinal
        key = KEY_HEAD.pack(shard_of(sid, xz_cfg), b, code) + sid
        value = b"".join((head_bytes[j * h : (j + 1) * h], id_fields[k], _LEN.pack(len(sid)), sid,
                          _COUNT.pack(e - s), point_bytes[s * p : e * p]))
        yield key, value


# --- query --------------------------------------------------------------------


def expand_boxes(mbr: MBR, pad_m: float) -> list[MBR]:
    """A box grown outward by at least ``pad_m`` meters of great-circle reach.

    Latitude padding is the exact arc angle. Longitude padding is derived
    from the padded box's worst-case latitude, clamped at +/-85 degrees;
    beyond that the padding falls back to the full longitude span. The grown
    box is clamped at +/-180 degrees of longitude; padding past either edge
    comes back as one more box, the strip it wraps onto at the other edge.
    """
    if pad_m <= 0:
        return [mbr]
    pad_lat = math.degrees(pad_m / EARTH_RADIUS_M)
    min_lat = max(-90.0, mbr.min_lat - pad_lat)
    max_lat = min(90.0, mbr.max_lat + pad_lat)

    worst_lat = max(abs(min_lat), abs(max_lat))
    if worst_lat >= MAX_SUPPORTED_LAT:
        worst_lat = MAX_SUPPORTED_LAT
    s = math.sin(pad_m / (2.0 * EARTH_RADIUS_M)) / math.cos(math.radians(worst_lat))
    pad_lon = math.degrees(2.0 * math.asin(s)) if s < 1.0 else 360.0
    west, east = mbr.min_lon - pad_lon, mbr.max_lon + pad_lon
    boxes = [MBR(max(-180.0, west), min_lat, min(180.0, east), max_lat)]
    if west < -180.0:
        boxes.append(MBR(min(180.0, west + 360.0), min_lat, 180.0, max_lat))
    if east > 180.0:
        boxes.append(MBR(-180.0, min_lat, max(-180.0, east - 360.0), max_lat))
    return boxes


def expand_time_range(tr: TimeRange, pad_s: float) -> TimeRange:
    return TimeRange(int(math.floor(tr.start - pad_s)), int(math.ceil(tr.end + pad_s)))


def _window_positions(
    window: MBR, tr: TimeRange, theta_d: float, theta_t: float, backend: SortedIndex, cfg: XzConfig
) -> np.ndarray:
    """Key-order positions of the records meeting the window and time range
    grown by the reach.

    A row key starts with its shard and period, so the records of the grown
    range's periods are one contiguous span of keys a shard
    (``period_spans``), and the header tests run over all of them
    (``refine``), once a box of ``expand_boxes``. The curve ranges
    ``st_scan_ranges`` would plan lie within those spans, so on a store
    ``ingest`` wrote this keeps exactly the records they would keep: every
    record whose header meets the grown window.
    """
    t = expand_time_range(tr, theta_t)
    spans = period_spans(t, cfg)
    return np.unique(np.concatenate([backend.refine(spans, w, t) for w in expand_boxes(window, theta_d)]))


def st_query(
    window: MBR,
    tr: TimeRange,
    theta_d: float,
    theta_t: float,
    backend: SortedIndex,
    cfg: XzConfig,
) -> list[Segment]:
    """All stored segments intersecting the window and time range, each
    expanded by the reach (across the antimeridian too). Exact: the true box
    and time-overlap tests run over the backend's header columns, on every
    record of the window's periods (``_window_positions``). Only the survivors are read and decoded, in
    key order; the first copy of a sid wins. Sorted by sid.
    """
    found: dict[str, Segment] = {}
    for value in backend.read(_window_positions(window, tr, theta_d, theta_t, backend, cfg)):
        seg = decode_segment(value)
        found.setdefault(seg.sid, seg)
    return [found[sid] for sid in sorted(found)]


@dataclass
class Retrieved:
    """Stored trajectories that windows found, in id order, as columns:
    trajectory ``c``'s points, in time order, are ``points[runs[c]:runs[c + 1]]``
    (``_POINT_DTYPE`` rows, copied out of the store's buffer), and
    ``touches[i, c]`` is true when window ``i`` found it."""

    traj_ids: list[str]
    runs: np.ndarray
    points: np.ndarray
    touches: np.ndarray

    def __len__(self) -> int:
        return len(self.traj_ids)


def _in_order(places: np.ndarray, sids: list[bytes], *keys: np.ndarray) -> np.ndarray:
    """``places`` (into ``sids`` and the ``keys`` columns) sorted by
    ``keys``, the last one first as in ``np.lexsort``, then by sid. The sids
    are raw UTF-8, whose byte order is the code point order ``str`` sorts
    by, and are only compared where the keys tie."""
    places = places[np.lexsort([k[places] for k in keys])]
    tie = np.ones(max(len(places) - 1, 0), bool)
    for k in keys:
        column = k[places]
        tie &= column[1:] == column[:-1]
    if tie.any():
        places = np.array(sorted(places.tolist(), key=lambda j: (*(k[j] for k in reversed(keys)), sids[j])), np.intp)
    return places


def _first_copies(sids: list[bytes], found: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """For a sid held by several records: each window's records (places
    into ``sids``) cut to the first copy of each sid in key order, and the
    copies kept, each sid's from the last window that found it."""
    first = dict(zip(reversed(sids), range(len(sids) - 1, -1, -1)))  # a sid -> its first place
    code = np.fromiter(map(first.__getitem__, sids), np.intp, len(sids))
    holder = np.full(len(sids), -1)
    firsts = []
    for at in found:
        at = at[np.unique(code[at], return_index=True)[1]]
        holder[code[at]] = at
        firsts.append(at)
    return firsts, holder[holder >= 0]


def st_read(
    windows: Sequence[tuple[MBR, TimeRange]], theta_d: float, theta_t: float,
    backend: SortedIndex, cfg: XzConfig,
) -> Retrieved:
    """``st_query`` of every window, with no record decoded alone: the
    records found are sorted by (trajectory id, st, sid) and the points of
    all of them gathered by one index (``points``); no ``Location`` is built.

    A sid keeps the copy that the last window to find it found first in key
    order, as when later ``st_query`` results overwrite earlier ones. A found
    record that ``_unpack`` refuses raises what it raises.
    """
    found = [_window_positions(w, tr, theta_d, theta_t, backend, cfg) for w, tr in windows]
    union = np.unique(np.concatenate(found)) if found else np.empty(0, np.intp)
    recs = backend.records(union)
    found = [np.searchsorted(union, at) for at in found]  # as places in union
    kept = np.arange(len(union))
    if len(set(recs.sids)) < len(union):
        found, kept = _first_copies(recs.sids, found)
    names = sorted(set(recs.ids))
    rank = dict(zip(names, range(len(names))))
    owner = np.fromiter(map(rank.__getitem__, recs.ids), np.intp, len(union))  # by place: its id's rank
    order = _in_order(kept, recs.sids, recs.st, owner)

    owners, firsts = np.unique(owner[order], return_index=True)
    counts = recs.counts[order]
    runs = np.concatenate(([0], np.cumsum(counts)))[np.append(firsts, len(order))]
    column_of = np.full(len(names), -1)
    column_of[owners] = np.arange(len(owners))
    touches = np.zeros((len(windows), len(owners)), bool)
    for row, at in zip(touches, found):
        c = column_of[owner[at]]
        row[c[c >= 0]] = True
    return Retrieved([names[k].decode("utf-8") for k in owners.tolist()], runs,
                     backend.points(recs.starts[order], counts), touches)


def load_trajectory(backend: SortedIndex, traj_id: str) -> Trajectory | None:
    """Reassemble one trajectory from its stored segments, in (st, sid)
    order: only the records the index's id column finds for ``traj_id`` are
    read, their points gathered by one index (``points``). A record that
    ``_unpack`` refuses raises what ``decode_segment`` raises on it, and
    each point is checked as a ``Location``; the checks ``Segment`` makes of
    a record's header against its points, which ingest writes from them,
    are not made.
    """
    positions = backend.positions_of(traj_id)
    if not positions.size:
        return None
    recs = backend.records(positions)
    order = _in_order(np.arange(len(positions)), recs.sids, recs.st)
    points = backend.points(recs.starts[order], recs.counts[order])
    return Trajectory(traj_id, map(Location, *(points[name].tolist() for name in _POINT_DTYPE.names)))
