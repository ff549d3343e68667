"""Ordered key-value storage of encoded segments, and the exact window query.

Two interchangeable backends satisfy the same contract: ``put(key, value)``,
``scan(low, high)`` yielding keys in strict byte order within [low, high),
``refine``, the key-order positions of the records in key ranges whose
segment header meets a window, ``positions_of``, those of the records of one
trajectory, ``read``, the values at such positions, and ``records`` and
``points``, their fields and point blocks as columns. Both are one
``SortedIndex``: sorted keys over slots, each slot's fixed 48-byte header
(box, st, et) and trajectory id kept beside it, and both also kept in key
order, as numpy columns, rebuilt by the first read after a new key and
patched in place by an overwrite. Each slot also keeps where its value and
its point block lie in one buffer, and how many points the block holds. The
backends differ only in that buffer: ``MemoryBackend`` appends its values to
a ``bytearray``; ``FileBackend`` appends them to a single-file log, replayed
on open a chunk of frames at a time, which appends nothing for a put of the
bytes a key already holds, and reads them through a read-only map of it.

``ingest`` hands trajectories, as lon/lat/t columns (``Tracks``), to the
columnar kernel of ``model`` in batches of about ``BATCH_POINTS`` points; one
kernel pass gates noise, cuts stay-point segments, splits them at period
boundaries and takes their boxes. Each segment's key and record are written
from those columns, with every cell code of a batch computed at once, and
segments are put in input order. No ``Location`` or ``Segment`` is built.

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
import os
import struct
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn, Protocol, Sequence

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


class StoreBackend(Protocol):
    def put(self, key: bytes, value: bytes) -> None: ...

    def scan(self, low: bytes, high: bytes) -> Iterator[tuple[bytes, bytes]]: ...

    def refine(self, ranges: Iterable[ScanRange], w: MBR, t: TimeRange) -> np.ndarray: ...

    def positions_of(self, traj_id: str) -> np.ndarray: ...

    def read(self, positions: np.ndarray) -> Iterator[bytes]: ...

    def records(self, positions: np.ndarray) -> "Records | None": ...

    def points(self, starts: np.ndarray, counts: np.ndarray) -> np.ndarray: ...


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


def _id_field(value: bytes) -> bytes | None:
    """The raw bytes of a value's length-prefixed trajectory id, or None for
    a value too short to hold that field."""
    if len(value) < _PEEK.size:
        return None
    end = _PEEK.size + _LEN.unpack_from(value, _HEADER.size)[0]
    return value[_PEEK.size : end] if len(value) >= end else None


def _point_block(value: bytes, size: int) -> tuple[int, int]:
    """Where the point block of a ``size``-byte value starts in it, and how
    many points it holds; a count of -1 when the value is too short for its
    id, sid, count or points, which ``_unpack`` refuses. ``value`` holds the
    value's bytes at least up to its count field."""
    if size >= _PEEK.size:
        sid_len_at = _PEEK.size + _LEN.unpack_from(value, _HEADER.size)[0]
        if size >= sid_len_at + _LEN.size:
            count_at = sid_len_at + _LEN.size + _LEN.unpack_from(value, sid_len_at)[0]
            if size >= count_at + _COUNT.size:
                count = _COUNT.unpack_from(value, count_at)[0]
                if size >= count_at + _COUNT.size + count * _POINT.size:
                    return count_at + _COUNT.size, count
    return 0, -1


class _KeyOrder(NamedTuple):
    """The index in key order: the sorted keys, their slots, each slot's
    place among them, each header field as one contiguous column
    (``_HEADER_DTYPE`` order) and the trajectory ids (``_id_field``, an
    object column)."""

    keys: list[bytes]
    slots: np.ndarray
    places: np.ndarray  # by slot
    columns: tuple[np.ndarray, ...]
    ids: np.ndarray


class Records(NamedTuple):
    """Records at key-order positions, as columns: their raw trajectory ids
    and sids, their header fields (``_HEADER_DTYPE`` order), and where each
    one's point block starts in the backend's buffer and how many points it
    holds (``points`` takes them)."""

    ids: list[bytes]
    sids: list[bytes]
    heads: tuple[np.ndarray, ...]
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


class SortedIndex:
    """The sorted key index both backends share.

    A key owns one slot for life; a new key takes the next one. A put to the
    key replaces the slot's value and the header bytes and trajectory id kept
    for it, and where the value and its point block lie in the backend's
    buffer (``_buffer``), which a subclass keeps. Readers see the index in
    key order (``_order``), rebuilt after a new key; a put to a key it holds
    writes the new header and id into its key-order columns too, so no
    reader sees a stale one. Every numpy view of the buffer or of a per-slot
    column is gone before the call that made it returns, so puts may grow
    them and a map may be closed. Scans must not interleave with writes.
    """

    def __init__(self) -> None:
        self._slot_of: dict[bytes, int] = {}
        self._headers = bytearray()  # _HEADER.size bytes a slot
        self._ids: list[bytes | None] = []  # by slot: ``_id_field`` of the value
        self._offsets = array("q")  # by slot: where the value starts in the buffer
        self._lengths = array("I")
        self._points = array("q")  # where its point block starts in the buffer
        self._counts = array("q")  # how many points the block holds; -1 if ``_point_block`` finds none
        self._sorted: _KeyOrder | None = None  # gone with a new key

    def _record(self, key: bytes, value: bytes, offset: int) -> None:
        """Give the key's slot the header, id and point block of ``value``,
        which lies at ``offset`` in the buffer."""
        head = value[: _HEADER.size] if len(value) >= _HEADER.size else _NO_HEADER
        traj_id = _id_field(value)
        at, count = _point_block(value, len(value))
        slot = self._slot_of.get(key)
        if slot is None:
            self._slot_of[key] = len(self._ids)
            self._headers += head
            self._ids.append(traj_id)
            self._offsets.append(offset)
            self._lengths.append(len(value))
            self._points.append(offset + at)
            self._counts.append(count)
            self._sorted = None
            return
        self._headers[slot * _HEADER.size : (slot + 1) * _HEADER.size] = head
        self._ids[slot] = traj_id
        self._offsets[slot], self._lengths[slot] = offset, len(value)
        self._points[slot], self._counts[slot] = offset + at, count
        order = self._sorted
        if order is not None:  # no key moved: patch the key-order columns
            place = order.places[slot]
            for column, field in zip(order.columns, _HEADER.unpack(head)):
                column[place] = field
            order.ids[place] = traj_id

    def _buffer(self) -> bytes | bytearray | mmap.mmap:
        """The bytes every slot's value lies in, as of the last ``_order``."""
        raise NotImplementedError

    def _read(self, slot: int) -> bytes:
        offset = self._offsets[slot]
        return bytes(self._buffer()[offset : offset + self._lengths[slot]])

    def _order(self) -> _KeyOrder:
        """The index in key order, rebuilt if a new key came."""
        order = self._sorted
        if order is None:  # readers racing here each build the same, whole tuple
            keys = sorted(self._slot_of)
            slots = np.fromiter(map(self._slot_of.__getitem__, keys), np.intp, len(keys))
            places = np.empty(len(self._ids), np.intp)  # a slot no key owns (a replayed stale frame's) is never read
            places[slots] = np.arange(len(keys))
            heads = np.frombuffer(self._headers, _HEADER_DTYPE)  # a view: gone before the next put
            columns = tuple(heads[name][slots] for name in _HEADER_DTYPE.names)  # a field at a time is quicker
            order = self._sorted = _KeyOrder(keys, slots, places, columns, np.array(self._ids, object)[slots])
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

    def records(self, positions: np.ndarray) -> Records | None:
        """The records at key-order positions, as ``read`` would give them, as
        columns; None if one of them is too short for its fields or points,
        or holds an id or a sid that is not UTF-8: a value ``_unpack``
        refuses. The sids are the only field sliced a record at a time."""
        order = self._order()
        slots = order.slots[positions]
        counts = np.frombuffer(self._counts, np.int64)[slots]
        if (counts < 0).any():
            return None
        ids = order.ids[positions].tolist()
        starts = np.frombuffer(self._points, np.int64)[slots]
        sid_at = np.frombuffer(self._offsets, np.int64)[slots] + _PEEK.size + _LEN.size
        sid_at += np.fromiter(map(len, ids), np.int64, len(ids))
        buf = self._buffer()
        sids = [bytes(buf[a:b]) for a, b in zip(sid_at.tolist(), (starts - _COUNT.size).tolist())]
        try:  # NUL ends no UTF-8 sequence and starts none, so the join is valid only if every part is
            b"\x00".join(sids).decode("utf-8")
            b"\x00".join(set(ids)).decode("utf-8")
        except UnicodeDecodeError:
            return None
        return Records(ids, sids, tuple(column[positions] for column in order.columns), starts, counts)

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
    """Values appended to one ``bytearray`` a put at a time, as the log
    appends them, and as there a put of the bytes a key already holds
    appends nothing; the reference backend for tests and oracles."""

    def __init__(self) -> None:
        super().__init__()
        self._values = bytearray()

    def put(self, key: bytes, value: bytes) -> None:
        slot = self._slot_of.get(key)
        if slot is not None and self._read(slot) == value:
            return
        self._record(key, value, len(self._values))
        self._values += value

    def _buffer(self) -> bytearray:
        return self._values


_FRAME = struct.Struct("<II")
_LOG_MAGIC = b"CTLOG1\n"
REPLAY_CHUNK = 1 << 18  # bytes one positional read takes while a log is replayed


class FileBackend(SortedIndex):
    """Single-file append-only log; a slot's value is an (offset, length) in it.

    Writes append length-prefixed frames. Opening the log replays it into the
    index, later writes winning, by positional reads of ``REPLAY_CHUNK``
    bytes, taking each value's header, trajectory id and point block without
    holding the log. A put of the bytes its key already holds appends
    nothing, so re-ingesting unchanged data leaves the log as it was. A torn
    frame at the tail, left by a writer that stopped mid-frame, is skipped on
    open and cut off by the first write, so new frames follow the last whole
    one; a backend that only reads never changes the file. Values are read
    through a read-only map of the log, made by the first read and made
    again by a read after appends pass its end, so several threads may scan,
    refine or gather on one backend at once. Closing it closes the map and
    lets the index go. Single writer; scans must not interleave with writes.
    """

    def __init__(self, path: str):
        super().__init__()
        self.path = path
        self._map: mmap.mmap | None = None
        exists = os.path.exists(path)
        self._wf = open(path, "ab")
        if not exists or os.path.getsize(path) == 0:
            self._wf.write(_LOG_MAGIC)
            self._wf.flush()
        self._rf = open(path, "rb", buffering=0)  # for positional reads only
        self._fd = self._rf.fileno()
        try:
            end = self._replay()
        except ValueError:  # not a segment log
            self.close()
            raise
        self._flushed = self._wf.tell()  # bytes below this offset are on disk
        self._torn_at = end if self._flushed > end else None

    def _replay(self) -> int:
        """Index every whole frame; returns the offset just past the last one.

        Each frame takes the next slot and a key the slot of its last frame,
        so an overwritten frame leaves an unused slot behind. A chunk of the
        log is walked for the frames wholly inside it, which are indexed at
        once (``_index_chunk``); a frame larger than a chunk is indexed alone
        (``_index_frame``). A torn frame at the tail ends the replay."""
        fd = self._fd
        size = os.fstat(fd).st_size
        if os.pread(fd, len(_LOG_MAGIC), 0) != _LOG_MAGIC:
            raise ValueError(f"{self.path} is not a segment log")
        unpack = _FRAME.unpack_from
        end = len(_LOG_MAGIC)
        while end + _FRAME.size <= size:
            buf = os.pread(fd, min(REPLAY_CHUNK, size - end), end)
            starts: list[int] = []  # of the whole frames in buf
            walked, limit = 0, len(buf) - _FRAME.size
            while walked <= limit:
                key_len, val_len = unpack(buf, walked)
                past = walked + _FRAME.size + key_len + val_len
                if past > len(buf):
                    break
                starts.append(walked)
                walked = past
            if starts:
                self._index_chunk(buf, end, starts)
                end += walked
            else:
                past = self._index_frame(end, size)
                if past is None:
                    break  # torn tail write; ignore the partial frame
                end = past
        return end

    def _index_chunk(self, buf: bytes, base: int, starts: list[int]) -> None:
        """Index the whole frames starting at ``starts`` in ``buf``, the log
        from offset ``base`` on: their length fields, headers and id lengths
        gathered as rows of bytes, their sid lengths and point counts as
        fields, each by one numpy index; keys and ids sliced. A field that
        would lie past its value is read at the end of ``buf``, and the value
        gets no point block (``_point_block``)."""
        padded = np.frombuffer(buf + bytes(_PEEK.size), np.uint8)  # so every row below is whole
        rows = np.ndarray((len(buf) + 1, _PEEK.size), np.uint8, padded, 0, (1, 1))  # row i: bytes i on
        at = np.array(starts, np.intp)
        key_len, val_len = rows[at, : _FRAME.size].view("<u4").T.astype(np.intp)
        val_at = at + _FRAME.size + key_len
        slot = len(self._ids)
        keys = [buf[a:b] for a, b in zip((at + _FRAME.size).tolist(), val_at.tolist())]
        self._slot_of.update(zip(keys, range(slot, slot + len(keys))))

        fields = rows[val_at]  # a value's header and id length, if it is long enough to hold them
        short = val_len < _HEADER.size
        if short.any():
            fields[short, : _HEADER.size] = np.frombuffer(_NO_HEADER, np.uint8)
        self._headers += fields[:, : _HEADER.size].tobytes()
        id_len = fields[:, _HEADER.size :].copy().view("<u2")[:, 0].astype(np.intp)
        id_at = val_at + _PEEK.size
        ids = [buf[a:b] for a, b in zip(id_at.tolist(), (id_at + id_len).tolist())]
        for j in np.flatnonzero(val_len < _PEEK.size + id_len).tolist():
            ids[j] = None  # too short to hold its id field
        self._ids += ids

        u16 = np.ndarray((len(buf) + 1,), "<u2", padded, 0, (1,))  # item i: the field at byte i
        u32 = np.ndarray((len(buf) + 1,), "<u4", padded, 0, (1,))
        val_end = val_at + val_len
        sid_len_at = np.minimum(id_at + id_len, len(buf))
        count_at = np.minimum(sid_len_at + _LEN.size + u16[sid_len_at], len(buf))
        point_at = count_at + _COUNT.size
        counts = u32[count_at].astype(np.int64)
        whole = (val_len >= _PEEK.size) & (sid_len_at + _LEN.size <= val_end) & (point_at <= val_end)
        whole &= point_at + _POINT.size * counts <= val_end
        self._offsets.frombytes((base + val_at).astype(np.int64).tobytes())
        self._lengths.frombytes(val_len.astype(np.uint32).tobytes())
        self._points.frombytes((base + np.where(whole, point_at, val_at)).astype(np.int64).tobytes())
        self._counts.frombytes(np.where(whole, counts, -1).tobytes())

    def _index_frame(self, at: int, size: int) -> int | None:
        """Index the one frame at offset ``at``, reading only its length
        fields, key, and its value up to its point count; returns the offset
        past it, or None when the log ends inside it."""
        key_len, val_len = _FRAME.unpack(os.pread(self._fd, _FRAME.size, at))
        offset = at + _FRAME.size + key_len
        if offset + val_len > size:
            return None
        fields = os.pread(self._fd, key_len + min(val_len, _PEEK.size), at + _FRAME.size)
        head = fields[key_len:]
        if val_len >= _PEEK.size:  # then the id and the sid length, then the sid and the count
            upto = _PEEK.size + _LEN.unpack_from(head, _HEADER.size)[0] + _LEN.size
            head += os.pread(self._fd, min(val_len, upto) - len(head), offset + len(head))
            if val_len >= upto:
                upto += _LEN.unpack_from(head, upto - _LEN.size)[0] + _COUNT.size
                head += os.pread(self._fd, min(val_len, upto) - len(head), offset + len(head))
        point_at, count = _point_block(head, val_len)
        self._slot_of[fields[:key_len]] = len(self._ids)
        self._headers += head[: _HEADER.size] if val_len >= _HEADER.size else _NO_HEADER
        self._ids.append(_id_field(head))
        self._offsets.append(offset)
        self._lengths.append(val_len)
        self._points.append(offset + point_at)
        self._counts.append(count)
        return offset + val_len

    def put(self, key: bytes, value: bytes) -> None:
        slot = self._slot_of.get(key)
        if slot is not None and self._lengths[slot] == len(value):
            offset = self._offsets[slot]
            if offset + len(value) > self._flushed:  # the old value may still be buffered
                self._wf.flush()
                self._flushed = self._wf.tell()
            if os.pread(self._fd, len(value), offset) == value:
                return  # the key already holds these bytes
        if self._torn_at is not None:
            # frames after the torn one would be lost on the next replay
            log.warning("%s: cutting a torn tail at byte %d", self.path, self._torn_at)
            self._map = None  # it may reach past the cut; no view of it outlives a read
            self._wf.truncate(self._torn_at)
            self._wf.seek(self._torn_at)
            self._flushed = self._torn_at
            self._torn_at = None
        self._wf.write(_FRAME.pack(len(key), len(value)))
        self._wf.write(key)
        offset = self._wf.tell()
        self._wf.write(value)
        self._record(key, value, offset)

    def _order(self) -> _KeyOrder:
        self._wf.flush()  # values are read back through the map
        if self._map is None or len(self._map) < self._wf.tell():  # appends passed its end
            self._map = mmap.mmap(self._fd, 0, access=mmap.ACCESS_READ)  # an older map closes with its last view
        return super()._order()

    def _buffer(self) -> mmap.mmap:
        return self._map

    def close(self) -> None:
        self._wf.flush()
        self._wf.close()
        self._rf.close()
        if self._map is not None:
            self._map.close()
        # free the index now, not when the object goes, so the next open can reuse its memory
        self._slot_of, self._headers, self._ids, self._sorted, self._map = {}, bytearray(), [], None, None
        self._offsets, self._lengths, self._points, self._counts = array("q"), array("I"), array("q"), array("q")

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
    backend: StoreBackend,
) -> int:
    """Write every trajectory's storage segments; returns segments written.

    ``trajectories`` are ``Trajectory`` objects or their columns, as
    ``read_points_csv`` gives them. They go through the kernel in batches of
    about ``BATCH_POINTS`` points, and segments are put in input order, each
    as ``encode_key`` and ``encode_segment`` would write it. Re-ingesting
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
        for key, value in _frames(cut(batch, seg_cfg, **_storage_cuts(xz_cfg)), xz_cfg):
            backend.put(key, value)
            written += 1
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
    window: MBR, tr: TimeRange, theta_d: float, theta_t: float, backend: StoreBackend, cfg: XzConfig
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
    backend: StoreBackend,
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


def _refused(backend: StoreBackend, positions: np.ndarray, decode: Callable[[bytes], object]) -> NoReturn:
    """Raise what ``decode`` raises on the first record at ``positions``, in
    key order, that it refuses."""
    for value in backend.read(positions):
        decode(value)
    raise AssertionError("a record found unfit decodes")


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
    backend: StoreBackend, cfg: XzConfig, exclude_id: str | None = None,
) -> Retrieved:
    """``st_query`` of every window, with no record decoded alone: the
    records found are sorted by (trajectory id, st, sid) and the points of
    all of them gathered by one index (``points``); no ``Location`` is built.

    A sid keeps the copy that the last window to find it found first in key
    order, as when later ``st_query`` results overwrite earlier ones. The
    trajectory ``exclude_id`` is left out. A found record that ``_unpack``
    refuses raises what it raises.
    """
    found = [_window_positions(w, tr, theta_d, theta_t, backend, cfg) for w, tr in windows]
    union = np.unique(np.concatenate(found)) if found else np.empty(0, np.intp)
    recs = backend.records(union)
    if recs is None:
        _refused(backend, union, _unpack)
    found = [np.searchsorted(union, at) for at in found]  # as places in union
    kept = np.arange(len(union))
    if len(set(recs.sids)) < len(union):
        found, kept = _first_copies(recs.sids, found)
    names = sorted(set(recs.ids))
    rank = dict(zip(names, range(len(names))))
    owner = np.fromiter(map(rank.__getitem__, recs.ids), np.intp, len(union))  # by place: its id's rank
    if exclude_id is not None:  # encoded as is, so an id no record holds matches none
        kept = kept[owner[kept] != rank.get(exclude_id.encode("utf-8", "surrogatepass"), -1)]
    order = _in_order(kept, recs.sids, recs.heads[4], owner)

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


def load_trajectory(backend: StoreBackend, traj_id: str) -> Trajectory | None:
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
    if recs is None:
        _refused(backend, positions, decode_segment)
    order = _in_order(np.arange(len(positions)), recs.sids, recs.heads[4])
    points = backend.points(recs.starts[order], recs.counts[order])
    return Trajectory(traj_id, map(Location, *(points[name].tolist() for name in _POINT_DTYPE.names)))
