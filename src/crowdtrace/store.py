"""Ordered key-value storage of encoded segments, and the refined range query.

Two interchangeable backends satisfy the same contract: ``put(key, value)``,
``scan(low, high)`` yielding keys in strict byte order within [low, high),
``refine``, the key-order positions of the records in key ranges whose
segment header meets a window, ``positions_of``, those of the records of one
trajectory, and ``read``, the values at such positions. Both are one
``SortedIndex``: sorted keys over slots, with each slot's fixed 48-byte header
(box, st, et) kept as numpy columns and its trajectory id in a column beside
them. They differ only in where values live: ``MemoryBackend`` holds them in a
list; ``FileBackend`` keeps an offset and a length into a single-file
append-only log, replayed on open a chunk of frames at a time, which appends
nothing for a put of the bytes a key already holds.

``ingest`` hands trajectories, as lon/lat/t columns (``Tracks``), to the
columnar kernel of ``model`` in batches of about ``BATCH_POINTS`` points; one
kernel pass gates noise, cuts stay-point segments, splits them at period
boundaries and takes their boxes. Each segment's key and record are written
from those columns, with every cell code of a batch computed at once, and
segments are put in input order. No ``Location`` or ``Segment`` is built.

``st_query`` expands a window by the spatial/temporal reach, plans key ranges
with the curve index, then refines every record in them with the exact box
and time tests, in one vectorised mask over the header columns, so its result
equals a full linear scan. Only records that pass are read and decoded.
``st_read`` does the same for many windows at once, reading each record once
and decoding its points straight into numpy columns, one run per trajectory.
"""

from __future__ import annotations

import logging
import math
import os
import struct
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

# filter_noise, segment and encode_key stay bound here: perfbench's tracer wraps them in this module
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
from .xz import KEY_HEAD, ScanRange, XzConfig, bins_of, encode_key, shard_of, st_scan_ranges, xz2_codes

log = logging.getLogger(__name__)

MAX_SUPPORTED_LAT = 85.0  # window padding is only exact below this latitude


class StoreBackend(Protocol):
    def put(self, key: bytes, value: bytes) -> None: ...

    def scan(self, low: bytes, high: bytes) -> Iterator[tuple[bytes, bytes]]: ...

    def refine(self, ranges: Iterable[ScanRange], w: MBR, t: TimeRange) -> np.ndarray: ...

    def positions_of(self, traj_id: str) -> np.ndarray: ...

    def read(self, positions: np.ndarray) -> Iterator[bytes]: ...


# the fixed header an encoded segment starts with: box corners, st, et
_HEADER = struct.Struct("<4dqq")
_LEN = struct.Struct("<H")
_PEEK = struct.Struct("<4dqqH")  # _HEADER, then the length of the trajectory id
_HEADER_DTYPE = np.dtype([("min_lon", "<f8"), ("min_lat", "<f8"), ("max_lon", "<f8"),
                          ("max_lat", "<f8"), ("st", "<i8"), ("et", "<i8")])
# kept for a value too short to hold a header: its NaN box meets no window
_NO_HEADER = _HEADER.pack(math.nan, math.nan, math.nan, math.nan, 0, 0)
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _id_field(value: bytes) -> bytes | None:
    """The raw bytes of a value's length-prefixed trajectory id, or None for
    a value too short to hold that field."""
    if len(value) < _PEEK.size:
        return None
    end = _PEEK.size + _LEN.unpack_from(value, _HEADER.size)[0]
    return value[_PEEK.size : end] if len(value) >= end else None


class SortedIndex:
    """The sorted key index both backends share.

    A key owns one slot for life; a new key takes the next one. A put to the
    key replaces the slot's value and the header bytes and trajectory id kept
    for it, so the headers form numpy columns by slot; a subclass says where a
    slot's value lives (``_read``). The sorted keys and their slots are
    rebuilt by the first scan after a new key; headers and ids are read by
    slot, so no scan sees a stale one. Scans must not interleave with writes.
    """

    def __init__(self) -> None:
        self._slot_of: dict[bytes, int] = {}
        self._headers = bytearray()  # _HEADER.size bytes a slot
        self._ids: list[bytes | None] = []  # by slot: ``_id_field`` of the value
        self._sorted: tuple[list[bytes], np.ndarray] | None = None

    def _record(self, key: bytes, value: bytes) -> int:
        """The key's slot, now holding the header and id of ``value``."""
        head = value[: _HEADER.size] if len(value) >= _HEADER.size else _NO_HEADER
        slot = self._slot_of.get(key)
        if slot is None:
            slot = self._slot_of[key] = len(self._ids)
            self._headers += head
            self._ids.append(_id_field(value))
            self._sorted = None
        else:
            self._headers[slot * _HEADER.size : (slot + 1) * _HEADER.size] = head
            self._ids[slot] = _id_field(value)
        return slot

    def _read(self, slot: int) -> bytes:
        raise NotImplementedError

    def _order(self) -> tuple[list[bytes], np.ndarray]:
        """The keys in byte order and their slots."""
        order = self._sorted
        if order is None:  # readers racing here each build the same, whole tuple
            keys = sorted(self._slot_of)
            slots = np.fromiter(map(self._slot_of.__getitem__, keys), np.intp, len(keys))
            order = self._sorted = (keys, slots)
        return order

    def scan(self, low: bytes, high: bytes) -> Iterator[tuple[bytes, bytes]]:
        """(key, value) of every key in [low, high), in byte order."""
        keys, slots = self._order()
        lo, hi = bisect_left(keys, low), bisect_left(keys, high)
        yield from zip(keys[lo:hi], map(self._read, slots[lo:hi].tolist()))

    def refine(self, ranges: Iterable[ScanRange], w: MBR, t: TimeRange) -> np.ndarray:
        """The key-order positions of the records in the key ranges whose
        header box intersects ``w`` and whose [st, et] overlaps ``t``, range
        by range; ``read`` takes their values.

        These are the tests of ``MBR.intersects`` and ``TimeRange.intersects``
        in one mask over the header columns: float64 and int64 compare exactly
        against the window's floats and ints, and stored times fit int64, so
        clamping the window's times to it changes no outcome.
        """
        keys, slots = self._order()
        bounds = np.array([bisect_left(keys, b) for r in ranges for b in (r.low, r.high)], np.intp)
        lo, lens = bounds[0::2], bounds[1::2] - bounds[0::2]
        ends = np.cumsum(lens)
        at = np.arange(ends[-1] if lens.size else 0) + np.repeat(lo - ends + lens, lens)
        picked = slots[at]
        heads = np.frombuffer(self._headers, _HEADER_DTYPE)  # a view: gone before the next put
        keep = heads["min_lon"][picked] <= w.max_lon  # a field at a time keeps temporaries small
        keep &= w.min_lon <= heads["max_lon"][picked]
        keep &= heads["min_lat"][picked] <= w.max_lat
        keep &= w.min_lat <= heads["max_lat"][picked]
        keep &= heads["st"][picked] <= min(t.end, _INT64_MAX)
        keep &= max(t.start, _INT64_MIN) <= heads["et"][picked]
        return at[keep]

    def positions_of(self, traj_id: str) -> np.ndarray:
        """The key-order positions of the records whose value names trajectory
        ``traj_id``; ``read`` takes their values. One mask over the id column."""
        try:
            raw = traj_id.encode("utf-8")
        except UnicodeEncodeError:  # not text any record could name
            return np.empty(0, np.intp)
        slots = self._order()[1]
        # against a 0-d object array: bare bytes would become numpy's 'S' type, which drops trailing NULs
        return np.flatnonzero(np.array(self._ids, object)[slots] == np.array(raw, object))

    def read(self, positions: np.ndarray) -> Iterator[bytes]:
        """The values at key-order positions from ``refine``, made since the
        last new key; each is read as the iterator reaches it."""
        return map(self._read, self._order()[1][positions].tolist())

    def __len__(self) -> int:
        return len(self._slot_of)


def _put_slot(column: list | array, slot: int, item) -> None:
    """Set a slot's item in a per-slot column; a new slot is one past its end."""
    if slot < len(column):
        column[slot] = item
    else:
        column.append(item)


class MemoryBackend(SortedIndex):
    """Values in a list by slot; the reference backend for tests and oracles."""

    def __init__(self) -> None:
        super().__init__()
        self._values: list[bytes] = []

    def put(self, key: bytes, value: bytes) -> None:
        _put_slot(self._values, self._record(key, value), value)

    def _read(self, slot: int) -> bytes:
        return self._values[slot]


_FRAME = struct.Struct("<II")
_LOG_MAGIC = b"CTLOG1\n"
REPLAY_CHUNK = 1 << 18  # bytes one positional read takes while a log is replayed


class FileBackend(SortedIndex):
    """Single-file append-only log; a slot's value is an (offset, length) in it.

    Writes append length-prefixed frames. Opening the log replays it into the
    index, later writes winning, by positional reads of ``REPLAY_CHUNK``
    bytes, taking each value's header and trajectory id but not holding the
    log. A put of the bytes its key already holds appends nothing, so
    re-ingesting unchanged data leaves the log as it was. A torn frame at the
    tail, left by a writer that stopped mid-frame, is skipped on open and cut
    off by the first write, so new frames follow the last whole one; a
    backend that only reads never changes the file. Values are read back with
    positional reads, so several threads may scan or refine on one backend at
    once. Closing it lets the index go. Single writer; scans must not
    interleave with writes.
    """

    def __init__(self, path: str):
        super().__init__()
        self.path = path
        self._offsets = array("Q")  # by slot
        self._lengths = array("I")
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
        gathered as rows of bytes by one numpy index each, keys and ids sliced."""
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
        self._offsets.extend((base + val_at).tolist())
        self._lengths.extend(val_len.tolist())

    def _index_frame(self, at: int, size: int) -> int | None:
        """Index the one frame at offset ``at``, reading only its length
        fields, key, header and id; returns the offset past it, or None when
        the log ends inside it."""
        key_len, val_len = _FRAME.unpack(os.pread(self._fd, _FRAME.size, at))
        offset = at + _FRAME.size + key_len
        if offset + val_len > size:
            return None
        fields = os.pread(self._fd, key_len + min(val_len, _PEEK.size), at + _FRAME.size)
        traj_id = None
        if val_len >= _PEEK.size:
            id_len = _LEN.unpack_from(fields, key_len + _HEADER.size)[0]
            if val_len >= _PEEK.size + id_len:
                traj_id = os.pread(self._fd, id_len, offset + _PEEK.size)
        self._slot_of[fields[:key_len]] = len(self._ids)
        self._headers += fields[key_len : key_len + _HEADER.size] if val_len >= _HEADER.size else _NO_HEADER
        self._ids.append(traj_id)
        self._offsets.append(offset)
        self._lengths.append(val_len)
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
            self._wf.truncate(self._torn_at)
            self._wf.seek(self._torn_at)
            self._flushed = self._torn_at
            self._torn_at = None
        self._wf.write(_FRAME.pack(len(key), len(value)))
        self._wf.write(key)
        offset = self._wf.tell()
        self._wf.write(value)
        slot = self._record(key, value)
        _put_slot(self._offsets, slot, offset)
        _put_slot(self._lengths, slot, len(value))

    def _order(self) -> tuple[list[bytes], np.ndarray]:
        self._wf.flush()  # values are read back from the file
        return super()._order()

    def _read(self, slot: int) -> bytes:
        return os.pread(self._fd, self._lengths[slot], self._offsets[slot])

    def close(self) -> None:
        self._wf.flush()
        self._wf.close()
        self._rf.close()
        # free the index now, not when the object goes, so the next open can reuse its memory
        self._slot_of, self._headers, self._ids, self._sorted = {}, bytearray(), [], None
        self._offsets, self._lengths = array("Q"), array("I")

    def __enter__(self) -> "FileBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --- segment record codec -----------------------------------------------------

_COUNT = struct.Struct("<I")
_POINT = struct.Struct("<ddq")
_POINT_DTYPE = np.dtype([("lon", "<f8"), ("lat", "<f8"), ("t", "<i8")])  # _POINT, as columns


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


def expand_mbr(mbr: MBR, pad_m: float) -> MBR:
    """The first box of ``expand_boxes``: the grown box, clamped to the world."""
    return expand_boxes(mbr, pad_m)[0]


def expand_time_range(tr: TimeRange, pad_s: float) -> TimeRange:
    return TimeRange(int(math.floor(tr.start - pad_s)), int(math.ceil(tr.end + pad_s)))


def _window_positions(
    window: MBR, tr: TimeRange, theta_d: float, theta_t: float, backend: StoreBackend, cfg: XzConfig
) -> np.ndarray:
    """Key-order positions of the records meeting the window and time range
    grown by the reach: each box of ``expand_boxes`` planned and refined."""
    t = expand_time_range(tr, theta_t)
    boxes = expand_boxes(window, theta_d)
    return np.unique(np.concatenate([backend.refine(st_scan_ranges(w, t, cfg), w, t) for w in boxes]))


def st_query(
    window: MBR,
    tr: TimeRange,
    theta_d: float,
    theta_t: float,
    backend: StoreBackend,
    cfg: XzConfig,
) -> list[Segment]:
    """All stored segments intersecting the window and time range, each
    expanded by the reach (across the antimeridian too). Exact: the records
    of the planned scan ranges are refined by the true box and time-overlap
    tests over the backend's header columns (``refine``), and only the
    survivors are read and decoded, in key order; the first copy of a sid
    wins. Sorted by sid.
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
    (``_POINT_DTYPE``), ``heads[c]`` holds the (box corners, st, et) of its
    segments, and ``touches[i, c]`` is true when window ``i`` found it."""

    traj_ids: list[str]
    runs: np.ndarray
    points: np.ndarray
    heads: list[list[tuple]]
    touches: np.ndarray

    def __len__(self) -> int:
        return len(self.traj_ids)


def st_read(
    windows: Sequence[tuple[MBR, TimeRange]], theta_d: float, theta_t: float,
    backend: StoreBackend, cfg: XzConfig, exclude_id: str | None = None,
) -> Retrieved:
    """``st_query`` of every window, with each record read once and the
    points of all decoded by one ``np.frombuffer``; no ``Location`` is built.

    A sid keeps the copy that the last window to find it found first in key
    order, as when later ``st_query`` results overwrite earlier ones. The
    trajectory ``exclude_id`` is left out.
    """
    found = [_window_positions(w, tr, theta_d, theta_t, backend, cfg) for w, tr in windows]
    union = np.unique(np.concatenate(found)) if found else np.empty(0, np.intp)
    records = dict(zip(union.tolist(), map(_unpack, backend.read(union))))
    # per window, the first copy of each sid in key order
    firsts = [{records[p][1]: records[p] for p in reversed(at.tolist())} for at in found]
    kept = {sid: rec for first in firsts for sid, rec in first.items()}
    ordered = sorted((r for r in kept.values() if r[0] != exclude_id), key=lambda r: (r[0], r[2][4], r[1]))
    groups = [list(g) for _, g in groupby(ordered, key=lambda r: r[0])]
    index = {g[0][0]: c for c, g in enumerate(groups)}
    touches = np.zeros((len(windows), len(groups)), bool)
    for row, first in zip(touches, firsts):
        row[[index[r[0]] for r in first.values() if r[0] in index]] = True
    runs = np.cumsum([0] + [sum(len(r[3]) for r in g) // _POINT.size for g in groups])
    points = np.frombuffer(b"".join(r[3] for r in ordered), _POINT_DTYPE)
    return Retrieved(list(index), runs, points, [[r[2] for r in g] for g in groups], touches)


# all keys are 13 header bytes plus a UTF-8 sid, so this high bound tops them
_ALL_KEYS = (b"", b"\xff" * 14)


def scan_all(backend: StoreBackend) -> Iterator[Segment]:
    """Decode every stored segment in key order."""
    for _, value in backend.scan(*_ALL_KEYS):
        yield decode_segment(value)


def load_trajectory(backend: StoreBackend, traj_id: str) -> Trajectory | None:
    """Reassemble one trajectory from its stored segments: only the records
    the index's id column finds for ``traj_id`` are read and decoded.
    """
    segs = [decode_segment(value) for value in backend.read(backend.positions_of(traj_id))]
    if not segs:
        return None
    segs.sort(key=lambda s: (s.st, s.sid))
    return Trajectory(traj_id, [loc for seg in segs for loc in seg.locations])
