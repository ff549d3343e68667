"""Ordered key-value storage of encoded segments, and the refined range query.

Two interchangeable backends satisfy the same contract: ``put(key, value)``,
``scan(low, high)`` yielding keys in strict byte order within [low, high), and
``refine``, the values of key ranges whose segment header meets a window.
Both are one ``SortedIndex``: sorted keys over slots, with each slot's fixed
48-byte header (box, st, et) kept as numpy columns. They differ only in where
values live: ``MemoryBackend`` holds them in a list; ``FileBackend`` keeps an
offset and a length into a single-file append-only log, replayed on open,
which appends nothing for a put of the bytes a key already holds.

``ingest`` hands trajectories to the columnar kernel of ``model`` in batches
of about ``BATCH_POINTS`` points; one kernel pass gates noise, cuts
stay-point segments, splits them at period boundaries and takes their boxes
(``storage_batch``). Segments are put in input order.

``st_query`` expands a window by the spatial/temporal reach, plans key ranges
with the curve index, then refines every record in them with the exact box
and time tests, in one vectorised mask over the header columns, so its result
equals a full linear scan. Only records that pass are read and decoded.
"""

from __future__ import annotations

import logging
import math
import os
import struct
from array import array
from bisect import bisect_left
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

# filter_noise and segment stay bound here: perfbench's tracer wraps them in this module
from .model import (
    BATCH_POINTS,
    EARTH_RADIUS_M,
    MBR,
    Location,
    Segment,
    SegmentationConfig,
    TimeRange,
    Trajectory,
    filter_noise,
    segment,
    segment_batch,
)
from .xz import ScanRange, XzConfig, bins_of, encode_key, st_scan_ranges

log = logging.getLogger(__name__)

MAX_SUPPORTED_LAT = 85.0  # window padding is only exact below this latitude


class StoreBackend(Protocol):
    def put(self, key: bytes, value: bytes) -> None: ...

    def scan(self, low: bytes, high: bytes) -> Iterator[tuple[bytes, bytes]]: ...

    def refine(self, ranges: Iterable[ScanRange], w: MBR, t: TimeRange) -> Iterator[bytes]: ...


# the fixed header an encoded segment starts with: box corners, st, et
_HEADER = struct.Struct("<4dqq")
_HEADER_DTYPE = np.dtype([("min_lon", "<f8"), ("min_lat", "<f8"), ("max_lon", "<f8"),
                          ("max_lat", "<f8"), ("st", "<i8"), ("et", "<i8")])
# kept for a value too short to hold a header: its NaN box meets no window
_NO_HEADER = _HEADER.pack(math.nan, math.nan, math.nan, math.nan, 0, 0)
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class SortedIndex:
    """The sorted key index both backends share.

    A key owns one slot for life; a new key takes the next one. A put to the
    key replaces the slot's value and the header bytes kept for it, so the
    headers form numpy columns by slot; a subclass says where a slot's value
    lives (``_read``). The sorted keys and their slots are rebuilt by the
    first scan after a new key; headers are read by slot, so no scan sees a
    stale one. Scans must not interleave with writes.
    """

    def __init__(self) -> None:
        self._slot_of: dict[bytes, int] = {}
        self._headers = bytearray()  # _HEADER.size bytes a slot
        self._sorted: tuple[list[bytes], np.ndarray] | None = None

    def _record(self, key: bytes, head: bytes) -> int:
        """The key's slot, now holding ``head``: the value's first
        ``_HEADER.size`` bytes, or all of a shorter value."""
        if len(head) < _HEADER.size:
            head = _NO_HEADER
        slot = self._slot_of.get(key)
        if slot is None:
            slot = self._slot_of[key] = len(self._headers) // _HEADER.size
            self._headers += head
            self._sorted = None
        else:
            self._headers[slot * _HEADER.size : (slot + 1) * _HEADER.size] = head
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
        for i in range(bisect_left(keys, low), bisect_left(keys, high)):
            yield keys[i], self._read(slots[i])

    def refine(self, ranges: Iterable[ScanRange], w: MBR, t: TimeRange) -> Iterator[bytes]:
        """The values in the key ranges, range by range in key order, whose
        header box intersects ``w`` and whose [st, et] overlaps ``t``; each is
        read as the iterator reaches it.

        These are the tests of ``MBR.intersects`` and ``TimeRange.intersects``
        in one mask over the header columns: float64 and int64 compare exactly
        against the window's floats and ints, and stored times fit int64, so
        clamping the window's times to it changes no outcome.
        """
        keys, slots = self._order()
        bounds = np.array([bisect_left(keys, b) for r in ranges for b in (r.low, r.high)], np.intp)
        lo, lens = bounds[0::2], bounds[1::2] - bounds[0::2]
        ends = np.cumsum(lens)
        picked = slots[np.arange(ends[-1] if lens.size else 0) + np.repeat(lo - ends + lens, lens)]
        heads = np.frombuffer(self._headers, _HEADER_DTYPE)  # a view: gone before the next put
        keep = heads["min_lon"][picked] <= w.max_lon  # a field at a time keeps temporaries small
        keep &= w.min_lon <= heads["max_lon"][picked]
        keep &= heads["min_lat"][picked] <= w.max_lat
        keep &= w.min_lat <= heads["max_lat"][picked]
        keep &= heads["st"][picked] <= min(t.end, _INT64_MAX)
        keep &= max(t.start, _INT64_MIN) <= heads["et"][picked]
        return map(self._read, picked[keep].tolist())

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
        _put_slot(self._values, self._record(key, value[: _HEADER.size]), value)

    def _read(self, slot: int) -> bytes:
        return self._values[slot]


_FRAME = struct.Struct("<II")
_LOG_MAGIC = b"CTLOG1\n"
REPLAY_CHUNK = 1 << 16  # bytes one positional read takes while a log is replayed


class FileBackend(SortedIndex):
    """Single-file append-only log; a slot's value is an (offset, length) in it.

    Writes append length-prefixed frames. Opening the log replays it into the
    index, later writes winning, by positional reads of ``REPLAY_CHUNK``
    bytes, taking each value's header but not holding the log. A put of the
    bytes its key already holds appends nothing, so re-ingesting unchanged
    data leaves the log as it was. A torn frame at the tail, left by a writer
    that stopped mid-frame, is skipped on open and cut off by the first
    write, so new frames follow the last whole one; a backend that only reads
    never changes the file. Values are read back with positional reads, so
    several threads may scan or refine on one backend at once. Closing it
    lets the index go. Single writer; scans must not interleave with writes.
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
        so an overwritten frame leaves an unused slot behind."""
        fd = self._fd
        size = os.fstat(fd).st_size
        if os.pread(fd, len(_LOG_MAGIC), 0) != _LOG_MAGIC:
            raise ValueError(f"{self.path} is not a segment log")
        slot_of, headers, offsets, lengths = self._slot_of, self._headers, self._offsets, self._lengths
        end = len(_LOG_MAGIC)
        buf, base = b"", end  # buf holds the log from offset base on
        while end + _FRAME.size <= size:
            if end + _FRAME.size > base + len(buf):
                buf, base = os.pread(fd, REPLAY_CHUNK, end), end
            key_len, val_len = _FRAME.unpack_from(buf, end - base)
            offset = end + _FRAME.size + key_len
            if offset + val_len > size:
                break  # torn tail write; ignore the partial frame
            head_end = offset + min(val_len, _HEADER.size)
            if head_end > base + len(buf):
                buf, base = os.pread(fd, max(REPLAY_CHUNK, head_end - end), end), end
            slot_of[buf[offset - key_len - base : offset - base]] = len(offsets)
            headers += buf[offset - base : head_end - base] if val_len >= _HEADER.size else _NO_HEADER
            offsets.append(offset)
            lengths.append(val_len)
            end = offset + val_len
        return end

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
        slot = self._record(key, value[: _HEADER.size])
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
        self._slot_of, self._headers, self._sorted = {}, bytearray(), None
        self._offsets, self._lengths = array("Q"), array("I")

    def __enter__(self) -> "FileBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --- segment record codec -----------------------------------------------------

_LEN = struct.Struct("<H")
_COUNT = struct.Struct("<I")
_POINT = struct.Struct("<ddq")
_PEEK = struct.Struct("<4dqqH")  # _HEADER, then the length of the trajectory id


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


def peek_header(buf: bytes) -> tuple[float, float, float, float, int, int, str]:
    """An encoded segment's box corners, st, et and trajectory id, read from
    its fixed header and the length-prefixed id after it; no point is decoded.
    """
    min_lon, min_lat, max_lon, max_lat, st, et, n = _PEEK.unpack_from(buf, 0)
    traj_id = buf[_PEEK.size : _PEEK.size + n].decode("utf-8")
    return min_lon, min_lat, max_lon, max_lat, st, et, traj_id


def decode_segment(buf: bytes) -> Segment:
    min_lon, min_lat, max_lon, max_lat, st, et = _HEADER.unpack_from(buf, 0)
    pos = _HEADER.size
    texts = []
    for _ in range(2):
        (n,) = _LEN.unpack_from(buf, pos)
        pos += _LEN.size
        texts.append(buf[pos : pos + n].decode("utf-8"))
        pos += n
    traj_id, sid = texts
    (count,) = _COUNT.unpack_from(buf, pos)
    pos += _COUNT.size
    locations = []
    for _ in range(count):
        lon, lat, t = _POINT.unpack_from(buf, pos)
        pos += _POINT.size
        locations.append(Location(lon, lat, t))
    return Segment(
        sid=sid,
        traj_id=traj_id,
        locations=tuple(locations),
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


def storage_batch(
    trajectories: Sequence[Trajectory], xz_cfg: XzConfig, seg_cfg: SegmentationConfig
) -> list[list[Segment]]:
    """``storage_segments`` of each trajectory, in one pass of the kernel."""
    return segment_batch(
        trajectories,
        seg_cfg,
        max_span=xz_cfg.period_seconds,
        noise_gate=True,
        bins=lambda t: bins_of(t, xz_cfg),
    )


def ingest(
    trajectories: Iterable[Trajectory],
    xz_cfg: XzConfig,
    seg_cfg: SegmentationConfig,
    backend: StoreBackend,
) -> int:
    """Write every trajectory's storage segments; returns segments written.

    Trajectories go through the kernel in batches of about ``BATCH_POINTS``
    points, and segments are put in input order. Re-ingesting identical data
    leaves the log unchanged; a changed segment overwrites its key. Trajectories
    with timestamps before the index epoch are rejected and logged.
    """
    written = 0
    for batch in _batches(trajectories, xz_cfg):
        for segs in storage_batch(batch, xz_cfg, seg_cfg):
            for seg in segs:
                backend.put(encode_key(seg, xz_cfg).packed(), encode_segment(seg))
                written += 1
    return written


def _batches(trajectories: Iterable[Trajectory], xz_cfg: XzConfig) -> Iterator[list[Trajectory]]:
    """Trajectories in input order, in groups closed once they hold
    ``BATCH_POINTS`` points; a trajectory longer than that is a group alone."""
    batch: list[Trajectory] = []
    points = 0
    for traj in trajectories:
        if traj.locations[0].t < xz_cfg.epoch:
            log.warning("rejecting trajectory %r: timestamps precede the epoch", traj.id)
            continue
        batch.append(traj)
        points += len(traj)
        if points >= BATCH_POINTS:
            yield batch
            batch, points = [], 0
    if batch:
        yield batch


# --- query --------------------------------------------------------------------


def expand_mbr(mbr: MBR, pad_m: float) -> MBR:
    """Grow a box outward by at least ``pad_m`` meters of great-circle reach.

    Latitude padding is the exact arc angle. Longitude padding is derived
    from the padded box's worst-case latitude, clamped at +/-85 degrees;
    beyond that the padding falls back to the full longitude span.
    """
    if pad_m <= 0:
        return mbr
    pad_lat = math.degrees(pad_m / EARTH_RADIUS_M)
    min_lat = max(-90.0, mbr.min_lat - pad_lat)
    max_lat = min(90.0, mbr.max_lat + pad_lat)

    worst_lat = max(abs(min_lat), abs(max_lat))
    if worst_lat >= MAX_SUPPORTED_LAT:
        worst_lat = MAX_SUPPORTED_LAT
    s = math.sin(pad_m / (2.0 * EARTH_RADIUS_M)) / math.cos(math.radians(worst_lat))
    pad_lon = math.degrees(2.0 * math.asin(s)) if s < 1.0 else 360.0
    return MBR(
        max(-180.0, mbr.min_lon - pad_lon),
        min_lat,
        min(180.0, mbr.max_lon + pad_lon),
        max_lat,
    )


def expand_time_range(tr: TimeRange, pad_s: float) -> TimeRange:
    return TimeRange(int(math.floor(tr.start - pad_s)), int(math.ceil(tr.end + pad_s)))


def st_query(
    window: MBR,
    tr: TimeRange,
    theta_d: float,
    theta_t: float,
    backend: StoreBackend,
    cfg: XzConfig,
) -> list[Segment]:
    """All stored segments intersecting the window and time range, each
    expanded by the spatial/temporal reach. Exact: the records of the planned
    scan ranges are refined by the true box and time-overlap tests over the
    backend's header columns (``refine``), and only the survivors are read
    and decoded, in key order; the first copy of a sid wins. Sorted by sid.
    """
    w = expand_mbr(window, theta_d)
    t = expand_time_range(tr, theta_t)
    found: dict[str, Segment] = {}
    for value in backend.refine(st_scan_ranges(w, t, cfg), w, t):
        seg = decode_segment(value)
        found.setdefault(seg.sid, seg)
    return [found[sid] for sid in sorted(found)]


# all keys are 13 header bytes plus a UTF-8 sid, so this high bound tops them
_ALL_KEYS = (b"", b"\xff" * 14)


def scan_all(backend: StoreBackend) -> Iterator[Segment]:
    """Decode every stored segment in key order."""
    for _, value in backend.scan(*_ALL_KEYS):
        yield decode_segment(value)


def load_trajectory(backend: StoreBackend, traj_id: str) -> Trajectory | None:
    """Reassemble one trajectory from its stored segments.

    Scans the whole store but decodes only the records whose header names
    ``traj_id``.
    """
    segs = [
        decode_segment(value)
        for _, value in backend.scan(*_ALL_KEYS)
        if peek_header(value)[6] == traj_id
    ]
    if not segs:
        return None
    segs.sort(key=lambda s: (s.st, s.sid))
    return Trajectory(traj_id, [loc for seg in segs for loc in seg.locations])


def group_by_trajectory(segments: Iterable[Segment]) -> dict[str, list[Location]]:
    """Merge retrieved segments into one time-ordered point list per trajectory."""
    by_traj: dict[str, list[Segment]] = {}
    for seg in segments:
        by_traj.setdefault(seg.traj_id, []).append(seg)
    merged: dict[str, list[Location]] = {}
    for traj_id in sorted(by_traj):
        segs = sorted(by_traj[traj_id], key=lambda s: (s.st, s.sid))
        merged[traj_id] = [loc for seg in segs for loc in seg.locations]
    return merged
