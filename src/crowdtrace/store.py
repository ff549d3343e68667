"""Ordered key-value storage of encoded segments, and the refined range query.

Two interchangeable backends satisfy the same contract: ``put(key, value)``
plus ``scan(low, high)`` yielding keys in strict byte order within
[low, high). ``MemoryBackend`` is a sorted in-memory map; ``FileBackend`` is a
single-file append-only log replayed into an index on open, which appends
nothing for a put of the bytes a key already holds.

``ingest`` hands trajectories to the columnar kernel of ``model`` in batches
of about ``BATCH_POINTS`` points; one kernel pass gates noise, cuts
stay-point segments, splits them at period boundaries and takes their boxes
(``storage_batch``). Segments are put in input order.

``st_query`` expands a window by the spatial/temporal reach, scans the key
ranges planned by the curve index, then refines each scanned record with the
exact box and time tests on its fixed header (``peek_header``), so its result
equals a full linear scan. Only records that pass are decoded.
"""

from __future__ import annotations

import logging
import math
import os
import struct
from bisect import bisect_left, insort
from typing import Iterable, Iterator, Protocol, Sequence

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
from .xz import XzConfig, bins_of, encode_key, st_scan_ranges

log = logging.getLogger(__name__)

MAX_SUPPORTED_LAT = 85.0  # window padding is only exact below this latitude


class StoreBackend(Protocol):
    def put(self, key: bytes, value: bytes) -> None: ...

    def scan(self, low: bytes, high: bytes) -> Iterator[tuple[bytes, bytes]]: ...


class MemoryBackend:
    """Sorted in-memory map; the reference backend for tests and oracles."""

    def __init__(self) -> None:
        self._keys: list[bytes] = []
        self._data: dict[bytes, bytes] = {}

    def put(self, key: bytes, value: bytes) -> None:
        if key not in self._data:
            insort(self._keys, key)
        self._data[key] = value

    def scan(self, low: bytes, high: bytes) -> Iterator[tuple[bytes, bytes]]:
        lo = bisect_left(self._keys, low)
        hi = bisect_left(self._keys, high)
        for key in self._keys[lo:hi]:
            yield key, self._data[key]

    def __len__(self) -> int:
        return len(self._data)


_FRAME = struct.Struct("<II")
_LOG_MAGIC = b"CTLOG1\n"


class FileBackend:
    """Single-file append-only log with an in-memory sorted key index.

    Writes append length-prefixed frames; the key index is rebuilt by
    replaying the log on open, with later writes winning. A put of the bytes
    its key already holds appends nothing, so re-ingesting unchanged data
    leaves the log as it was. A torn frame at the tail, left by a writer that
    stopped mid-frame, is skipped on open and cut off by the first write, so
    new frames follow the last whole one; a backend that only reads never
    changes the file. Values are read back with positional reads, so several
    threads may scan one backend at once.
    Single writer; scans must not interleave with writes.
    """

    def __init__(self, path: str):
        self.path = path
        self._index: dict[bytes, tuple[int, int]] = {}
        self._keys: list[bytes] = []
        self._sorted = True
        exists = os.path.exists(path)
        self._wf = open(path, "ab")
        if not exists or os.path.getsize(path) == 0:
            self._wf.write(_LOG_MAGIC)
            self._wf.flush()
        self._rf = open(path, "rb")
        end = self._replay()
        self._flushed = self._wf.tell()  # bytes below this offset are on disk
        self._torn_at = end if self._flushed > end else None

    def _replay(self) -> int:
        """Index every whole frame; returns the offset just past the last one."""
        size = os.path.getsize(self.path)
        self._rf.seek(0)
        magic = self._rf.read(len(_LOG_MAGIC))
        if magic != _LOG_MAGIC:
            raise ValueError(f"{self.path} is not a segment log")
        end = len(magic)
        while True:
            header = self._rf.read(_FRAME.size)
            if len(header) < _FRAME.size:
                break
            key_len, val_len = _FRAME.unpack(header)
            key = self._rf.read(key_len)
            offset = self._rf.tell()
            if len(key) < key_len or offset + val_len > size:
                break  # torn tail write; ignore the partial frame
            self._rf.seek(val_len, os.SEEK_CUR)
            self._index[key] = (offset, val_len)
            end = offset + val_len
        self._keys = sorted(self._index)
        self._sorted = True
        return end

    def put(self, key: bytes, value: bytes) -> None:
        old = self._index.get(key)
        if old is not None and old[1] == len(value):
            offset, val_len = old
            if offset + val_len > self._flushed:  # the old value may still be buffered
                self._wf.flush()
                self._flushed = self._wf.tell()
            if os.pread(self._rf.fileno(), val_len, offset) == value:
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
        if key not in self._index:
            self._sorted = False
            self._keys.append(key)
        self._index[key] = (offset, len(value))

    def scan(self, low: bytes, high: bytes) -> Iterator[tuple[bytes, bytes]]:
        self._wf.flush()
        if not self._sorted:
            self._keys.sort()
            self._sorted = True
        lo = bisect_left(self._keys, low)
        hi = bisect_left(self._keys, high)
        fd = self._rf.fileno()
        for key in self._keys[lo:hi]:
            offset, val_len = self._index[key]
            yield key, os.pread(fd, val_len, offset)

    def close(self) -> None:
        self._wf.flush()
        self._wf.close()
        self._rf.close()

    def __len__(self) -> int:
        return len(self._index)

    def __enter__(self) -> "FileBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --- segment record codec -----------------------------------------------------

_HEADER = struct.Struct("<4dqq")
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
    expanded by the spatial/temporal reach. Exact: every record in the planned
    scan ranges is refined by the true box and time-overlap tests on its
    header, and only the survivors are decoded. Sorted by sid.
    """
    w = expand_mbr(window, theta_d)
    t = expand_time_range(tr, theta_t)
    found: dict[str, Segment] = {}
    for rng in st_scan_ranges(w, t, cfg):
        for _, value in backend.scan(rng.low, rng.high):
            min_lon, min_lat, max_lon, max_lat, st, et, _ = peek_header(value)
            # MBR.intersects(w) and the time overlap, on the raw header fields
            if (
                min_lon <= w.max_lon
                and w.min_lon <= max_lon
                and min_lat <= w.max_lat
                and w.min_lat <= max_lat
                and st <= t.end
                and t.start <= et
            ):
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
