"""Trajectory data model: GPS points, noise filtering and stay-point segmentation.

A raw trajectory is an id plus a time-sorted list of (lon, lat, t) points.
Before storage it is split into segments: maximal runs of points in which
every pair of points is within ``d_seg`` meters and ``t_seg`` seconds of
each other, grown greedily left to right (the stay-point rule of Li et al.,
"Mining user similarity based on location history", ACM GIS 2008).
Segments are the unit of storage, indexing and scoring.

The noise gate and the segmentation run as one numpy kernel
(``segment_batch``) over the concatenated lon/lat/t columns of a batch of
trajectories; ``filter_noise`` and ``segment`` are that kernel on a batch of
one. Every decision equals the scalar greedy loops' exactly: a distance the
columns put within a relative 1e-9 of its threshold is recomputed with the
scalar ``haversine_m``, and after its first doubtful step a trajectory is
gated by the scalar loop.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

EARTH_RADIUS_M = 6_371_008.8


class DegenerateTrajectoryError(ValueError):
    """Raised when a trajectory has no usable locations left."""


def haversine_m(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Great-circle distance in meters between two WGS84 points."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


@dataclass(frozen=True, slots=True)
class Location:
    """One timestamped GPS point. ``t`` is integer seconds since the Unix epoch."""

    lon: float
    lat: float
    t: int

    def __post_init__(self) -> None:
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"lon out of range: {self.lon}")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"lat out of range: {self.lat}")
        if self.t < 0:
            raise ValueError(f"negative timestamp: {self.t}")

    def distance_m(self, other: "Location") -> float:
        return haversine_m(self.lon, self.lat, other.lon, other.lat)


@dataclass(frozen=True, slots=True)
class MBR:
    """Minimum bounding rectangle in degrees, min <= max on both axes."""

    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float

    def __post_init__(self) -> None:
        if self.min_lon > self.max_lon or self.min_lat > self.max_lat:
            raise ValueError(f"inverted MBR: {self}")

    def intersects(self, other: "MBR") -> bool:
        return (
            self.min_lon <= other.max_lon
            and other.min_lon <= self.max_lon
            and self.min_lat <= other.max_lat
            and other.min_lat <= self.max_lat
        )

    def contains_point(self, lon: float, lat: float) -> bool:
        return self.min_lon <= lon <= self.max_lon and self.min_lat <= lat <= self.max_lat

    def contains(self, other: "MBR") -> bool:
        return (
            self.min_lon <= other.min_lon
            and self.min_lat <= other.min_lat
            and other.max_lon <= self.max_lon
            and other.max_lat <= self.max_lat
        )

    def union(self, other: "MBR") -> "MBR":
        return MBR(
            min(self.min_lon, other.min_lon),
            min(self.min_lat, other.min_lat),
            max(self.max_lon, other.max_lon),
            max(self.max_lat, other.max_lat),
        )


WORLD = MBR(-180.0, -90.0, 180.0, 90.0)


@dataclass(frozen=True, slots=True)
class TimeRange:
    """Closed time interval in integer seconds."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"inverted time range: {self}")

    def intersects(self, other: "TimeRange") -> bool:
        return self.start <= other.end and other.start <= self.end

    def union(self, other: "TimeRange") -> "TimeRange":
        return TimeRange(min(self.start, other.start), max(self.end, other.end))


@dataclass(frozen=True, slots=True)
class Trajectory:
    """Time-ordered locations of one moving object."""

    id: str
    locations: tuple[Location, ...]

    def __init__(self, id: str, locations: Iterable[Location]):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "locations", tuple(locations))
        if not self.id:
            raise ValueError("trajectory id must be non-empty")
        if not self.locations:
            raise DegenerateTrajectoryError(f"trajectory {id!r} has no locations")
        for a, b in zip(self.locations, self.locations[1:]):
            if b.t < a.t:
                raise ValueError(f"trajectory {id!r} not sorted by time")

    def __len__(self) -> int:
        return len(self.locations)


@dataclass(frozen=True, slots=True)
class Segment:
    """A stay-point-bounded sub-trajectory with cached bounds.

    ``sid`` is globally unique (trajectory id + '#' + ordinal); ``st``/``et``
    are the first/last timestamps and ``mbr`` the tight bounding box.
    """

    sid: str
    traj_id: str
    locations: tuple[Location, ...]
    mbr: MBR
    st: int
    et: int

    def __post_init__(self) -> None:
        if not self.locations:
            raise ValueError(f"segment {self.sid!r} has no locations")
        if self.st > self.et:
            raise ValueError(f"segment {self.sid!r} has st > et")

    @classmethod
    def build(cls, sid: str, traj_id: str, locations: Iterable[Location]) -> "Segment":
        locs = tuple(locations)
        return cls(
            sid=sid,
            traj_id=traj_id,
            locations=locs,
            mbr=mbr_of(locs),
            st=locs[0].t,
            et=locs[-1].t,
        )

    @property
    def time_range(self) -> TimeRange:
        return TimeRange(self.st, self.et)


@dataclass(frozen=True, slots=True)
class SegmentationConfig:
    """Thresholds for noise filtering and stay-point segmentation.

    ``d_seg``/``t_seg`` bound the spatial and temporal spread allowed between
    any two points of one segment; ``max_speed`` is the plausibility bound of
    the noise filter in m/s.
    """

    d_seg: float = 200.0
    t_seg: int = 1800
    max_speed: float = 50.0

    def __post_init__(self) -> None:
        if self.d_seg <= 0 or self.t_seg <= 0 or self.max_speed <= 0:
            raise ValueError("segmentation thresholds must be strictly positive")


def mbr_of(locations: Iterable[Location]) -> MBR:
    """Tight bounding box of a non-empty point list."""
    it = iter(locations)
    first = next(it)
    min_lon = max_lon = first.lon
    min_lat = max_lat = first.lat
    for loc in it:
        min_lon = min(min_lon, loc.lon)
        max_lon = max(max_lon, loc.lon)
        min_lat = min(min_lat, loc.lat)
        max_lat = max(max_lat, loc.lat)
    return MBR(min_lon, min_lat, max_lon, max_lat)


def time_range_of(locations: Iterable[Location]) -> TimeRange:
    """Tight time interval of a non-empty point list."""
    ts = [loc.t for loc in locations]
    return TimeRange(min(ts), max(ts))


def filter_noise(traj: Trajectory, cfg: SegmentationConfig) -> Trajectory:
    """Drop points whose implied speed from the last retained point is implausible.

    Greedy forward gate: the first point is always kept; each later point is
    kept only if reaching it from the previously kept point needs at most
    ``cfg.max_speed`` m/s. Zero time gaps with nonzero displacement count as
    infinite speed. A trajectory that keeps every point is returned as is.
    """
    return filter_noise_batch([traj], cfg)[0]


def filter_noise_batch(trajectories: Sequence[Trajectory], cfg: SegmentationConfig) -> list[Trajectory]:
    """``filter_noise`` of each trajectory, in one pass of the gate."""
    seqs = [traj.locations for traj in trajectories]
    kept, _ = _gate(seqs, _Columns(seqs), cfg.max_speed)
    return [traj if k is traj.locations else Trajectory(traj.id, k) for traj, k in zip(trajectories, kept)]


def segment(traj: Trajectory, cfg: SegmentationConfig, max_span: int | None = None) -> list[Segment]:
    """Partition a trajectory into maximal segments under the pairwise bounds.

    Grows the current segment left to right and closes it when the next point
    would exceed ``d_seg`` against any point already in it, or ``t_seg``
    against its first point. ``max_span`` additionally force-closes a segment
    before its total time span would exceed that many seconds (used at ingest
    to keep segments inside one index period).

    The concatenation of the returned segments' locations is exactly the
    input sequence.
    """
    return segment_batch([traj], cfg, max_span)[0]


# --- the columnar kernel ---------------------------------------------------------
#
# The noise gate and the segmentation run over the concatenated lon/lat/t
# columns of a batch of trajectories. numpy's haversine agrees with the scalar
# ``haversine_m`` to a few ulps, since both take the same steps from the same
# radians; so a comparison is decided on the columns only when the distance
# clears its threshold by a relative ``_CLEAR``, and otherwise by the scalar.

BATCH_POINTS = 4096  # ingest adds trajectories to a kernel batch until it holds this many points

_DEG_TO_RAD = math.pi / 180.0  # the factor math.radians multiplies by
_CLEAR = 1e-9
_BLOCK_CELLS = 4096  # (row, lag) pairs one block of _run_starts tests; bounds its temporaries


def _haversine_cols(lon1: np.ndarray, lat1: np.ndarray, lon2: np.ndarray, lat2: np.ndarray) -> np.ndarray:
    """``haversine_m`` over arrays, step for step."""
    phi1 = lat1 * _DEG_TO_RAD
    phi2 = lat2 * _DEG_TO_RAD
    dphi = phi2 - phi1
    dlam = (lon2 - lon1) * _DEG_TO_RAD
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(a)))


class _Columns:
    """Points of a batch of non-empty sequences as concatenated columns;
    sequence k holds rows ``offsets[k]:offsets[k + 1]``."""

    __slots__ = ("lon", "lat", "t", "offsets")

    def __init__(self, seqs: Sequence[Sequence[Location]]):
        n = sum(map(len, seqs))
        self.lon = np.fromiter((p.lon for seq in seqs for p in seq), np.float64, n)
        self.lat = np.fromiter((p.lat for seq in seqs for p in seq), np.float64, n)
        # inferred, so a float timestamp is not truncated
        self.t = np.array([p.t for seq in seqs for p in seq])
        self.offsets = _offsets(seqs)

    def compress(self, keep: np.ndarray, seqs: Sequence[Sequence[Location]]) -> "_Columns":
        """The rows flagged in ``keep``; ``seqs`` are the sequences they form."""
        out = _Columns.__new__(_Columns)
        out.lon, out.lat, out.t = self.lon[keep], self.lat[keep], self.t[keep]
        out.offsets = _offsets(seqs)
        return out


def _offsets(seqs: Sequence[Sequence[Location]]) -> np.ndarray:
    out = np.zeros(len(seqs) + 1, np.intp)
    np.cumsum([len(seq) for seq in seqs], out=out[1:])
    return out


def _gate(
    seqs: Sequence[Sequence[Location]], cols: _Columns, max_speed: float
) -> tuple[list[Sequence[Location]], np.ndarray | None]:
    """``filter_noise`` over a batch: each sequence's kept points (the
    sequence itself when it keeps all), and the keep mask over the columns
    (None when every point is kept).

    A step is clearly kept when its time gap is positive and its numpy
    distance is below ``max_speed * dt`` by the margin. A sequence runs the
    scalar greedy loop from its first other step on, since after a drop each
    step is measured from a point the columns do not pair it with.
    """
    t, offsets = cols.t, cols.offsets
    dt = t[1:] - t[:-1]
    d = _haversine_cols(cols.lon[:-1], cols.lat[:-1], cols.lon[1:], cols.lat[1:])
    clear = (dt > 0) & (d <= max_speed * dt * (1.0 - _CLEAR))
    clear[offsets[1:-1] - 1] = True  # the step from one sequence to the next
    doubtful = np.flatnonzero(~clear) + 1  # rows reached by a doubtful step
    kept = list(seqs)
    if not doubtful.size:
        return kept, None
    keep = np.ones(len(t), bool)
    owners, first = np.unique(np.searchsorted(offsets, doubtful, "right") - 1, return_index=True)
    for k, row in zip(owners.tolist(), doubtful[first].tolist()):
        seq, lo = seqs[k], int(offsets[k])
        i = row - lo
        flags = []
        prev = seq[i - 1]
        for loc in seq[i:]:
            gap = loc.t - prev.t
            dist = prev.distance_m(loc)
            ok = dist / gap <= max_speed if gap > 0 else dist == 0.0
            flags.append(ok)
            if ok:
                prev = loc
        if not all(flags):
            keep[row : lo + len(seq)] = flags
            kept[k] = tuple(seq[:i]) + tuple(loc for loc, ok in zip(seq[i:], flags) if ok)
    return kept, None if keep.all() else keep


def _run_starts(cols: _Columns, d_seg: float, window: float) -> list[int]:
    """Rows that open a segment under the greedy stay-point rule.

    ``lastfar[i]`` is the latest earlier row of i's sequence farther than
    ``d_seg`` from it, looked for only among rows at most ``window`` seconds
    earlier, through lags 1, 2, ... until no pair is left. The greedy pass
    then closes the open segment before row i when i is more than ``window``
    after the segment's first row, or when ``lastfar[i]`` lies inside it.
    Rows farther back than the window never decide: the time test cuts first.
    """
    lon, lat, t, offsets = cols.lon, cols.lat, cols.t, cols.offsets
    n = len(t)
    head = np.repeat(offsets[:-1], np.diff(offsets))  # each row's sequence's first row
    lastfar = np.full(n, -1, np.intp)
    live = np.arange(n)  # rows whose latest far predecessor is not found yet
    longest = int(np.diff(offsets).max())
    lag = 1
    while live.size and lag < longest:
        # lags lag .. lag + width - 1 of every live row at once: about
        # _BLOCK_CELLS pairs, so blocks widen as rows find their far predecessor
        width = min(max(_BLOCK_CELLS // live.size, 1), longest - lag)
        j = live[:, None] - np.arange(lag, lag + width)
        inside = j >= head[live, None]
        j = np.where(inside, j, live[:, None])
        inside &= t[live, None] - t[j] <= window
        rows, cols_ = np.nonzero(inside)
        a, b = j[rows, cols_], live[rows]
        d = _haversine_cols(lon[a], lat[a], lon[b], lat[b])
        for q in np.flatnonzero(np.abs(d - d_seg) <= _CLEAR * d_seg).tolist():
            d[q] = haversine_m(float(lon[a[q]]), float(lat[a[q]]), float(lon[b[q]]), float(lat[b[q]]))
        far = np.zeros(inside.shape, bool)
        far[rows, cols_] = d > d_seg
        found = far.any(axis=1)
        lastfar[live[found]] = live[found] - lag - far[found].argmax(axis=1)
        # a row with no far lag goes on only while its whole block was in reach
        live = live[~found & inside[:, -1]]
        lag += width

    starts = []
    ts, lf = t.tolist(), lastfar.tolist()
    for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        start = lo
        starts.append(lo)
        for i in range(lo + 1, hi):
            if ts[i] - ts[start] > window or lf[i] >= start:
                start = i
                starts.append(i)
    return starts


def segment_batch(
    trajectories: Sequence[Trajectory],
    cfg: SegmentationConfig,
    max_span: int | None = None,
    *,
    noise_gate: bool = False,
    bins: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[list[Segment]]:
    """Segments of each trajectory of a batch, as ``segment`` gives them.

    ``noise_gate`` first runs ``filter_noise`` over the batch. ``bins`` maps
    the timestamp column to period numbers; segments are then also split
    wherever that number changes between consecutive points. Ordinals count
    each trajectory's final segments.
    """
    if not trajectories:
        return []
    seqs: Sequence[Sequence[Location]] = [traj.locations for traj in trajectories]
    cols = _Columns(seqs)
    if noise_gate:
        seqs, keep = _gate(seqs, cols, cfg.max_speed)
        if keep is not None:
            cols = cols.compress(keep, seqs)
    window = cfg.t_seg if max_span is None else min(cfg.t_seg, max_span)
    starts = _run_starts(cols, cfg.d_seg, window)
    if bins is not None:
        b = bins(cols.t)
        flags = np.zeros(len(b), bool)
        flags[starts] = True
        flags[1:] |= b[1:] != b[:-1]
        starts = np.flatnonzero(flags).tolist()

    lon, lat, offsets = cols.lon, cols.lat, cols.offsets
    boxes = zip(
        np.minimum.reduceat(lon, starts).tolist(),
        np.minimum.reduceat(lat, starts).tolist(),
        np.maximum.reduceat(lon, starts).tolist(),
        np.maximum.reduceat(lat, starts).tolist(),
    )
    owners = (np.searchsorted(offsets, starts, "right") - 1).tolist()
    ends = starts[1:] + [len(lon)]
    lows = offsets.tolist()
    out: list[list[Segment]] = [[] for _ in trajectories]
    for s, e, k, box in zip(starts, ends, owners, boxes):
        traj_id, segs = trajectories[k].id, out[k]
        locs = tuple(seqs[k][s - lows[k] : e - lows[k]])
        # the column extremes drop which zero (+0.0 or -0.0) came first
        mbr = mbr_of(locs) if 0.0 in box else MBR(*box)
        segs.append(Segment(f"{traj_id}#{len(segs)}", traj_id, locs, mbr, locs[0].t, locs[-1].t))
    return out


# --- CSV input ---------------------------------------------------------------
#
# One point per line: traj_id,lon,lat,unix_seconds. Header line optional.
# Points of one trajectory are expected contiguous and time-sorted; a
# trajectory whose points are out of order is sorted (stably) by time.


def load_trajectories_csv(source: str | TextIO) -> tuple[list[Trajectory], int]:
    """Parse a points CSV into trajectories.

    Returns (trajectories, number of skipped malformed lines). A leading
    header line is tolerated and not counted as malformed.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return load_trajectories_csv(fh)

    groups: dict[str, list[Location]] = {}
    skipped = 0
    for lineno, row in enumerate(csv.reader(source)):
        if not row:
            continue
        try:
            traj_id = row[0].strip()
            loc = Location(lon=float(row[1]), lat=float(row[2]), t=int(row[3]))
            if not traj_id:
                raise ValueError("empty traj_id")
        except (IndexError, ValueError):
            if lineno == 0:
                continue  # optional header
            skipped += 1
            continue
        groups.setdefault(traj_id, []).append(loc)

    trajectories = []
    for tid in list(groups):
        locs = groups.pop(tid)  # freed as soon as its trajectory holds the points
        if not all(a.t <= b.t for a, b in zip(locs, islice(locs, 1, None))):
            locs.sort(key=lambda l: l.t)
        trajectories.append(Trajectory(tid, locs))
    return trajectories, skipped


def write_points_csv(trajectories: Iterable[Trajectory], dest: str | TextIO, header: bool = True) -> None:
    """Write trajectories in the ingest CSV format."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_points_csv(trajectories, fh, header=header)
            return
    writer = csv.writer(dest, lineterminator="\n")
    if header:
        writer.writerow(["traj_id", "lon", "lat", "unix_seconds"])
    for traj in trajectories:
        for loc in traj.locations:
            writer.writerow([traj.id, repr(loc.lon), repr(loc.lat), loc.t])
