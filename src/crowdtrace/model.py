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
import io
import math
from dataclasses import dataclass
from itertools import chain, compress
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

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
        if not all(0 < v < math.inf for v in (self.d_seg, self.t_seg, self.max_speed)):
            raise ValueError(f"d_seg, t_seg and max_speed must be finite and above 0: "
                             f"{self.d_seg}, {self.t_seg}, {self.max_speed}")


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
    tracks = Tracks.of(trajectories)
    keep = _gate(tracks, cfg.max_speed)
    if keep is None:
        return list(trajectories)
    bounds = tracks.offsets.tolist()
    return [
        traj if keep[a:b].all() else Trajectory(traj.id, compress(traj.locations, keep[a:b].tolist()))
        for traj, a, b in zip(trajectories, bounds, bounds[1:])
    ]


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


class Tracks:
    """Points of many trajectories as concatenated columns: trajectory ``k``
    is ``ids[k]``, with rows ``offsets[k]:offsets[k + 1]`` of the ``lon``,
    ``lat`` and ``t`` columns, in time order. None is empty."""

    __slots__ = ("ids", "lon", "lat", "t", "offsets")

    def __init__(self, ids: list[str], lon: np.ndarray, lat: np.ndarray, t: np.ndarray, offsets: np.ndarray):
        self.ids, self.lon, self.lat, self.t, self.offsets = ids, lon, lat, t, offsets

    @classmethod
    def of(cls, trajectories: Sequence[Trajectory]) -> "Tracks":
        """The columns of ``Trajectory`` objects."""
        points = [p for traj in trajectories for p in traj.locations]
        offsets = np.zeros(len(trajectories) + 1, np.intp)
        np.cumsum([len(traj) for traj in trajectories], out=offsets[1:])
        return cls(
            [traj.id for traj in trajectories],
            np.fromiter((p.lon for p in points), np.float64, len(points)),
            np.fromiter((p.lat for p in points), np.float64, len(points)),
            np.array([p.t for p in points]),  # inferred, so a float timestamp is not truncated
            offsets,
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, ks: slice) -> "Tracks":
        """The trajectories of a step-1 slice; their columns are views."""
        lo, hi, _ = ks.indices(len(self.ids))
        a, b = self.offsets[lo], self.offsets[hi]
        return Tracks(self.ids[lo:hi], self.lon[a:b], self.lat[a:b], self.t[a:b], self.offsets[lo : hi + 1] - a)

    def compress(self, keep: np.ndarray) -> "Tracks":
        """The rows flagged in ``keep``; a trajectory left with none is dropped."""
        ends = np.concatenate(([0], np.cumsum(keep)))[self.offsets]
        ids = list(compress(self.ids, np.diff(ends).tolist()))
        return Tracks(ids, self.lon[keep], self.lat[keep], self.t[keep], np.unique(ends))


def _gate(cols: Tracks, max_speed: float) -> np.ndarray | None:
    """``filter_noise`` over a batch: the keep mask over its rows, or None
    when every point is kept.

    A step is clearly kept when its time gap is positive and its numpy
    distance is below ``max_speed * dt`` by the margin. A trajectory runs the
    scalar greedy loop, on its column values, from its first other step on,
    since after a drop each step is measured from a point the columns do not
    pair it with.
    """
    t, offsets = cols.t, cols.offsets
    dt = t[1:] - t[:-1]
    d = _haversine_cols(cols.lon[:-1], cols.lat[:-1], cols.lon[1:], cols.lat[1:])
    clear = (dt > 0) & (d <= max_speed * dt * (1.0 - _CLEAR))
    clear[offsets[1:-1] - 1] = True  # the step from one trajectory to the next
    doubtful = np.flatnonzero(~clear) + 1  # rows reached by a doubtful step
    if not doubtful.size:
        return None
    keep = np.ones(len(t), bool)
    owners, first = np.unique(np.searchsorted(offsets, doubtful, "right") - 1, return_index=True)
    for k, row in zip(owners.tolist(), doubtful[first].tolist()):
        hi = int(offsets[k + 1])
        lon, lat, ts = (c[row - 1 : hi].tolist() for c in (cols.lon, cols.lat, t))
        flags = []
        prev = 0
        for i in range(1, len(ts)):
            gap = ts[i] - ts[prev]
            dist = haversine_m(lon[prev], lat[prev], lon[i], lat[i])
            ok = dist / gap <= max_speed if gap > 0 else dist == 0.0
            flags.append(ok)
            if ok:
                prev = i
        keep[row:hi] = flags
    return None if keep.all() else keep


def _run_starts(cols: Tracks, d_seg: float, window: float) -> list[int]:
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


class Cuts(NamedTuple):
    """A batch's segments: segment j is rows ``starts[j]:ends[j]`` of
    ``tracks``, the points the noise gate kept, which are the rows ``keep``
    flags of the input (None: all of them). It belongs to trajectory
    ``owners[j]`` and ``boxes`` holds its corners (min lon, min lat, max lon,
    max lat)."""

    tracks: Tracks
    keep: np.ndarray | None
    starts: np.ndarray
    ends: np.ndarray
    owners: np.ndarray
    boxes: list[np.ndarray]


def cut(
    tracks: Tracks,
    cfg: SegmentationConfig,
    max_span: int | None = None,
    *,
    noise_gate: bool = False,
    bins: Callable[[np.ndarray], np.ndarray] | None = None,
) -> Cuts:
    """The segments of a non-empty batch, as ``segment_batch`` cuts them."""
    keep = _gate(tracks, cfg.max_speed) if noise_gate else None
    if keep is not None:
        tracks = tracks.compress(keep)  # the first point of a trajectory is always kept
    window = cfg.t_seg if max_span is None else min(cfg.t_seg, max_span)
    starts = np.array(_run_starts(tracks, cfg.d_seg, window), np.intp)
    if bins is not None:
        b = bins(tracks.t)
        flags = np.zeros(len(b), bool)
        flags[starts] = True
        flags[1:] |= b[1:] != b[:-1]
        starts = np.flatnonzero(flags)

    lon, lat = tracks.lon, tracks.lat
    boxes = [np.minimum.reduceat(lon, starts), np.minimum.reduceat(lat, starts),
             np.maximum.reduceat(lon, starts), np.maximum.reduceat(lat, starts)]
    # the column extremes drop which zero (+0.0 or -0.0) came first; mbr_of keeps the first
    ends = np.append(starts[1:], len(lon))
    for j in np.flatnonzero((boxes[0] == 0.0) | (boxes[1] == 0.0) | (boxes[2] == 0.0) | (boxes[3] == 0.0)):
        xs, ys = lon[starts[j] : ends[j]].tolist(), lat[starts[j] : ends[j]].tolist()
        boxes[0][j], boxes[1][j], boxes[2][j], boxes[3][j] = min(xs), min(ys), max(xs), max(ys)
    return Cuts(tracks, keep, starts, ends, np.searchsorted(tracks.offsets, starts, "right") - 1, boxes)


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
    c = cut(Tracks.of(trajectories), cfg, max_span, noise_gate=noise_gate, bins=bins)
    points = [p for traj in trajectories for p in traj.locations]
    if c.keep is not None:
        points = list(compress(points, c.keep.tolist()))
    out: list[list[Segment]] = [[] for _ in trajectories]
    for s, e, k, *box in zip(c.starts.tolist(), c.ends.tolist(), c.owners.tolist(), *(b.tolist() for b in c.boxes)):
        traj_id, segs = trajectories[k].id, out[k]
        locs = tuple(points[s:e])
        segs.append(Segment(f"{traj_id}#{len(segs)}", traj_id, locs, MBR(*box), locs[0].t, locs[-1].t))
    return out


# --- CSV input ---------------------------------------------------------------
#
# One point per line: traj_id,lon,lat,unix_seconds. Header line optional.
# A trajectory's points need not be contiguous or time-sorted: they are
# grouped by id in order of first appearance and sorted (stably) by time.

CSV_CHUNK = 1 << 18  # characters of a points CSV parsed at a time
_INT64_MAX = 2**63 - 1
_PLAIN = np.frombuffer(b",,,\n", np.uint8)  # the separators of a plain line


def read_points_csv(source: str | TextIO) -> tuple[Tracks, int]:
    """Parse a points CSV into columns: (tracks, number of skipped malformed
    lines).

    A line is malformed unless it holds an id that is not blank, lon and lat
    within range and an integer time in [0, 2**63). A malformed first line
    is taken as a header and not counted.

    The text is parsed in chunks of about ``CSV_CHUNK`` characters, the
    first line alone first. A chunk of plain lines (four unquoted fields, no
    bare CR, no blank line) whose every line is well formed is split on
    commas and newlines, converting with ``float`` and ``int``; any other
    chunk goes through ``csv.reader`` line by line, and from the first chunk
    holding a quote on so does the rest of the input, since a quoted field
    may run across lines.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return read_points_csv(fh)
    parser = _Parser()
    chunks = _chunks(source)
    for text in chunks:
        if '"' in text:
            parser.rows(chain.from_iterable(io.StringIO(c, newline="") for c in chain([text], chunks)))
        elif not parser.plain(text):
            parser.rows(io.StringIO(text, newline=""))
    return parser.tracks(), parser.skipped


def _chunks(fh: TextIO) -> Iterator[str]:
    """The text of ``fh`` in pieces that end at a line end (but for the
    last): its first line, then about ``CSV_CHUNK`` characters at a time."""
    yield fh.readline()
    tail = ""
    while block := fh.read(CSV_CHUNK):
        text = tail + block
        end = text.rfind("\n") + 1
        tail = text[end:]
        if end:
            yield text[:end]
    if tail:
        yield tail


class _Parser:
    """The points a CSV's chunks gave so far, as columns, with each point's
    trajectory named by the row of its first point."""

    def __init__(self) -> None:
        self.first: dict[str, int] = {}  # trajectory id -> row of its first point
        self.parts: list[tuple[np.ndarray, ...]] = []  # (first rows, lon, lat, t) of each chunk
        self.rows_taken = 0
        self.skipped = 0
        self.index = 0  # csv record index of the next chunk's first line: 0 only at the start

    def _take(self, ids: list[str], lon: np.ndarray, lat: np.ndarray, t: np.ndarray) -> None:
        n = len(ids)
        rows = range(self.rows_taken, self.rows_taken + n)
        self.parts.append((np.fromiter(map(self.first.setdefault, ids, rows), np.intp, n), lon, lat, t))
        self.rows_taken += n
        self.index = 1

    def plain(self, text: str) -> bool:
        """Take a chunk of plain, well-formed lines; False, taking nothing,
        for any other chunk."""
        if "\r" in text:
            if text.count("\r") != text.count("\r\n"):
                return False
            text = text.replace("\r\n", "\n")
        if not text.endswith("\n"):
            text += "\n"
        if "\x00" in text:  # csv.reader refuses NUL before Python 3.11
            return False
        raw = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
        seps = raw[(raw == 44) | (raw == 10)]
        if seps.size % 4 or not (seps.reshape(-1, 4) == _PLAIN).all():
            return False
        fields = text.replace("\n", ",").split(",")
        n = len(fields) // 4
        try:
            lon = np.fromiter(map(float, fields[1::4]), np.float64, n)
            lat = np.fromiter(map(float, fields[2::4]), np.float64, n)
            t = np.fromiter(map(int, fields[3::4]), np.int64, n)
        except (ValueError, OverflowError):
            return False
        ids = list(map(str.strip, fields[: 4 * n : 4]))
        if not all(ids) or not ((-180.0 <= lon) & (lon <= 180.0) & (-90.0 <= lat) & (lat <= 90.0) & (t >= 0)).all():
            return False
        self._take(ids, lon, lat, t)
        return True

    def rows(self, lines: Iterable[str]) -> None:
        """Take lines through ``csv.reader``, a record at a time."""
        ids, lon, lat, t = [], [], [], []
        for index, row in enumerate(csv.reader(lines), self.index):
            if not row:
                continue
            try:
                traj_id, x, y, s = row[0].strip(), float(row[1]), float(row[2]), int(row[3])
                if not (traj_id and -180.0 <= x <= 180.0 and -90.0 <= y <= 90.0 and 0 <= s <= _INT64_MAX):
                    raise ValueError("malformed point")
            except (IndexError, ValueError):
                if index:  # a malformed first line is a header
                    self.skipped += 1
                continue
            ids.append(traj_id)
            lon.append(x)
            lat.append(y)
            t.append(s)
        self._take(ids, np.array(lon, np.float64), np.array(lat, np.float64), np.array(t, np.int64))

    def tracks(self) -> Tracks:
        """The points taken, grouped by trajectory in order of first
        appearance and sorted stably by time within each."""
        first, lon, lat, t = (np.concatenate(c) for c in zip(*self.parts))
        order = np.lexsort((t, first))
        starts = np.unique(first[order], return_index=True)[1]
        offsets = np.append(starts, len(order)).astype(np.intp)
        return Tracks(list(self.first), lon[order], lat[order], t[order], offsets)


def load_trajectories_csv(source: str | TextIO) -> tuple[list[Trajectory], int]:
    """``read_points_csv`` as ``Trajectory`` objects: (trajectories, number
    of skipped malformed lines)."""
    tracks, skipped = read_points_csv(source)
    points = list(map(Location, tracks.lon.tolist(), tracks.lat.tolist(), tracks.t.tolist()))
    bounds = tracks.offsets.tolist()
    return [Trajectory(tid, points[a:b]) for tid, a, b in zip(tracks.ids, bounds, bounds[1:])], skipped


def write_points_csv(trajectories: Iterable[Trajectory], dest: str | TextIO, header: bool = True) -> None:
    """Write trajectories in the ingest CSV format, the bytes ``csv.writer``
    writes: a trajectory whose id needs no quoting as one joined string of
    rows, any other through ``csv.writer``."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_points_csv(trajectories, fh, header=header)
            return
    writer = csv.writer(dest, lineterminator="\n")
    if header:
        writer.writerow(["traj_id", "lon", "lat", "unix_seconds"])
    for traj in trajectories:
        tid = traj.id
        if any(c in tid for c in ',"\r\n'):
            writer.writerows([tid, repr(loc.lon), repr(loc.lat), loc.t] for loc in traj.locations)
        else:
            dest.write("".join([f"{tid},{loc.lon!r},{loc.lat!r},{loc.t}\n" for loc in traj.locations]))
