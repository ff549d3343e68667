"""Quadtree space-filling-curve codes for extended objects, and key planning.

A segment's bounding box maps to one quadtree cell: the deepest cell at least
as large as the box on both axes that contains the box's min corner. Because
the cell, doubled in width and height from its min corner, always covers the
box, range planning over doubled cells never misses a stored segment.

Cells are numbered by depth-first pre-order, so every subtree is one
contiguous code interval. Row keys prepend a time-period number and a shard
byte; all fields are big-endian so byte order equals logical order.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

import numpy as np

from .model import MBR, WORLD, Segment, TimeRange


class TimeUnit(enum.Enum):
    """Calendar-free time units used for period numbering."""

    SECOND = 1
    DAY = 86_400
    WEEK = 604_800
    MONTH = 2_592_000  # 30 days
    YEAR = 31_536_000  # 365 days

    @property
    def seconds(self) -> int:
        return self.value


@dataclass(frozen=True, slots=True)
class XzConfig:
    """Index geometry: quadtree depth, world extent and time binning."""

    resolution: int = 15
    world: MBR = field(default_factory=lambda: WORLD)
    epoch: int = 0
    period_len: int = 86_400
    unit: TimeUnit = TimeUnit.SECOND
    num_shards: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.resolution <= 31:
            raise ValueError(f"resolution must be in [1, 31]: {self.resolution}")
        if self.period_len <= 0:
            raise ValueError("period_len must be positive")
        if not 1 <= self.num_shards <= 256:
            raise ValueError("num_shards must be in [1, 256]")

    @property
    def period_seconds(self) -> int:
        """Length of one time period in seconds."""
        return self.period_len * self.unit.seconds

    def total_elements(self) -> int:
        """Number of quadtree cells at all depths up to the resolution."""
        return (4 ** (self.resolution + 1) - 1) // 3


@dataclass(frozen=True, slots=True)
class XzElement:
    """A quadtree cell as its quadrant-digit path from the root."""

    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(d not in (0, 1, 2, 3) for d in self.digits):
            raise ValueError(f"digits must be in 0..3: {self.digits}")

    def cell(self) -> tuple[float, float, float]:
        """(x0, y0, side) of the cell in unit-square coordinates."""
        x0 = y0 = 0.0
        side = 1.0
        for d in self.digits:
            side /= 2.0
            x0 += (d & 1) * side
            y0 += (d >> 1) * side
        return x0, y0, side


KEY_HEAD = struct.Struct(">BIQ")  # a row key's shard byte, period number and cell code; the sid follows
LAST_PERIOD = 2**32 - 1  # the largest period number a key holds


@dataclass(frozen=True, slots=True)
class STKey:
    """Decoded row key: shard byte, period number, cell code, segment id."""

    shard: int
    bin: int
    xz2: int
    sid: str

    def packed(self) -> bytes:
        return KEY_HEAD.pack(self.shard, self.bin, self.xz2) + self.sid.encode("utf-8")

    @classmethod
    def parse(cls, key: bytes) -> "STKey":
        shard, bin_, xz2 = KEY_HEAD.unpack_from(key)
        return cls(shard, bin_, xz2, key[KEY_HEAD.size :].decode("utf-8"))


@dataclass(frozen=True, slots=True)
class ScanRange:
    """Byte-key interval [low, high) handed to the ordered store."""

    low: bytes
    high: bytes

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise ValueError("scan range must be non-empty")


def _normalize(min_lon, min_lat, max_lon, max_lat, world: MBR):
    """Box corners (floats or arrays) as fractions of the world's extent."""
    w = world.max_lon - world.min_lon
    h = world.max_lat - world.min_lat
    return (
        (min_lon - world.min_lon) / w,
        (min_lat - world.min_lat) / h,
        (max_lon - world.min_lon) / w,
        (max_lat - world.min_lat) / h,
    )


def xz2_cells(
    min_lon: np.ndarray, min_lat: np.ndarray, max_lon: np.ndarray, max_lat: np.ndarray, cfg: XzConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell assignment for a batch of extended objects, in closed form:
    (depth, column, row) of each box's cell.

    The depth is the deepest (up to the resolution) whose cell size covers the
    box on both axes: ``floor(-log2(extent))``, then stepped down or up until
    it holds. The cell at that depth is the one holding the box's min corner,
    ``floor(x0 * 2**depth)`` capped at the last one, so the cell doubled from
    its min corner covers the whole box. Both are exact: scaling by a power of
    two and the comparisons against ``0.5**depth`` round nothing.
    """
    world = cfg.world
    lon0, lat0, lon1, lat1 = (np.asarray(c, np.float64) for c in (min_lon, min_lat, max_lon, max_lat))
    outside = (lon0 < world.min_lon) | (lat0 < world.min_lat) | (lon1 > world.max_lon) | (lat1 > world.max_lat)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"mbr outside indexed world: {MBR(lon0[i], lat0[i], lon1[i], lat1[i])}")
    x0, y0, x1, y1 = _normalize(lon0, lat0, lon1, lat1, world)
    extent = np.maximum(x1 - x0, y1 - y0)

    g = cfg.resolution
    with np.errstate(divide="ignore"):
        guess = np.floor(-np.log2(np.where(extent > 0.0, extent, 1.0)))
    depth = np.where(extent > 0.0, np.clip(guess, 0, g), g).astype(np.int64)
    while (up := (depth < g) & (np.ldexp(1.0, -(depth + 1)) >= extent)).any():
        depth += up
    while (down := (depth > 0) & (np.ldexp(1.0, -depth) < extent)).any():
        depth -= down
    last = np.left_shift(1, depth) - 1
    column = np.minimum(np.floor(np.ldexp(x0, depth)), last).astype(np.int64)
    row = np.minimum(np.floor(np.ldexp(y0, depth)), last).astype(np.int64)
    return depth, column, row


def xz2_codes(
    min_lon: np.ndarray, min_lat: np.ndarray, max_lon: np.ndarray, max_lat: np.ndarray, cfg: XzConfig
) -> np.ndarray:
    """``sequence_code`` of each box's ``xz2_cells`` cell: a depth-d cell's
    digit i (quadrant bits of its column and row, most significant first)
    adds ``digit * subtree_size(i, resolution) + 1``."""
    depth, column, row = xz2_cells(min_lon, min_lat, max_lon, max_lat, cfg)
    g = cfg.resolution
    codes = depth.copy()
    for i in range(1, int(depth.max(initial=0)) + 1):
        shift = np.maximum(depth - i, 0)
        digit = ((column >> shift) & 1) | (((row >> shift) & 1) << 1)
        codes += np.where(depth >= i, digit * subtree_size(i, g), 0)
    return codes


def xz2_element(mbr: MBR, cfg: XzConfig) -> XzElement:
    """Cell assignment for one extended object: ``xz2_cells`` of its box, as
    quadrant digits from the root. Raises ``ValueError`` outside the world."""
    depth, column, row = (int(a[0]) for a in xz2_cells(*([v] for v in _corners(mbr)), cfg))
    return XzElement(tuple(((column >> s) & 1) | (((row >> s) & 1) << 1) for s in range(depth - 1, -1, -1)))


def _corners(mbr: MBR) -> tuple[float, float, float, float]:
    return mbr.min_lon, mbr.min_lat, mbr.max_lon, mbr.max_lat


def subtree_size(depth: int, resolution: int) -> int:
    """Number of cells in the subtree rooted at a depth-``depth`` cell."""
    return (4 ** (resolution - depth + 1) - 1) // 3


def sequence_code(element: XzElement, cfg: XzConfig) -> int:
    """Pre-order position of a cell among all cells up to the resolution."""
    if len(element.digits) > cfg.resolution:
        raise ValueError("element deeper than the configured resolution")
    code = 0
    for i, digit in enumerate(element.digits, start=1):
        code += digit * (4 ** (cfg.resolution - i + 1) - 1) // 3 + 1
    return code


def bin_of(t: int, cfg: XzConfig) -> int:
    """Time-period number of a timestamp: whole units since epoch / period."""
    if t < cfg.epoch:
        raise ValueError(f"timestamp {t} precedes the index epoch {cfg.epoch}")
    units = (t - cfg.epoch) // cfg.unit.seconds
    return units // cfg.period_len


def bins_of(t: np.ndarray, cfg: XzConfig) -> np.ndarray:
    """``bin_of`` over a column of timestamps."""
    if t.size and t.min() < cfg.epoch:
        raise ValueError(f"timestamp {t.min()} precedes the index epoch {cfg.epoch}")
    return (t - cfg.epoch) // cfg.unit.seconds // cfg.period_len


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def shard_of(sid: bytes, cfg: XzConfig) -> int:
    """The shard byte of a UTF-8 segment id."""
    return 0 if cfg.num_shards == 1 else _fnv1a64(sid) % cfg.num_shards


def encode_key(seg: Segment, cfg: XzConfig) -> STKey:
    """Row key of a segment. The segment must fit inside one time period."""
    b = bin_of(seg.st, cfg)
    if bin_of(seg.et, cfg) != b:
        raise ValueError(f"segment {seg.sid!r} spans multiple time periods")
    return STKey(
        shard=shard_of(seg.sid.encode("utf-8"), cfg),
        bin=b,
        xz2=int(xz2_codes(*([v] for v in _corners(seg.mbr)), cfg)[0]),
        sid=seg.sid,
    )


def spatial_scan_ranges(window: MBR, cfg: XzConfig) -> list[tuple[int, int]]:
    """Half-open code intervals covering every cell reachable from a window.

    A cell is reachable when its doubled extension intersects the window, so
    scanning these intervals returns a superset of the stored segments whose
    box intersects the window; callers refine with the exact box test.
    Adjacent and overlapping intervals are coalesced.
    """
    wx0, wy0, wx1, wy1 = _normalize(*_corners(window), cfg.world)
    wx0, wy0 = max(wx0, 0.0), max(wy0, 0.0)
    wx1, wy1 = min(wx1, 1.0), min(wy1, 1.0)
    if wx0 > wx1 or wy0 > wy1:
        return []

    g = cfg.resolution
    out: list[tuple[int, int]] = []

    def visit(code: int, depth: int, cx: float, cy: float, side: float) -> None:
        ext = 2.0 * side
        if cx > wx1 or cy > wy1 or cx + ext < wx0 or cy + ext < wy0:
            return  # doubled cell misses the window: whole subtree is out of reach
        if wx0 <= cx and wy0 <= cy and cx + side <= wx1 and cy + side <= wy1:
            out.append((code, code + subtree_size(depth, g)))
            return  # window covers the cell: take the whole subtree
        out.append((code, code + 1))
        if depth == g:
            return
        half = side / 2.0
        child_sub = subtree_size(depth + 1, g)
        for digit in range(4):
            visit(
                code + digit * child_sub + 1,
                depth + 1,
                cx + (digit & 1) * half,
                cy + (digit >> 1) * half,
                half,
            )

    visit(0, 0, 0.0, 0.0, 1.0)

    merged: list[tuple[int, int]] = []
    for lo, hi in out:  # pre-order emission: lows already ascend
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _periods(tr: TimeRange, cfg: XzConfig) -> range:
    """The periods whose keys may hold a segment meeting ``tr``: one before
    the range's start, as segments are keyed by the period of their start
    time and a span may reach into the next period, through the period of
    its end, clamped to those a key holds; none when ``tr`` ends before the
    epoch."""
    if tr.end < cfg.epoch:
        return range(0)
    first = max(0, bin_of(max(tr.start, cfg.epoch), cfg) - 1)
    return range(first, min(bin_of(tr.end, cfg), LAST_PERIOD) + 1)


def st_scan_ranges(window: MBR, tr: TimeRange, cfg: XzConfig) -> list[ScanRange]:
    """Key scan ranges for a window and time range, across shards and the
    periods of ``_periods``."""
    spatial, periods = spatial_scan_ranges(window, cfg), _periods(tr, cfg)
    ranges = [
        ScanRange(
            low=KEY_HEAD.pack(shard, b, lo),
            high=KEY_HEAD.pack(shard, b, hi),
        )
        for shard in range(cfg.num_shards)
        for b in periods
        for lo, hi in spatial
    ]
    ranges.sort(key=lambda r: r.low)
    return ranges


def period_spans(tr: TimeRange, cfg: XzConfig) -> list[ScanRange]:
    """One key range a shard over every cell code of the periods of
    ``_periods``, so it holds every range ``st_scan_ranges`` plans for any
    window and ``tr``. A key starts with its shard and period, so each is
    one contiguous span of the sorted keys."""
    periods = _periods(tr, cfg)
    if not periods:
        return []
    top = cfg.total_elements()
    return [ScanRange(KEY_HEAD.pack(shard, periods[0], 0), KEY_HEAD.pack(shard, periods[-1], top))
            for shard in range(cfg.num_shards)]
