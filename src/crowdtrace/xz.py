"""Quadtree space-filling-curve codes for extended objects, and key planning.

A segment's bounding box maps to one quadtree cell: the deepest cell at least
as large as the box on both axes that contains the box's min corner. Because
the cell, doubled in width and height from its min corner, always covers the
box, range planning over doubled cells never misses a stored segment.

The quadtree spans the whole lon/lat world (``WORLD``); only its depth, the
resolution, varies. Cells are numbered by depth-first pre-order, so every
subtree is one contiguous code interval. A row key is a zero byte, the
time-period number, the cell code and the segment id; all fields are
big-endian so byte order equals logical order. A timestamp's period is
``t // period_len``: whole periods of ``period_len`` seconds from t = 0.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .model import MBR, WORLD, Segment, TimeRange


@dataclass(frozen=True, slots=True)
class XzConfig:
    """Index geometry: quadtree depth over the whole world and time binning,
    in periods of ``period_len`` seconds from t = 0."""

    resolution: int = 15
    period_len: int = 86_400

    def __post_init__(self) -> None:
        if not 1 <= self.resolution <= 31:
            raise ValueError(f"resolution must be in [1, 31]: {self.resolution}")
        if not 0 < self.period_len < 2**63:
            raise ValueError(f"period_len must be positive and fit a signed 64-bit int of seconds: {self.period_len}")

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


KEY_HEAD = struct.Struct(">BIQ")  # a row key's zero byte, period number and cell code; the sid follows
LAST_PERIOD = 2**32 - 1  # the largest period number a key holds


@dataclass(frozen=True, slots=True)
class STKey:
    """Row key fields: period number, cell code, segment id."""

    bin: int
    xz2: int
    sid: str

    def packed(self) -> bytes:
        return KEY_HEAD.pack(0, self.bin, self.xz2) + self.sid.encode("utf-8")


@dataclass(frozen=True, slots=True)
class ScanRange:
    """Byte-key interval [low, high) handed to the ordered store."""

    low: bytes
    high: bytes

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise ValueError("scan range must be non-empty")


def _normalize(min_lon, min_lat, max_lon, max_lat):
    """Box corners (floats or arrays) as fractions of the world's extent."""
    return (min_lon + 180.0) / 360.0, (min_lat + 90.0) / 180.0, (max_lon + 180.0) / 360.0, (max_lat + 90.0) / 180.0


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
    lon0, lat0, lon1, lat1 = (np.asarray(c, np.float64) for c in (min_lon, min_lat, max_lon, max_lat))
    inside = (lon0 >= WORLD.min_lon) & (lat0 >= WORLD.min_lat) & (lon1 <= WORLD.max_lon) & (lat1 <= WORLD.max_lat)
    if not inside.all():  # a NaN corner too
        i = int(np.argmin(inside))
        raise ValueError(f"mbr outside indexed world: {MBR(lon0[i], lat0[i], lon1[i], lat1[i])}")
    x0, y0, x1, y1 = _normalize(lon0, lat0, lon1, lat1)
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
    """Time-period number of a timestamp: whole periods since t = 0."""
    if t < 0:
        raise ValueError(f"timestamp {t} is negative: it has no period")
    return t // cfg.period_len


def bins_of(t: np.ndarray, cfg: XzConfig) -> np.ndarray:
    """``bin_of`` over a column of timestamps."""
    if t.size and t.min() < 0:
        raise ValueError(f"timestamp {t.min()} is negative: it has no period")
    return t // cfg.period_len


def encode_key(seg: Segment, cfg: XzConfig) -> STKey:
    """Row key of a segment. The segment must fit inside one time period."""
    b = bin_of(seg.st, cfg)
    if bin_of(seg.et, cfg) != b:
        raise ValueError(f"segment {seg.sid!r} spans multiple time periods")
    return STKey(bin=b, xz2=int(xz2_codes(*([v] for v in _corners(seg.mbr)), cfg)[0]), sid=seg.sid)


def spatial_scan_ranges(window: MBR, cfg: XzConfig) -> list[tuple[int, int]]:
    """Half-open code intervals covering every cell reachable from a window.

    A cell is reachable when its doubled extension intersects the window, so
    scanning these intervals returns a superset of the stored segments whose
    box intersects the window; callers refine with the exact box test.
    Adjacent and overlapping intervals are coalesced.
    """
    wx0, wy0, wx1, wy1 = _normalize(*_corners(window))
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
    its end, clamped to those a key holds; none when ``tr`` ends before
    t = 0."""
    if tr.end < 0:
        return range(0)
    first = max(0, bin_of(max(tr.start, 0), cfg) - 1)
    return range(first, min(bin_of(tr.end, cfg), LAST_PERIOD) + 1)


def st_scan_ranges(window: MBR, tr: TimeRange, cfg: XzConfig) -> list[ScanRange]:
    """Key scan ranges for a window and time range over the periods of
    ``_periods``, in key order."""
    spatial = spatial_scan_ranges(window, cfg)
    return [ScanRange(KEY_HEAD.pack(0, b, lo), KEY_HEAD.pack(0, b, hi))
            for b in _periods(tr, cfg) for lo, hi in spatial]


def period_spans(tr: TimeRange, cfg: XzConfig) -> list[ScanRange]:
    """One key range over every cell code of the periods of ``_periods``, so
    it holds every range ``st_scan_ranges`` plans for any window and ``tr``.
    A key starts with a zero byte and its period, so the span is contiguous
    in the sorted keys; none when there are no periods."""
    periods = _periods(tr, cfg)
    if not periods:
        return []
    return [ScanRange(KEY_HEAD.pack(0, periods[0], 0), KEY_HEAD.pack(0, periods[-1], cfg.total_elements()))]
