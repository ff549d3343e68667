"""Batch contact join: the single query's ranking over reads that many queries share.

Every query is cut into segments as ``irq`` cuts it, all of them in one pass
(``query_segments``). ``sft_build`` orders the queries by the quadtree cell,
``resolution`` levels deep, that holds the min corner of their first
segment's box, cells in visit order, then by that segment's start time, and
cuts that order into chunks of at most ``capacity`` queries. Each chunk is one
scan set: ONE ``extract_candidates`` read over all of its queries' segments,
so nearby queries share I/O, and ``touches[i, c]`` is the reach test of the
window of segment ``i``.

Each query is then ranked by ``query.rank`` over its own rows of the chunk's
read, as ``irq`` ranks it: the same rules, counters and float order, so on a
store holding one copy of each sid the results equal the single query's, bit
for bit.
"""

from __future__ import annotations

from typing import Sequence

# filter_noise, segment, segment_ir and st_query stay bound here: perfbench's tracer wraps them in this module
from .metric import PointArray, QueryParams, segment_ir
from .model import MBR, WORLD, Segment, SegmentationConfig, Trajectory, filter_noise, segment
from .query import ALL_LEMMAS, COUNTER_KEYS, QuerySegment, extract_candidates, query_segments, rank
from .store import SortedIndex, st_query
from .xz import XzConfig

DEFAULT_LEAF_CAPACITY = 64
MAX_RESOLUTION = 64  # past about 54 halvings the world box's float midpoints stop moving

JOIN_COUNTER_KEYS = ("scan_sets", *COUNTER_KEYS)

# visit rank of each quadrant digit (bit 0: east half, bit 1: north half):
# north-east first, then south-east, south-west, north-west
_QUADRANT_RANK = (2, 1, 3, 0)


def _cell_key(box: MBR, resolution: int) -> int:
    """Visit-order key of the depth-``resolution`` cell holding the box's min corner.

    Each level halves the cell at its midpoint and appends one base-4 digit,
    so sorting keys visits cells depth-first in quadrant rank order.
    """
    lon_lo, lat_lo, lon_hi, lat_hi = WORLD.min_lon, WORLD.min_lat, WORLD.max_lon, WORLD.max_lat
    key = 0
    for _ in range(resolution):
        mid_lon = (lon_lo + lon_hi) / 2.0
        mid_lat = (lat_lo + lat_hi) / 2.0
        east = box.min_lon >= mid_lon
        north = box.min_lat >= mid_lat
        if east:
            lon_lo = mid_lon
        else:
            lon_hi = mid_lon
        if north:
            lat_lo = mid_lat
        else:
            lat_hi = mid_lat
        key = key * 4 + _QUADRANT_RANK[east | north << 1]
    return key


def sft_build(
    segments: Sequence[Segment | QuerySegment], resolution: int, capacity: int = DEFAULT_LEAF_CAPACITY
) -> list[list[int]]:
    """The join's scan sets, as positions into ``segments``: ordered by the
    cell of each box's min corner, cells in visit order, then by start time
    (ties keep their input order), and cut into chunks of at most ``capacity``."""
    if capacity < 1:
        raise ValueError(f"leaf capacity must be at least 1, got {capacity}")
    if not 0 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be in [0, {MAX_RESOLUTION}], got {resolution}")
    order = sorted(range(len(segments)), key=lambda k: (_cell_key(segments[k].mbr, resolution), segments[k].st))
    return [order[k : k + capacity] for k in range(0, len(order), capacity)]


def irjq(
    query_set: list[Trajectory],
    params: QueryParams,
    backend: SortedIndex,
    cfg: XzConfig,
    seg_cfg: SegmentationConfig | None = None,
    *,
    resolution: int = 15,
    capacity: int = DEFAULT_LEAF_CAPACITY,
    lemmas: frozenset[int] | tuple[int, ...] = ALL_LEMMAS,
    counters: dict[str, int] | None = None,
) -> list[tuple[str, str, float]]:
    """Every (query id, stored id, score) pair strictly above the threshold.

    One ``extract_candidates`` per scan set finds the candidates of all its
    queries. Per-query results and counters equal the single-query engine's
    under the same ``lemmas``; output is sorted by query id, then descending
    score, then candidate id.
    """
    ids = [q.id for q in query_set]
    if len(set(ids)) != len(ids):
        raise ValueError("query set contains duplicate trajectory ids")

    cuts = query_segments(query_set, seg_cfg or SegmentationConfig())
    chunks = sft_build([segs[0] for segs, _ in cuts], resolution, capacity)
    tally = {} if counters is None else counters
    tally["scan_sets"] = tally.get("scan_sets", 0) + len(chunks)
    lemmas = frozenset(lemmas)
    ranked: dict[str, list[tuple[str, float]]] = {}
    for chunk in chunks:
        found = extract_candidates([s for k in chunk for s in cuts[k][0]], params, backend, cfg)
        points = PointArray.of(found.points)
        row = 0
        for k in chunk:
            segs, weights = cuts[k]
            touches = found.touches[row : row + len(segs)]
            ranked[ids[k]] = rank(ids[k], segs, weights, found, points, touches, params, lemmas, tally)
            row += len(segs)
    return [(qid, tid, ir) for qid in sorted(ranked) for tid, ir in ranked[qid]]

