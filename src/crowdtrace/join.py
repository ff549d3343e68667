"""Batch contact join: a spatial-first-time (SFT) grouping batches store lookups.

Every query-set segment is keyed by the quadtree cell, ``resolution`` levels
deep, that holds the min corner of its box. The cells are sorted into
quadtree visit order, and each cell's segments are swept in start-time order
into leaves that merge overlapping time ranges until a capacity or span limit
splits them. Each leaf is one scan set: ONE store lookup over its merged
time range and box, so nearby query segments share I/O.

A scan set's records are read once, into columns; each query segment in it
is scored in one bounded matrix pass against the candidate trajectories a
header test (``st_filter``) cannot rule out. Pruning rule 2 (see ``query``)
removes whole trajectory pairs. Results equal the single query's per trajectory.
"""

from __future__ import annotations

import math

import numpy as np

# segment_ir and st_query stay bound here: perfbench's tracer wraps them in this module
from .metric import PointArray, QueryParams, segment_ir, segment_irs, span_weight
from .model import EARTH_RADIUS_M, MBR, WORLD, Segment, SegmentationConfig, TimeRange, Trajectory, filter_noise, segment
from .store import StoreBackend, st_query, st_read
from .xz import XzConfig

PairKey = tuple[str, str]  # (query trajectory id, candidate trajectory id)

DEFAULT_LEAF_CAPACITY = 64

JOIN_COUNTER_KEYS = ("scan_sets", "pairs_scored", "pairs_removed")


# A scan set: merged time range, merged box and the query segments it holds.
Leaf = tuple[TimeRange, MBR, list[Segment]]

# visit rank of each quadrant digit (bit 0: east half, bit 1: north half):
# north-east first, then south-east, south-west, north-west
_QUADRANT_RANK = (2, 1, 3, 0)


def _cell_key(box: MBR, resolution: int) -> int:
    """Visit-order key of the depth-``resolution`` cell holding the box's min corner.

    Each level halves the cell at its midpoint and appends one base-4 digit,
    so sorting keys visits cells depth-first in quadrant rank order. Python
    ints are unbounded, so any depth works.
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


def _leaf_of(entries: list[Segment]) -> Leaf:
    tr = TimeRange(min(s.st for s in entries), max(s.et for s in entries))
    box = entries[0].mbr
    for s in entries[1:]:
        box = box.union(s.mbr)
    return tr, box, entries


def time_leaves(segments: list[Segment], capacity: int, max_leaf_span: int) -> list[Leaf]:
    """Sweep segments in start-time order, merging overlapping time ranges.

    A new segment joins the last leaf when its range overlaps it; a leaf
    whose entry count exceeds ``capacity`` or whose merged span exceeds
    ``max_leaf_span`` is split at the median start time (a single
    over-spanning entry cannot be split further).
    """
    leaves: list[list[Segment]] = []
    for seg in sorted(segments, key=lambda s: (s.st, s.sid)):
        if leaves and seg.st <= max(s.et for s in leaves[-1]):
            leaves[-1].append(seg)
            stack = [leaves.pop()]
            while stack:
                group = stack.pop()
                span = max(s.et for s in group) - min(s.st for s in group)
                if len(group) > 1 and (len(group) > capacity or span > max_leaf_span):
                    mid = len(group) // 2
                    stack.append(group[mid:])
                    stack.append(group[:mid])
                else:
                    leaves.append(group)
        else:
            leaves.append([seg])
    return [_leaf_of(group) for group in leaves]


def sft_build(
    segments: list[Segment],
    resolution: int,
    capacity: int = DEFAULT_LEAF_CAPACITY,
    max_leaf_span: int = 86_400,
) -> list[Leaf]:
    """The join's scan sets: segments grouped by the cell of their box's min
    corner, cells in visit order, each cell swept into time leaves."""
    if capacity < 1:
        raise ValueError(f"leaf capacity must be at least 1, got {capacity}")
    cells: dict[int, list[Segment]] = {}
    for seg in segments:
        cells.setdefault(_cell_key(seg.mbr, resolution), []).append(seg)
    return [
        leaf for key in sorted(cells) for leaf in time_leaves(cells[key], capacity, max_leaf_span)
    ]


def _mbr_gap_lower_bound_m(a: MBR, b: MBR) -> float:
    """A distance no point pair of the two boxes can be closer than."""
    lon_gap = max(0.0, max(a.min_lon, b.min_lon) - min(a.max_lon, b.max_lon))
    # or the other way round the globe, across the antimeridian, when shorter
    lon_gap = min(lon_gap, 360.0 - (max(a.max_lon, b.max_lon) - min(a.min_lon, b.min_lon)))
    lat_gap = max(0.0, max(a.min_lat, b.min_lat) - min(a.max_lat, b.max_lat))
    if lon_gap == 0.0 and lat_gap == 0.0:
        return 0.0
    cos_a = math.cos(math.radians(max(abs(a.min_lat), abs(a.max_lat))))
    cos_b = math.cos(math.radians(max(abs(b.min_lat), abs(b.max_lat))))
    h = math.sin(math.radians(lat_gap) / 2.0) ** 2 + cos_a * cos_b * math.sin(
        math.radians(lon_gap) / 2.0
    ) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def st_filter(qseg: Segment, head: tuple, params: QueryParams) -> bool:
    """True when a stored segment, given by its header (box corners, st, et),
    is provably out of reach of the query segment."""
    *box, st, et = head
    if max(qseg.st, st) - min(qseg.et, et) > params.theta_t:
        return True
    return _mbr_gap_lower_bound_m(qseg.mbr, MBR(*box)) > params.theta_d


def irjq(
    query_set: list[Trajectory],
    params: QueryParams,
    backend: StoreBackend,
    cfg: XzConfig,
    seg_cfg: SegmentationConfig | None = None,
    *,
    resolution: int = 15,
    capacity: int = DEFAULT_LEAF_CAPACITY,
    prune: bool = True,
    counters: dict[str, int] | None = None,
) -> list[tuple[str, str, float]]:
    """Every (query id, stored id, score) pair strictly above the threshold.

    One store lookup per scan set extracts candidates for all query
    segments in it. Per-pair scores equal the single-query engine's;
    output is sorted by query id, then descending score, then candidate id.
    """
    seg_cfg = seg_cfg or SegmentationConfig()

    ids = [q.id for q in query_set]
    if len(set(ids)) != len(ids):
        raise ValueError("query set contains duplicate trajectory ids")

    weights: dict[str, float] = {}
    all_segments: list[Segment] = []
    for q in query_set:
        q_segments = segment(filter_noise(q, seg_cfg), seg_cfg)
        for s in q_segments:
            weights[s.sid] = span_weight(s, q_segments)
        all_segments.extend(q_segments)

    removed: set[PairKey] = set()
    scores: dict[PairKey, dict[str, float]] = {}  # pair -> query sid -> weighted score
    tally = dict.fromkeys(JOIN_COUNTER_KEYS, 0)

    leaves = sft_build(all_segments, resolution, capacity, cfg.period_seconds)
    for tr, box, entries in leaves:
        found = st_read([(box, tr)], params.theta_d, params.theta_t, backend, cfg)
        tally["scan_sets"] += 1
        points = PointArray.of(found.points)
        for qseg in entries:
            live = np.array([
                c for c, traj_id in enumerate(found.traj_ids)
                if traj_id != qseg.traj_id
                and not (prune and (qseg.traj_id, traj_id) in removed)
                and not all(st_filter(qseg, head, params) for head in found.heads[c])
            ], np.intp)
            w = weights[qseg.sid]
            seg_pts = PointArray.of(qseg.locations)
            irps = segment_irs(seg_pts, points, found.runs[live], found.runs[live + 1], params)
            for c, irp in zip(live.tolist(), (irps * w).tolist()):
                pair = (qseg.traj_id, found.traj_ids[c])
                if prune and irp < params.theta - 1.0 + w:
                    removed.add(pair)
                    tally["pairs_removed"] += 1
                else:
                    scores.setdefault(pair, {})[qseg.sid] = irp

    results: list[tuple[str, str, float]] = []
    for pair in sorted(scores):
        if pair in removed:
            continue
        total = 0.0
        for sid in sorted(scores[pair]):
            total += scores[pair][sid]
        total = min(1.0, total)  # guard float drift above the bound of 1
        if total > params.theta:
            results.append((pair[0], pair[1], total))
    tally["pairs_scored"] = len(scores)
    results.sort(key=lambda r: (r[0], -r[2], r[1]))
    if counters is not None:
        for key, n in tally.items():
            counters[key] = counters.get(key, 0) + n
    return results


def irjq_unpruned(
    query_set: list[Trajectory],
    params: QueryParams,
    backend: StoreBackend,
    cfg: XzConfig,
    seg_cfg: SegmentationConfig | None = None,
    *,
    resolution: int = 15,
    capacity: int = DEFAULT_LEAF_CAPACITY,
    counters: dict[str, int] | None = None,
) -> list[tuple[str, str, float]]:
    """``irjq`` with pair pruning disabled; same results, more work."""
    return irjq(
        query_set,
        params,
        backend,
        cfg,
        seg_cfg,
        resolution=resolution,
        capacity=capacity,
        prune=False,
        counters=counters,
    )
