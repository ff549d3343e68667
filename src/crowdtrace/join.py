"""Batch contact join: the single query's scoring over reads that many query segments share.

Every query is cut into segments as ``irq`` cuts it (``query_segments``).
``sft_build`` orders all of them by the quadtree cell, ``resolution`` levels
deep, that holds the min corner of their box, cells in visit order, then by
start time, and cuts that order into chunks of at most ``capacity``
segments. Each chunk is one scan set: ONE ``st_read`` over its segments' own
windows, so nearby query segments share I/O, and ``touches[i, c]`` is the
reach test of segment ``i``'s window.

Each segment is scored in one bounded matrix pass against the candidates its
window touched, its own trajectory left out. Pruning rule 2 (see ``query``)
removes whole trajectory pairs. A pair's total is summed in query-segment
order, as ``irq`` sums it, so on a store holding one copy of each sid the
results equal the single query's, bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# filter_noise, segment, segment_ir and st_query stay bound here: perfbench's tracer wraps them in this module
from .metric import PointArray, QueryParams, segment_ir, segment_irs
from .model import MBR, WORLD, Segment, SegmentationConfig, TimeRange, Trajectory, filter_noise, segment
from .query import QuerySegment, query_segments
from .store import StoreBackend, st_query, st_read
from .xz import XzConfig

PairKey = tuple[str, str]  # (query trajectory id, candidate trajectory id)

DEFAULT_LEAF_CAPACITY = 64

JOIN_COUNTER_KEYS = ("scan_sets", "pairs_scored", "pairs_removed")

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


def sft_build(
    segments: Sequence[Segment | QuerySegment], resolution: int, capacity: int = DEFAULT_LEAF_CAPACITY
) -> list[list[int]]:
    """The join's scan sets, as positions into ``segments``: ordered by the
    cell of each box's min corner, cells in visit order, then by start time
    (ties keep their input order), and cut into chunks of at most ``capacity``."""
    if capacity < 1:
        raise ValueError(f"leaf capacity must be at least 1, got {capacity}")
    order = sorted(range(len(segments)), key=lambda k: (_cell_key(segments[k].mbr, resolution), segments[k].st))
    return [order[k : k + capacity] for k in range(0, len(order), capacity)]


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

    One ``st_read`` per scan set finds the candidates of all query segments
    in it. Per-pair scores equal the single-query engine's; output is sorted
    by query id, then descending score, then candidate id.
    """
    seg_cfg = seg_cfg or SegmentationConfig()

    ids = [q.id for q in query_set]
    if len(set(ids)) != len(ids):
        raise ValueError("query set contains duplicate trajectory ids")

    segs: list[QuerySegment] = []
    weights: list[float] = []
    owners: list[str] = []  # by segment: its query's id
    for q in query_set:
        q_segments, q_weights = query_segments(q, seg_cfg)
        segs += q_segments
        weights += q_weights
        owners += [q.id] * len(q_segments)

    removed: set[PairKey] = set()
    scores: dict[PairKey, list[tuple[int, float]]] = {}  # pair -> (query segment's place, weighted score)
    tally = dict.fromkeys(JOIN_COUNTER_KEYS, 0)

    for chunk in sft_build(segs, resolution, capacity):
        windows = [(segs[k].mbr, TimeRange(segs[k].st, segs[k].et)) for k in chunk]
        found = st_read(windows, params.theta_d, params.theta_t, backend, cfg)
        tally["scan_sets"] += 1
        points = PointArray.of(found.points)
        for k, touch in zip(chunk, found.touches):
            qid, w = owners[k], weights[k]
            live = np.array([
                c for c in np.flatnonzero(touch).tolist()
                if found.traj_ids[c] != qid and not (prune and (qid, found.traj_ids[c]) in removed)
            ], np.intp)
            irps = segment_irs(segs[k].points, points, found.runs[live], found.runs[live + 1], params) * w
            for c, irp in zip(live.tolist(), irps.tolist()):
                pair = (qid, found.traj_ids[c])
                if prune and irp < params.theta - 1.0 + w:
                    removed.add(pair)
                    tally["pairs_removed"] += 1
                else:
                    scores.setdefault(pair, []).append((k, irp))

    results: list[tuple[str, str, float]] = []
    for pair, parts in scores.items():
        if pair in removed:
            continue
        total = 0.0
        for _, irp in sorted(parts):  # in query-segment order, from 0.0, as irq sums
            total += irp
        total = min(1.0, total)  # guard float drift above the bound of 1
        if total > params.theta:
            results.append((*pair, total))
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
