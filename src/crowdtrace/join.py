"""Batch contact join: the single query's ranking over reads that many queries share.

Every query is cut into segments as ``irq`` cuts it, all of them in one pass
(``query_segments``). ``sft_build`` orders the queries by the cell code the
store would key their first segment under (``xz.xz2_codes`` at the store's
own ``XzConfig``), then by that segment's start time, and cuts that order
into chunks of at most ``capacity`` queries. Each chunk is one scan set: ONE
``extract_candidates`` read over all of its queries' segments, so nearby
queries share I/O, and ``touches[i, c]`` is the reach test of the window of
segment ``i``.

Each query is then ranked by ``query.rank`` over its own rows of the chunk's
read, as ``irq`` ranks it: the same rules, counters and float order, so on a
store holding one copy of each sid the results equal the single query's, bit
for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# filter_noise, segment, segment_ir and st_query stay bound here: perfbench's tracer wraps them in this module
from .metric import PointArray, QueryParams, segment_ir
from .model import Segment, SegmentationConfig, Trajectory, filter_noise, segment
from .query import ALL_LEMMAS, COUNTER_KEYS, QuerySegment, extract_candidates, query_segments, rank
from .store import SortedIndex, st_query
from .xz import XzConfig, xz2_codes

DEFAULT_LEAF_CAPACITY = 64

JOIN_COUNTER_KEYS = ("scan_sets", *COUNTER_KEYS)


def sft_build(
    segments: Sequence[Segment | QuerySegment], cfg: XzConfig, capacity: int = DEFAULT_LEAF_CAPACITY
) -> list[list[int]]:
    """The join's scan sets, as positions into ``segments``: ordered by the
    ``xz2_codes`` cell code of each box under ``cfg``, its corners clamped to
    ``cfg.world`` (a query outside it joins and finds nothing, as ``irq``
    does), then by start time (ties keep their input order), and cut into
    chunks of at most ``capacity``."""
    if capacity < 1:
        raise ValueError(f"leaf capacity must be at least 1, got {capacity}")
    w = cfg.world
    boxes = np.array([(s.mbr.min_lon, s.mbr.min_lat, s.mbr.max_lon, s.mbr.max_lat) for s in segments]).reshape(-1, 4)
    codes = xz2_codes(*np.clip(boxes, (w.min_lon, w.min_lat) * 2, (w.max_lon, w.max_lat) * 2).T, cfg)
    order = np.lexsort(([s.st for s in segments], codes)).tolist()
    return [order[k : k + capacity] for k in range(0, len(order), capacity)]


def irjq(
    query_set: list[Trajectory],
    params: QueryParams,
    backend: SortedIndex,
    cfg: XzConfig,
    seg_cfg: SegmentationConfig | None = None,
    *,
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
    chunks = sft_build([segs[0] for segs, _ in cuts], cfg, capacity)
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

