"""Batch contact join: a spatial-first-time index batches store lookups.

All query-set segments are indexed in a quadtree keyed by the min corner of
each segment's box; each occupied quadtree leaf holds a small time tree whose
leaves merge overlapping time ranges until a capacity or span limit splits
them. Each time-tree leaf issues ONE store lookup over its merged envelope,
so nearby query segments share I/O.

Per (query segment, candidate trajectory) pair the engine scores the weighted
segment contribution; pruning rule 2 (see ``query``) removes whole trajectory
pairs. Results are identical to running the single query per trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .metric import PointArray, QueryParams, segment_ir, span_weight
from .model import EARTH_RADIUS_M, MBR, WORLD, Segment, SegmentationConfig, TimeRange, Trajectory, filter_noise, segment
from .store import StoreBackend, st_query
from .xz import XzConfig

PairKey = tuple[str, str]  # (query trajectory id, candidate trajectory id)

DEFAULT_LEAF_CAPACITY = 64

JOIN_COUNTER_KEYS = ("scan_sets", "pairs_scored", "pairs_removed")


@dataclass
class TTreeNode:
    """Time-tree node; leaves hold segments, internal nodes hold children."""

    tr: TimeRange
    mbr: MBR
    entries: list[Segment] = field(default_factory=list)
    children: list["TTreeNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self):
        if self.is_leaf:
            yield self
        else:
            for child in self.children:
                yield from child.leaves()


def _leaf_of(entries: list[Segment]) -> TTreeNode:
    tr = TimeRange(min(s.st for s in entries), max(s.et for s in entries))
    box = entries[0].mbr
    for s in entries[1:]:
        box = box.union(s.mbr)
    return TTreeNode(tr=tr, mbr=box, entries=entries)


def build_ttree(segments: list[Segment], capacity: int, max_leaf_span: int) -> TTreeNode:
    """Insert segments in start-time order, merging overlapping time ranges.

    A new segment joins the last leaf when its range overlaps it; a leaf
    whose entry count exceeds ``capacity`` or whose merged span exceeds
    ``max_leaf_span`` is split at the median start time (a single
    over-spanning entry cannot be split further). The internal levels are
    rebuilt from the finished leaves.
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
            leaves.sort(key=lambda g: g[0].st)
        else:
            leaves.append([seg])

    nodes = [_leaf_of(group) for group in leaves]
    while len(nodes) > 1:
        grouped = []
        for i in range(0, len(nodes), capacity):
            chunk = nodes[i : i + capacity]
            if len(chunk) == 1:
                grouped.append(chunk[0])
                continue
            tr = chunk[0].tr
            box = chunk[0].mbr
            for node in chunk[1:]:
                tr = tr.union(node.tr)
                box = box.union(node.mbr)
            grouped.append(TTreeNode(tr=tr, mbr=box, children=chunk))
        nodes = grouped
    return nodes[0]


@dataclass
class SftQuadNode:
    """Quadtree node over the world; occupied max-depth cells hold time trees."""

    cell: MBR
    depth: int
    children: dict[int, "SftQuadNode"] = field(default_factory=dict)
    pending: list[Segment] = field(default_factory=list)
    time_tree: TTreeNode | None = None

    @property
    def is_leaf(self) -> bool:
        return self.time_tree is not None or bool(self.pending)

    def quad_leaves(self):
        if self.is_leaf:
            yield self
        # visit children north-east first, matching the search order
        for digit in (3, 1, 0, 2):
            child = self.children.get(digit)
            if child is not None:
                yield from child.quad_leaves()


def _child_cell(cell: MBR, digit: int) -> MBR:
    mid_lon = (cell.min_lon + cell.max_lon) / 2.0
    mid_lat = (cell.min_lat + cell.max_lat) / 2.0
    if digit & 1:
        lon_lo, lon_hi = mid_lon, cell.max_lon
    else:
        lon_lo, lon_hi = cell.min_lon, mid_lon
    if digit >> 1:
        lat_lo, lat_hi = mid_lat, cell.max_lat
    else:
        lat_lo, lat_hi = cell.min_lat, mid_lat
    return MBR(lon_lo, lat_lo, lon_hi, lat_hi)


def sft_build(
    segments: list[Segment],
    resolution: int,
    capacity: int = DEFAULT_LEAF_CAPACITY,
    max_leaf_span: int = 86_400,
    world: MBR = WORLD,
) -> SftQuadNode:
    """Index query segments by box min corner down to ``resolution`` levels."""
    root = SftQuadNode(cell=world, depth=0)
    for seg in segments:
        node = root
        while node.depth < resolution:
            mid_lon = (node.cell.min_lon + node.cell.max_lon) / 2.0
            mid_lat = (node.cell.min_lat + node.cell.max_lat) / 2.0
            digit = int(seg.mbr.min_lon >= mid_lon) | (int(seg.mbr.min_lat >= mid_lat) << 1)
            child = node.children.get(digit)
            if child is None:
                child = SftQuadNode(cell=_child_cell(node.cell, digit), depth=node.depth + 1)
                node.children[digit] = child
            node = child
        node.pending.append(seg)
    for leaf in root.quad_leaves():
        leaf.time_tree = build_ttree(leaf.pending, capacity, max_leaf_span)
        leaf.pending = []
    return root


def _mbr_gap_lower_bound_m(a: MBR, b: MBR) -> float:
    """A distance no point pair of the two boxes can be closer than."""
    lon_gap = max(0.0, max(a.min_lon, b.min_lon) - min(a.max_lon, b.max_lon))
    lat_gap = max(0.0, max(a.min_lat, b.min_lat) - min(a.max_lat, b.max_lat))
    if lon_gap == 0.0 and lat_gap == 0.0:
        return 0.0
    cos_a = math.cos(math.radians(max(abs(a.min_lat), abs(a.max_lat))))
    cos_b = math.cos(math.radians(max(abs(b.min_lat), abs(b.max_lat))))
    h = math.sin(math.radians(lat_gap) / 2.0) ** 2 + cos_a * cos_b * math.sin(
        math.radians(lon_gap) / 2.0
    ) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def st_filter(qseg: Segment, cand: Segment, params: QueryParams) -> bool:
    """True when the candidate segment is provably out of reach of the query segment."""
    if max(qseg.st, cand.st) - min(qseg.et, cand.et) > params.theta_t:
        return True
    return _mbr_gap_lower_bound_m(qseg.mbr, cand.mbr) > params.theta_d


def irjq(
    query_set: list[Trajectory],
    params: QueryParams,
    backend: StoreBackend,
    cfg: XzConfig,
    seg_cfg: SegmentationConfig | None = None,
    *,
    resolution: int = 15,
    capacity: int = DEFAULT_LEAF_CAPACITY,
    max_leaf_span: int | None = None,
    prune: bool = True,
    counters: dict[str, int] | None = None,
) -> list[tuple[str, str, float]]:
    """Every (query id, stored id, score) pair strictly above the threshold.

    One store lookup per time-tree leaf extracts candidates for all query
    segments in that leaf. Per-pair scores equal the single-query engine's;
    output is sorted by query id, then descending score, then candidate id.
    """
    seg_cfg = seg_cfg or SegmentationConfig()
    if max_leaf_span is None:
        max_leaf_span = cfg.period_seconds

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

    sft = sft_build(all_segments, resolution, capacity, max_leaf_span)

    removed: set[PairKey] = set()
    scores: dict[PairKey, dict[str, float]] = {}  # pair -> query sid -> weighted score
    tally = dict.fromkeys(JOIN_COUNTER_KEYS, 0)

    for quad_leaf in sft.quad_leaves():
        for tt_leaf in quad_leaf.time_tree.leaves():
            candidates = st_query(
                tt_leaf.mbr, tt_leaf.tr, params.theta_d, params.theta_t, backend, cfg
            )
            tally["scan_sets"] += 1
            by_traj: dict[str, list[Segment]] = {}
            for cand in candidates:
                by_traj.setdefault(cand.traj_id, []).append(cand)
            points: dict[str, PointArray] = {}
            for qseg in tt_leaf.entries:
                for traj_id in sorted(by_traj):
                    if traj_id == qseg.traj_id:
                        continue
                    pair = (qseg.traj_id, traj_id)
                    if prune and pair in removed:
                        continue
                    if pair in scores and qseg.sid in scores[pair]:
                        continue
                    if all(st_filter(qseg, c, params) for c in by_traj[traj_id]):
                        continue
                    if traj_id not in points:
                        segs = sorted(by_traj[traj_id], key=lambda s: (s.st, s.sid))
                        points[traj_id] = PointArray.of(
                            [loc for s in segs for loc in s.locations]
                        )
                    w = weights[qseg.sid]
                    irp = segment_ir(qseg, points[traj_id], params) * w
                    if prune and irp < params.theta - 1.0 + w:
                        removed.add(pair)
                        tally["pairs_removed"] += 1
                        continue
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
    max_leaf_span: int | None = None,
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
        max_leaf_span=max_leaf_span,
        prune=False,
        counters=counters,
    )
