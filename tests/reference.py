"""Reference implementations the optimised code is compared against.

The noise gate and the segmentation are the per-pair Python loops the
columnar kernel in ``crowdtrace.model`` replaced. The kernel must make every
decision they make, bit for bit, so the tests compare the two on random and
adversarial inputs.

``sft_leaves`` is the quadtree of time trees the join used to build its scan
sets from. ``crowdtrace.join.sft_build`` must return the same leaves in the
same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from crowdtrace.model import MBR, WORLD, Location, Segment, SegmentationConfig, TimeRange, Trajectory
from crowdtrace.store import encode_segment
from crowdtrace.xz import XzConfig, bin_of, encode_key


def filter_noise(traj: Trajectory, cfg: SegmentationConfig) -> Trajectory:
    """Greedy forward gate: each point is measured from the last kept one."""
    kept = [traj.locations[0]]
    for loc in traj.locations[1:]:
        prev = kept[-1]
        dt = loc.t - prev.t
        dist = prev.distance_m(loc)
        if dt > 0:
            ok = dist / dt <= cfg.max_speed
        else:
            ok = dist == 0.0
        if ok:
            kept.append(loc)
    return Trajectory(traj.id, kept)


def segment(traj: Trajectory, cfg: SegmentationConfig, max_span: int | None = None) -> list[Segment]:
    """Greedy stay-point segmentation: a point joins the open segment when it
    is within ``t_seg`` (and ``max_span``) of its first point and within
    ``d_seg`` of every point in it."""
    locs = traj.locations
    runs: list[tuple[Location, ...]] = []
    start = 0
    for i in range(1, len(locs)):
        cand = locs[i]
        gap = cand.t - locs[start].t
        ok = gap <= cfg.t_seg and (max_span is None or gap <= max_span)
        if ok:
            for j in range(start, i):
                if locs[j].distance_m(cand) > cfg.d_seg:
                    ok = False
                    break
        if not ok:
            runs.append(locs[start:i])
            start = i
    runs.append(locs[start:])
    return [Segment.build(f"{traj.id}#{k}", traj.id, run) for k, run in enumerate(runs)]


def storage_segments(traj: Trajectory, xz_cfg: XzConfig, seg_cfg: SegmentationConfig) -> list[Segment]:
    """Filter, segment at most one period long, then split at period boundaries."""
    filtered = filter_noise(traj, seg_cfg)
    runs: list[list[Location]] = []
    for seg in segment(filtered, seg_cfg, max_span=xz_cfg.period_seconds):
        current: list[Location] = []
        current_bin = None
        for loc in seg.locations:
            b = bin_of(loc.t, xz_cfg)
            if current and b != current_bin:
                runs.append(current)
                current = []
            current.append(loc)
            current_bin = b
        runs.append(current)
    return [Segment.build(f"{traj.id}#{k}", traj.id, run) for k, run in enumerate(runs)]


def frames(trajectories, xz_cfg: XzConfig, seg_cfg: SegmentationConfig) -> list[tuple[bytes, bytes]]:
    """The (key, value) puts of an ingest, in order, through the reference loops."""
    return [
        (encode_key(seg, xz_cfg).packed(), encode_segment(seg))
        for traj in trajectories
        if traj.locations[0].t >= xz_cfg.epoch
        for seg in storage_segments(traj, xz_cfg, seg_cfg)
    ]


@dataclass
class SftQuadNode:
    """Quadtree node over the world; occupied max-depth cells hold segments."""

    cell: MBR
    depth: int
    children: dict[int, "SftQuadNode"] = field(default_factory=dict)
    entries: list[Segment] = field(default_factory=list)

    def quad_leaves(self):
        if self.entries:
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


def ttree_leaves(segments: list[Segment], capacity: int, max_leaf_span: int) -> list[list[Segment]]:
    """Leaves of a time tree: insert in start-time order, merge overlapping
    ranges, split at the median when a leaf exceeds the capacity or span."""
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
    return leaves


def sft_leaves(
    segments: list[Segment], resolution: int, capacity: int, max_leaf_span: int
) -> list[tuple[TimeRange, MBR, list[Segment]]]:
    """Descend a quadtree by each box's min corner, then read every occupied
    cell's time-tree leaves in visit order, with their envelopes."""
    root = SftQuadNode(cell=WORLD, depth=0)
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
        node.entries.append(seg)
    out = []
    for quad_leaf in root.quad_leaves():
        for group in ttree_leaves(quad_leaf.entries, capacity, max_leaf_span):
            tr = TimeRange(min(s.st for s in group), max(s.et for s in group))
            box = group[0].mbr
            for s in group[1:]:
                box = box.union(s.mbr)
            out.append((tr, box, group))
    return out
