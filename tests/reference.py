"""Scalar reference implementations of the noise gate and the segmentation.

These are the per-pair Python loops the columnar kernel in
``crowdtrace.model`` replaced. The kernel must make every decision they make,
bit for bit, so the tests compare the two on random and adversarial inputs.
"""

from __future__ import annotations

from crowdtrace.model import Location, Segment, SegmentationConfig, Trajectory
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
