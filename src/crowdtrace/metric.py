"""Infection-rate metric between a query trajectory and candidate point sets.

A location only influences points inside its reach: within ``theta_d`` meters
and ``theta_t`` seconds. Inside that reach, closeness decays exponentially in
both dimensions, blended by ``lam``. A query segment scores the mean best
closeness of its points, and a whole query trajectory scores the sum of its
segment scores weighted by each segment's share of total dwell time.

``segment_ir`` scores one segment against one candidate set over the dense
matrix of point pairs. ``segment_irs``, which the query engines call, scores
it against many candidate runs at once, bit for bit equal: it computes
distance and score only on the pairs within ``theta_t``, since every other
pair scores 0.

``exhaustive_irq`` evaluates the metric over full location lists with no
index and no pruning; the query engines are tested against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import (
    EARTH_RADIUS_M,
    Location,
    SegmentationConfig,
    Segment,
    Trajectory,
    filter_noise,
    filter_noise_batch,
    segment,
)


@dataclass(frozen=True, slots=True)
class QueryParams:
    """Tuning bundle for every metric evaluation.

    lam      weight of the spatial term vs the temporal term, in [0, 1]
    theta    result threshold, in [0, 1]; results must score strictly above it
    theta_d  spatial reach in meters
    theta_t  temporal reach in seconds
    """

    lam: float = 0.5
    theta: float = 0.5
    theta_d: float = 50.0
    theta_t: float = 120.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must be in [0,1]: {self.lam}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [0,1]: {self.theta}")
        if not (0.0 < self.theta_d < math.inf and 0.0 < self.theta_t < math.inf):
            raise ValueError(f"theta_d and theta_t must be finite and above 0: {self.theta_d}, {self.theta_t}")


class PointArray:
    """Points as float64 columns for vectorized scoring: longitude in degrees,
    latitude in radians with its cosine, and time. Built from a location list,
    from the ``lon``/``lat``/``t`` rows ``store.st_read`` gathers, or from a
    query segment's slice of its trajectory's columns (``query.irq``)."""

    __slots__ = ("lon_deg", "lat_rad", "cos_lat", "t", "size")

    def __init__(self, lon_deg: np.ndarray, lat_rad: np.ndarray, t: np.ndarray):
        self.lon_deg = lon_deg
        self.lat_rad = lat_rad
        self.cos_lat = np.cos(lat_rad)
        self.t = t
        self.size = len(t)

    @classmethod
    def of(cls, locations: Sequence[Location] | "PointArray") -> "PointArray":
        if isinstance(locations, PointArray):
            return locations
        if isinstance(locations, np.ndarray):
            return cls(locations["lon"], np.radians(locations["lat"]), locations["t"].astype(np.float64))
        lon = np.array([l.lon for l in locations], dtype=np.float64)
        lat = np.radians(np.array([l.lat for l in locations], dtype=np.float64))
        t = np.array([l.t for l in locations], dtype=np.float64)
        return cls(lon, lat, t)


def _pairwise_dist_m(a: PointArray, b: PointArray) -> np.ndarray:
    """Haversine distance matrix (len(a) x len(b)) in meters.

    Longitudes are differenced in degrees before conversion, mirroring the
    scalar ``haversine_m`` operation for operation.
    """
    dphi = b.lat_rad[None, :] - a.lat_rad[:, None]
    dlam = np.radians(b.lon_deg[None, :] - a.lon_deg[:, None])
    h = (
        np.sin(dphi / 2.0) ** 2
        + a.cos_lat[:, None] * b.cos_lat[None, :] * np.sin(dlam / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def st_dist(l: Location, v: Location, params: QueryParams) -> float:
    """Blended spatio-temporal closeness of two locations, in [0, 1]."""
    d = l.distance_m(v)
    dt = abs(l.t - v.t)
    return params.lam * math.exp(-d / params.theta_d) + (1.0 - params.lam) * math.exp(
        -dt / params.theta_t
    )


def st_cor(l: Location, candidates: Iterable[Location], params: QueryParams) -> float:
    """Best closeness of ``l`` to any candidate inside its reach; 0 if none."""
    best = 0.0
    for v in candidates:
        if abs(l.t - v.t) <= params.theta_t and l.distance_m(v) <= params.theta_d:
            best = max(best, st_dist(l, v, params))
    return best


def _st_cor_rows(seg_pts: PointArray, cand_pts: PointArray, params: QueryParams) -> np.ndarray:
    """st_cor of every segment location against a candidate point set."""
    if cand_pts.size == 0:
        return np.zeros(seg_pts.size)
    return np.max(_closeness(seg_pts, cand_pts, params), axis=1)


def _closeness(seg_pts: PointArray, cand_pts: PointArray, params: QueryParams) -> np.ndarray:
    """st_dist of every (segment point, candidate point) pair in reach, else 0."""
    dist = _pairwise_dist_m(seg_pts, cand_pts)
    dt = np.abs(seg_pts.t[:, None] - cand_pts.t[None, :])
    score = params.lam * np.exp(-dist / params.theta_d) + (1.0 - params.lam) * np.exp(
        -dt / params.theta_t
    )
    # Scores are strictly positive, so 0 stands in for "out of reach".
    inside = (dist <= params.theta_d) & (dt <= params.theta_t)
    return np.where(inside, score, 0.0)


def span_weight(seg: Segment, segments: Sequence[Segment]) -> float:
    """Dwell-time share of one segment among its trajectory's segments.

    Spans count ``et - st + 1`` seconds so instantaneous segments still carry
    weight; the weights of a trajectory's segments sum to 1.
    """
    total = sum(s.et - s.st + 1 for s in segments)
    return (seg.et - seg.st + 1) / total


def segment_ir(
    seg: Segment, candidates: Sequence[Location] | PointArray, params: QueryParams
) -> float:
    """Mean best closeness of a segment's points to the candidate set."""
    seg_pts = PointArray.of(seg.locations)
    cand_pts = PointArray.of(candidates)
    rows = _st_cor_rows(seg_pts, cand_pts, params)
    return float(np.sum(rows) / seg_pts.size)


SCORE_CELLS = 16_384  # matrix cells one block of segment_irs holds, unless one run alone is larger


def _near_closeness(
    seg_pts: PointArray, pts: PointArray, at: np.ndarray, near: np.ndarray, dt: np.ndarray,
    params: QueryParams,
) -> np.ndarray:
    """``_closeness`` of the cells ``near`` (flat indices into the matrix of
    ``seg_pts`` against ``pts[at]``), whose time gaps ``dt`` are within
    ``theta_t``. The same ufuncs run on the same operands in the same order
    as in ``_pairwise_dist_m`` and ``_closeness``, so each value is the
    dense matrix's, bit for bit."""
    rows = near // at.size
    cols = at[near - rows * at.size]
    dphi = pts.lat_rad[cols] - seg_pts.lat_rad[rows]
    dlam = np.radians(pts.lon_deg[cols] - seg_pts.lon_deg[rows])
    h = (
        np.sin(dphi / 2.0) ** 2
        + seg_pts.cos_lat[rows] * pts.cos_lat[cols] * np.sin(dlam / 2.0) ** 2
    )
    dist = 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))
    score = params.lam * np.exp(-dist / params.theta_d) + (1.0 - params.lam) * np.exp(
        -dt / params.theta_t
    )
    return np.where(dist <= params.theta_d, score, 0.0)


def segment_irs(
    seg_pts: PointArray, pts: PointArray, starts: np.ndarray, ends: np.ndarray, params: QueryParams
) -> np.ndarray:
    """``segment_ir`` of one segment's points against each run
    ``pts[starts[i]:ends[i]]``, bit for bit. Whole runs are gathered into
    blocks of at most ``SCORE_CELLS`` (segment point, run point) cells. A
    block takes the time gap of every cell, but computes distance and score
    only on the cells within ``theta_t`` (``_near_closeness``) and leaves the
    others 0, as ``_closeness`` does. Each run's row maxima are taken by
    ``np.maximum.reduceat`` and summed along the last axis of a contiguous
    (runs x segment points) array, as ``np.sum`` sums one row. An empty run
    scores 0."""
    out = np.zeros(len(starts))
    live = np.flatnonzero(ends > starts)
    lens = ends[live] - starts[live]
    stops = np.cumsum(lens)
    firsts = stops - lens  # where each run begins among the gathered points
    gather = np.arange(stops[-1] if lens.size else 0) + np.repeat(starts[live] - firsts, lens)
    cap = SCORE_CELLS // seg_pts.size
    i = 0
    while i < lens.size:
        j = max(i + 1, int(np.searchsorted(stops, firsts[i] + cap, side="right")))
        at = gather[firsts[i] : stops[j - 1]]
        dt = np.abs(seg_pts.t[:, None] - pts.t[at][None, :]).ravel()
        near = np.flatnonzero(dt <= params.theta_t)
        block = np.zeros(dt.size)
        block[near] = _near_closeness(seg_pts, pts, at, near, dt[near], params)
        best = np.maximum.reduceat(block.reshape(seg_pts.size, at.size), firsts[i:j] - firsts[i], axis=1)
        out[live[i:j]] = np.ascontiguousarray(best.T).sum(axis=1) / seg_pts.size
        i = j
    return out


def trajectory_ir(
    q_segments: Sequence[Segment],
    candidates: Sequence[Location] | PointArray,
    params: QueryParams,
) -> float:
    """Dwell-weighted sum of segment scores for a whole query trajectory."""
    cand_pts = PointArray.of(candidates)
    total = 0.0
    for seg in q_segments:
        total += span_weight(seg, q_segments) * segment_ir(seg, cand_pts, params)
    # float drift can land a hair above the mathematical bound of 1
    return min(1.0, total)


def exhaustive_irq(
    q: Trajectory,
    candidates: Iterable[Trajectory],
    params: QueryParams,
    seg_cfg: SegmentationConfig | None = None,
) -> list[tuple[str, float]]:
    """Reference query: score every candidate trajectory, no index, no pruning.

    Applies the same noise filter and segmentation as the storage pipeline,
    then evaluates the metric over each candidate's full location list.
    Returns (traj_id, score) pairs scoring strictly above ``params.theta``,
    sorted by descending score then ascending id.
    """
    cfg = seg_cfg or SegmentationConfig()
    q_segments = segment(filter_noise(q, cfg), cfg)
    results = []
    for cand in filter_noise_batch(list(candidates), cfg):
        ir = trajectory_ir(q_segments, cand.locations, params)
        if ir > params.theta:
            results.append((cand.id, ir))
    results.sort(key=lambda r: (-r[1], r[0]))
    return results
