"""Infection-rate metric between a query trajectory and candidate point sets.

A location only influences points inside its reach: within ``theta_d`` meters
and ``theta_t`` seconds. Inside that reach, closeness decays exponentially in
both dimensions, blended by ``lam``. A query segment scores the mean best
closeness of its points, and a whole query trajectory scores the sum of its
segment scores weighted by each segment's share of total dwell time.

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
        if self.theta_d <= 0 or self.theta_t <= 0:
            raise ValueError("theta_d and theta_t must be strictly positive")


class PointArray:
    """Column layout of a location list for vectorized scoring."""

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
    dist = _pairwise_dist_m(seg_pts, cand_pts)
    dt = np.abs(seg_pts.t[:, None] - cand_pts.t[None, :])
    score = params.lam * np.exp(-dist / params.theta_d) + (1.0 - params.lam) * np.exp(
        -dt / params.theta_t
    )
    # Scores are strictly positive, so 0 stands in for "out of reach".
    inside = (dist <= params.theta_d) & (dt <= params.theta_t)
    return np.max(np.where(inside, score, 0.0), axis=1)


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
