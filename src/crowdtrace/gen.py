"""Deterministic synthetic GPS workloads with planted ground-truth contacts.

One seed drives everything through numpy's splittable SeedSequence: stream i
feeds trajectory i, and the last stream makes the global choices (who is a
contact, shadow windows). Trajectory 0 is the designated patient; a chosen
fraction of the others shadow it point by point inside a configured
spatio-temporal reach, so they are contacts by construction and are listed
in a labels sidecar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .model import EARTH_RADIUS_M, MBR, Location, TimeRange, Trajectory

_M_PER_DEG_LAT = math.pi * EARTH_RADIUS_M / 180.0


@dataclass(frozen=True, slots=True)
class GenConfig:
    """Workload shape. Identical configs produce byte-identical output."""

    seed: int = 0
    n_traj: int = 500
    points_min: int = 10
    points_max: int = 28
    region: MBR = field(default_factory=lambda: MBR(116.380, 39.900, 116.400, 39.918))
    time_span: TimeRange = field(default_factory=lambda: TimeRange(1_600_000_000, 1_600_021_600))
    step_sigma_m: float = 40.0
    dwell_prob: float = 0.5
    dt_min: int = 30
    dt_max: int = 90
    contact_fraction: float = 0.0
    contact_dist: float = 50.0
    contact_dt: float = 120.0

    def __post_init__(self) -> None:
        if self.n_traj < 1:
            raise ValueError("n_traj must be at least 1")
        if not 0 <= self.points_min <= self.points_max:
            raise ValueError("invalid points range")
        if not 0.0 <= self.contact_fraction <= 1.0:
            raise ValueError("contact_fraction must be in [0,1]")
        if not (0.0 <= self.contact_dist < math.inf and 0.0 <= self.contact_dt < math.inf):
            raise ValueError(f"contact_dist and contact_dt must be finite and at least 0: "
                             f"{self.contact_dist}, {self.contact_dt}")
        if not 0.0 <= self.dwell_prob <= 1.0:
            raise ValueError(f"dwell_prob must be in [0,1]: {self.dwell_prob}")


def _traj_id(i: int) -> str:
    return f"t{i:05d}"


def _walk(rng: np.random.Generator, cfg: GenConfig) -> list[Location]:
    n = int(rng.integers(cfg.points_min, cfg.points_max + 1))
    lon = float(rng.uniform(cfg.region.min_lon, cfg.region.max_lon))
    lat = float(rng.uniform(cfg.region.min_lat, cfg.region.max_lat))
    span = cfg.time_span.end - cfg.time_span.start
    walk_len = n * cfg.dt_max
    t = cfg.time_span.start + int(rng.integers(0, max(1, span - walk_len)))

    out = []
    for k in range(n):
        out.append(Location(lon=lon, lat=lat, t=t))
        if k == n - 1:
            break
        t += int(rng.integers(cfg.dt_min, cfg.dt_max + 1))
        if rng.random() >= cfg.dwell_prob:
            m_per_deg_lon = _M_PER_DEG_LAT * math.cos(math.radians(lat))
            lon += float(rng.normal(0.0, cfg.step_sigma_m)) / m_per_deg_lon
            lat += float(rng.normal(0.0, cfg.step_sigma_m)) / _M_PER_DEG_LAT
            lon = min(max(lon, cfg.region.min_lon), cfg.region.max_lon)
            lat = min(max(lat, cfg.region.min_lat), cfg.region.max_lat)
    return out


def _shadow(rng: np.random.Generator, patient: list[Location], cfg: GenConfig) -> list[Location]:
    """Copy the patient's points with jitter well inside the contact reach."""
    out = []
    for loc in patient:
        radius = float(rng.uniform(0.0, 0.4 * cfg.contact_dist))
        bearing = float(rng.uniform(0.0, 2.0 * math.pi))
        m_per_deg_lon = _M_PER_DEG_LAT * math.cos(math.radians(loc.lat))
        lon = loc.lon + radius * math.cos(bearing) / m_per_deg_lon
        lat = loc.lat + radius * math.sin(bearing) / _M_PER_DEG_LAT
        jitter = int(rng.integers(-int(0.4 * cfg.contact_dt), int(0.4 * cfg.contact_dt) + 1))
        out.append(Location(lon=lon, lat=lat, t=max(0, loc.t + jitter)))
    out.sort(key=lambda l: l.t)
    return out


def generate(cfg: GenConfig) -> tuple[list[Trajectory], list[str]]:
    """Build the workload; returns (trajectories, ids of planted contacts)."""
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.n_traj + 1)
    choice_rng = np.random.Generator(np.random.PCG64(streams[cfg.n_traj]))

    n_contacts = int(round(cfg.contact_fraction * (cfg.n_traj - 1)))
    contacts = set()
    if n_contacts > 0:
        picked = choice_rng.choice(np.arange(1, cfg.n_traj), size=n_contacts, replace=False)
        contacts = {int(i) for i in picked}

    patient_rng = np.random.Generator(np.random.PCG64(streams[0]))
    patient_points = _walk(patient_rng, cfg)
    trajectories = [Trajectory(_traj_id(0), patient_points)]
    labels = []
    for i in range(1, cfg.n_traj):
        rng = np.random.Generator(np.random.PCG64(streams[i]))
        if i in contacts:
            points = _shadow(rng, patient_points, cfg)
            labels.append(_traj_id(i))
        else:
            points = _walk(rng, cfg)
        trajectories.append(Trajectory(_traj_id(i), points))
    return trajectories, sorted(labels)


def write_labels(labels: list[str], dest: str | TextIO) -> None:
    """One contact id per line; empty when no contacts were planted."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as fh:
            write_labels(labels, fh)
            return
    for label in labels:
        dest.write(label + "\n")
