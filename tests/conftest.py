import math
import random
import struct
from dataclasses import dataclass

import pytest

from crowdtrace import (
    FileBackend,
    GenConfig,
    Location,
    MemoryBackend,
    SegmentationConfig,
    Trajectory,
    XzConfig,
    generate,
    ingest,
)

_opened: list[FileBackend] = []  # by open_backend, closed when the test ends


@pytest.fixture(autouse=True)
def _close_opened_backends():
    yield
    while _opened:
        _opened.pop().close()


def open_backend(kind: str, tmp_path):
    """A ``MemoryBackend``, or for ``kind`` "file" a ``FileBackend`` on
    ``segments.log`` in ``tmp_path``, closed when the test ends."""
    if kind == "memory":
        return MemoryBackend()
    backend = FileBackend(str(tmp_path / "segments.log"))
    _opened.append(backend)
    return backend


# degrees of longitude/latitude per meter near the default test latitude (39.9N)
M_PER_DEG_LAT = math.pi * 6_371_008.8 / 180.0


def deg_lon(meters: float, lat: float = 39.9) -> float:
    return meters / (M_PER_DEG_LAT * math.cos(math.radians(lat)))


def deg_lat(meters: float) -> float:
    return meters / M_PER_DEG_LAT


def loc(east_m: float = 0.0, north_m: float = 0.0, t: int = 0,
        lon0: float = 116.39, lat0: float = 39.9) -> Location:
    """A location offset east/north in meters from a fixed anchor point."""
    return Location(lon=lon0 + deg_lon(east_m, lat0), lat=lat0 + deg_lat(north_m), t=t)


def random_trajectory(rng: random.Random, traj_id: str, n_max: int = 30,
                      spread_m: float = 400.0, t0: int = 1_600_000_000,
                      t_spread: int = 1200) -> Trajectory:
    n = rng.randint(1, n_max)
    ts = sorted(rng.randrange(t0, t0 + t_spread) for _ in range(n))
    return Trajectory(
        traj_id,
        [
            loc(rng.uniform(-spread_m, spread_m), rng.uniform(-spread_m, spread_m), t)
            for t in ts
        ],
    )


def log_frames(path) -> list[tuple[bytes, bytes]]:
    """(key, value) of every frame of a segment log file, in file order."""
    data = path.read_bytes()
    assert data.startswith(b"CTLOG1\n")
    pos, out = 7, []
    while pos < len(data):
        key_len, val_len = struct.unpack_from("<II", data, pos)
        pos += 8
        out.append((data[pos : pos + key_len], data[pos + key_len : pos + key_len + val_len]))
        pos += key_len + val_len
    return out


@pytest.fixture
def seg_cfg() -> SegmentationConfig:
    return SegmentationConfig()


@dataclass
class Workload:
    """A generated population ingested into a fresh in-memory store."""

    trajectories: list[Trajectory]
    labels: list[str]
    backend: MemoryBackend
    xz_cfg: XzConfig
    seg_cfg: SegmentationConfig

    @property
    def patient(self) -> Trajectory:
        return self.trajectories[0]

    def others(self, q: Trajectory) -> list[Trajectory]:
        return [t for t in self.trajectories if t.id != q.id]


def build_workload(seed: int, n_traj: int = 500, points_min: int = 10, points_max: int = 28,
                   contact_fraction: float = 0.1, dwell_prob: float = 0.5,
                   start: int | None = None, xz_cfg: XzConfig | None = None) -> Workload:
    from crowdtrace.model import TimeRange

    gen_kwargs = dict(
        seed=seed,
        n_traj=n_traj,
        points_min=points_min,
        points_max=points_max,
        contact_fraction=contact_fraction,
        dwell_prob=dwell_prob,
    )
    if start is not None:
        gen_kwargs["time_span"] = TimeRange(start, start + 21_600)
    trajectories, labels = generate(GenConfig(**gen_kwargs))
    xz_cfg = xz_cfg or XzConfig()
    seg_cfg = SegmentationConfig()
    backend = MemoryBackend()
    ingest(trajectories, xz_cfg, seg_cfg, backend)
    return Workload(trajectories, labels, backend, xz_cfg, seg_cfg)
