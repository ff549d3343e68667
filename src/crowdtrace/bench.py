"""Desk-scale benchmark sweeps over the engine's tuning parameters.

Each suite sweeps one parameter across pruned and unpruned engine variants on
a seeded synthetic workload and reports the median wall time of 5 repetitions
plus the result count, as tidy rows ready for CSV. ``resolution`` is the
store's index resolution and ``data_size`` its trajectory count, so those two
build one workload per value; the others share one.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace
from typing import Callable

from .gen import GenConfig, generate
from .join import irjq
from .metric import QueryParams
from .model import SegmentationConfig, Trajectory
from .query import irq
from .store import MemoryBackend, SortedIndex, ingest
from .xz import XzConfig

SUITES = ("lambda", "theta", "theta_d", "theta_t", "resolution", "query_size", "data_size")

SWEEP_VALUES: dict[str, list] = {
    "lambda": [0.0, 0.25, 0.5, 0.75, 1.0],
    "theta": [0.3, 0.4, 0.5, 0.6, 0.7],
    "theta_d": [25.0, 50.0, 100.0, 200.0],
    "theta_t": [60, 120, 240, 480],
    "resolution": [12, 15, 18],
    "query_size": [2, 5, 10, 20],
    "data_size": [400, 800, 1600],
}


@dataclass
class BenchWorkload:
    """A seeded store plus the query trajectories drawn from it."""

    trajectories: list[Trajectory]
    backend: SortedIndex
    xz_cfg: XzConfig
    seg_cfg: SegmentationConfig
    query_set: list[Trajectory]

    @property
    def query(self) -> Trajectory:
        return self.query_set[0]


def build_workload(
    n_traj: int = 1200,
    seed: int = 7,
    query_size: int = 10,
    contact_fraction: float = 0.05,
    dwell_prob: float = 0.5,
    points_min: int = 10,
    points_max: int = 28,
    xz_cfg: XzConfig | None = None,
    seg_cfg: SegmentationConfig | None = None,
) -> BenchWorkload:
    cfg = GenConfig(
        seed=seed,
        n_traj=n_traj,
        contact_fraction=contact_fraction,
        dwell_prob=dwell_prob,
        points_min=points_min,
        points_max=points_max,
    )
    trajectories, _ = generate(cfg)
    xz_cfg = xz_cfg or XzConfig()
    seg_cfg = seg_cfg or SegmentationConfig()
    backend = MemoryBackend()
    ingest(trajectories, xz_cfg, seg_cfg, backend)
    return BenchWorkload(
        trajectories=trajectories,
        backend=backend,
        xz_cfg=xz_cfg,
        seg_cfg=seg_cfg,
        query_set=trajectories[:query_size],
    )


def median_ms(fn: Callable[[], object], repeats: int = 5) -> tuple[float, object]:
    """Median wall time of ``repeats`` calls, in milliseconds, plus one result."""
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times), result


def _algos(workload: BenchWorkload, params: QueryParams):
    """Each engine with every pruning rule, and with none (``_up``)."""
    w = workload
    return {
        "irq": lambda: [irq(q, params, w.backend, w.xz_cfg, w.seg_cfg) for q in w.query_set],
        "irq_up": lambda: [irq(q, params, w.backend, w.xz_cfg, w.seg_cfg, lemmas=()) for q in w.query_set],
        "irjq": lambda: irjq(w.query_set, params, w.backend, w.xz_cfg, w.seg_cfg),
        "irjq_up": lambda: irjq(w.query_set, params, w.backend, w.xz_cfg, w.seg_cfg, lemmas=()),
    }


def _count(result: object) -> int:
    if isinstance(result, list) and result and isinstance(result[0], list):
        return sum(len(r) for r in result)
    return len(result)  # type: ignore[arg-type]


def run_suite(
    suite: str,
    workload: BenchWorkload | None = None,
    repeats: int = 5,
    n_traj: int = 1200,
    seed: int = 7,
    query_size: int = 10,
) -> list[dict]:
    """Rows of sweep_param,value,algo,median_ms,result_count for one suite."""
    if suite not in SUITES:
        raise ValueError(f"unknown bench suite {suite!r}; choose from {', '.join(SUITES)}")

    base = workload
    rows = []
    for value in SWEEP_VALUES[suite]:
        if base is None and suite not in ("data_size", "resolution"):
            base = build_workload(n_traj=n_traj, seed=seed, query_size=query_size)
        params = QueryParams()
        w = base
        if suite == "lambda":
            params = QueryParams(lam=value)
        elif suite == "theta":
            params = QueryParams(theta=value)
        elif suite == "theta_d":
            params = QueryParams(theta_d=value)
        elif suite == "theta_t":
            params = QueryParams(theta_t=value)
        elif suite == "resolution":
            w = build_workload(n_traj=n_traj, seed=seed, query_size=query_size, xz_cfg=XzConfig(resolution=value))
        elif suite == "query_size":
            w = replace(base, query_set=base.trajectories[:value])
        elif suite == "data_size":
            w = build_workload(n_traj=value, seed=seed, query_size=query_size)

        for name, fn in _algos(w, params).items():
            ms, result = median_ms(fn, repeats)
            rows.append(
                {
                    "sweep_param": suite,
                    "value": value,
                    "algo": name,
                    "median_ms": round(ms, 3),
                    "result_count": _count(result),
                }
            )
    return rows
