"""Single-trajectory contact query: candidate extraction plus pruned scoring.

The query is cut into segments by one pass of the columnar kernel over its
own points (``query_segments``), as ingest cuts stored tracks. Candidates are
the stored trajectories the query segments' expanded windows retrieve, each
record read once per query into columns. The query segments are walked in
order, each scored in one bounded matrix pass against every
live candidate it retrieved (``segment_irs``). Four pruning rules, applied
as masks over the candidates, drop those that provably cannot reach the
threshold:

1. the dwell weight of the query segments a candidate touches is already
   below the threshold;
2. one segment's weighted score falls below what the threshold requires even
   if every other segment scored perfectly;
3. like 2, but crediting only the touched segments instead of all of them;
4. like 3, but crediting segments already scored with their actual scores.

Scores are identical with pruning on or off; only the work differs.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

# filter_noise, segment, segment_ir and st_query stay bound here: perfbench's tracer wraps them in this module
from .metric import PointArray, QueryParams, segment_ir, segment_irs
from .model import MBR, Segment, SegmentationConfig, TimeRange, Tracks, Trajectory, cut, filter_noise, segment
from .store import Retrieved, StoreBackend, st_query, st_read
from .xz import XzConfig

ALL_LEMMAS = frozenset({1, 2, 3, 4})

COUNTER_KEYS = ("candidates", "evaluated", "lemma1", "lemma2", "lemma3", "lemma4")


class QuerySegment(NamedTuple):
    """A segment of a query trajectory, cut from its columns: its box, first
    and last time, and points."""

    mbr: MBR
    st: int
    et: int
    points: PointArray


def query_segments(q: Trajectory, seg_cfg: SegmentationConfig) -> tuple[list[QuerySegment], list[float]]:
    """The segments ``segment(filter_noise(q))`` gives, from one pass of the
    kernel over ``q``'s columns, and the dwell weight of each: its share
    ``(et - st + 1) / total`` of their spans, as ``span_weight`` takes it."""
    c = cut(Tracks.of([q]), seg_cfg, noise_gate=True)
    lon, lat, t = c.tracks.lon, c.tracks.lat, c.tracks.t
    starts, ends = c.starts.tolist(), c.ends.tolist()
    sts, ets = t[c.starts].tolist(), t[c.ends - 1].tolist()
    spans = [et - st + 1 for st, et in zip(sts, ets)]
    total = sum(spans)
    segs = [QuerySegment(MBR(*box), st, et, PointArray(lon[a:b], np.radians(lat[a:b]), t[a:b].astype(np.float64)))
            for *box, st, et, a, b in zip(*(x.tolist() for x in c.boxes), sts, ets, starts, ends)]
    return segs, [span / total for span in spans]


def extract_candidates(
    q_segments: Sequence[Segment | QuerySegment],
    params: QueryParams,
    backend: StoreBackend,
    cfg: XzConfig,
    exclude_id: str | None = None,
) -> Retrieved:
    """The stored trajectories the query segments' windows retrieve, each
    record read once (``st_read``); ``touches[i, c]`` says query segment
    ``i`` retrieved candidate ``c``, the relation the pruning rules need.
    The query's own stored copy is excluded by id."""
    windows = [(s.mbr, TimeRange(s.st, s.et)) for s in q_segments]
    return st_read(windows, params.theta_d, params.theta_t, backend, cfg, exclude_id)


def irq(
    q: Trajectory,
    params: QueryParams,
    backend: StoreBackend,
    cfg: XzConfig,
    seg_cfg: SegmentationConfig | None = None,
    *,
    lemmas: frozenset[int] | tuple[int, ...] = ALL_LEMMAS,
    counters: dict[str, int] | None = None,
) -> list[tuple[str, float]]:
    """All stored trajectories scoring strictly above the threshold against ``q``.

    Returns (traj_id, score) sorted by descending score then ascending id.
    ``lemmas`` selects which pruning rules run; ``counters``, when given, is
    filled with per-rule prune counts.
    """
    lemmas = frozenset(lemmas)
    q_segments, weights = query_segments(q, seg_cfg or SegmentationConfig())
    cands = extract_candidates(q_segments, params, backend, cfg, exclude_id=q.id)
    points = PointArray.of(cands.points)

    sum_weight = np.zeros(len(cands))
    for w, touch in zip(weights, cands.touches):  # in query-segment order
        sum_weight[touch] += w
    pruned_by = np.zeros(len(cands), np.int8)  # 0 while a candidate is live
    if 1 in lemmas:
        pruned_by[sum_weight < params.theta] = 1
    rem_weight, total_ir = sum_weight.copy(), np.zeros(len(cands))
    for qseg, w, touch in zip(q_segments, weights, cands.touches):
        scored = np.flatnonzero(touch & (pruned_by == 0))
        irp = np.zeros(len(cands))
        ends = cands.runs[scored + 1]
        irp[scored] = segment_irs(qseg.points, points, cands.runs[scored], ends, params) * w
        if 2 in lemmas:
            pruned_by[(pruned_by == 0) & (irp < params.theta - 1.0 + w)] = 2
        if 3 in lemmas:
            pruned_by[(pruned_by == 0) & touch & (irp < params.theta - (sum_weight - w))] = 3
        rem_weight[(pruned_by == 0) & touch] -= w
        if 4 in lemmas:
            pruned_by[(pruned_by == 0) & (irp < params.theta - total_ir - rem_weight)] = 4
        total_ir[pruned_by == 0] += irp[pruned_by == 0]

    live = np.flatnonzero(pruned_by == 0)
    tally = {"candidates": len(cands), "evaluated": live.size}
    tally.update((f"lemma{rule}", int(np.count_nonzero(pruned_by == rule))) for rule in range(1, 5))
    totals = np.minimum(1.0, total_ir[live]).tolist()  # guard float drift above the bound of 1
    results = [(cands.traj_ids[c], total) for c, total in zip(live.tolist(), totals) if total > params.theta]
    results.sort(key=lambda r: (-r[1], r[0]))
    if counters is not None:
        for key, n in tally.items():
            counters[key] = counters.get(key, 0) + n
    return results


def irq_unpruned(
    q: Trajectory,
    params: QueryParams,
    backend: StoreBackend,
    cfg: XzConfig,
    seg_cfg: SegmentationConfig | None = None,
    *,
    counters: dict[str, int] | None = None,
) -> list[tuple[str, float]]:
    """``irq`` with every pruning rule disabled; same results, more work."""
    return irq(q, params, backend, cfg, seg_cfg, lemmas=frozenset(), counters=counters)
