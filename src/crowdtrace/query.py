"""Single-trajectory contact query: candidate extraction plus pruned scoring.

The query is cut into segments by one pass of the columnar kernel over its
own points (``query_segments``), as ingest cuts stored tracks. Candidates are
the stored trajectories the query segments' expanded windows retrieve, each
record read once per query into columns. ``rank`` then walks the query
segments in order, each scored in one bounded matrix pass against every live
candidate it retrieved (``segment_irs``), the query's own stored copy left
out. Four pruning rules, applied as masks over the candidates, drop those
that provably cannot reach the threshold:

1. the dwell weight of the query segments a candidate touches is already
   below the threshold;
2. one segment's weighted score falls below what the threshold requires even
   if every other segment scored perfectly;
3. like 2, but crediting only the touched segments instead of all of them;
4. like 3, but crediting segments already scored with their actual scores.

Scores are identical with pruning on or off; only the work differs. The batch
join (``join``) ranks each of its queries with the same ``rank``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Sequence

import numpy as np

# filter_noise, segment, segment_ir and st_query stay bound here: perfbench's tracer wraps them in this module
from .metric import PointArray, QueryParams, segment_ir, segment_irs
from .model import MBR, Segment, SegmentationConfig, TimeRange, Tracks, Trajectory, cut, filter_noise, segment
from .store import Retrieved, SortedIndex, st_query, st_read
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


def query_segments(
    queries: Sequence[Trajectory], seg_cfg: SegmentationConfig
) -> list[tuple[list[QuerySegment], list[float]]]:
    """For each query, the segments ``segment(filter_noise(q))`` gives, from
    one pass of the kernel over the columns of all of them, and the dwell
    weight of each: its share ``(et - st + 1) / total`` of their spans, as
    ``span_weight`` takes it."""
    if not queries:
        return []
    c = cut(Tracks.of(queries), seg_cfg, noise_gate=True)
    lon, lat, t = c.tracks.lon, c.tracks.lat, c.tracks.t
    sts, ets = t[c.starts].tolist(), t[c.ends - 1].tolist()
    out: list[tuple[list[QuerySegment], list[float]]] = [([], []) for _ in queries]
    for *box, st, et, a, b, k in zip(*(x.tolist() for x in c.boxes), sts, ets, c.starts.tolist(), c.ends.tolist(),
                                      c.owners.tolist()):
        out[k][0].append(QuerySegment(MBR(*box), st, et,
                                      PointArray(lon[a:b], np.radians(lat[a:b]), t[a:b].astype(np.float64))))
        out[k][1].append(et - st + 1)
    for _, spans in out:
        total = sum(spans)
        spans[:] = [span / total for span in spans]
    return out


def extract_candidates(
    q_segments: Sequence[Segment | QuerySegment], params: QueryParams, backend: SortedIndex, cfg: XzConfig
) -> Retrieved:
    """The stored trajectories the query segments' windows retrieve, each
    record read once (``st_read``); ``touches[i, c]`` says query segment
    ``i`` retrieved candidate ``c``, the relation the pruning rules need.
    The join reads the segments of a whole chunk of queries through it."""
    windows = [(s.mbr, TimeRange(s.st, s.et)) for s in q_segments]
    return st_read(windows, params.theta_d, params.theta_t, backend, cfg)


def rank(
    qid: str,
    q_segments: Sequence[QuerySegment],
    weights: Sequence[float],
    found: Retrieved,
    points: PointArray,
    touches: np.ndarray,
    params: QueryParams,
    lemmas: frozenset[int],
    tally: dict[str, int],
) -> list[tuple[str, float]]:
    """Score one query's segments, in order, against the candidates of
    ``found`` that its rows ``touches`` reach, its own stored copy ``qid``
    left out. ``points`` holds ``found.points`` as columns. The rules in
    ``lemmas`` prune as masks; a total is summed in query-segment order from
    0.0. Adds the ``COUNTER_KEYS`` counts to ``tally`` and returns the
    (traj_id, score) pairs above the threshold, by descending score then id."""
    cols = np.flatnonzero(touches.any(axis=0))
    own = bisect_left(found.traj_ids, qid)  # the ids are in order
    if own < len(found) and found.traj_ids[own] == qid:
        cols = cols[cols != own]
    touches, starts, ends = touches[:, cols], found.runs[cols], found.runs[cols + 1]

    sum_weight = np.zeros(len(cols))
    for w, touch in zip(weights, touches):  # in query-segment order
        sum_weight[touch] += w
    pruned_by = np.zeros(len(cols), np.int8)  # 0 while a candidate is live
    if 1 in lemmas:
        pruned_by[sum_weight < params.theta] = 1
    rem_weight, total_ir = sum_weight.copy(), np.zeros(len(cols))
    for qseg, w, touch in zip(q_segments, weights, touches):
        scored = np.flatnonzero(touch & (pruned_by == 0))
        irp = np.zeros(len(cols))
        irp[scored] = segment_irs(qseg.points, points, starts[scored], ends[scored], params) * w
        if 2 in lemmas:
            pruned_by[(pruned_by == 0) & (irp < params.theta - 1.0 + w)] = 2
        if 3 in lemmas:
            pruned_by[(pruned_by == 0) & touch & (irp < params.theta - (sum_weight - w))] = 3
        rem_weight[(pruned_by == 0) & touch] -= w
        if 4 in lemmas:
            pruned_by[(pruned_by == 0) & (irp < params.theta - total_ir - rem_weight)] = 4
        total_ir[pruned_by == 0] += irp[pruned_by == 0]

    live = np.flatnonzero(pruned_by == 0)
    counts = [len(cols), live.size, *(np.count_nonzero(pruned_by == rule) for rule in range(1, 5))]
    for key, n in zip(COUNTER_KEYS, counts):
        tally[key] = tally.get(key, 0) + int(n)
    totals = np.minimum(1.0, total_ir[live]).tolist()  # guard float drift above the bound of 1
    results = [(found.traj_ids[c], total) for c, total in zip(cols[live].tolist(), totals) if total > params.theta]
    results.sort(key=lambda r: (-r[1], r[0]))
    return results


def irq(
    q: Trajectory,
    params: QueryParams,
    backend: SortedIndex,
    cfg: XzConfig,
    seg_cfg: SegmentationConfig | None = None,
    *,
    lemmas: frozenset[int] | tuple[int, ...] = ALL_LEMMAS,
    counters: dict[str, int] | None = None,
) -> list[tuple[str, float]]:
    """All stored trajectories scoring strictly above the threshold against ``q``.

    Returns (traj_id, score) sorted by descending score then ascending id.
    ``lemmas`` selects which pruning rules run, ``()`` none of them: the
    results are the same, the work more. ``counters``, when given, is filled
    with per-rule prune counts.
    """
    [(q_segments, weights)] = query_segments([q], seg_cfg or SegmentationConfig())
    found = extract_candidates(q_segments, params, backend, cfg)
    return rank(q.id, q_segments, weights, found, PointArray.of(found.points), found.touches, params,
                frozenset(lemmas), {} if counters is None else counters)

