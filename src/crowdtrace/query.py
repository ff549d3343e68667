"""Single-trajectory contact query: candidate extraction plus pruned scoring.

Candidates are pulled from the store once per query segment through the
expanded window of that segment, then scored per trajectory. Four pruning
rules skip candidates that provably cannot reach the threshold:

1. the dwell weight of the query segments a candidate touches is already
   below the threshold;
2. one segment's weighted score falls below what the threshold requires even
   if every other segment scored perfectly;
3. like 2, but crediting only the touched segments instead of all of them;
4. like 3, but crediting segments already scored with their actual scores.

Scores are identical with pruning on or off; only the work differs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metric import PointArray, QueryParams, segment_ir, span_weight
from .model import Location, Segment, SegmentationConfig, TimeRange, Trajectory, filter_noise, segment
from .store import StoreBackend, group_by_trajectory, st_query
from .xz import XzConfig

ALL_LEMMAS = frozenset({1, 2, 3, 4})

COUNTER_KEYS = ("candidates", "evaluated", "lemma1", "lemma2", "lemma3", "lemma4")


@dataclass
class CandidateInfo:
    """A candidate trajectory's retrieved points and the query segments that hit it."""

    traj_id: str
    locations: list[Location]
    points: PointArray
    intersecting_sids: set[str]


@dataclass
class CandidateState:
    """Bookkeeping for one candidate while its segments are being scored."""

    traj_id: str
    intersecting_sids: set[str]
    sum_weight: float
    total_ir: float = 0.0
    rem_weight: float = 0.0
    pruned_by: int | None = None


def extract_candidates(
    q_segments: list[Segment],
    params: QueryParams,
    backend: StoreBackend,
    cfg: XzConfig,
    exclude_id: str | None = None,
) -> dict[str, CandidateInfo]:
    """Store lookup per query segment, unioned and grouped by trajectory.

    Records which query segments retrieved each candidate; the pruning rules
    need that relation. The query's own stored copy is excluded by id.
    """
    retrieved: dict[str, dict[str, Segment]] = {}
    touching: dict[str, set[str]] = {}
    for qseg in q_segments:
        hits = st_query(
            qseg.mbr, TimeRange(qseg.st, qseg.et), params.theta_d, params.theta_t, backend, cfg
        )
        for cand in hits:
            if cand.traj_id == exclude_id:
                continue
            retrieved.setdefault(cand.traj_id, {})[cand.sid] = cand
            touching.setdefault(cand.traj_id, set()).add(qseg.sid)

    out: dict[str, CandidateInfo] = {}
    for traj_id in sorted(retrieved):
        merged = group_by_trajectory(retrieved[traj_id].values())[traj_id]
        out[traj_id] = CandidateInfo(
            traj_id=traj_id,
            locations=merged,
            points=PointArray.of(merged),
            intersecting_sids=touching[traj_id],
        )
    return out


def _evaluate(
    cand: CandidateInfo,
    q_segments: list[Segment],
    weights: dict[str, float],
    params: QueryParams,
    lemmas: frozenset[int],
    debug: bool = False,
) -> CandidateState:
    state = CandidateState(
        traj_id=cand.traj_id,
        intersecting_sids=cand.intersecting_sids,
        sum_weight=sum(weights[sid] for sid in cand.intersecting_sids),
    )
    if 1 in lemmas and state.sum_weight < params.theta:
        state.pruned_by = 1
        return state

    state.rem_weight = state.sum_weight
    pending = set(cand.intersecting_sids)
    for qseg in q_segments:
        if debug:
            assert abs(state.rem_weight - sum(weights[s] for s in pending)) < 1e-9
        w = weights[qseg.sid]
        touches = qseg.sid in cand.intersecting_sids
        irp = segment_ir(qseg, cand.points, params) * w if touches else 0.0
        if 2 in lemmas and irp < params.theta - 1.0 + w:
            state.pruned_by = 2
            return state
        if touches:
            if 3 in lemmas and irp < params.theta - (state.sum_weight - w):
                state.pruned_by = 3
                return state
            state.rem_weight -= w
            pending.discard(qseg.sid)
        if 4 in lemmas and irp < params.theta - state.total_ir - state.rem_weight:
            state.pruned_by = 4
            return state
        state.total_ir += irp
    return state


def irq(
    q: Trajectory,
    params: QueryParams,
    backend: StoreBackend,
    cfg: XzConfig,
    seg_cfg: SegmentationConfig | None = None,
    *,
    lemmas: frozenset[int] | tuple[int, ...] = ALL_LEMMAS,
    counters: dict[str, int] | None = None,
    debug: bool = False,
) -> list[tuple[str, float]]:
    """All stored trajectories scoring strictly above the threshold against ``q``.

    Returns (traj_id, score) sorted by descending score then ascending id.
    ``lemmas`` selects which pruning rules run; ``counters``, when given, is
    filled with per-rule prune counts.
    """
    lemmas = frozenset(lemmas)
    seg_cfg = seg_cfg or SegmentationConfig()
    q_clean = filter_noise(q, seg_cfg)
    q_segments = segment(q_clean, seg_cfg)
    weights = {s.sid: span_weight(s, q_segments) for s in q_segments}

    candidates = extract_candidates(q_segments, params, backend, cfg, exclude_id=q.id)

    states = [
        _evaluate(cand, q_segments, weights, params, lemmas, debug=debug)
        for cand in candidates.values()
    ]

    tally = dict.fromkeys(COUNTER_KEYS, 0)
    tally["candidates"] = len(states)
    results = []
    for state in states:
        if state.pruned_by is not None:
            tally[f"lemma{state.pruned_by}"] += 1
            continue
        tally["evaluated"] += 1
        total = min(1.0, state.total_ir)  # guard float drift above the bound of 1
        if total > params.theta:
            results.append((state.traj_id, total))
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
