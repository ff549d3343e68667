"""Correctness checks, run on the last round's outputs after the timed phases.

Each check returns one message per mismatch; a mismatch counts as a failed
operation. The references are the library's ``exhaustive_irq`` (no index, no
store, no pruning), the planted contacts, and this file's own haversine and
speed gate.
"""

from __future__ import annotations

import csv
import io
import math

from crowdtrace.metric import QueryParams, exhaustive_irq
from crowdtrace.model import SegmentationConfig, Trajectory
from crowdtrace.query import irq
from crowdtrace.store import FileBackend, load_trajectory, storage_segments
from crowdtrace.xz import XzConfig, encode_key

TOLERANCE = 1e-9
RADIUS_M = 6_371_008.8
MAX_SPEED = 50.0  # m/s, the ingest default


def haversine_m(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    h = (math.sin((p2 - p1) / 2.0) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin(math.radians(lon2 - lon1) / 2.0) ** 2)
    return 2.0 * RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def gated(traj: Trajectory) -> list[tuple[float, float, int]]:
    """Points kept by a greedy forward speed gate against the last kept point."""
    kept = [traj.locations[0]]
    for loc in traj.locations[1:]:
        prev = kept[-1]
        dt = loc.t - prev.t
        dist = haversine_m(prev.lon, prev.lat, loc.lon, loc.lat)
        if (dist / dt <= MAX_SPEED) if dt > 0 else dist == 0.0:
            kept.append(loc)
    return [(l.lon, l.lat, l.t) for l in kept]


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


def _same_scores(got: dict, want: dict, what: str) -> list[str]:
    if set(got) != set(want):
        missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
        return [f"{what}: missing {missing[:5]}, unexpected {extra[:5]}"]
    bad = [k for k in want if abs(got[k] - want[k]) > TOLERANCE]
    return [f"{what}: scores differ for {bad[:5]}"] if bad else []


def check_all(plan, out, log_path: str, params: QueryParams) -> list[str]:
    """Every check on ``out``, the outputs of the last round of ``plan``."""
    rng = plan.check_rng
    xz, seg_cfg = XzConfig(), SegmentationConfig()
    errors: list[str] = []
    steps = plan.steps
    last = steps[-1]

    # irq against the exhaustive reference, over the trajectories of that step
    patient = next(i for i, qid in out.irq if qid == "t00000")
    others = [key for key in out.irq if key[1] != "t00000"]
    for i, qid in [(patient, "t00000")] + rng.sample(others, 1):
        current = steps[i].current
        candidates = [t for tid, t in current.items() if tid != qid]
        ref = exhaustive_irq(current[qid], candidates, params, seg_cfg)
        errors += _same_scores(dict(out.irq[i, qid]), dict(ref), f"irq {qid} vs exhaustive")

    # the patient finds every planted contact, with scores in (theta, 1]
    found = dict(out.irq[patient, "t00000"])
    missed = [c for c in plan.labels if c not in found]
    if missed:
        errors.append(f"t00000 misses planted contacts {missed[:5]}")
    if any(not params.theta < s <= 1.0 for s in found.values()):
        errors.append("t00000 returned a score outside (theta, 1]")

    # each join equals the union of the per-query irq results of its step
    for i, text in out.joins.items():
        got = {(r[0], r[1]): float(r[2]) for r in _rows(text)}
        want = {(q.id, cid): s for q in steps[i].join.trajectories for cid, s in out.irq[i, q.id]}
        errors += _same_scores(got, want, f"join of step {i} vs irq")

    with FileBackend(log_path) as backend:
        # query --traj-id prints what irq gives for the same trajectory
        for (i, tid), text in out.lookups.items():
            if (i, tid) in out.irq:
                res = out.irq[i, tid]
            elif i == len(steps) - 1:  # the store is as that step left it
                res = irq(last.current[tid], params, backend, xz, seg_cfg)
            else:
                continue
            if _rows(text) != [[cid, f"{s:.9f}"] for cid, s in res]:
                errors.append(f"query --traj-id {tid} differs from irq")

        # a lookup returns the points fed in, minus those the speed gate drops
        fed = [t for t in plan.updates[-1].trajectories if t.id not in plan.probe_ids]
        main = [t.id for t in plan.main.trajectories if t.id not in plan.probe_ids]
        for tid in (rng.choice(fed).id, rng.choice(main)):
            loaded = load_trajectory(backend, tid)
            got = [(l.lon, l.lat, l.t) for l in loaded.locations] if loaded else []
            if got != gated(last.current[tid]):
                errors.append(f"lookup of {tid} does not return its gated points")

        # the store holds exactly the keys the ingests wrote
        keys: set[bytes] = set()
        for feed, reported in zip([plan.main] + plan.updates, out.reported):
            segs = [s for t in feed.trajectories for s in storage_segments(t, xz, seg_cfg)]
            if reported != len(segs):
                errors.append(f"ingest of {feed.path} reported {reported} segments, not {len(segs)}")
            keys.update(encode_key(s, xz).packed() for s in segs)
        stored = {key for key, _ in backend.scan(b"", b"\xff" * 64)}
        if stored != keys:
            errors.append(f"store holds {len(stored)} keys, ingests wrote {len(keys)}")
    return errors
