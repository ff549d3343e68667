"""Reference implementations the optimised code is compared against.

The noise gate and the segmentation are the per-pair Python loops the
columnar kernel in ``crowdtrace.model`` replaced. The kernel must make every
decision they make, bit for bit, so the tests compare the two on random and
adversarial inputs.

``load_trajectories_csv`` is the points-CSV parser as one ``csv.reader``
loop building a validated ``Location`` per row; ``crowdtrace.model``'s
chunked column parser must return the same trajectories, points (bit for
bit) and skipped count. ``xz2_element`` is the quadtree descent that cell
assignment was before it took closed form; ``crowdtrace.xz.xz2_cells`` must
pick the same cell for every box.

``irq`` is the single-query engine as it scored before it went columnar: one
``st_query`` per query segment, decoded ``Segment`` objects grouped per
candidate, and one ``segment_ir`` call per (query segment, candidate) pair,
with the pruning rules run candidate by candidate. ``crowdtrace.query.irq``
must return the same results and counters, compared with ``==``. Its one
change from that engine: a candidate's touched dwell weight is summed in
query-segment order, not in the iteration order of a set of sids, which
``PYTHONHASHSEED`` changes. ``irjq`` is the join in the same per-candidate
form: for each ``sft_build`` chunk of queries, one ``st_query`` per segment
window of its queries, and each query ranked as ``irq`` ranks it over the
chunk's candidates.

``replay`` is ``FileBackend``'s log replay as one loop over frames read from
the file, and ``record_fields`` the fields of one value, read by ``struct``;
the replay through the map must build the same slots, and the key-order
build the same fields for every live record. ``load_trajectory`` is the lookup that scanned and
peeked every record; the lookup through the index's id column must return
the same trajectory or raise the same error. ``write_points_csv`` is the
``csv.writer`` loop the points CSV was written with; the faster writer must
write the same bytes.

``st_read`` is the window read as it was before it gathered: each record
found read and unpacked alone (``_unpack``), grouped by ``itertools.groupby``.
``load_trajectory_decoded`` is the id-column lookup as it was before it
gathered: each record found decoded alone (``decode_segment``). The gathers
in ``crowdtrace.store`` must return the same columns, bit for bit, or raise
the same error. ``scan_all`` and ``expand_mbr`` are helpers only tests use.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass
from itertools import groupby, islice

import numpy as np

from crowdtrace.metric import PointArray, QueryParams, segment_ir, span_weight
from crowdtrace.model import MBR, WORLD, Location, Segment, SegmentationConfig, TimeRange, Trajectory
from crowdtrace.query import ALL_LEMMAS, COUNTER_KEYS
from crowdtrace.store import (
    _COUNT, _FRAME, _HEADER, _LEN, _LOG_MAGIC, _NO_HEADER, _PEEK, _POINT, _POINT_DTYPE, Retrieved,
    _unpack, _window_positions, decode_segment, encode_segment, expand_boxes, st_query,
)
from crowdtrace.xz import XzConfig, XzElement, bin_of, sequence_code


def load_trajectories_csv(source):
    """Parse a points CSV into (trajectories, skipped malformed lines): ids
    in order of first appearance, each one's points sorted stably by time; a
    malformed first line is a header and not counted."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return load_trajectories_csv(fh)

    groups: dict[str, list[Location]] = {}
    skipped = 0
    for lineno, row in enumerate(csv.reader(source)):
        if not row:
            continue
        try:
            traj_id = row[0].strip()
            loc = Location(lon=float(row[1]), lat=float(row[2]), t=int(row[3]))
            if not traj_id:
                raise ValueError("empty traj_id")
        except (IndexError, ValueError):
            if lineno == 0:
                continue  # optional header
            skipped += 1
            continue
        groups.setdefault(traj_id, []).append(loc)

    trajectories = []
    for tid in list(groups):
        locs = groups.pop(tid)
        if not all(a.t <= b.t for a, b in zip(locs, islice(locs, 1, None))):
            locs.sort(key=lambda l: l.t)
        trajectories.append(Trajectory(tid, locs))
    return trajectories, skipped


def xz2_element(mbr: MBR, cfg: XzConfig) -> XzElement:
    """The deepest cell (up to the resolution) covering the box on both axes,
    found by descending the quadtree along the box's min corner."""
    if not WORLD.contains(mbr):
        raise ValueError(f"mbr outside indexed world: {mbr}")
    w = WORLD.max_lon - WORLD.min_lon
    h = WORLD.max_lat - WORLD.min_lat
    x0, y0 = (mbr.min_lon - WORLD.min_lon) / w, (mbr.min_lat - WORLD.min_lat) / h
    x1, y1 = (mbr.max_lon - WORLD.min_lon) / w, (mbr.max_lat - WORLD.min_lat) / h
    extent = max(x1 - x0, y1 - y0)

    if extent <= 0.0:
        depth = cfg.resolution
    else:
        depth = min(cfg.resolution, max(0, int(math.floor(-math.log2(extent)))))
        while depth < cfg.resolution and 0.5 ** (depth + 1) >= extent:
            depth += 1
        while depth > 0 and 0.5**depth < extent:
            depth -= 1

    digits = []
    cx = cy = 0.0
    side = 1.0
    for _ in range(depth):
        side /= 2.0
        xbit = int(x0 >= cx + side)
        ybit = int(y0 >= cy + side)
        digits.append(xbit | (ybit << 1))
        cx += xbit * side
        cy += ybit * side
    return XzElement(tuple(digits))


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
    for seg in segment(filtered, seg_cfg, max_span=xz_cfg.period_len):
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
    """The (key, value) puts of an ingest, in order, through the reference
    loops: a key is a zero byte, the period of the segment's start, the cell
    code from the quadtree descent and the sid, big-endian."""
    return [
        (struct.pack(">BIQ", 0, bin_of(seg.st, xz_cfg), sequence_code(xz2_element(seg.mbr, xz_cfg), xz_cfg))
         + seg.sid.encode("utf-8"), encode_segment(seg))
        for traj in trajectories
        for seg in storage_segments(traj, xz_cfg, seg_cfg)
    ]


@dataclass
class CandidateState:
    """Bookkeeping for one candidate while its segments are being scored."""

    traj_id: str
    intersecting_sids: set[str]
    sum_weight: float
    total_ir: float = 0.0
    rem_weight: float = 0.0
    pruned_by: int | None = None


def extract_candidates(q_segments, params, backend, cfg, exclude_id=None):
    """traj_id -> (points, sids of the query segments that retrieved it), by
    one ``st_query`` per query segment; a later segment's copy of a sid wins."""
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
    return {
        traj_id: (_points(retrieved[traj_id].values()), touching[traj_id])
        for traj_id in sorted(retrieved)
    }


def _points(segments) -> PointArray:
    """The segments' locations in (st, sid) order, as columns."""
    return PointArray.of([loc for s in sorted(segments, key=lambda s: (s.st, s.sid)) for loc in s.locations])


def _evaluate(traj_id, points, sids, q_segments, weights, params, lemmas) -> CandidateState:
    state = CandidateState(
        traj_id=traj_id,
        intersecting_sids=sids,
        sum_weight=sum(weights[s.sid] for s in q_segments if s.sid in sids),
    )
    if 1 in lemmas and state.sum_weight < params.theta:
        state.pruned_by = 1
        return state

    state.rem_weight = state.sum_weight
    pending = set(sids)
    for qseg in q_segments:
        assert abs(state.rem_weight - sum(weights[s] for s in pending)) < 1e-9
        w = weights[qseg.sid]
        touches = qseg.sid in sids
        irp = segment_ir(qseg, points, params) * w if touches else 0.0
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


def _rank(q_segments, candidates, params, lemmas, tally) -> list[tuple[str, float]]:
    """``_evaluate`` of each candidate (traj_id -> (points, sids of the query
    segments that retrieved it)), its counts added to ``tally``; the
    (traj_id, score) pairs above the threshold, by descending score then id."""
    weights = {s.sid: span_weight(s, q_segments) for s in q_segments}
    results = []
    for traj_id, (points, sids) in candidates.items():
        state = _evaluate(traj_id, points, sids, q_segments, weights, params, lemmas)
        tally["candidates"] += 1
        if state.pruned_by is not None:
            tally[f"lemma{state.pruned_by}"] += 1
            continue
        tally["evaluated"] += 1
        total = min(1.0, state.total_ir)  # guard float drift above the bound of 1
        if total > params.theta:
            results.append((state.traj_id, total))
    results.sort(key=lambda r: (-r[1], r[0]))
    return results


def _add(counters, tally) -> None:
    if counters is not None:
        for key, n in tally.items():
            counters[key] = counters.get(key, 0) + n


def irq(
    q: Trajectory,
    params: QueryParams,
    backend,
    cfg: XzConfig,
    seg_cfg: SegmentationConfig | None = None,
    *,
    lemmas=ALL_LEMMAS,
    counters: dict[str, int] | None = None,
) -> list[tuple[str, float]]:
    """The per-candidate engine: same signature and outputs as ``crowdtrace.irq``."""
    seg_cfg = seg_cfg or SegmentationConfig()
    q_segments = segment(filter_noise(q, seg_cfg), seg_cfg)
    candidates = extract_candidates(q_segments, params, backend, cfg, exclude_id=q.id)
    tally = dict.fromkeys(COUNTER_KEYS, 0)
    results = _rank(q_segments, candidates, params, frozenset(lemmas), tally)
    _add(counters, tally)
    return results


def irjq(query_set, params, backend, cfg, seg_cfg=None, *, capacity=64, lemmas=ALL_LEMMAS, counters=None):
    """The per-candidate join: same signature and outputs as ``crowdtrace.irjq``.
    ``sft_build`` orders the queries by their first segment's cell code
    under ``cfg`` and cuts them into chunks of ``capacity``. A chunk's windows find their candidates by
    one ``st_query`` each: a window touches the trajectories of the first
    copies of the sids it finds, and a sid keeps the copy of the last window
    to find it, as ``st_read`` documents. Each query of the chunk is then
    ranked as ``irq`` ranks it, over the chunk's copies of the trajectories
    its own windows touched."""
    from crowdtrace.join import JOIN_COUNTER_KEYS, sft_build

    seg_cfg = seg_cfg or SegmentationConfig()
    lemmas = frozenset(lemmas)
    cut = [segment(filter_noise(q, seg_cfg), seg_cfg) for q in query_set]
    chunks = sft_build([q_segments[0] for q_segments in cut], cfg, capacity)
    tally = dict.fromkeys(JOIN_COUNTER_KEYS, 0)
    tally["scan_sets"] = len(chunks)
    results = []
    for chunk in chunks:
        hits = [[st_query(s.mbr, TimeRange(s.st, s.et), params.theta_d, params.theta_t, backend, cfg)
                 for s in cut[k]] for k in chunk]
        kept = {cand.sid: cand for q_hits in hits for found in q_hits for cand in found}
        by_traj: dict[str, list[Segment]] = {}
        for cand in kept.values():
            by_traj.setdefault(cand.traj_id, []).append(cand)
        for k, q_hits in zip(chunk, hits):
            qid, touching = query_set[k].id, {}
            for s, found in zip(cut[k], q_hits):
                for traj_id in {cand.traj_id for cand in found} & by_traj.keys() - {qid}:
                    touching.setdefault(traj_id, set()).add(s.sid)
            candidates = {traj_id: (_points(by_traj[traj_id]), touching[traj_id]) for traj_id in sorted(touching)}
            results += [(qid, traj_id, ir) for traj_id, ir in _rank(cut[k], candidates, params, lemmas, tally)]
    results.sort(key=lambda r: (r[0], -r[2], r[1]))
    _add(counters, tally)
    return results


def write_points_csv(trajectories, dest, header: bool = True) -> None:
    """Write trajectories in the ingest CSV format, a ``csv.writer`` row a point."""
    writer = csv.writer(dest, lineterminator="\n")
    if header:
        writer.writerow(["traj_id", "lon", "lat", "unix_seconds"])
    for traj in trajectories:
        for loc in traj.locations:
            writer.writerow([traj.id, repr(loc.lon), repr(loc.lat), loc.t])


def peek_header(buf: bytes) -> tuple[float, float, float, float, int, int, str]:
    """An encoded segment's box corners, st, et and trajectory id, read from
    its fixed header and the length-prefixed id after it; no point is decoded."""
    min_lon, min_lat, max_lon, max_lat, st, et, n = _PEEK.unpack_from(buf, 0)
    traj_id = buf[_PEEK.size : _PEEK.size + n].decode("utf-8")
    return min_lon, min_lat, max_lon, max_lat, st, et, traj_id


def load_trajectory(backend, traj_id: str) -> Trajectory | None:
    """Reassemble one trajectory: scan the whole store, decode the records
    whose header names ``traj_id``, sort them by (st, sid)."""
    segs = [decode_segment(value) for _, value in backend.scan(b"", b"\xff" * 14)
            if peek_header(value)[6] == traj_id]
    if not segs:
        return None
    segs.sort(key=lambda s: (s.st, s.sid))
    return Trajectory(traj_id, [loc for seg in segs for loc in seg.locations])


def replay(backend) -> int:
    """Index every whole frame of an opened ``FileBackend``'s log, one frame
    at a time, read from the file; returns the offset just past the last one.
    Each frame takes the next slot, which keeps where its value starts and
    how long it is, and its key's slot becomes that one. Sets
    ``backend.fields``: each live key's ``record_fields``."""
    live = {}  # a key -> where its latest value starts, and the value
    with open(backend.path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(_LOG_MAGIC)) != _LOG_MAGIC:
            raise ValueError(f"{backend.path} is not a segment log")
        end = len(_LOG_MAGIC)
        while end + _FRAME.size <= size:
            key_len, val_len = _FRAME.unpack(fh.read(_FRAME.size))
            offset = end + _FRAME.size + key_len
            if offset + val_len > size:
                break  # torn tail write; ignore the partial frame
            key, value = fh.read(key_len), fh.read(val_len)
            backend._slot_of[key] = len(backend._offsets)
            backend._offsets.append(offset)
            backend._lengths.append(val_len)
            live[key] = offset, value
            end = offset + val_len
    backend.fields = {key: record_fields(*live[key]) for key in backend._slot_of}
    return end


def record_fields(offset: int, value: bytes) -> tuple:
    """The fields the index finds in the value at byte ``offset`` of a log:
    its header bytes (``_NO_HEADER`` when too short), the raw bytes of its
    length-prefixed trajectory id (None when too short), and its raw sid,
    where its point block starts and how many points it holds (None, the
    value's offset and -1 when it is too short for its sid, count or
    points)."""
    head = value[: _HEADER.size] if len(value) >= _HEADER.size else _NO_HEADER
    traj_id, sid, point_at, count = None, None, offset, -1
    if len(value) >= _PEEK.size:
        id_end = _PEEK.size + _LEN.unpack_from(value, _HEADER.size)[0]
        if id_end <= len(value):
            traj_id = value[_PEEK.size : id_end]
        if traj_id is not None and id_end + _LEN.size <= len(value):
            count_at = id_end + _LEN.size + _LEN.unpack_from(value, id_end)[0]
            if count_at + _COUNT.size <= len(value):
                n = _COUNT.unpack_from(value, count_at)[0]
                if count_at + _COUNT.size + n * _POINT.size <= len(value):
                    sid, point_at, count = value[id_end + _LEN.size : count_at], offset + count_at + _COUNT.size, n
    return head, traj_id, sid, point_at, count


# all keys are 13 header bytes plus a UTF-8 sid, so this high bound tops them
ALL_KEYS = (b"", b"\xff" * 14)


def scan_all(backend):
    """Decode every stored segment in key order."""
    for _, value in backend.scan(*ALL_KEYS):
        yield decode_segment(value)


def expand_mbr(mbr: MBR, pad_m: float) -> MBR:
    """The first box of ``expand_boxes``: the grown box, clamped to the world."""
    return expand_boxes(mbr, pad_m)[0]


def st_read(windows, theta_d, theta_t, backend, cfg) -> Retrieved:
    """The window read, each record found read and unpacked alone: a sid
    keeps the copy that the last window to find it found first in key order."""
    found = [_window_positions(w, tr, theta_d, theta_t, backend, cfg) for w, tr in windows]
    union = np.unique(np.concatenate(found)) if found else np.empty(0, np.intp)
    records = dict(zip(union.tolist(), map(_unpack, backend.read(union))))
    # per window, the first copy of each sid in key order
    firsts = [{records[p][1]: records[p] for p in reversed(at.tolist())} for at in found]
    kept = {sid: rec for first in firsts for sid, rec in first.items()}
    ordered = sorted(kept.values(), key=lambda r: (r[0], r[2][4], r[1]))
    groups = [list(g) for _, g in groupby(ordered, key=lambda r: r[0])]
    index = {g[0][0]: c for c, g in enumerate(groups)}
    touches = np.zeros((len(windows), len(groups)), bool)
    for row, first in zip(touches, firsts):
        row[[index[r[0]] for r in first.values() if r[0] in index]] = True
    runs = np.cumsum([0] + [sum(len(r[3]) for r in g) // _POINT.size for g in groups])
    points = np.frombuffer(b"".join(r[3] for r in ordered), _POINT_DTYPE)
    return Retrieved(list(index), runs, points, touches)


def load_trajectory_decoded(backend, traj_id: str) -> Trajectory | None:
    """Reassemble one trajectory: decode each record the index's id column
    finds for ``traj_id``, sort them by (st, sid)."""
    segs = [decode_segment(value) for value in backend.read(backend.positions_of(traj_id))]
    if not segs:
        return None
    segs.sort(key=lambda s: (s.st, s.sid))
    return Trajectory(traj_id, [loc for seg in segs for loc in seg.locations])
