"""The columnar engines against the per-pair reference, bit for bit.

``reference.irq`` and ``reference.irjq`` are the engines as they scored
before scoring went columnar: one ``segment_ir`` call per (query segment,
candidate) pair over decoded ``Segment`` objects. ``crowdtrace.irq`` and
``crowdtrace.irjq`` must return the same lists and the same counters,
compared with ``==``, for every pruning-rule subset and for block budgets of
the scoring kernel small enough to put block edges everywhere.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdtrace.join as join_mod
import crowdtrace.metric as metric
import crowdtrace.query as query_mod
import reference
from crowdtrace import (
    FileBackend,
    Location,
    MemoryBackend,
    QueryParams,
    Segment,
    SegmentationConfig,
    Trajectory,
    XzConfig,
    encode_key,
    encode_segment,
    exhaustive_irq,
    ingest,
    irjq,
    irq,
    segment,
    segment_ir,
)
from crowdtrace.metric import PointArray, segment_irs
from conftest import build_workload, loc, random_trajectory

P = QueryParams()
SEG = SegmentationConfig()
LEMMA_SUBSETS = [frozenset(c) for r in range(5) for c in itertools.combinations((1, 2, 3, 4), r)]
BUDGETS = (1, 257, metric.SCORE_CELLS)


def _scoring(run, budget=None) -> tuple[object, int]:
    """``run()``'s result and the (query segment, candidate) pairs it scored:
    ``segment_ir`` calls in the reference, runs handed to ``segment_irs`` in
    the engines, whose block budget is set to ``budget`` if given."""
    pairs = 0

    def counting(fn, n):
        def wrapped(*args):
            nonlocal pairs
            pairs += n(args)
            return fn(*args)
        return wrapped

    with pytest.MonkeyPatch.context() as m:
        if budget is not None:
            m.setattr(metric, "SCORE_CELLS", budget)
        m.setattr(reference, "segment_ir", counting(reference.segment_ir, lambda a: 1))
        for module in (query_mod, join_mod):
            m.setattr(module, "segment_irs", counting(module.segment_irs, lambda a: len(a[2])))
        return run(), pairs


def _same_irq(q, params, backend, cfg, budgets=BUDGETS, subsets=LEMMA_SUBSETS):
    for lemmas in subsets:
        want_counters: dict[str, int] = {}
        want, want_pairs = _scoring(lambda: reference.irq(
            q, params, backend, cfg, SEG, lemmas=lemmas, counters=want_counters))
        for budget in budgets:
            counters: dict[str, int] = {}
            got, pairs = _scoring(lambda: irq(
                q, params, backend, cfg, SEG, lemmas=lemmas, counters=counters), budget)
            assert got == want, (q.id, sorted(lemmas), budget)
            assert counters == want_counters, (q.id, sorted(lemmas), budget)
            assert pairs == want_pairs, (q.id, sorted(lemmas), budget)


def _same_irjq(query_set, params, backend, cfg, budgets=BUDGETS):
    for prune in (True, False):
        want_counters: dict[str, int] = {}
        want, want_pairs = _scoring(lambda: reference.irjq(
            query_set, params, backend, cfg, SEG, prune=prune, counters=want_counters))
        for budget in budgets:
            counters: dict[str, int] = {}
            got, pairs = _scoring(lambda: irjq(
                query_set, params, backend, cfg, SEG, prune=prune, counters=counters), budget)
            assert got == want, (prune, budget)
            assert counters == want_counters, (prune, budget)
            assert pairs == want_pairs, (prune, budget)


# --- the scoring kernel -------------------------------------------------------------------


def _pool_point(rng, seg_xyt, shift):
    """A candidate point: anywhere near the segment, or within a centimetre
    of ``theta_d`` from one of its points with a time gap of exactly
    ``theta_t`` or one second either side; ``shift`` seconds later."""
    if rng.randrange(2):
        return loc(rng.uniform(-120, 120), rng.uniform(-120, 120), 1_000 + rng.randrange(-200, 600) + shift)
    x, y, t = rng.choice(seg_xyt)
    angle, r = rng.uniform(0, 2 * math.pi), P.theta_d + rng.uniform(-0.01, 0.01)
    dt = rng.choice((-1, 1)) * (int(P.theta_t) + rng.choice((-1, 0, 0, 1)))
    return loc(x + r * math.cos(angle), y + r * math.sin(angle), t + dt + shift)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_seg=st.integers(1, 40),
    run_lens=st.lists(st.integers(0, 30), min_size=0, max_size=12),
    budget=st.sampled_from([1, 2, 31, 257, 16_384]),
)
def test_segment_irs_equals_segment_ir_per_run(seed, n_seg, run_lens, budget):
    rng = random.Random(seed)
    seg_xyt = [(rng.uniform(-80, 80), rng.uniform(-80, 80), 1_000 + 10 * k) for k in range(n_seg)]
    seg = Segment.build("q#0", "q", [loc(*p) for p in seg_xyt])
    # runs cut from one pool with gaps between some of them; a quarter of the
    # runs lie wholly outside theta_t, so small budgets give blocks with no cell in reach
    pool, starts, ends = [], [], []
    for n in run_lens:
        pool.extend(_pool_point(rng, seg_xyt, 0) for _ in range(rng.randrange(0, 2)))
        shift = 10_000 if rng.randrange(4) == 0 else 0
        starts.append(len(pool))
        pool.extend(_pool_point(rng, seg_xyt, shift) for _ in range(n))
        ends.append(len(pool))
    runs = [pool[s:e] for s, e in zip(starts, ends)]
    order = rng.sample(range(len(runs)), len(runs))  # runs in any order
    blocks, scored = [], 0
    near_closeness = metric._near_closeness

    def measured(seg_pts, pts, at, near, dt, params):
        nonlocal scored
        blocks.append(tuple(at.tolist()))
        scored += near.size
        return near_closeness(seg_pts, pts, at, near, dt, params)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(metric, "SCORE_CELLS", budget)
        m.setattr(metric, "_near_closeness", measured)
        got = segment_irs(PointArray.of(seg.locations), PointArray.of(pool),
                          np.array(starts, np.intp)[order], np.array(ends, np.intp)[order], P)
    assert got.tolist() == [segment_ir(seg, runs[i], P) for i in order]
    # no block is over the budget, unless it holds one run alone; each run point is in one block
    alone = {tuple(range(s, e)) for s, e in zip(starts, ends)}
    assert all(n_seg * len(at) <= budget or at in alone for at in blocks)
    assert sorted(i for at in blocks for i in at) == [i for s, e in zip(starts, ends) for i in range(s, e)]
    # distance and score are computed on exactly the cells within theta_t
    assert scored == sum(abs(l.t - v.t) <= P.theta_t for run in runs for l in seg.locations for v in run)


@pytest.mark.parametrize("spans", [[(0, 1), (1, 1), (1, 2)], [(0, 1), (1, 2), (2, 2)], [(1, 1)]])
def test_segment_irs_scores_an_empty_run_zero(spans):
    seg = Segment.build("q#0", "q", [loc(0, 0, 1_000), loc(5, 0, 1_030)])
    pool = [loc(3, 4, 1_010), loc(-2, 1, 1_020)]
    starts, ends = (np.array(col, np.intp) for col in zip(*spans))
    got = segment_irs(PointArray.of(seg.locations), PointArray.of(pool), starts, ends, P)
    # segment_ir scores an empty candidate set 0
    assert got.tolist() == [segment_ir(seg, pool[s:e], P) for s, e in spans]


# --- contacts across the antimeridian -----------------------------------------------


def _line(traj_id, lon, n=5, lat=10.0, t0=1_000):
    return Trajectory(traj_id, [Location(lon, lat, t0 + 60 * k) for k in range(n)])


@pytest.mark.parametrize("q_lon, c_lon", [(179.9999, -179.9999), (-179.9999, 179.9999)])
def test_contact_across_the_antimeridian(q_lon, c_lon):
    # 0.0002 degrees of longitude apart at 10N is about 21.9 m
    q, c = _line("q", q_lon), _line("c", c_lon)
    want = exhaustive_irq(q, [c], P, SEG)
    assert [tid for tid, _ in want] == ["c"] and want[0][1] == pytest.approx(0.8226, abs=1e-4)
    for cfg in (XzConfig(), XzConfig(resolution=12)):
        backend = MemoryBackend()
        ingest([q, c], cfg, SEG, backend)
        got = irq(q, P, backend, cfg, SEG)
        assert [tid for tid, _ in got] == ["c"]
        assert got[0][1] == pytest.approx(want[0][1], abs=1e-9)
        joined = irjq([q], P, backend, cfg, SEG)
        assert [(qid, tid) for qid, tid, _ in joined] == [("q", "c")]
        assert joined[0][2] == pytest.approx(want[0][1], abs=1e-9)


# --- exact equality with the per-pair reference ----------------------------------------

_EAST = st.sampled_from([-60.0, -25.0, 0.0, 10.0, 30.0, 45.0, 300.0])
_T = st.sampled_from([0, 30, 60, 100, 150, 240, 2_000, 2_100])


@st.composite
def _population(draw):
    trajectories = []
    for i in range(draw(st.integers(1, 7))):
        times = sorted(draw(st.lists(_T, min_size=1, max_size=6)))
        trajectories.append(Trajectory(f"p{i}", [loc(draw(_EAST), draw(_EAST), 1_000 + t) for t in times]))
    return trajectories


@settings(max_examples=120, deadline=None)
@given(
    population=_population(),
    lemmas=st.sampled_from(LEMMA_SUBSETS),
    budget=st.sampled_from([1, 3, 40, 16_384]),
    theta=st.sampled_from([0.05, 0.3, 0.5, 0.8]),
    resolution=st.sampled_from([12, 20]),
)
def test_small_stores_match_the_reference(population, lemmas, budget, theta, resolution):
    params = QueryParams(theta=theta)
    cfg = XzConfig(resolution=resolution)
    backend = MemoryBackend()
    ingest(population, cfg, SEG, backend)
    outsider = Trajectory("visitor", population[0].locations)
    for q in population[:3] + [outsider]:
        _same_irq(q, params, backend, cfg, budgets=(budget,), subsets=[lemmas])
    _same_irjq(population, params, backend, cfg, budgets=(budget,))


@pytest.mark.parametrize("seed", [5, 31])
def test_generated_stores_match_the_reference(seed):
    w = build_workload(seed=seed, n_traj=300, contact_fraction=0.15)
    for q in w.trajectories[:3]:
        _same_irq(q, P, w.backend, w.xz_cfg)
    _same_irq(w.patient, QueryParams(theta=0.2), w.backend, w.xz_cfg, subsets=[frozenset()])
    _same_irjq(w.trajectories[:12], P, w.backend, w.xz_cfg)


def test_stale_duplicate_sids_match_the_reference(tmp_path):
    """A file store holding second copies of sids under other keys, as a
    re-ingest that moves a segment into another cell leaves behind."""
    rng = random.Random(12)
    cfg = XzConfig(resolution=16)
    population = [random_trajectory(rng, f"r{i}", n_max=12, spread_m=150.0, t_spread=900)
                  for i in range(40)]
    stale = 0
    with FileBackend(str(tmp_path / "segments.log")) as backend:
        ingest(population, cfg, SEG, backend)
        for traj in population[::2]:
            for seg in segment(traj, SEG)[:2]:
                east, dt = rng.uniform(-200.0, 200.0), rng.randrange(-300, 300)
                moved = [loc(east, rng.uniform(-40.0, 40.0), max(0, l.t + dt)) for l in seg.locations]
                moved.sort(key=lambda l: l.t)
                copy = Segment.build(seg.sid, seg.traj_id, moved)
                key = encode_key(copy, cfg).packed()
                stale += key != encode_key(seg, cfg).packed()
                backend.put(key, encode_segment(copy))
        assert stale >= 10
        for q in population[:6] + [random_trajectory(rng, "visitor", spread_m=150.0, t_spread=900)]:
            _same_irq(q, P, backend, cfg, subsets=[frozenset(), frozenset({1, 2, 3, 4}), frozenset({4})])
        _same_irjq(population[:15], P, backend, cfg)
