"""The columnar engines against the per-pair reference, bit for bit.

``reference.irq`` and ``reference.irjq`` are the engines as they scored
before scoring went columnar: one ``segment_ir`` call per (query segment,
candidate) pair over decoded ``Segment`` objects. ``crowdtrace.irq`` and
``crowdtrace.irjq`` must return the same lists and the same counters,
compared with ``==``, for every pruning-rule subset and for block budgets of
the scoring kernel small enough to put block edges everywhere.
"""

import itertools
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
    MBR,
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
from crowdtrace.join import _mbr_gap_lower_bound_m
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


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_seg=st.integers(1, 40),
    run_lens=st.lists(st.integers(1, 30), min_size=0, max_size=12),
    budget=st.sampled_from([1, 2, 31, 257, 16_384]),
)
def test_segment_irs_equals_segment_ir_per_run(seed, n_seg, run_lens, budget):
    rng = random.Random(seed)
    seg = Segment.build("q#0", "q", [loc(rng.uniform(-80, 80), rng.uniform(-80, 80), 1_000 + 10 * k)
                                     for k in range(n_seg)])
    # runs cut from a shuffled pool, so a run need not start where the last one ended
    pool = [loc(rng.uniform(-120, 120), rng.uniform(-120, 120), 1_000 + rng.randrange(-200, 600))
            for _ in range(sum(run_lens) + len(run_lens))]
    starts, ends, runs, pos = [], [], [], 0
    for n in run_lens:
        pos += rng.randrange(0, 2)
        starts.append(pos)
        ends.append(pos + n)
        runs.append(pool[pos : pos + n])
        pos += n
    order = rng.sample(range(len(runs)), len(runs))  # runs in any order
    cells = []
    closeness = metric._closeness

    def measured(seg_pts, block, params):
        cells.append(seg_pts.size * block.size)
        return closeness(seg_pts, block, params)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(metric, "SCORE_CELLS", budget)
        m.setattr(metric, "_closeness", measured)
        got = segment_irs(PointArray.of(seg.locations), PointArray.of(pool),
                          np.array(starts, np.intp)[order], np.array(ends, np.intp)[order], P)
    assert got.tolist() == [segment_ir(seg, runs[i], P) for i in order]
    # no block is over the budget, unless it holds one run alone
    assert all(c <= max(budget, n_seg * max(run_lens)) for c in cells)
    assert sum(cells) == n_seg * sum(run_lens)


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


def test_gap_bound_takes_the_short_way_round():
    # 10 degrees wide on each side of the antimeridian: they touch across it
    east, west = MBR(170.0, 0.0, 180.0, 1.0), MBR(-180.0, 0.0, -170.0, 1.0)
    assert _mbr_gap_lower_bound_m(east, west) == 0.0
    near, far = MBR(170.0, 0.0, 179.9999, 0.0), MBR(-179.9999, 0.0, -170.0, 0.0)
    assert 22.0 < _mbr_gap_lower_bound_m(near, far) < 22.3  # 0.0002 degrees at the equator
    # boxes apart the short way keep their plain gap
    plain = _mbr_gap_lower_bound_m(MBR(0.0, 0.0, 1.0, 0.0), MBR(2.0, 0.0, 3.0, 0.0))
    assert plain == pytest.approx(111_195.0, rel=1e-4)


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
