import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdtrace import (
    MemoryBackend,
    QueryParams,
    SegmentationConfig,
    Trajectory,
    XzConfig,
    exhaustive_irq,
    extract_candidates,
    ingest,
    irq,
    irq_unpruned,
    segment,
    filter_noise,
    span_weight,
)
from crowdtrace.metric import PointArray
from crowdtrace.query import query_segments
from conftest import build_workload, loc, random_trajectory

P = QueryParams()
CFG = XzConfig(resolution=12)
SEG = SegmentationConfig()


def store_of(trajectories, cfg=CFG):
    backend = MemoryBackend()
    ingest(trajectories, cfg, SEG, backend)
    return backend


def assert_results_match(got, want, tol=1e-9):
    assert sorted(t for t, _ in got) == sorted(t for t, _ in want)
    want_by_id = dict(want)
    for tid, ir in got:
        assert ir == pytest.approx(want_by_id[tid], abs=tol)


# --- the query's own segments ---------------------------------------------------


@given(seed=st.integers(0, 2**16), spread=st.sampled_from([50.0, 400.0, 20_000.0]),
       t_spread=st.sampled_from([60, 1200, 20_000]))
@settings(max_examples=150, deadline=None)
def test_query_segments_equal_the_segments_of_the_filtered_query(seed, spread, t_spread):
    q = random_trajectory(random.Random(seed), "q", n_max=40, spread_m=spread, t_spread=t_spread)
    want = segment(filter_noise(q, SEG), SEG)
    got, weights = query_segments(q, SEG)
    assert [(s.mbr, s.st, s.et) for s in got] == [(s.mbr, s.st, s.et) for s in want]
    assert weights == [span_weight(s, want) for s in want]
    for s, seg in zip(got, want):
        pts = PointArray.of(seg.locations)
        assert s.points.size == pts.size
        for name in ("lon_deg", "lat_rad", "cos_lat", "t"):  # to the bit
            assert getattr(s.points, name).tobytes() == getattr(pts, name).tobytes()


# --- candidate extraction -------------------------------------------------------


def test_extract_candidates_empty_store():
    q = Trajectory("q", [loc(0, 0, 0)])
    q_segments = segment(q, SEG)
    assert extract_candidates(q_segments, P, MemoryBackend(), CFG).traj_ids == []


def test_extract_candidates_two_region_layout():
    # query dwells at two sites far apart; t1 visits both, t2 and t3 one each
    q_points = [loc(0, 0, t) for t in (0, 60, 120)] + [loc(5000, 0, t) for t in (4000, 4060, 4120)]
    q = Trajectory("q", q_points)
    t1 = Trajectory("t1", [loc(10, 0, 60), loc(5010, 0, 4060)])
    t2 = Trajectory("t2", [loc(0, 10, 90)])
    t3 = Trajectory("t3", [loc(5000, 10, 4090)])
    backend = store_of([t1, t2, t3])

    q_segments = segment(q, SEG)
    assert [s.sid for s in q_segments] == ["q#0", "q#1"]
    cands = extract_candidates(q_segments, P, backend, CFG, exclude_id="q")
    assert cands.traj_ids == ["t1", "t2", "t3"]
    # one row per query segment, one column per candidate
    assert cands.touches.tolist() == [[True, True, False], [True, False, True]]
    assert cands.points["t"][cands.runs[0] : cands.runs[1]].tolist() == [60, 4060]
    assert cands.runs.tolist() == [0, 2, 3, 4]


def test_extract_candidates_excludes_own_copy():
    q = Trajectory("q", [loc(0, 0, 0), loc(0, 0, 60)])
    backend = store_of([q])
    cands = extract_candidates(segment(q, SEG), P, backend, CFG, exclude_id="q")
    assert cands.traj_ids == [] and len(cands.points) == 0


def test_candidates_cover_every_scoring_trajectory():
    w = build_workload(seed=3, n_traj=120)
    q = w.patient
    q_segments = segment(q, w.seg_cfg)
    cands = extract_candidates(q_segments, P, w.backend, w.xz_cfg, exclude_id=q.id)
    positive = {tid for tid, _ in exhaustive_irq(q, w.others(q), P, w.seg_cfg)}
    assert positive <= set(cands.traj_ids)


# --- single query ------------------------------------------------------------------


def test_irq_finds_duplicate_trajectory():
    q = Trajectory("q", [loc(0, 0, 0), loc(8, 4, 60), loc(3, -5, 130)])
    dup = Trajectory("shadow", list(q.locations))
    backend = store_of([q, dup])
    results = irq(q, P, backend, CFG, SEG)
    assert [tid for tid, _ in results] == ["shadow"]
    assert results[0][1] == pytest.approx(1.0, abs=1e-12)


def test_irq_theta_one_always_empty():
    q = Trajectory("q", [loc(0, 0, 0), loc(0, 0, 60)])
    dup = Trajectory("dup", list(q.locations))
    backend = store_of([q, dup])
    assert irq(q, QueryParams(theta=1.0), backend, CFG, SEG) == []


def test_irq_equals_exhaustive_reference():
    w = build_workload(seed=17, n_traj=500, contact_fraction=0.1)
    q = w.patient
    got = irq(q, P, w.backend, w.xz_cfg, w.seg_cfg)
    want = exhaustive_irq(q, w.others(q), P, w.seg_cfg)
    assert_results_match(got, want)
    assert len(got) > 0


def test_irq_results_sorted_by_score_then_id():
    w = build_workload(seed=23, n_traj=200, contact_fraction=0.15)
    results = irq(w.patient, P, w.backend, w.xz_cfg, w.seg_cfg)
    assert results == sorted(results, key=lambda r: (-r[1], r[0]))


def test_irq_unpruned_identical_and_counters():
    w = build_workload(seed=29, n_traj=250, contact_fraction=0.1)
    pruned_counters: dict[str, int] = {}
    plain_counters: dict[str, int] = {}
    got = irq(w.patient, P, w.backend, w.xz_cfg, w.seg_cfg, counters=pruned_counters)
    want = irq_unpruned(w.patient, P, w.backend, w.xz_cfg, w.seg_cfg, counters=plain_counters)
    assert got == want
    lemma_keys = ["lemma1", "lemma2", "lemma3", "lemma4"]
    assert sum(plain_counters[k] for k in lemma_keys) == 0
    assert sum(pruned_counters[k] for k in lemma_keys) > 0
    assert pruned_counters["candidates"] == plain_counters["candidates"]


@pytest.mark.parametrize("lemma", [1, 2, 3, 4])
def test_single_lemma_never_drops_a_result(lemma):
    for seed in (41, 42, 43):
        w = build_workload(seed=seed, n_traj=120, contact_fraction=0.1)
        q = w.patient
        got = irq(q, P, w.backend, w.xz_cfg, w.seg_cfg, lemmas=frozenset({lemma}))
        want = exhaustive_irq(q, w.others(q), P, w.seg_cfg)
        assert_results_match(got, want)


def test_theta_monotonicity():
    w = build_workload(seed=57, n_traj=300, contact_fraction=0.15)
    results = {
        theta: {tid for tid, _ in irq(w.patient, QueryParams(theta=theta), w.backend, w.xz_cfg, w.seg_cfg)}
        for theta in (0.3, 0.5, 0.7)
    }
    assert results[0.7] <= results[0.5] <= results[0.3]


def test_irq_query_not_in_store():
    w = build_workload(seed=71, n_traj=100, contact_fraction=0.1)
    outside = Trajectory("visitor", list(w.patient.locations))
    got = irq(outside, P, w.backend, w.xz_cfg, w.seg_cfg)
    # the stored patient itself is now a legitimate result
    assert "t00000" in {tid for tid, _ in got}
