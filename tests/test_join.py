import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from crowdtrace import (
    Location,
    MemoryBackend,
    QueryParams,
    SegmentationConfig,
    Segment,
    TimeRange,
    Trajectory,
    XzConfig,
    ingest,
    irjq,
    irjq_unpruned,
    irq,
    segment,
    sft_build,
)
from crowdtrace.join import time_leaves
from conftest import build_workload, loc

P = QueryParams()
CFG = XzConfig(resolution=12)
SEG = SegmentationConfig()


def _seg(sid, east, t0, t1):
    return Segment.build(sid, sid.split("#")[0], [loc(east, 0, t0), loc(east, 0, t1)])


# --- index structure ---------------------------------------------------------------


def test_single_segment_tree():
    leaves = sft_build([_seg("a#0", 0, 0, 60)], resolution=10)
    assert len(leaves) == 1
    tr, _, entries = leaves[0]
    assert tr == TimeRange(0, 60)
    assert [s.sid for s in entries] == ["a#0"]


def test_ttree_merges_overlapping_ranges():
    segs = [_seg("a#0", 0, 0, 100), _seg("a#1", 3, 50, 150), _seg("a#2", 6, 120, 200)]
    leaves = time_leaves(segs, capacity=8, max_leaf_span=10_000)
    assert len(leaves) == 1
    assert leaves[0][0] == TimeRange(0, 200)


def test_ttree_keeps_disjoint_ranges_apart():
    segs = [_seg("a#0", 0, 0, 100), _seg("a#1", 3, 500, 600)]
    assert len(time_leaves(segs, capacity=8, max_leaf_span=10_000)) == 2


def test_ttree_splits_overlapping_but_overlong_ranges():
    # overlapping in time, but the merged span exceeds the limit: two leaves
    segs = [_seg("a#0", 0, 0, 900), _seg("a#1", 3, 800, 1700)]
    leaves = time_leaves(segs, capacity=8, max_leaf_span=1000)
    assert len(leaves) == 2
    assert all(tr.end - tr.start <= 1000 for tr, _, _ in leaves)


def test_ttree_splits_on_capacity():
    segs = [_seg(f"a#{i}", float(i), 10 * i, 10 * i + 500) for i in range(10)]
    leaves = time_leaves(segs, capacity=4, max_leaf_span=100_000)
    assert all(len(entries) <= 4 for _, _, entries in leaves)
    assert sum(len(entries) for _, _, entries in leaves) == 10


def test_every_segment_reachable_exactly_once():
    rng = random.Random(8)
    segs = []
    for i in range(200):
        t0 = rng.randrange(0, 20_000)
        segs.append(
            _seg(f"t{i}#0", rng.uniform(-50_000, 50_000), t0, t0 + rng.randrange(0, 800))
        )
    seen = []
    for tr, box, entries in sft_build(segs, resolution=9, capacity=8, max_leaf_span=3600):
        for entry in entries:
            seen.append(entry.sid)
            assert box.contains(entry.mbr)
            assert tr.start <= entry.st and entry.et <= tr.end
    assert sorted(seen) == sorted(s.sid for s in segs)


# corners on the quadrant midlines of the first levels, signed zeros included
LONS = st.one_of(
    st.sampled_from([-180.0, -90.0, -45.0, -0.0, 0.0, 45.0, 90.0, 180.0]),
    st.floats(-180.0, 180.0),
)
LATS = st.one_of(
    st.sampled_from([-90.0, -45.0, -22.5, -0.0, 0.0, 22.5, 45.0, 90.0]),
    st.floats(-90.0, 90.0),
)


@st.composite
def segment_sets(draw):
    segs = []
    for i in range(draw(st.integers(1, 40))):
        lon, lat = draw(LONS), draw(LATS)
        far_lon = min(180.0, lon + draw(st.floats(0.0, 0.01)))
        far_lat = min(90.0, lat + draw(st.floats(0.0, 0.01)))
        t0 = draw(st.integers(0, 20_000))
        t1 = t0 + draw(st.integers(0, 86_400))
        traj_id = f"t{draw(st.integers(0, 5))}"
        locs = [Location(lon, lat, t0), Location(far_lon, far_lat, t1)]
        segs.append(Segment.build(f"{traj_id}#{i}", traj_id, locs))
    return segs


@given(
    segment_sets(),
    st.one_of(st.sampled_from([0, 1, 15, 40]), st.integers(0, 24)),
    st.integers(1, 64),
    st.sampled_from([100, 1800, 3600, 86_400]),
)
@settings(max_examples=300, deadline=None)
def test_sft_build_matches_quadtree_reference(segs, resolution, capacity, max_leaf_span):
    got = sft_build(segs, resolution, capacity, max_leaf_span)
    want = reference.sft_leaves(segs, resolution, capacity, max_leaf_span)
    assert [(tr, box, [s.sid for s in entries]) for tr, box, entries in got] == [
        (tr, box, [s.sid for s in entries]) for tr, box, entries in want
    ]


# --- join vs single query -------------------------------------------------------------


def restrict(results, qid):
    return [(tid, ir) for q, tid, ir in results if q == qid]


def test_single_query_set_equals_irq():
    w = build_workload(seed=101, n_traj=300, contact_fraction=0.1)
    q = w.patient
    joined = irjq([q], P, w.backend, w.xz_cfg, w.seg_cfg)
    single = irq(q, P, w.backend, w.xz_cfg, w.seg_cfg)
    got = restrict(joined, q.id)
    assert [tid for tid, _ in got] == [tid for tid, _ in single]
    for (tid_a, ir_a), (tid_b, ir_b) in zip(got, single):
        assert ir_a == pytest.approx(ir_b, abs=1e-9)


def test_multi_query_set_equals_per_query_irq():
    w = build_workload(seed=103, n_traj=300, contact_fraction=0.1)
    query_set = w.trajectories[:8]
    joined = irjq(query_set, P, w.backend, w.xz_cfg, w.seg_cfg)
    for q in query_set:
        single = irq(q, P, w.backend, w.xz_cfg, w.seg_cfg)
        got = restrict(joined, q.id)
        assert [tid for tid, _ in got] == [tid for tid, _ in single]
        for (_, ir_a), (_, ir_b) in zip(got, single):
            assert ir_a == pytest.approx(ir_b, abs=1e-9)


def test_identical_queries_find_stored_duplicate():
    base = [loc(0, 0, 0), loc(4, 2, 70), loc(-3, 6, 150)]
    qa = Trajectory("qa", base)
    qb = Trajectory("qb", base)
    stored = Trajectory("twin", base)
    backend = MemoryBackend()
    ingest([stored], CFG, SEG, backend)
    results = irjq([qa, qb], P, backend, CFG, SEG)
    as_pairs = {(q, t): ir for q, t, ir in results}
    assert set(as_pairs) == {("qa", "twin"), ("qb", "twin")}
    for ir in as_pairs.values():
        assert ir == pytest.approx(1.0, abs=1e-12)


def test_theta_one_empty():
    base = [loc(0, 0, 0), loc(0, 0, 60)]
    backend = MemoryBackend()
    ingest([Trajectory("twin", base)], CFG, SEG, backend)
    assert irjq([Trajectory("q", base)], QueryParams(theta=1.0), backend, CFG, SEG) == []


def test_duplicate_query_ids_rejected():
    q = Trajectory("q", [loc(0, 0, 0)])
    with pytest.raises(ValueError):
        irjq([q, q], P, MemoryBackend(), CFG, SEG)


def test_unpruned_identical_results():
    w = build_workload(seed=107, n_traj=250, contact_fraction=0.1)
    query_set = w.trajectories[:6]
    pruned_counters: dict[str, int] = {}
    plain_counters: dict[str, int] = {}
    a = irjq(query_set, P, w.backend, w.xz_cfg, w.seg_cfg, counters=pruned_counters)
    b = irjq_unpruned(query_set, P, w.backend, w.xz_cfg, w.seg_cfg, counters=plain_counters)
    assert a == b
    assert plain_counters["pairs_removed"] == 0
    # extraction happens before pruning, so both issue the same lookups
    assert pruned_counters["scan_sets"] == plain_counters["scan_sets"]


def test_scan_sets_equal_leaf_count():
    w = build_workload(seed=109, n_traj=150, contact_fraction=0.1)
    query_set = w.trajectories[:6]
    all_segments = []
    for q in query_set:
        all_segments.extend(segment(q, w.seg_cfg))
    n_leaves = len(sft_build(all_segments, resolution=15, max_leaf_span=w.xz_cfg.period_seconds))
    counters: dict[str, int] = {}
    irjq(query_set, P, w.backend, w.xz_cfg, w.seg_cfg, resolution=15, counters=counters)
    assert counters["scan_sets"] == n_leaves
    assert n_leaves <= len(all_segments)


def test_resolution_invariance():
    w = build_workload(seed=113, n_traj=200, contact_fraction=0.1)
    query_set = w.trajectories[:6]
    outputs = [
        irjq(query_set, P, w.backend, w.xz_cfg, w.seg_cfg, resolution=r)
        for r in (12, 15, 18)
    ]
    assert outputs[0] == outputs[1] == outputs[2]
