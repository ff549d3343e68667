import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdtrace.join as join_mod
from crowdtrace import (
    GenConfig,
    Location,
    MemoryBackend,
    QueryParams,
    SegmentationConfig,
    Segment,
    Trajectory,
    XzConfig,
    generate,
    ingest,
    irjq,
    irjq_unpruned,
    irq,
    sft_build,
)
from crowdtrace.join import _cell_key
from crowdtrace.query import query_segments
from crowdtrace.store import st_read
from conftest import build_workload, loc

P = QueryParams()
CFG = XzConfig(resolution=12)
SEG = SegmentationConfig()


def _seg(sid, east, t0, t1):
    return Segment.build(sid, sid.split("#")[0], [loc(east, 0, t0), loc(east, 0, t1)])


# --- scan sets ------------------------------------------------------------------------


def test_single_segment_tree():
    assert sft_build([_seg("a#0", 0, 0, 60)], resolution=10) == [[0]]


def test_chunks_visit_cells_north_east_first():
    corners = {"sw": (-10.0, -10.0), "ne": (10.0, 10.0), "nw": (-10.0, 10.0), "se": (10.0, -10.0)}
    segs = [Segment.build(f"{name}#0", name, [Location(lon, lat, 10)]) for name, (lon, lat) in corners.items()]
    # later start times come after earlier ones within a cell
    segs.append(Segment.build("ne2#0", "ne2", [Location(10.0, 10.0, 5)]))
    chunks = sft_build(segs, resolution=1, capacity=2)
    assert [[segs[k].sid for k in chunk] for chunk in chunks] == [["ne2#0", "ne#0"], ["se#0", "sw#0"], ["nw#0"]]


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


@given(segment_sets(), st.one_of(st.sampled_from([0, 1, 15, 40]), st.integers(0, 24)), st.integers(1, 64))
@settings(max_examples=300, deadline=None)
def test_every_segment_reachable_exactly_once(segs, resolution, capacity):
    chunks = sft_build(segs, resolution, capacity)
    order = [k for chunk in chunks for k in chunk]
    assert sorted(order) == list(range(len(segs)))
    # full chunks of capacity, but for the last
    assert [len(chunk) for chunk in chunks[:-1]] == [capacity] * (len(chunks) - 1)
    assert 1 <= len(chunks[-1]) <= capacity
    # by cell in visit order, then start time, then input order
    keys = [(_cell_key(segs[k].mbr, resolution), segs[k].st, k) for k in order]
    assert keys == sorted(keys)


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


@pytest.mark.parametrize("capacity", [1, 3, 64])
def test_one_st_read_per_chunk(capacity):
    w = build_workload(seed=109, n_traj=150, contact_fraction=0.1)
    query_set = w.trajectories[:6]
    n_segments = sum(len(query_segments(q, w.seg_cfg)[0]) for q in query_set)
    windows: list[int] = []

    def counted(chunk_windows, *args, **kwargs):
        windows.append(len(chunk_windows))
        return st_read(chunk_windows, *args, **kwargs)

    counters: dict[str, int] = {}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(join_mod, "st_read", counted)
        got = irjq(query_set, P, w.backend, w.xz_cfg, w.seg_cfg, capacity=capacity, counters=counters)
    assert len(windows) == counters["scan_sets"] == math.ceil(n_segments / capacity)
    assert max(windows) <= capacity and sum(windows) == n_segments
    assert got == irjq(query_set, P, w.backend, w.xz_cfg, w.seg_cfg, capacity=1)


def _long_query_store():
    """Ten queries of up to 12 segments each, and the store they were drawn
    from; on it, summing a pair's scores in sid order (``#10`` before ``#2``)
    instead of query-segment order changes a total."""
    population, _ = generate(GenConfig(seed=8, n_traj=150, points_max=200, contact_fraction=0.15))
    backend = MemoryBackend()
    ingest(population, CFG, SEG, backend)
    query_set = sorted(population, key=lambda q: len(query_segments(q, SEG)[0]))[-10:]
    assert len(query_segments(query_set[-1], SEG)[0]) == 12
    return query_set, backend, CFG


def _generated_store(seed):
    w = build_workload(seed=seed, n_traj=300, contact_fraction=0.15)
    return w.trajectories[:12], w.backend, w.xz_cfg


@pytest.mark.parametrize("store", [lambda: _generated_store(101), lambda: _generated_store(103), _long_query_store],
                         ids=["generated-101", "generated-103", "long-queries"])
def test_join_equals_irq_bit_for_bit(store):
    query_set, backend, xz_cfg = store()
    for capacity in (5, 64):
        joined = irjq(query_set, P, backend, xz_cfg, SEG, capacity=capacity)
        for q in query_set:
            assert restrict(joined, q.id) == irq(q, P, backend, xz_cfg, SEG), (q.id, capacity)


def test_resolution_invariance():
    w = build_workload(seed=113, n_traj=200, contact_fraction=0.1)
    query_set = w.trajectories[:6]
    outputs = [
        irjq(query_set, P, w.backend, w.xz_cfg, w.seg_cfg, resolution=r)
        for r in (12, 15, 18)
    ]
    assert outputs[0] == outputs[1] == outputs[2]
