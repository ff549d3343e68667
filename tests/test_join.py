import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdtrace.query as query_mod
import reference
from crowdtrace import (
    MBR,
    GenConfig,
    Location,
    MemoryBackend,
    QueryParams,
    SegmentationConfig,
    Segment,
    TimeRange,
    Trajectory,
    XzConfig,
    encode_key,
    generate,
    ingest,
    irjq,
    irq,
    sequence_code,
    sft_build,
)
from crowdtrace.model import WORLD
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
    assert sft_build([_seg("a#0", 0, 0, 60)], CFG) == [[0]]


def test_chunks_follow_known_cell_codes():
    corners = {"sw": (-10.0, -10.0), "ne": (10.0, 10.0), "nw": (-10.0, 10.0), "se": (10.0, -10.0)}
    segs = [Segment.build(f"{name}#0", name, [Location(lon, lat, 10)]) for name, (lon, lat) in corners.items()]
    # later start times come after earlier ones within a cell
    segs.append(Segment.build("ne2#0", "ne2", [Location(10.0, 10.0, 5)]))
    cfg = XzConfig(resolution=1)
    # at resolution 1 the store keys a point under its quadrant's cell: sw 1, se 2, nw 3, ne 4
    assert [encode_key(s, cfg).xz2 for s in segs] == [1, 4, 3, 2, 4]
    chunks = sft_build(segs, cfg, capacity=2)
    assert [[segs[k].sid for k in chunk] for chunk in chunks] == [["sw#0", "se#0"], ["nw#0", "ne2#0"], ["ne#0"]]


# worlds whose quadrant midlines hold signed zeros, and one that most boxes fall outside of
WORLDS = [WORLD, MBR(-1.0, -1.0, 1.0, 1.0), MBR(116.0, 39.0, 117.0, 40.0)]
# corners on the midlines of the first levels of each world, signed zeros included, and anywhere
LONS = st.one_of(
    st.sampled_from([-180.0, -90.0, -45.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 45.0, 90.0, 116.0, 116.5, 117.0, 180.0]),
    st.floats(-180.0, 180.0),
)
LATS = st.one_of(
    st.sampled_from([-90.0, -45.0, -22.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 22.5, 39.0, 39.5, 40.0, 45.0, 90.0]),
    st.floats(-90.0, 90.0),
)


@st.composite
def segment_sets(draw):
    segs = []
    for i in range(draw(st.integers(1, 40))):
        lon, lat = draw(LONS), draw(LATS)
        far_lon = min(180.0, lon + draw(st.sampled_from([0.0, 0.01, 2.0]) | st.floats(0.0, 2.0)))
        far_lat = min(90.0, lat + draw(st.sampled_from([0.0, 0.01, 2.0]) | st.floats(0.0, 2.0)))
        t0 = draw(st.integers(0, 3) | st.integers(0, 20_000))
        t1 = t0 + draw(st.integers(0, 86_400))
        traj_id = f"t{draw(st.integers(0, 5))}"
        locs = [Location(lon, lat, t0), Location(far_lon, far_lat, t1)]
        segs.append(Segment.build(f"{traj_id}#{i}", traj_id, locs))
    return segs


def _clamped(box, world):
    lon = [min(max(v, world.min_lon), world.max_lon) for v in (box.min_lon, box.max_lon)]
    lat = [min(max(v, world.min_lat), world.max_lat) for v in (box.min_lat, box.max_lat)]
    return MBR(lon[0], lat[0], lon[1], lat[1])


@given(segment_sets(), st.integers(1, 31), st.sampled_from(WORLDS), st.integers(1, 64))
@settings(max_examples=300, deadline=None)
def test_every_segment_reachable_exactly_once(segs, resolution, world, capacity):
    cfg = XzConfig(resolution=resolution, world=world)
    chunks = sft_build(segs, cfg, capacity)
    order = [k for chunk in chunks for k in chunk]
    assert sorted(order) == list(range(len(segs)))
    # full chunks of capacity, but for the last
    assert [len(chunk) for chunk in chunks[:-1]] == [capacity] * (len(chunks) - 1)
    assert 1 <= len(chunks[-1]) <= capacity
    # by the cell code of the box clamped to the world, then start time, then input order
    keys = [(sequence_code(reference.xz2_element(_clamped(segs[k].mbr, world), cfg), cfg), segs[k].st, k)
            for k in order]
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
    b = irjq(query_set, P, w.backend, w.xz_cfg, w.seg_cfg, lemmas=(), counters=plain_counters)
    assert a == b
    assert all(plain_counters[f"lemma{rule}"] == 0 for rule in range(1, 5))
    assert plain_counters["evaluated"] == plain_counters["candidates"] == pruned_counters["candidates"]
    # extraction happens before pruning, so both issue the same lookups
    assert pruned_counters["scan_sets"] == plain_counters["scan_sets"]


@pytest.mark.parametrize("capacity", [1, 3, 64])
def test_one_st_read_per_chunk(capacity):
    w = build_workload(seed=109, n_traj=150, contact_fraction=0.1)
    query_set = w.trajectories[:6]
    windows = [[(s.mbr, TimeRange(s.st, s.et)) for s in segs] for segs, _ in query_segments(query_set, w.seg_cfg)]
    assert sum(map(len, windows)) > len(query_set)  # some query has several windows
    reads: list[list] = []

    def counted(chunk_windows, *args, **kwargs):
        reads.append(list(chunk_windows))
        return st_read(chunk_windows, *args, **kwargs)

    counters: dict[str, int] = {}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(query_mod, "st_read", counted)  # the binding extract_candidates calls
        got = irjq(query_set, P, w.backend, w.xz_cfg, w.seg_cfg, capacity=capacity, counters=counters)
    assert len(reads) == counters["scan_sets"] == math.ceil(len(query_set) / capacity)
    # all of a query's windows are in one read, and every window is read once
    for q_windows in windows:
        holders = [read for read in reads if set(q_windows) & set(read)]
        assert len(holders) == 1 and set(q_windows) <= set(holders[0])
    assert Counter(x for read in reads for x in read) == Counter(x for q_windows in windows for x in q_windows)
    assert got == irjq(query_set, P, w.backend, w.xz_cfg, w.seg_cfg, capacity=1)


def _long_query_store():
    """Ten queries of up to 12 segments each, and the store they were drawn
    from; on it, summing a pair's scores in sid order (``#10`` before ``#2``)
    instead of query-segment order changes a total."""
    population, _ = generate(GenConfig(seed=8, n_traj=150, points_max=200, contact_fraction=0.15))
    backend = MemoryBackend()
    ingest(population, CFG, SEG, backend)
    n_segments = {q.id: len(segs) for q, (segs, _) in zip(population, query_segments(population, SEG))}
    query_set = sorted(population, key=lambda q: n_segments[q.id])[-10:]
    assert n_segments[query_set[-1].id] == 12
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


@pytest.mark.parametrize("store", [lambda: _generated_store(107), _long_query_store],
                         ids=["generated-107", "long-queries"])
def test_join_counters_equal_summed_irq_counters(store):
    query_set, backend, xz_cfg = store()
    for lemmas in [(), (1,), (4,), (1, 2, 3, 4)]:
        want: dict[str, int] = {}
        single = {q.id: irq(q, P, backend, xz_cfg, SEG, lemmas=lemmas, counters=want) for q in query_set}
        if len(lemmas) == 4:
            assert want["candidates"] > want["evaluated"]  # some rule pruned
        for capacity in (1, 5, 64):
            counters: dict[str, int] = {}
            joined = irjq(query_set, P, backend, xz_cfg, SEG, capacity=capacity, lemmas=lemmas, counters=counters)
            for q in query_set:
                assert restrict(joined, q.id) == single[q.id], (q.id, lemmas, capacity)
            assert counters == {"scan_sets": math.ceil(len(query_set) / capacity), **want}, (lemmas, capacity)


def test_resolution_invariance():
    # the same trajectories ingested at three index resolutions: keys, so the join's order, differ
    outputs = []
    for r in (12, 15, 18):
        w = build_workload(seed=113, n_traj=200, contact_fraction=0.1, xz_cfg=XzConfig(resolution=r))
        outputs.append(irjq(w.trajectories[:6], P, w.backend, w.xz_cfg, w.seg_cfg))
    assert outputs[0] == outputs[1] == outputs[2]


def test_queries_outside_the_world_join_and_find_nothing():
    cfg = XzConfig(resolution=12, world=MBR(116.0, 39.0, 117.0, 40.0))
    backend = MemoryBackend()
    ingest([Trajectory("stored", [loc(0, 0, 0), loc(10, 0, 60)])], cfg, SEG, backend)
    inside = Trajectory("inside", [loc(0, 0, 0), loc(10, 0, 60)])
    outside = Trajectory("outside", [loc(0, 0, 0, lon0=10.0, lat0=10.0), loc(10, 0, 60, lon0=10.0, lat0=10.0)])
    assert irq(outside, P, backend, cfg, SEG) == []
    joined = irjq([outside, inside], P, backend, cfg, SEG, capacity=1)
    assert [(q, tid) for q, tid, _ in joined] == [("inside", "stored")]
