"""Acceptance criteria A1-A10.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Every tolerance is pinned here; the reference values come from
the exhaustive no-index evaluator and from enumeration oracles.
"""

import gc
import random
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from crowdtrace import (
    MBR,
    MemoryBackend,
    QueryParams,
    SegmentationConfig,
    Segment,
    TimeRange,
    Trajectory,
    XzConfig,
    encode_key,
    encode_segment,
    exhaustive_irq,
    extract_candidates,
    ingest,
    irjq,
    irq,
    segment,
    st_query,
)
import crowdtrace.query as query_mod
from crowdtrace.store import expand_time_range
from conftest import build_workload, loc
from reference import expand_mbr

TABLE_DEFAULTS = QueryParams(lam=0.5, theta=0.5, theta_d=50.0, theta_t=120.0)


@contextmanager
def criterion(name: str, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{name} FAIL - {description} [{time.perf_counter() - start:.1f}s]")
        raise
    print(f"{name} PASS - {description} [{time.perf_counter() - start:.1f}s]")


def assert_equal_results(got, want, tol):
    assert sorted(t for t, _ in got) == sorted(t for t, _ in want)
    want_by_id = dict(want)
    for tid, ir in got:
        assert abs(ir - want_by_id[tid]) <= tol


@pytest.fixture(scope="module")
def workloads():
    # 20 generated populations; staggered start times make some cross a
    # period boundary of the day-length index bins
    return [
        build_workload(
            seed=seed,
            n_traj=500,
            points_min=10,
            points_max=50,
            contact_fraction=0.1,
            start=1_600_000_000 + seed * 40_000,
        )
        for seed in range(1, 21)
    ]


def test_a1_oracle_equivalence_irq(workloads):
    with criterion("A1", "irq equals the exhaustive reference on 20 workloads"):
        start = time.perf_counter()
        for w in workloads:
            q = w.patient
            got = irq(q, TABLE_DEFAULTS, w.backend, w.xz_cfg, w.seg_cfg)
            want = exhaustive_irq(q, w.others(q), TABLE_DEFAULTS, w.seg_cfg)
            assert_equal_results(got, want, tol=1e-9)
        assert time.perf_counter() - start < 60.0


def test_a2_join_query_equivalence(workloads):
    with criterion("A2", "irjq restricted to each query equals irq on 20 workloads"):
        start = time.perf_counter()
        for w in workloads:
            query_set = w.trajectories[:10]
            joined = irjq(query_set, TABLE_DEFAULTS, w.backend, w.xz_cfg, w.seg_cfg)
            for q in query_set:
                got = [(tid, ir) for qid, tid, ir in joined if qid == q.id]
                want = irq(q, TABLE_DEFAULTS, w.backend, w.xz_cfg, w.seg_cfg)
                assert_equal_results(got, want, tol=1e-9)
        assert time.perf_counter() - start < 120.0


def test_a3_each_lemma_alone_is_sound():
    with criterion("A3", "no single pruning lemma drops an oracle-positive trajectory"):
        start = time.perf_counter()
        for seed in range(1000, 1100):
            w = build_workload(
                seed=seed,
                n_traj=60,
                points_min=5,
                points_max=20,
                contact_fraction=0.15,
                start=1_600_000_000 + seed * 13_337,
            )
            q = w.patient
            positives = dict(exhaustive_irq(q, w.others(q), TABLE_DEFAULTS, w.seg_cfg))
            for lemma in (1, 2, 3, 4):
                got = irq(
                    q, TABLE_DEFAULTS, w.backend, w.xz_cfg, w.seg_cfg, lemmas=frozenset({lemma})
                )
                got_ids = {tid for tid, _ in got}
                assert set(positives) == got_ids, f"lemma {lemma} on seed {seed}"
                for tid, ir in got:
                    assert abs(ir - positives[tid]) <= 1e-9
        assert time.perf_counter() - start < 300.0


def _pruning_benchmark_store(n_traj=5000, seed=77):
    """A store of at least ``n_traj`` trajectories where pruning has teeth.

    A patient tours 12 dwell sites; most stored trajectories hover near one
    site at an overlapping time, so they become candidates that touch one
    low-weight query segment (rule 1 prunes them before any scoring). Ten
    join queries each dwell long at their own site with short follow-up
    dwells; their candidates revisit briefly, scoring far below what the
    dominant segment requires (rule 2 removes the pair, skipping the rest).
    """
    rng = random.Random(seed)
    t0 = 1_600_000_000
    stored: list[Trajectory] = []

    def hover(tid, east, north, t_start, n, step=60):
        pts = [
            loc(east + rng.uniform(-40, 40), north + rng.uniform(-40, 40), t_start + step * k)
            for k in range(n)
        ]
        return Trajectory(tid, pts)

    # patient touring 12 sites, 5 points each, equal dwell weights
    site_east = [800.0 * j for j in range(12)]
    patient_pts = []
    for j, east in enumerate(site_east):
        for k in range(5):
            patient_pts.append(loc(east + rng.uniform(-15, 15), rng.uniform(-15, 15), t0 + 360 * j + 60 * k))
    patient = Trajectory("patient", patient_pts)
    stored.append(patient)

    # ten join queries: one hour-long dwell, then four 30 s dwells, 3 km north
    join_north = 3000.0
    join_queries = []
    join_walkers = []
    for i in range(10):
        east = 800.0 * i + 200.0
        dom_start = t0 + 1000
        # span exactly the segment time bound: one segment carrying ~94% weight
        pts = [loc(east, join_north, dom_start + 90 * k) for k in range(21)]
        minor_starts = []
        t_minor = dom_start + 90 * 20 + 2000
        for m in range(4):
            minor_starts.append(t_minor)
            pts.extend(loc(east + 10 * m, join_north, t_minor + 15 * k) for k in range(3))
            t_minor += 2000
        join_queries.append(Trajectory(f"jq{i:02d}", pts))
        # candidates revisit the site briefly during every dwell window
        for c in range(55):
            visit_pts = []
            u = rng.uniform(0, 1700)
            for k in range(4):
                visit_pts.append(
                    loc(east + rng.uniform(-40, 40), join_north + rng.uniform(-40, 40),
                        int(dom_start + u + 30 * k))
                )
            for ms in minor_starts:
                visit_pts.append(
                    loc(east + rng.uniform(-40, 40), join_north + rng.uniform(-40, 40),
                        int(ms + rng.uniform(-60, 60)))
                )
            join_walkers.append(Trajectory(f"jw{i:02d}_{c:03d}", sorted(visit_pts, key=lambda l: l.t)))
    stored.extend(join_queries)
    stored.extend(join_walkers)

    # twenty genuine contacts shadowing the whole patient tour
    for c in range(20):
        pts = [
            loc(0, 0, max(0, l.t + rng.randrange(-45, 46)), lon0=l.lon, lat0=l.lat)
            for l in patient_pts
        ]
        stored.append(Trajectory(f"shadow{c:02d}", sorted(pts, key=lambda l: l.t)))

    # fill the rest with hover traffic around the patient's sites
    n_fill = n_traj - len(stored)
    for i in range(n_fill):
        j = i % 12
        start = t0 + 360 * j + rng.randrange(-180, 180)
        stored.append(
            hover(f"hover{i:05d}", site_east[j] + rng.uniform(-30, 30), rng.uniform(-30, 30),
                  max(0, start), n=rng.randint(8, 16), step=rng.choice([30, 45, 60]))
        )

    assert len(stored) >= n_traj
    xz_cfg = XzConfig()
    seg_cfg = SegmentationConfig()
    backend = MemoryBackend()
    ingest(stored, xz_cfg, seg_cfg, backend)
    return backend, xz_cfg, seg_cfg, patient, join_queries


def count_pairs_scored(monkeypatch, run) -> int:
    """(query segment, candidate) pairs ``run`` scores through the query and
    join engines: the runs ``query.rank`` hands to the scoring kernel ``segment_irs``."""
    pairs = 0
    with monkeypatch.context() as m:
        def counted(seg_pts, pts, starts, ends, params, _segment_irs=query_mod.segment_irs):
            nonlocal pairs
            pairs += len(starts)
            return _segment_irs(seg_pts, pts, starts, ends, params)

        m.setattr(query_mod, "segment_irs", counted)
        run()
    return pairs


def paired_median_ms(fn, other, repeats: int = 5) -> tuple[float, float, object]:
    """Median wall times of ``fn`` and ``other`` in milliseconds, plus one
    result of ``fn``. The two are called in turn with the collector held off,
    so a shift in machine speed or a collection left by earlier tests lands
    on both sides instead of on one."""
    times: tuple[list[float], list[float]] = ([], [])
    result = None
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for f, spent in zip((fn, other), times):
                start = time.perf_counter()
                got = f()
                spent.append((time.perf_counter() - start) * 1000.0)
                if f is fn:
                    result = got
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times[0]), statistics.median(times[1]), result


def test_a4_pruning_saves_time_at_scale(monkeypatch):
    with criterion("A4", "pruned engines are no slower than unpruned on 5000 trajectories"):
        backend, xz_cfg, seg_cfg, patient, join_queries = _pruning_benchmark_store()
        params = TABLE_DEFAULTS

        counters: dict[str, int] = {}
        irq_ms, irq_up_ms, irq_res = paired_median_ms(
            lambda: irq(patient, params, backend, xz_cfg, seg_cfg, counters=counters),
            lambda: irq(patient, params, backend, xz_cfg, seg_cfg, lemmas=()),
        )
        pruned = sum(counters[k] for k in ("lemma1", "lemma2", "lemma3", "lemma4"))
        assert pruned >= 1
        assert len(irq_res) > 0
        assert irq_ms <= irq_up_ms, f"irq {irq_ms:.1f}ms vs unpruned {irq_up_ms:.1f}ms"
        irq_calls = count_pairs_scored(
            monkeypatch, lambda: irq(patient, params, backend, xz_cfg, seg_cfg))
        irq_up_calls = count_pairs_scored(
            monkeypatch, lambda: irq(patient, params, backend, xz_cfg, seg_cfg, lemmas=()))
        assert irq_calls < irq_up_calls, f"irq {irq_calls} vs unpruned {irq_up_calls} pairs scored"

        join_counters: dict[str, int] = {}
        irjq_ms, irjq_up_ms, _ = paired_median_ms(
            lambda: irjq(join_queries, params, backend, xz_cfg, seg_cfg, counters=join_counters),
            lambda: irjq(join_queries, params, backend, xz_cfg, seg_cfg, lemmas=()),
        )
        join_pruned = sum(join_counters[k] for k in ("lemma1", "lemma2", "lemma3", "lemma4"))
        assert join_pruned >= 1
        assert irjq_ms <= irjq_up_ms, f"irjq {irjq_ms:.1f}ms vs unpruned {irjq_up_ms:.1f}ms"
        irjq_calls = count_pairs_scored(
            monkeypatch, lambda: irjq(join_queries, params, backend, xz_cfg, seg_cfg))
        irjq_up_calls = count_pairs_scored(
            monkeypatch, lambda: irjq(join_queries, params, backend, xz_cfg, seg_cfg, lemmas=()))
        assert irjq_calls < irjq_up_calls, (
            f"irjq {irjq_calls} vs unpruned {irjq_up_calls} pairs scored")
        print(
            f"  (irq {irq_ms:.0f}ms vs {irq_up_ms:.0f}ms, {irq_calls} vs {irq_up_calls} pairs scored; "
            f"irjq {irjq_ms:.0f}ms vs {irjq_up_ms:.0f}ms, {irjq_calls} vs {irjq_up_calls} pairs scored; "
            f"{pruned} candidates pruned by irq, {join_pruned} by irjq)"
        )


def test_a5_scan_plan_soundness():
    with criterion("A5", "st_query equals a linear scan for 1000 queries over 10^4 segments"):
        start = time.perf_counter()
        rng = random.Random(55)
        cfg = XzConfig(resolution=6, period_len=3600, num_shards=2)
        backend = MemoryBackend()
        stored = []
        for i in range(10_000):
            east = rng.uniform(-300_000, 300_000)
            north = rng.uniform(-150_000, 150_000)
            # keep each segment inside one period: keys carry one bin only
            t0 = 3600 * rng.randrange(0, 11) + rng.randrange(0, 3600 - 120)
            pts = [
                loc(east + rng.uniform(-60, 60), north + rng.uniform(-60, 60), t0 + 30 * k)
                for k in range(rng.randint(1, 4))
            ]
            seg = Segment.build(f"s{i}#0", f"s{i}", sorted(pts, key=lambda l: l.t))
            backend.put(encode_key(seg, cfg).packed(), encode_segment(seg))
            stored.append(seg)

        boxes = np.array(
            [[s.mbr.min_lon, s.mbr.min_lat, s.mbr.max_lon, s.mbr.max_lat] for s in stored]
        )
        spans = np.array([[s.st, s.et] for s in stored])
        sids = np.array([s.sid for s in stored])

        for qi in range(1000):
            east = rng.uniform(-300_000, 300_000)
            north = rng.uniform(-150_000, 150_000)
            size = rng.choice([500.0, 5_000.0, 50_000.0])
            sw = loc(east, north, 0)
            ne = loc(east + size, north + size / 2, 0)
            window = MBR(sw.lon, sw.lat, ne.lon, ne.lat)
            t0 = rng.randrange(0, 40_000)
            tr = TimeRange(t0, t0 + rng.randrange(0, 8_000))
            theta_d, theta_t = rng.choice([(25.0, 60.0), (50.0, 120.0), (200.0, 600.0)])

            got = [s.sid for s in st_query(window, tr, theta_d, theta_t, backend, cfg)]
            ew = expand_mbr(window, theta_d)
            et = expand_time_range(tr, theta_t)
            mask = (
                (boxes[:, 0] <= ew.max_lon)
                & (ew.min_lon <= boxes[:, 2])
                & (boxes[:, 1] <= ew.max_lat)
                & (ew.min_lat <= boxes[:, 3])
                & (spans[:, 0] <= et.end)
                & (et.start <= spans[:, 1])
            )
            assert got == sorted(sids[mask])
        assert time.perf_counter() - start < 60.0


def test_a6_curve_structural_laws():
    with criterion("A6", "code bijectivity and pre-order law at g<=4; goldens byte-stable"):
        from crowdtrace import XzElement, sequence_code
        from test_golden import (
            test_row_keys_match_golden_file,
            test_sequence_codes_match_golden_file,
        )

        for g in (1, 2, 3, 4):
            cfg = XzConfig(resolution=g)
            elements = []

            def walk(digits):
                elements.append(digits)
                if len(digits) < g:
                    for d in range(4):
                        walk(digits + (d,))

            walk(())
            codes = [sequence_code(XzElement(d), cfg) for d in elements]
            assert codes == list(range(len(elements)))  # pre-order positions, bijective
            assert len(elements) == (4 ** (g + 1) - 1) // 3
        test_sequence_codes_match_golden_file()
        test_row_keys_match_golden_file()


def test_a7_identity_and_boundary():
    with criterion("A7", "duplicate scores exactly 1.0; theta=1.0 yields nothing"):
        rng = random.Random(7070)
        cfg = XzConfig()
        seg_cfg = SegmentationConfig()
        for case in range(50):
            n = rng.randint(1, 40)
            t = rng.randrange(1_600_000_000, 1_600_050_000)
            east = north = 0.0
            pts = []
            for _ in range(n):
                pts.append(loc(east, north, t))
                east += rng.uniform(-150, 150)
                north += rng.uniform(-150, 150)
                t += rng.randrange(20, 400)
            q = Trajectory("q", pts)
            dup = Trajectory("dup", pts)
            backend = MemoryBackend()
            ingest([q, dup], cfg, seg_cfg, backend)
            results = irq(q, TABLE_DEFAULTS, backend, cfg, seg_cfg)
            assert [tid for tid, _ in results] == ["dup"]
            assert abs(results[0][1] - 1.0) <= 1e-12
            assert irq(q, QueryParams(theta=1.0), backend, cfg, seg_cfg) == []


def test_a8_theta_monotonicity(workloads):
    with criterion("A8", "results shrink as the threshold rises on every workload"):
        for w in workloads:
            found = {}
            for theta in (0.3, 0.5, 0.7):
                params = QueryParams(theta=theta)
                found[theta] = {
                    tid for tid, _ in irq(w.patient, params, w.backend, w.xz_cfg, w.seg_cfg)
                }
            assert found[0.7] <= found[0.5] <= found[0.3]


def test_a9_resolution_invariance(workloads):
    with criterion("A9", "irjq outputs are identical on stores indexed at resolutions 12, 15 and 18"):
        for w in workloads[:5]:
            query_set = w.trajectories[:10]
            outputs = []
            for r in (12, 15, 18):
                cfg = XzConfig(resolution=r)
                backend = MemoryBackend()
                ingest(w.trajectories, cfg, w.seg_cfg, backend)
                outputs.append(irjq(query_set, TABLE_DEFAULTS, backend, cfg, w.seg_cfg))
            assert outputs[0] == outputs[1] == outputs[2]


def test_a10_theta_d_growth_direction(workloads):
    with criterion("A10", "candidates and results never shrink as theta_d grows"):
        w = workloads[0]
        q = w.patient
        prev_candidates = prev_results = -1
        q_segments = segment(q, w.seg_cfg)
        for theta_d in (25.0, 50.0, 100.0, 200.0):
            params = QueryParams(theta_d=theta_d)
            cands = extract_candidates(q_segments, params, w.backend, w.xz_cfg)
            results = irq(q, params, w.backend, w.xz_cfg, w.seg_cfg)
            assert len(cands) >= prev_candidates
            assert len(results) >= prev_results
            prev_candidates, prev_results = len(cands), len(results)
