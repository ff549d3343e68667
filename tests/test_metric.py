import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdtrace import (
    Location,
    QueryParams,
    SegmentationConfig,
    Segment,
    Trajectory,
    exhaustive_irq,
    segment,
    segment_ir,
    span_weight,
    st_cor,
    st_dist,
    trajectory_ir,
)
from conftest import loc, random_trajectory

P = QueryParams()  # lam=0.5, theta=0.5, theta_d=50, theta_t=120


def naive_trajectory_ir(q_segments, cand_locs, params):
    """Independent scalar reimplementation of the whole metric stack."""
    total_span = sum(s.et - s.st + 1 for s in q_segments)
    total = 0.0
    for s in q_segments:
        acc = 0.0
        for l in s.locations:
            best = 0.0
            for v in cand_locs:
                d = l.distance_m(v)
                dt = abs(l.t - v.t)
                if d <= params.theta_d and dt <= params.theta_t:
                    score = params.lam * math.exp(-d / params.theta_d) + (
                        1.0 - params.lam
                    ) * math.exp(-dt / params.theta_t)
                    best = max(best, score)
            acc += best
        total += ((s.et - s.st + 1) / total_span) * (acc / len(s.locations))
    return total


# --- st_dist ---------------------------------------------------------------------


def test_st_dist_identical_locations_is_one():
    l = loc(0, 0, 100)
    assert st_dist(l, l, P) == 1.0


def test_st_dist_at_both_reaches_is_inv_e():
    l = loc(0, 0, 0)
    v = loc(0, 100, 120)
    params = QueryParams(lam=0.3, theta_d=l.distance_m(v), theta_t=120)
    assert st_dist(l, v, params) == pytest.approx(math.exp(-1), abs=1e-12)


def test_st_dist_spatial_only_when_lam_one():
    l = loc(0, 0, 0)
    v = loc(0, 0, 99_999)
    assert st_dist(l, v, QueryParams(lam=1.0)) == 1.0


# --- st_cor -----------------------------------------------------------------------


def test_st_cor_empty_candidates_zero():
    assert st_cor(loc(0, 0, 0), [], P) == 0.0


def test_st_cor_self_match_is_one():
    l = loc(0, 0, 50)
    assert st_cor(l, [loc(2000, 0, 50), l], P) == 1.0


def test_st_cor_takes_best_of_reachable():
    l = loc(0, 0, 0)
    near_space = loc(0, 0, 120)            # dist 0, dt = theta_t
    v = loc(0, 40, 0)
    near_time = Location(v.lon, v.lat, 0)  # dt 0, dist < theta_d
    params = QueryParams(lam=0.5, theta_d=l.distance_m(near_time), theta_t=120)
    expected = max(st_dist(l, near_space, params), st_dist(l, near_time, params))
    assert st_cor(l, [near_space, near_time], params) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.5 + 0.5 * math.exp(-1), abs=1e-12)


def test_st_cor_ignores_out_of_reach():
    # beyond the temporal reach and beyond the spatial reach both contribute nothing
    l = loc(0, 0, 0)
    assert st_cor(l, [loc(0, 0, 121)], P) == 0.0
    assert st_cor(l, [loc(60, 0, 0)], P) == 0.0


# --- span weights ------------------------------------------------------------------


def _seg(sid, points):
    return Segment.build(sid, sid.split("#")[0], points)


def test_span_weight_single_segment_is_one():
    s = _seg("q#0", [loc(0, 0, 0), loc(0, 0, 60)])
    assert span_weight(s, [s]) == 1.0


def test_span_weight_direct_arithmetic():
    s1 = _seg("q#0", [loc(0, 0, 0), loc(0, 0, 9)])      # span 10
    s2 = _seg("q#1", [loc(0, 0, 100), loc(0, 0, 119)])  # span 20
    assert span_weight(s1, [s1, s2]) == pytest.approx(1 / 3, abs=1e-15)
    assert span_weight(s2, [s1, s2]) == pytest.approx(2 / 3, abs=1e-15)


def test_span_weight_equal_spans_symmetric():
    segs = [
        _seg(f"q#{i}", [loc(0, 0, 1000 * i), loc(0, 0, 1000 * i + 50)]) for i in range(5)
    ]
    for s in segs:
        assert span_weight(s, segs) == pytest.approx(1 / 5, abs=1e-15)


@given(st.lists(st.integers(0, 5000), min_size=1, max_size=12))
@settings(max_examples=80, deadline=None)
def test_span_weights_sum_to_one(spans):
    t = 0
    segs = []
    for i, span in enumerate(spans):
        segs.append(_seg(f"q#{i}", [loc(0, 0, t), loc(0, 0, t + span)]))
        t += span + 10_000
    assert sum(span_weight(s, segs) for s in segs) == pytest.approx(1.0, abs=1e-12)


# --- segment and trajectory scores ---------------------------------------------------


def test_segment_ir_against_itself_is_one():
    s = _seg("q#0", [loc(0, 0, 0), loc(10, 5, 60), loc(20, 0, 110)])
    assert segment_ir(s, list(s.locations), P) == 1.0


def test_segment_ir_disjoint_is_zero():
    s = _seg("q#0", [loc(0, 0, 0), loc(10, 0, 60)])
    far = [loc(5000, 0, 0), loc(0, 0, 50_000)]
    assert segment_ir(s, far, P) == 0.0


def test_segment_ir_half_covered():
    a, b = loc(0, 0, 0), loc(3000, 0, 600)
    s = Segment.build("q#0", "q", [a, b])  # two points, only the first has a match
    assert segment_ir(s, [a], P) == pytest.approx(0.5, abs=1e-15)


def test_trajectory_ir_identity(seg_cfg):
    rng = random.Random(7)
    traj = random_trajectory(rng, "q", n_max=25)
    segs = segment(traj, seg_cfg)
    assert trajectory_ir(segs, list(traj.locations), P) == pytest.approx(1.0, abs=1e-12)


def test_trajectory_ir_zero_without_overlap(seg_cfg):
    traj = Trajectory("q", [loc(0, 0, 0), loc(10, 0, 60)])
    segs = segment(traj, seg_cfg)
    far = [loc(0, 9000, 30)]
    assert trajectory_ir(segs, far, P) == 0.0


def test_trajectory_ir_matches_naive_double_loop(seg_cfg):
    rng = random.Random(99)
    for trial in range(15):
        q = random_trajectory(rng, "q", n_max=18, spread_m=120.0)
        cand = random_trajectory(rng, "c", n_max=18, spread_m=120.0)
        segs = segment(q, seg_cfg)
        got = trajectory_ir(segs, list(cand.locations), P)
        want = naive_trajectory_ir(segs, list(cand.locations), P)
        assert got == pytest.approx(want, abs=1e-12)


def test_ir_is_not_symmetric(seg_cfg):
    # weights come from the query side, so swapping the roles changes the score:
    # q dwells long where t never goes, t dwells long exactly where q passes by
    q = Trajectory("q", [loc(0, 0, 0), loc(0, 0, 1000), loc(900, 0, 2800)])
    t = Trajectory("t", [loc(900, 0, 2700), loc(900, 0, 3900)])
    q_segs = segment(q, seg_cfg)
    t_segs = segment(t, seg_cfg)
    ir_qt = trajectory_ir(q_segs, list(t.locations), P)
    ir_tq = trajectory_ir(t_segs, list(q.locations), P)
    assert ir_qt != ir_tq


# --- exhaustive reference query -------------------------------------------------------


def test_exhaustive_irq_self_only_database():
    traj = Trajectory("q", [loc(0, 0, 0), loc(5, 0, 60)])
    assert exhaustive_irq(traj, [traj], P) == [("q", 1.0)]


def test_exhaustive_irq_theta_one_empty():
    traj = Trajectory("q", [loc(0, 0, 0)])
    params = QueryParams(theta=1.0)
    assert exhaustive_irq(traj, [traj], params) == []


# --- invariants ------------------------------------------------------------------------

coords = st.tuples(
    st.floats(-400, 400, allow_nan=False),
    st.floats(-400, 400, allow_nan=False),
    st.integers(0, 2000),
)


@given(
    st.lists(coords, min_size=1, max_size=10),
    st.lists(coords, min_size=0, max_size=10),
    st.floats(0.0, 1.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_scores_bounded(q_pts, c_pts, lam):
    params = QueryParams(lam=lam)
    q = Trajectory("q", [loc(e, n, 10_000 + t) for e, n, t in sorted(q_pts, key=lambda p: p[2])])
    cands = [loc(e, n, 10_000 + t) for e, n, t in c_pts]
    segs = segment(q, SegmentationConfig())
    for l in q.locations:
        assert 0.0 <= st_cor(l, cands, params) <= 1.0 + 1e-12
    ir = trajectory_ir(segs, cands, params)
    assert 0.0 <= ir <= 1.0 + 1e-12


def test_st_dist_monotone_in_lam_when_spatial_dominates():
    l = loc(0, 0, 0)
    v = loc(10, 0, 110)  # spatial term clearly above the temporal one
    scores = [st_dist(l, v, QueryParams(lam=lam)) for lam in (0.0, 0.3, 0.6, 1.0)]
    assert scores == sorted(scores)


@pytest.mark.parametrize("reach", [dict(theta_d=math.inf), dict(theta_t=math.inf), dict(theta_d=math.nan),
                                   dict(theta_t=math.nan), dict(theta_d=0.0), dict(theta_t=-1.0)])
def test_query_params_refuse_a_reach_that_is_not_finite_and_above_zero(reach):
    with pytest.raises(ValueError, match="theta_d and theta_t must be finite and above 0"):
        QueryParams(**reach)
