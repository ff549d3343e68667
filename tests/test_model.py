import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdtrace import (
    MBR,
    Location,
    SegmentationConfig,
    TimeRange,
    Trajectory,
    filter_noise,
    haversine_m,
    load_trajectories_csv,
    mbr_of,
    segment,
    time_range_of,
)
from conftest import loc


# --- types -------------------------------------------------------------------


def test_location_validates_ranges():
    with pytest.raises(ValueError):
        Location(lon=190.0, lat=0.0, t=0)
    with pytest.raises(ValueError):
        Location(lon=0.0, lat=91.0, t=0)
    with pytest.raises(ValueError):
        Location(lon=0.0, lat=0.0, t=-1)


def test_trajectory_requires_sorted_nonempty():
    with pytest.raises(ValueError):
        Trajectory("a", [loc(t=10), loc(t=5)])
    with pytest.raises(ValueError):
        Trajectory("", [loc(t=0)])
    with pytest.raises(ValueError):
        Trajectory("a", [])


def test_mbr_and_time_range_validate():
    with pytest.raises(ValueError):
        MBR(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        TimeRange(5, 4)


@pytest.mark.parametrize("threshold", [dict(d_seg=math.nan), dict(d_seg=math.inf), dict(t_seg=math.inf),
                                       dict(max_speed=math.nan), dict(max_speed=math.inf), dict(max_speed=-math.inf),
                                       dict(d_seg=0.0), dict(t_seg=0), dict(max_speed=-1.0)])
def test_segmentation_config_refuses_a_threshold_that_is_not_finite_and_above_zero(threshold):
    with pytest.raises(ValueError, match="d_seg, t_seg and max_speed must be finite and above 0"):
        SegmentationConfig(**threshold)


def test_haversine_known_distance():
    # one degree of latitude on the reference sphere
    d = haversine_m(0.0, 0.0, 0.0, 1.0)
    assert d == pytest.approx(111_194.93, abs=1.0)


# --- noise filter --------------------------------------------------------------


def test_filter_keeps_plausible_speeds(seg_cfg):
    traj = Trajectory("a", [loc(0, 0, 0), loc(100, 0, 60), loc(200, 0, 120)])
    assert filter_noise(traj, seg_cfg).locations == traj.locations


def test_filter_drops_implausible_jump(seg_cfg):
    traj = Trajectory("a", [loc(0, 0, 0), loc(10_000, 0, 10)])
    kept = filter_noise(traj, seg_cfg).locations
    assert kept == traj.locations[:1]


def test_filter_single_point_unchanged(seg_cfg):
    traj = Trajectory("a", [loc(0, 0, 42)])
    assert filter_noise(traj, seg_cfg) == traj


def test_filter_measures_from_last_retained(seg_cfg):
    # the bad point is dropped; the next one is judged against the first point
    traj = Trajectory("a", [loc(0, 0, 0), loc(10_000, 0, 10), loc(50, 0, 20)])
    kept = filter_noise(traj, seg_cfg).locations
    assert [l.t for l in kept] == [0, 20]


# --- segmentation --------------------------------------------------------------


def test_segment_four_clusters(seg_cfg):
    # four dwell clusters separated by jumps larger than the 200 m bound
    points = []
    t = 0
    for cluster in range(4):
        base = cluster * 1000.0
        for k in range(5):
            points.append(loc(base + 10.0 * k, 0, t))
            t += 60
    segs = segment(Trajectory("walk", points), seg_cfg)
    assert len(segs) == 4
    assert [len(s.locations) for s in segs] == [5, 5, 5, 5]


def test_segment_identical_points_single_segment(seg_cfg):
    points = [loc(0, 0, t) for t in range(0, 1700, 100)]
    segs = segment(Trajectory("still", points), seg_cfg)
    assert len(segs) == 1


def test_segment_alternating_far_points(seg_cfg):
    points = [loc(1000.0 * (i % 2), 0, i * 10) for i in range(8)]
    segs = segment(Trajectory("pingpong", points), seg_cfg)
    assert len(segs) == 8


def test_segment_sids_and_order(seg_cfg):
    points = [loc(0, 0, 0), loc(5000, 0, 600), loc(10_000, 0, 1200)]
    segs = segment(Trajectory("q", points), seg_cfg)
    assert [s.sid for s in segs] == ["q#0", "q#1", "q#2"]
    assert all(a.st <= b.st for a, b in zip(segs, segs[1:]))


def test_segment_max_span_force_close(seg_cfg):
    cfg = SegmentationConfig(d_seg=200.0, t_seg=10_000, max_speed=50.0)
    points = [loc(0, 0, t) for t in range(0, 9000, 1000)]
    segs = segment(Trajectory("a", points), cfg, max_span=3000)
    assert all(s.et - s.st <= 3000 for s in segs)
    assert sum(len(s.locations) for s in segs) == len(points)


# --- segmentation properties ----------------------------------------------------

walk_steps = st.lists(
    st.tuples(
        st.floats(-350.0, 350.0, allow_nan=False),
        st.floats(-350.0, 350.0, allow_nan=False),
        st.integers(0, 900),
    ),
    min_size=1,
    max_size=40,
)


def _walk_trajectory(steps) -> Trajectory:
    east = north = 0.0
    t = 1_000_000
    points = []
    for de, dn, dt in steps:
        east += de
        north += dn
        t += dt
        points.append(loc(east, north, t))
    return Trajectory("w", points)


@given(walk_steps)
@settings(max_examples=120, deadline=None)
def test_segment_partition_and_pairwise(steps):
    cfg = SegmentationConfig()
    traj = _walk_trajectory(steps)
    segs = segment(traj, cfg)
    # partition: concatenation reproduces the input exactly
    flat = tuple(l for s in segs for l in s.locations)
    assert flat == traj.locations
    # pairwise bounds inside every segment
    for s in segs:
        for i, a in enumerate(s.locations):
            for b in s.locations[i + 1:]:
                assert a.distance_m(b) <= cfg.d_seg + 1e-9
                assert abs(a.t - b.t) <= cfg.t_seg


@given(walk_steps)
@settings(max_examples=120, deadline=None)
def test_segment_maximality_and_determinism(steps):
    cfg = SegmentationConfig()
    traj = _walk_trajectory(steps)
    segs = segment(traj, cfg)
    assert segs == segment(traj, cfg)
    for cur, nxt in zip(segs, segs[1:]):
        head = nxt.locations[0]
        violates = head.t - cur.locations[0].t > cfg.t_seg or any(
            p.distance_m(head) > cfg.d_seg for p in cur.locations
        )
        assert violates, "segment closed although the next point still fits"


# --- bounds helpers --------------------------------------------------------------


def test_mbr_of_single_point_degenerate():
    p = loc(0, 0, 0)
    box = mbr_of([p])
    assert (box.min_lon, box.min_lat) == (box.max_lon, box.max_lat) == (p.lon, p.lat)


def test_mbr_of_two_points_spans_them():
    a, b = loc(0, 0, 0), loc(500, -300, 1)
    box = mbr_of([a, b])
    assert box.min_lon == min(a.lon, b.lon) and box.max_lon == max(a.lon, b.lon)
    assert box.min_lat == min(a.lat, b.lat) and box.max_lat == max(a.lat, b.lat)


def test_mbr_of_matches_fold_oracle():
    rng = random.Random(1234)
    points = [loc(rng.uniform(-5000, 5000), rng.uniform(-5000, 5000), i) for i in range(100)]
    box = mbr_of(points)
    lons = [p.lon for p in points]
    lats = [p.lat for p in points]
    assert box == MBR(min(lons), min(lats), max(lons), max(lats))
    tr = time_range_of(points)
    assert tr == TimeRange(min(p.t for p in points), max(p.t for p in points))


# --- CSV loading -----------------------------------------------------------------


def test_csv_roundtrip_with_header_and_junk(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text(
        "traj_id,lon,lat,unix_seconds\n"
        "a,116.39,39.90,100\n"
        "not,a,valid,line,at,all\n"
        "a,116.391,39.901,200\n"
        "b,10.0,bad,300\n"
        "b,10.0,50.0,300\n"
    )
    trajs, skipped = load_trajectories_csv(str(path))
    assert skipped == 2
    by_id = {t.id: t for t in trajs}
    assert len(by_id["a"].locations) == 2
    assert len(by_id["b"].locations) == 1


def test_csv_resorts_out_of_order_points(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("a,116.39,39.90,200\na,116.39,39.90,100\n")
    trajs, skipped = load_trajectories_csv(str(path))
    assert skipped == 0
    assert [l.t for l in trajs[0].locations] == [100, 200]
