"""The columnar kernel against the scalar reference loops in ``reference.py``.

Segments are compared as encoded records as well as by value, so a box
corner of -0.0 where the reference has 0.0 fails too.
"""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdtrace.store as store
import reference
from crowdtrace import (
    Location,
    MemoryBackend,
    SegmentationConfig,
    Trajectory,
    XzConfig,
    encode_segment,
    filter_noise,
    filter_noise_batch,
    haversine_m,
    ingest,
    load_trajectories_csv,
    segment,
    storage_segments,
)
from crowdtrace.cli import main
from crowdtrace.model import BATCH_POINTS, segment_batch
from conftest import deg_lat, deg_lon, log_frames


def records(segs):
    return [encode_segment(s) for s in segs]


def same_segments(got, want):
    assert got == want
    assert records(got) == records(want)


ANCHORS = [(116.39, 39.9), (0.0, 0.0), (-0.0, -0.0), (179.999, -60.0)]


@st.composite
def trajectories(draw, traj_id="a", max_points=40):
    """Short tracks that often sit on thresholds: repeated points, equal
    timestamps, steps on a coarse grid and coordinates of either zero."""
    lon0, lat0 = draw(st.sampled_from(ANCHORS))
    n = draw(st.integers(1, max_points))
    offsets = st.one_of(st.sampled_from([0.0, 0.0, 50.0, -100.0, 200.0]), st.floats(-600.0, 600.0))
    steps = st.sampled_from([0, 0, 1, 7, 30, 60, 90, 600, 1799, 1800, 1801, 3600])
    t = draw(st.integers(0, 10_000))
    points = []
    for _ in range(n):
        t += draw(steps)
        lat = lat0 + deg_lat(draw(offsets))
        lon = lon0 + deg_lon(draw(offsets), abs(lat0))
        lon = min(180.0, max(-180.0, lon))
        if lon == 0.0 and draw(st.booleans()):
            lon = -lon
        if lat == 0.0 and draw(st.booleans()):
            lat = -lat
        points.append(Location(lon, lat, t))
    return Trajectory(traj_id, points)


seg_configs = st.builds(
    SegmentationConfig,
    d_seg=st.sampled_from([30.0, 200.0, 1000.0]),
    t_seg=st.sampled_from([60, 600, 1800]),
    max_speed=st.sampled_from([0.5, 5.0, 50.0]),
)
xz_configs = st.builds(XzConfig, resolution=st.just(12), period_len=st.sampled_from([120, 3600, 86_400]))
populations = st.lists(trajectories(max_points=25), min_size=1, max_size=12).map(
    lambda ts: [Trajectory(f"p{k}", t.locations) for k, t in enumerate(ts)]
)


# --- random comparison -----------------------------------------------------------


@given(trajectories(), seg_configs)
@settings(max_examples=200, deadline=None)
def test_filter_noise_matches_reference(traj, cfg):
    assert filter_noise(traj, cfg).locations == reference.filter_noise(traj, cfg).locations


@given(populations, seg_configs)
@settings(max_examples=200, deadline=None)
def test_filter_noise_batch_matches_reference(population, cfg):
    got = filter_noise_batch(population, cfg)
    assert [t.id for t in got] == [t.id for t in population]
    for traj, kept in zip(population, got):
        want = reference.filter_noise(traj, cfg).locations
        assert kept.locations == want
        assert (kept is traj) == (len(want) == len(traj))  # one that keeps all is returned as is
    assert filter_noise_batch([], cfg) == []


@given(trajectories(), seg_configs, st.sampled_from([None, 0, 60, 599, 3600]))
@settings(max_examples=200, deadline=None)
def test_segment_matches_reference(traj, cfg, max_span):
    same_segments(segment(traj, cfg, max_span), reference.segment(traj, cfg, max_span))


@given(trajectories(), seg_configs, xz_configs)
@settings(max_examples=200, deadline=None)
def test_storage_segments_matches_reference(traj, cfg, xz_cfg):
    same_segments(storage_segments(traj, xz_cfg, cfg), reference.storage_segments(traj, xz_cfg, cfg))


@given(populations, seg_configs, xz_configs)
@settings(max_examples=100, deadline=None)
def test_batches_match_reference(population, cfg, xz_cfg):
    got = store.storage_batch(population, xz_cfg, cfg)
    for traj, segs in zip(population, got):
        same_segments(segs, reference.storage_segments(traj, xz_cfg, cfg))
    unsplit = segment_batch(population, cfg)
    for traj, segs in zip(population, unsplit):
        same_segments(segs, reference.segment(traj, cfg))


# --- thresholds ----------------------------------------------------------------


def pair(d_north=150.0, dt=60, lat0=39.9):
    return Trajectory("p", [Location(116.39, lat0, 0), Location(116.39 + deg_lon(30.0, lat0), lat0 + deg_lat(d_north), dt)])


def test_points_exactly_d_seg_apart_share_a_segment():
    traj = pair()
    d = haversine_m(*[c for p in traj.locations for c in (p.lon, p.lat)])
    on = SegmentationConfig(d_seg=d)
    below = SegmentationConfig(d_seg=math.nextafter(d, 0.0))
    assert len(segment(traj, on)) == 1
    assert len(segment(traj, below)) == 2
    for cfg in (on, below):
        same_segments(segment(traj, cfg), reference.segment(traj, cfg))


def test_many_pairs_on_the_d_seg_threshold():
    # every pair of a dense track whose distance is the bound, one at a time
    pts = [Location(116.39 + deg_lon(37.0 * k), 39.9 + deg_lat(11.0 * (k % 3)), 10 * k) for k in range(12)]
    traj = Trajectory("dense", pts)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = pts[i].distance_m(pts[j])
            for bound in (d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)):
                cfg = SegmentationConfig(d_seg=bound)
                same_segments(segment(traj, cfg), reference.segment(traj, cfg))


def test_step_exactly_at_max_speed_is_kept():
    traj = pair(dt=10)
    a, b = traj.locations
    speed = a.distance_m(b) / 10
    assert filter_noise(traj, SegmentationConfig(max_speed=speed)).locations == traj.locations
    slower = SegmentationConfig(max_speed=math.nextafter(speed, 0.0))
    assert filter_noise(traj, slower).locations == traj.locations[:1]
    for cfg in (SegmentationConfig(max_speed=speed), slower):
        assert filter_noise(traj, cfg) == reference.filter_noise(traj, cfg)


def test_zero_time_steps():
    same = Trajectory("s", [Location(116.39, 39.9, 5), Location(116.39, 39.9, 5), Location(116.39, 39.9, 5)])
    assert filter_noise(same, SegmentationConfig()) is same
    moved = Trajectory("m", [Location(116.39, 39.9, 5), Location(116.3901, 39.9, 5), Location(116.39, 39.9, 6)])
    assert [p.t for p in filter_noise(moved, SegmentationConfig()).locations] == [5, 6]
    # distinct points whose scalar distance underflows to 0.0 are kept
    tiny = Trajectory("z", [Location(0.0, 0.0, 5), Location(0.0, 5e-324, 5)])
    assert haversine_m(0.0, 0.0, 0.0, 5e-324) == 0.0
    assert filter_noise(tiny, SegmentationConfig()).locations == tiny.locations
    for traj in (same, moved, tiny):
        cfg = SegmentationConfig()
        assert filter_noise(traj, cfg) == reference.filter_noise(traj, cfg)
        same_segments(storage_segments(traj, XzConfig(), cfg), reference.storage_segments(traj, XzConfig(), cfg))


def test_single_point_trajectories():
    xz_cfg, cfg = XzConfig(), SegmentationConfig()
    one = Trajectory("one", [Location(-0.0, 0.0, 7)])
    assert filter_noise(one, cfg) is one
    same_segments(segment(one, cfg), reference.segment(one, cfg))
    same_segments(storage_segments(one, xz_cfg, cfg), reference.storage_segments(one, xz_cfg, cfg))
    population = [Trajectory(f"s{k}", [Location(116.39, 39.9, k)]) for k in range(5)]
    for traj, segs in zip(population, store.storage_batch(population, xz_cfg, cfg)):
        assert [s.sid for s in segs] == [f"{traj.id}#0"]


def test_run_across_a_period_boundary_is_split():
    xz_cfg, cfg = XzConfig(period_len=3600), SegmentationConfig(t_seg=4000)
    traj = Trajectory("b", [Location(116.39, 39.9, t) for t in (3500, 3590, 3600, 3610, 7199, 7200)])
    segs = storage_segments(traj, xz_cfg, cfg)
    assert [[p.t for p in s.locations] for s in segs] == [[3500, 3590], [3600, 3610], [7199], [7200]]
    same_segments(segs, reference.storage_segments(traj, xz_cfg, cfg))


def test_pre_epoch_timestamps_raise():
    with pytest.raises(ValueError, match="precedes the index epoch"):
        storage_segments(Trajectory("e", [Location(0.0, 0.0, 5)]), XzConfig(epoch=10), SegmentationConfig())


# --- batches -----------------------------------------------------------------------


class Recorder:
    """A backend that keeps every put, in order."""

    def __init__(self):
        self.puts = []

    def put(self, key, value):
        self.puts.append((key, value))


def walk(traj_id, n, seed, t0=1_600_000_000):
    rng = random.Random(seed)
    east = north = 0.0
    t = t0
    points = []
    for _ in range(n):
        points.append(Location(116.39 + deg_lon(east), 39.9 + deg_lat(north), t))
        t += rng.choice([0, 20, 60, 90, 400])
        if rng.random() < 0.6:
            east += rng.gauss(0.0, 60.0)
            north += rng.gauss(0.0, 60.0)
        if rng.random() < 0.01:
            east += 5000.0  # a jump the noise gate drops
    return Trajectory(traj_id, points)


@given(populations, seg_configs, xz_configs, st.sampled_from([1, 3]))
@settings(max_examples=150, deadline=None)
def test_ingest_frames_match_reference(population, cfg, xz_cfg, shards):
    # keys and records written from the kernel's columns, zero box corners and shard bytes included
    xz_cfg = replace(xz_cfg, num_shards=shards)
    rec = Recorder()
    assert ingest(population, xz_cfg, cfg, rec) == len(rec.puts)
    assert rec.puts == reference.frames(population, xz_cfg, cfg)


def test_trajectory_longer_than_the_batch_budget():
    xz_cfg, cfg = XzConfig(period_len=7200), SegmentationConfig()
    long = walk("long", BATCH_POINTS + 500, seed=1)
    same_segments(storage_segments(long, xz_cfg, cfg), reference.storage_segments(long, xz_cfg, cfg))
    population = [walk("a", 30, seed=2), long, walk("b", 3, seed=3)]
    rec = Recorder()
    assert ingest(population, xz_cfg, cfg, rec) == len(rec.puts)
    assert rec.puts == reference.frames(population, xz_cfg, cfg)


@pytest.mark.parametrize("budget", [1, 7, 64])
def test_batches_that_end_mid_population(monkeypatch, budget):
    monkeypatch.setattr(store, "BATCH_POINTS", budget)
    xz_cfg, cfg = XzConfig(period_len=3600, epoch=1_600_000_100), SegmentationConfig()
    population = [walk(f"w{k}", 1 + (k * 7) % 40, seed=k, t0=1_600_000_200) for k in range(60)]
    population.insert(5, walk("early", 10, seed=99, t0=1_600_000_000))  # rejected: precedes the epoch
    rec = Recorder()
    ingest(population, xz_cfg, cfg, rec)
    assert rec.puts == reference.frames(population, xz_cfg, cfg)
    assert all(not key.endswith(b"early#0") for key, _ in rec.puts)


def test_ingest_writes_the_reference_frames(tmp_path, capsys):
    points = tmp_path / "points.csv"
    assert main(["gen", "--seed", "42", "--n-traj", "500", "--out", str(points)]) == 0
    assert main(["ingest", "--input", str(points), "--store", str(tmp_path / "store")]) == 0
    capsys.readouterr()
    trajectories, _ = load_trajectories_csv(str(points))
    want = reference.frames(trajectories, XzConfig(), SegmentationConfig())
    assert log_frames(tmp_path / "store" / "segments.log") == want
    backend = MemoryBackend()
    ingest(trajectories, XzConfig(), SegmentationConfig(), backend)
    assert len(backend) == len(want)
