import io
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from crowdtrace import (
    GenConfig,
    Location,
    QueryParams,
    SegmentationConfig,
    Trajectory,
    exhaustive_irq,
    generate,
    write_labels,
    write_points_csv,
)


@pytest.mark.parametrize("field", [dict(contact_dist=math.nan), dict(contact_dist=math.inf), dict(contact_dist=-1.0),
                                   dict(contact_dt=math.inf), dict(contact_dt=math.nan), dict(contact_dt=-1.0),
                                   dict(dwell_prob=5.0), dict(dwell_prob=math.nan), dict(dwell_prob=-1.0)])
def test_gen_config_refuses_nonsense(field):
    with pytest.raises(ValueError, match=next(iter(field))):
        GenConfig(**field)


def test_gen_config_takes_the_edges():
    edges = GenConfig(n_traj=3, contact_fraction=0.5, contact_dist=0.0, contact_dt=0.0, dwell_prob=0.0)
    for cfg in (edges, replace(edges, dwell_prob=1.0)):
        trajectories, labels = generate(cfg)
        assert len(trajectories) == 3 and len(labels) == 1


def csv_bytes(trajectories) -> str:
    buf = io.StringIO()
    write_points_csv(trajectories, buf)
    return buf.getvalue()


def test_same_seed_same_bytes():
    cfg = GenConfig(seed=42, n_traj=60, contact_fraction=0.1)
    a_trajs, a_labels = generate(cfg)
    b_trajs, b_labels = generate(cfg)
    assert csv_bytes(a_trajs) == csv_bytes(b_trajs)
    assert a_labels == b_labels


def test_different_seed_different_bytes():
    a, _ = generate(GenConfig(seed=1, n_traj=30))
    b, _ = generate(GenConfig(seed=2, n_traj=30))
    assert csv_bytes(a) != csv_bytes(b)


def test_zero_contact_fraction_empty_labels(tmp_path):
    _, labels = generate(GenConfig(seed=5, n_traj=40, contact_fraction=0.0))
    assert labels == []
    path = tmp_path / "labels.csv"
    write_labels(labels, str(path))
    assert path.read_text() == ""


def test_labels_are_real_trajectory_ids():
    trajs, labels = generate(GenConfig(seed=9, n_traj=50, contact_fraction=0.2))
    ids = {t.id for t in trajs}
    assert len(labels) == round(0.2 * 49)
    assert set(labels) <= ids
    assert "t00000" not in labels  # the patient is not its own contact


def test_planted_contacts_recovered_at_low_threshold():
    cfg = GenConfig(seed=12, n_traj=500, contact_fraction=0.1)
    trajectories, labels = generate(cfg)
    assert len(labels) == round(0.1 * 499)
    params = QueryParams(theta=0.3)
    patient = trajectories[0]
    others = [t for t in trajectories if t.id != patient.id]
    found = {tid for tid, _ in exhaustive_irq(patient, others, params, SegmentationConfig())}
    recovered = len(set(labels) & found) / len(labels)
    assert recovered >= 0.9


def test_points_within_region_and_sorted():
    cfg = GenConfig(seed=3, n_traj=40, contact_fraction=0.1)
    trajectories, _ = generate(cfg)
    pad = 1e-3  # contact jitter may nudge shadows slightly past the region edge
    for traj in trajectories:
        ts = [l.t for l in traj.locations]
        assert ts == sorted(ts)
        for l in traj.locations:
            assert cfg.region.min_lon - pad <= l.lon <= cfg.region.max_lon + pad
            assert cfg.region.min_lat - pad <= l.lat <= cfg.region.max_lat + pad


_ID_CHARS = st.characters(blacklist_categories=("Cs",))  # any text a UTF-8 file can hold


@given(
    st.lists(
        st.tuples(
            st.one_of(st.text(_ID_CHARS, max_size=8),
                      st.text(st.sampled_from(',"\r\n a#é '), max_size=6)),
            st.lists(st.builds(Location,
                               lon=st.one_of(st.floats(-180.0, 180.0), st.just(-0.0)),
                               lat=st.one_of(st.floats(-90.0, 90.0), st.just(-0.0)),
                               t=st.integers(0, 2**63 - 1)),
                     max_size=5),
        ),
        max_size=6,
    ),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_write_points_csv_matches_reference(tracks, header):
    trajectories = [Trajectory(tid, sorted(locs, key=lambda p: p.t)) for tid, locs in tracks if tid and locs]
    want, got = io.StringIO(), io.StringIO()
    reference.write_points_csv(trajectories, want, header=header)
    write_points_csv(trajectories, got, header=header)
    assert got.getvalue() == want.getvalue()
