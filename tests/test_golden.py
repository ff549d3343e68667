"""Byte-stability of the curve codes, row keys and store files against pinned
values.

The TSV files under testdata/ were recorded from this implementation after
its code assignment was verified exhaustively against pre-order enumeration
(see test_xz). The store hashes were recorded from the ingest that built a
``Location`` per point and a ``Segment`` per stay, before it went columnar.
Any change that shifts codes, key bytes or record bytes must fail here.
The query outputs were recorded from the lookup that scanned every record,
before the index kept trajectory ids.
"""

import hashlib
import os

import pytest

from crowdtrace import Location, Segment, XzConfig, XzElement, encode_key, sequence_code
from crowdtrace.cli import main

TESTDATA = os.path.join(os.path.dirname(__file__), "..", "testdata")

GOLDEN_CFG = XzConfig(resolution=15, period_len=86_400, num_shards=4)


def golden_elements() -> list[tuple[int, str]]:
    """(resolution, digit string) pairs pinned in xz_golden.tsv."""
    cases = []
    for g in (1, 2, 3, 4, 6, 8, 15, 31):
        cases.append((g, ""))
        cases.append((g, "0"))
        cases.append((g, "3"))
        for digits in ("210", "123", "333", "0123", "30103"):
            if len(digits) <= g:
                cases.append((g, digits))
    cases.append((15, "210302103021030"))
    cases.append((31, "0123012301230123012301230123012"))
    return cases


def golden_segments() -> list[Segment]:
    """16 fixed segments pinned in key_golden.tsv."""
    out = []
    for i in range(16):
        lon = -170.0 + 20.0 * i
        lat = -80.0 + 10.0 * i
        t0 = 1000 + 50_000 * i
        locs = (
            Location(lon, lat, t0),
            Location(min(lon + 0.001, 180.0), min(lat + 0.0005, 90.0), t0 + 60),
        )
        out.append(Segment.build(f"g{i:02d}#0", f"g{i:02d}", locs))
    return out


def test_sequence_codes_match_golden_file():
    with open(os.path.join(TESTDATA, "xz_golden.tsv"), "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    assert len(lines) == len(golden_elements())
    for (g, digits), (g_file, digits_file, code_file) in zip(golden_elements(), lines):
        assert (str(g), digits) == (g_file, digits_file)
        element = XzElement(tuple(int(c) for c in digits))
        assert sequence_code(element, XzConfig(resolution=g)) == int(code_file)


def test_row_keys_match_golden_file():
    with open(os.path.join(TESTDATA, "key_golden.tsv"), "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    segments = golden_segments()
    assert len(lines) == len(segments)
    for seg, (sid_file, hex_file) in zip(segments, lines):
        assert seg.sid == sid_file
        assert encode_key(seg, GOLDEN_CFG).packed().hex() == hex_file


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_pinned_store_files(tmp_path, capsys):
    points, store = tmp_path / "points.csv", tmp_path / "store"
    assert main(["gen", "--seed", "42", "--n-traj", "5000", "--out", str(points)]) == 0
    assert sha256(points) == "6e2528e057aa169956315c5bbc6ab920ba17a42726234dd8c95ee561ef29fdc4"
    assert main(["ingest", "--input", str(points), "--store", str(store)]) == 0
    assert "ingested 6942 segments from 5000 trajectories" in capsys.readouterr().out
    log = store / "segments.log"
    assert log.stat().st_size == 2_969_593
    assert sha256(log) == "c13d316c8aa5e159418d0b2de08d774f273e25538b63c6da230d5877401b76ca"
    assert sha256(store / "meta.json") == "3c733f88069d9413aaf976abe3df7b4c9a4d1e9f768e5fefd2620f5f0c784506"


@pytest.fixture(scope="module")
def pinned_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    points, store = root / "points.csv", root / "store"
    assert main(["gen", "--seed", "42", "--n-traj", "5000", "--out", str(points)]) == 0
    assert main(["ingest", "--input", str(points), "--store", str(store)]) == 0
    return store


@pytest.mark.parametrize("traj_id, lines, digest", [
    ("t00000", 507, "5cdc37bb609e3357259c58509ae3c6de54e498f971ddc483033f45a2daceeb3a"),
    ("t00001", 7, "73a4ab5551f45ddf8c7ce3e6c5edef36d244e05bbc373d92b0e1795784a381cb"),
], ids=["t00000", "t00001"])
def test_pinned_query_output(pinned_store, tmp_path, traj_id, lines, digest):
    out = tmp_path / "contacts.csv"
    assert main(["query", "--store", str(pinned_store), "--traj-id", traj_id, "--explain", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == lines
    assert sha256(out) == digest
