"""The chunked column parser of points CSVs against the ``csv.reader`` loop
in ``reference.py``.

Trajectories are compared by id, order and points, with coordinates as
their float64 bytes so that -0.0 against 0.0 fails, and so is the count of
skipped lines. Chunk sizes down to one character put the header, runs of one
id and rows that need ``csv.reader`` across chunk boundaries.
"""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdtrace.model as model
import reference
from crowdtrace import load_trajectories_csv
from crowdtrace.model import read_points_csv


def parsed(trajectories):
    return [
        (traj.id, [(struct.pack("<dd", p.lon, p.lat), type(p.t), p.t) for p in traj.locations])
        for traj in trajectories
    ]


def both(text: str, chunk: int = model.CSV_CHUNK):
    """(new, reference) parse of ``text``: trajectories and skipped count."""
    saved = model.CSV_CHUNK
    model.CSV_CHUNK = chunk
    try:
        got, skipped = load_trajectories_csv(io.StringIO(text, newline=""))
    finally:
        model.CSV_CHUNK = saved
    want, want_skipped = reference.load_trajectories_csv(io.StringIO(text, newline=""))
    return (parsed(got), skipped), (parsed(want), want_skipped)


IDS = ["a", "b", "t00001", " c ", "é", "x y", "7", "12", "", "  ", "\t", "a\x00b", "x\ry", "a,b", "a\nb", 'q"r']
COORDS = ["116.39", "39.9", "-0.0", "0", "0.0", "-180", "180.0", "90", "-90.0", "1_0", " 12.5 ",
          "+3", "1e1", "nan", "-nan", "inf", "-inf", "infinity", "200", "-90.5", "1e400", "abc", "",
          "٣", "5e-324", "-5e-324", "1.7976931348623157e308"]
TIMES = ["0", "5", "100", "7", " 8 ", "1_0", "+9", "٣", "-1", "1.5", "", "x", "9223372036854775807"]
ENDINGS = ["\n", "\n", "\n", "\r\n", "\r"]


@st.composite
def lines(draw):
    kind = draw(st.sampled_from(["point"] * 6 + ["short", "long", "blank"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "  "]))
    fields = [draw(st.sampled_from(IDS)), draw(st.sampled_from(COORDS)), draw(st.sampled_from(COORDS)),
              draw(st.sampled_from(TIMES))]
    if kind == "short":
        fields = fields[:3]
    elif kind == "long":
        fields += draw(st.lists(st.sampled_from(COORDS + TIMES), min_size=1, max_size=2))
    out = []
    for field in fields:
        if draw(st.integers(0, 9)) == 0 or any(c in field for c in ',\n"'):
            field = '"' + field.replace('"', '""') + '"'  # quoted, as csv.writer quotes
        out.append(field)
    return ",".join(out)


@st.composite
def documents(draw):
    rows = draw(st.lists(lines(), max_size=40))
    if draw(st.booleans()):
        rows.insert(0, draw(st.sampled_from(["traj_id,lon,lat,unix_seconds", "id,x", ""])))
    endings = [draw(st.sampled_from(ENDINGS)) for _ in rows]
    text = "".join(r + e for r, e in zip(rows, endings))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no newline at the end
    return text


@st.composite
def plain_documents(draw):
    """Mostly well-formed unquoted rows, so that chunks take the split path:
    ids out of contiguous order, times out of order, ties."""
    n = draw(st.integers(0, 60))
    rows = [
        f"{draw(st.sampled_from(['a', 'b', 'c', ' d ']))},"
        f"{draw(st.sampled_from(['116.39', '-0.0', '0.0', '-180', '180', '1_0']))},"
        f"{draw(st.sampled_from(['39.9', '-0.0', '0', '90', '-90']))},"
        f"{draw(st.sampled_from(['0', '5', '100', '5', ' 7 ']))}"
        for _ in range(n)
    ]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(lines()))  # one row that may need csv.reader
    if draw(st.booleans()):
        rows.insert(0, "traj_id,lon,lat,unix_seconds")
    return draw(st.sampled_from(["\n", "\r\n"])).join(rows) + draw(st.sampled_from(["", "\n"]))


CHUNKS = st.sampled_from([1, 2, 3, 5, 8, 13, 64, 1 << 18])


@given(documents(), CHUNKS)
@settings(max_examples=400, deadline=None)
def test_parser_matches_reference(text, chunk):
    got, want = both(text, chunk)
    assert got == want


@given(plain_documents(), CHUNKS)
@settings(max_examples=300, deadline=None)
def test_plain_chunks_match_reference(text, chunk):
    got, want = both(text, chunk)
    assert got == want


def test_quoted_field_across_a_chunk_boundary():
    text = 'a,1,2,3\n"b\nc",1,2,4\nd,1,2,5\n"e",1,2,6\n'
    for chunk in range(1, len(text) + 2):
        got, want = both(text, chunk)
        assert got == want
        assert [t for t, _ in got[0]] == ["a", "b\nc", "d", "e"]


def test_rows_of_three_and_five_fields_do_not_pair_up():
    # split as one run of fields they would make (a,1,2,3) and (4,5,6,7); csv.reader
    # skips the short row and reads the first four fields of the long one
    got, want = both("b,1,2,3\na,1,2\n3,4,5,6,7\n")
    assert got == want
    assert ([t for t, _ in got[0]], got[1]) == (["b", "3"], 1)


def test_bare_cr_inside_a_field_ends_the_record():
    got, want = both("x\ry,1,2,3\nb,1,2,3\n")
    assert got == want
    assert ([t for t, _ in got[0]], got[1]) == (["y", "b"], 0)  # "x" alone is the header


def test_header_is_the_first_record_only():
    for text in ["traj_id,lon,lat,t\na,1,2,3\nbad\n", "\ntraj_id,lon,lat,t\na,1,2,3\n", "a,1,2,3\nh,x,y,z\n"]:
        for chunk in (1, 4, 1 << 18):
            got, want = both(text, chunk)
            assert got == want
            assert got[1] == 1


def test_columns_group_by_first_appearance_and_sort_by_time(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("b,1.0,2.0,50\na,3.0,4.0,20\nb,-0.0,0.0,10\na,5.0,6.0,20\nb,7.0,8.0,50\n")
    tracks, skipped = read_points_csv(str(path))
    assert skipped == 0
    assert tracks.ids == ["b", "a"]
    assert tracks.offsets.tolist() == [0, 3, 5]
    assert tracks.t.tolist() == [10, 50, 50, 20, 20]
    assert tracks.lon.tolist() == [-0.0, 1.0, 7.0, 3.0, 5.0]
    assert np.signbit(tracks.lon[0]) and not np.signbit(tracks.lat[0])
    assert tracks.t.dtype == np.int64 and tracks.lon.dtype == np.float64


def test_empty_and_header_only_files():
    for text in ["", "\n", "traj_id,lon,lat,unix_seconds\n", "\r\n\r\n"]:
        tracks, skipped = read_points_csv(io.StringIO(text, newline=""))
        assert (len(tracks), len(tracks.t), tracks.offsets.tolist(), skipped) == (0, 0, [0], 0)


@pytest.mark.parametrize("chunk", [1, 1 << 18])
@pytest.mark.parametrize("t", ["9223372036854775808", "99999999999999999999999"])
def test_timestamp_beyond_int64_is_a_malformed_line(monkeypatch, t, chunk):
    # the columns hold int64; such a row used to pass the parser and fail at encoding
    monkeypatch.setattr(model, "CSV_CHUNK", chunk)
    tracks, skipped = read_points_csv(io.StringIO(f"a,1,2,3\na,1,2,{t}\n", newline=""))
    assert (tracks.t.tolist(), skipped) == ([3], 1)


def test_plain_lines_take_the_split_path(monkeypatch):
    taken = []
    rows = model._Parser.rows
    monkeypatch.setattr(model._Parser, "rows", lambda self, lines: taken.append(1) or rows(self, lines))
    monkeypatch.setattr(model, "CSV_CHUNK", 256)
    text = "traj_id,lon,lat,unix_seconds\n" + "".join(f"a{k % 7},116.39,39.9,{k}\r\n" for k in range(500))
    tracks, skipped = read_points_csv(io.StringIO(text, newline=""))
    assert (len(tracks), len(tracks.t), skipped) == (7, 500, 0)
    assert len(taken) == 1  # the header line alone went through csv.reader
