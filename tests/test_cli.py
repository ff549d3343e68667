import csv
import io
import os

from crowdtrace.cli import main
from conftest import log_frames


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_twin_csv(path):
    lines = []
    for tid in ("alpha", "beta"):
        for k, (e, t) in enumerate([(0.0, 100), (0.0001, 160), (0.0002, 230)]):
            lines.append(f"{tid},{116.39 + e},{39.9},{t}")
    path.write_text("\n".join(lines) + "\n")


def query_csv_of(path, tid="alpha"):
    rows = [r for r in path.read_text().splitlines() if r.startswith(tid + ",")]
    return "\n".join(rows) + "\n"


def test_gen_is_byte_deterministic(tmp_path, capsys):
    a = tmp_path / "a" / "points.csv"
    b = tmp_path / "b" / "points.csv"
    a.parent.mkdir()
    b.parent.mkdir()
    for out in (a, b):
        code, _, _ = run(["gen", "--seed", "42", "--n-traj", "40", "--out", str(out)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert (a.parent / "labels.csv").read_bytes() == (b.parent / "labels.csv").read_bytes()
    assert len((a.parent / "labels.csv").read_text().splitlines()) == round(0.1 * 39)


def test_gen_zero_contacts_empty_labels(tmp_path, capsys):
    out = tmp_path / "points.csv"
    code, _, _ = run(
        ["gen", "--seed", "1", "--n-traj", "10", "--contact-fraction", "0", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "labels.csv").read_text() == ""


def test_ingest_then_query_identity(tmp_path, capsys):
    points = tmp_path / "points.csv"
    write_twin_csv(points)
    store = tmp_path / "store"
    code, out, _ = run(["ingest", "--input", str(points), "--store", str(store)], capsys)
    assert code == 0 and "ingested" in out

    result = tmp_path / "result.csv"
    code, _, _ = run(
        ["query", "--store", str(store), "--traj-id", "alpha", "--out", str(result)], capsys
    )
    assert code == 0
    assert result.read_text() == "traj_id,ir\nbeta,1.000000000\n"


def test_query_theta_one_header_only(tmp_path, capsys):
    points = tmp_path / "points.csv"
    write_twin_csv(points)
    store = tmp_path / "store"
    run(["ingest", "--input", str(points), "--store", str(store)], capsys)
    code, out, _ = run(
        ["query", "--store", str(store), "--traj-id", "alpha", "--theta", "1.0"], capsys
    )
    assert code == 0
    assert out == "traj_id,ir\n"


def test_query_explain_appends_counter_lines(tmp_path, capsys):
    points = tmp_path / "points.csv"
    write_twin_csv(points)
    store = tmp_path / "store"
    run(["ingest", "--input", str(points), "--store", str(store)], capsys)
    code, out, _ = run(
        ["query", "--store", str(store), "--traj-id", "alpha", "--explain"], capsys
    )
    assert code == 0
    comment = [l for l in out.splitlines() if l.startswith("#")]
    assert any(l.startswith("# candidates=") for l in comment)
    assert any(l.startswith("# lemma1=") for l in comment)


def test_query_from_csv_and_join_agree(tmp_path, capsys):
    points = tmp_path / "points.csv"
    code, _, _ = run(
        ["gen", "--seed", "9", "--n-traj", "60", "--out", str(points)], capsys
    )
    store = tmp_path / "store"
    run(["ingest", "--input", str(points), "--store", str(store)], capsys)

    qcsv = tmp_path / "query.csv"
    qcsv.write_text(query_csv_of(points, "t00000"))
    code, qout, _ = run(["query", "--store", str(store), "--query-csv", str(qcsv)], capsys)
    assert code == 0

    code, jout, _ = run(["join", "--store", str(store), "--query-csv", str(qcsv)], capsys)
    assert code == 0
    q_rows = list(csv.DictReader(io.StringIO(qout)))
    j_rows = [r for r in csv.DictReader(io.StringIO(jout)) if r["query_traj_id"] == "t00000"]
    assert [(r["traj_id"], r["ir"]) for r in q_rows] == [
        (r["candidate_traj_id"], r["ir"]) for r in j_rows
    ]
    assert len(q_rows) > 0


def test_end_to_end_deterministic_across_stores(tmp_path, capsys):
    outputs = []
    for name in ("one", "two"):
        base = tmp_path / name
        base.mkdir()
        points = base / "points.csv"
        run(["gen", "--seed", "31", "--n-traj", "50", "--out", str(points)], capsys)
        store = base / "store"
        run(["ingest", "--input", str(points), "--store", str(store)], capsys)
        result = base / "result.csv"
        run(
            ["query", "--store", str(store), "--traj-id", "t00000", "--out", str(result)],
            capsys,
        )
        outputs.append(result.read_bytes())
    assert outputs[0] == outputs[1]


def test_bench_theta_schema(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run(
        ["bench", "theta", "--n-traj", "60", "--query-size", "4", "--repeats", "1",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert set(rows[0]) == {"sweep_param", "value", "algo", "median_ms", "result_count"}
    assert {r["algo"] for r in rows} == {"irq", "irq_up", "irjq", "irjq_up"}
    assert {r["value"] for r in rows} == {"0.3", "0.4", "0.5", "0.6", "0.7"}
    assert len(rows) == 20


def test_missing_store_is_one_line_error(tmp_path, capsys):
    code, out, err = run(
        ["query", "--store", str(tmp_path / "nope"), "--traj-id", "x"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_unusable_csv_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("this,is\nnot,points\n")
    code, _, err = run(["ingest", "--input", str(bad), "--store", str(tmp_path / "s")], capsys)
    assert code == 2
    assert "no usable trajectories" in err


def test_invalid_parameter_range_is_an_error(tmp_path, capsys):
    points = tmp_path / "points.csv"
    write_twin_csv(points)
    store = tmp_path / "store"
    run(["ingest", "--input", str(points), "--store", str(store)], capsys)
    code, _, err = run(
        ["query", "--store", str(store), "--traj-id", "alpha", "--theta", "1.5"], capsys
    )
    assert code == 2
    assert "theta" in err


def test_store_dir_from_environment(tmp_path, capsys, monkeypatch):
    points = tmp_path / "points.csv"
    write_twin_csv(points)
    monkeypatch.setenv("CONTACT_STORE_DIR", str(tmp_path / "envstore"))
    code, _, _ = run(["ingest", "--input", str(points)], capsys)
    assert code == 0
    assert (tmp_path / "envstore" / "segments.log").exists()


def test_ingest_refuses_a_different_configuration(tmp_path, capsys):
    points = tmp_path / "points.csv"
    run(["gen", "--seed", "5", "--n-traj", "40", "--out", str(points)], capsys)
    store = tmp_path / "store"
    assert run(["ingest", "--input", str(points), "--store", str(store)], capsys)[0] == 0
    query = ["query", "--store", str(store), "--traj-id", "t00000"]
    _, before, _ = run(query, capsys)
    meta = (store / "meta.json").read_bytes()
    log = (store / "segments.log").read_bytes()

    code, out, err = run(
        ["ingest", "--input", str(points), "--store", str(store), "--resolution", "18"], capsys
    )
    assert code == 2 and out == ""
    assert "resolution=15" in err and "resolution=18" in err
    assert (store / "meta.json").read_bytes() == meta
    assert (store / "segments.log").read_bytes() == log
    assert run(query, capsys)[1] == before


def test_reingest_with_the_same_configuration(tmp_path, capsys):
    points = tmp_path / "points.csv"
    write_twin_csv(points)
    store = tmp_path / "store"
    flags = ["--store", str(store), "--resolution", "12", "--period-len", "3600"]
    assert run(["ingest", "--input", str(points)] + flags, capsys)[0] == 0
    assert run(["ingest", "--input", str(points)] + flags, capsys)[0] == 0
    assert sorted(os.listdir(store)) == ["meta.json", "segments.log"]
    code, out, _ = run(["query", "--store", str(store), "--traj-id", "alpha"], capsys)
    assert code == 0 and out == "traj_id,ir\nbeta,1.000000000\n"


def test_join_explain_lists_every_join_counter(tmp_path, capsys):
    points = tmp_path / "points.csv"
    write_twin_csv(points)
    store = tmp_path / "store"
    run(["ingest", "--input", str(points), "--store", str(store)], capsys)
    code, out, _ = run(
        ["join", "--store", str(store), "--query-csv", str(points), "--explain"], capsys
    )
    assert code == 0
    comment = [l.split("=")[0] for l in out.splitlines() if l.startswith("#")]
    assert comment == ["# scan_sets", "# pairs_scored", "# pairs_removed"]


def test_reingest_of_the_same_csv_appends_no_frame(tmp_path, capsys):
    points = tmp_path / "points.csv"
    store = tmp_path / "store"
    run(["gen", "--seed", "7", "--n-traj", "40", "--out", str(points)], capsys)
    assert run(["ingest", "--input", str(points), "--store", str(store)], capsys)[0] == 0
    log = store / "segments.log"
    size, frames = log.stat().st_size, len(log_frames(log))
    code, out, _ = run(["ingest", "--input", str(points), "--store", str(store)], capsys)
    assert code == 0 and out.startswith(f"ingested {frames} segments")
    assert log.stat().st_size == size
    assert len(log_frames(log)) == frames
