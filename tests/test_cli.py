import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crowdtrace
import crowdtrace.cli as cli
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


def test_main_runs_the_command_bound_when_it_is_called(monkeypatch):
    cli.build_parser()  # the cached parser predates the stub below
    calls = []
    monkeypatch.setattr(cli, "cmd_query", lambda args: calls.append(args.traj_id) or 7)
    assert main(["query", "--store", "nowhere", "--traj-id", "t1"]) == 7
    assert calls == ["t1"]


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
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
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


def test_store_dir_from_environment_is_read_by_each_call(tmp_path, capsys, monkeypatch):
    points = tmp_path / "points.csv"
    write_twin_csv(points)
    for name in ("first", "second"):
        monkeypatch.setenv("CONTACT_STORE_DIR", str(tmp_path / name))
        assert run(["ingest", "--input", str(points)], capsys)[0] == 0
        assert (tmp_path / name / "segments.log").exists()
    monkeypatch.setenv("CONTACT_STORE_DIR", str(tmp_path / "none"))
    code, _, err = run(["query", "--traj-id", "alpha"], capsys)
    assert code == 2 and "none" in err


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
    assert comment == ["# scan_sets", "# candidates", "# evaluated", "# lemma1", "# lemma2", "# lemma3", "# lemma4"]


def test_join_leaf_capacity_one_runs(tmp_path, capsys):
    points = tmp_path / "points.csv"
    write_twin_csv(points)
    store = tmp_path / "store"
    run(["ingest", "--input", str(points), "--store", str(store)], capsys)
    join = ["join", "--store", str(store), "--query-csv", str(points), "--explain"]
    _, default, _ = run(join, capsys)
    # in a child process, so that a join that never ends fails the test
    src = str(Path(crowdtrace.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "crowdtrace.cli", *join, "--leaf-capacity", "1"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if not line.startswith("#")]
    assert rows == [line for line in default.splitlines() if not line.startswith("#")]
    # the two overlapping query segments share one scan set at the default
    # capacity and get one each at capacity 1
    assert "# scan_sets=1" in default.splitlines()
    assert "# scan_sets=2" in proc.stdout.splitlines()


@pytest.mark.parametrize("capacity", ["0", "-1"])
def test_join_leaf_capacity_below_one_is_an_error(tmp_path, capsys, capacity):
    points = tmp_path / "points.csv"
    write_twin_csv(points)
    store = tmp_path / "store"
    run(["ingest", "--input", str(points), "--store", str(store)], capsys)
    code, out, err = run(
        ["join", "--store", str(store), "--query-csv", str(points), "--leaf-capacity", capacity],
        capsys,
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "capacity" in err


def test_join_has_no_resolution_flag(tmp_path, capsys):
    points = tmp_path / "points.csv"
    write_twin_csv(points)
    store = tmp_path / "store"
    run(["ingest", "--input", str(points), "--store", str(store)], capsys)
    with pytest.raises(SystemExit) as exit_:
        main(["join", "--store", str(store), "--query-csv", str(points), "--resolution", "12"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --resolution 12" in capsys.readouterr().err


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


@pytest.mark.parametrize("t, code", [(1_000_000_000_000_000, 2), (2**32 * 86_400, 2), (2**32 * 86_400 - 1, 0)])
def test_ingest_of_a_timestamp_past_the_key_is_one_line_error(tmp_path, capsys, t, code):
    points = tmp_path / "points.csv"
    points.write_text(f"a,116.39,39.9,{t}\n")
    store = tmp_path / "store"
    got, out, err = run(["ingest", "--input", str(points), "--store", str(store)], capsys)
    assert got == code
    if code:
        assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1
        assert log_frames(store / "segments.log") == []
    else:
        assert len(log_frames(store / "segments.log")) == 1


@pytest.mark.parametrize("command", ["query", "join"])
@pytest.mark.parametrize("flag, value", [("--theta-t", "inf"), ("--theta-t", "nan"), ("--theta-d", "inf"),
                                         ("--theta-d", "nan"), ("--theta-d", "-inf")])
def test_a_reach_that_is_not_finite_is_one_line_error(tmp_path, capsys, command, flag, value):
    points = tmp_path / "points.csv"
    write_twin_csv(points)
    store = tmp_path / "store"
    run(["ingest", "--input", str(points), "--store", str(store)], capsys)
    source = ["--traj-id", "alpha"] if command == "query" else ["--query-csv", str(points)]
    code, out, err = run([command, "--store", str(store), *source, f"{flag}={value}"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "theta_d and theta_t must be finite and above 0" in err


_BAD_META = {
    "empty": "{}",
    "unknown unit": None,  # the meta ingest wrote, with its unit replaced
    "text resolution": None,  # the same, with its resolution as text
    "NaN max_speed": None,  # the same, with a max_speed the noise gate cannot use
    "a list": "[1]",
    "not JSON": "{resolution",
}


@pytest.mark.parametrize("case", sorted(_BAD_META))
@pytest.mark.parametrize("command", ["query", "join", "ingest"])
def test_a_malformed_meta_is_one_line_error(tmp_path, capsys, case, command):
    points = tmp_path / "points.csv"
    write_twin_csv(points)
    store = tmp_path / "store"
    assert run(["ingest", "--input", str(points), "--store", str(store)], capsys)[0] == 0
    meta = json.loads((store / "meta.json").read_text())
    if case == "unknown unit":
        meta["unit"] = "fortnight"
    if case == "text resolution":
        meta["resolution"] = "15"
    if case == "NaN max_speed":
        meta["max_speed"] = float("nan")
    (store / "meta.json").write_text(_BAD_META[case] or json.dumps(meta))
    log = (store / "segments.log").read_bytes()
    argv = {"query": ["query", "--traj-id", "alpha"], "join": ["join", "--query-csv", str(points)],
            "ingest": ["ingest", "--input", str(points)]}[command]
    code, out, err = run([*argv, "--store", str(store)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert repr(str(store)) in err and "meta.json" in err
    assert (store / "segments.log").read_bytes() == log


_PARAM_FLAGS = ("--lambda", "--theta", "--theta-d", "--theta-t")
_FLOAT_FLAGS = {
    "gen": ("--contact-fraction", "--contact-dist", "--contact-dt", "--dwell-prob"),
    "ingest": ("--d-seg", "--max-speed"),
    "query-id": _PARAM_FLAGS,
    "query-csv": _PARAM_FLAGS,
    "join": _PARAM_FLAGS,
}
_NUMERIC_CASES = [
    *((command, flag, value) for command, flags in _FLOAT_FLAGS.items() for flag in flags
      for value in ("nan", "inf", "-inf")),
    *(("ingest", flag, "99999999999999999999") for flag in ("--period-len", "--t-seg", "--resolution", "--shards")),
]


@pytest.mark.parametrize("command, flag, value", _NUMERIC_CASES)
def test_numeric_flags_run_or_give_one_error_line(tmp_path, capsys, command, flag, value):
    points = tmp_path / "points.csv"
    write_twin_csv(points)
    patient = tmp_path / "alpha.csv"
    patient.write_text(query_csv_of(points))
    store = tmp_path / "store"
    if command in ("query-id", "query-csv", "join"):
        assert run(["ingest", "--input", str(points), "--store", str(store)], capsys)[0] == 0
    argv = {
        "gen": ["gen", "--n-traj", "3", "--out", str(tmp_path / "gen.csv")],
        "ingest": ["ingest", "--input", str(points), "--store", str(store)],
        "query-id": ["query", "--store", str(store), "--traj-id", "alpha"],
        "query-csv": ["query", "--store", str(store), "--query-csv", str(patient)],
        "join": ["join", "--store", str(store), "--query-csv", str(points)],
    }[command]
    code, out, err = run([*argv, f"{flag}={value}"], capsys)  # a raised exception is a traceback
    assert code in (0, 2)
    if value in ("nan", "inf", "-inf"):
        assert code == 2
    if code == 2:
        assert out == "" and err.endswith("\n")
        assert err.splitlines()[-1].startswith("error:") and err.count("error:") == 1
        if command == "ingest":
            assert not store.exists()
