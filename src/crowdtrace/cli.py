"""Operator commands: gen, ingest, query, join, bench.

A store is a directory holding the segment log plus a meta.json recording the
index and segmentation configuration used at ingest; queries re-read that
configuration so keys always match, and a later ingest must repeat it. The
store path comes from --store or the CONTACT_STORE_DIR environment variable
(default ./store).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from typing import Iterator, TextIO

from . import bench as bench_mod
from .gen import GenConfig, generate, write_labels
from .join import DEFAULT_LEAF_CAPACITY, JOIN_COUNTER_KEYS, irjq
from .metric import QueryParams
from .model import SegmentationConfig, Tracks, Trajectory, load_trajectories_csv, read_points_csv, write_points_csv
from .query import COUNTER_KEYS, irq
from .store import FileBackend, ingest, load_trajectory
from .xz import TimeUnit, XzConfig

META_NAME = "meta.json"
LOG_NAME = "segments.log"


class CliError(Exception):
    """Operator-facing failure with a one-line message."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _default_store() -> str:
    return os.environ.get("CONTACT_STORE_DIR", "./store")


def _meta(xz_cfg: XzConfig, seg_cfg: SegmentationConfig) -> dict:
    return {
        "resolution": xz_cfg.resolution,
        "epoch": xz_cfg.epoch,
        "period_len": xz_cfg.period_len,
        "unit": xz_cfg.unit.name.lower(),
        "num_shards": xz_cfg.num_shards,
        "d_seg": seg_cfg.d_seg,
        "t_seg": seg_cfg.t_seg,
        "max_speed": seg_cfg.max_speed,
    }


def _save_meta(store_dir: str, meta: dict) -> None:
    """Write meta.json whole or not at all: a temporary file, then a rename."""
    path = os.path.join(store_dir, META_NAME)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _read_meta(store_dir: str) -> tuple[dict, XzConfig, SegmentationConfig]:
    """A store's meta.json and the configuration it records. A file that
    does not hold the fields ``_meta`` writes, each of the type it writes
    and a value the configurations accept, is refused with one line that
    names the store."""
    try:
        with open(os.path.join(store_dir, META_NAME), "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        like = _meta(XzConfig(), SegmentationConfig())
        if not isinstance(meta, dict) or meta.keys() != like.keys():
            raise ValueError(f"it must hold exactly the fields {', '.join(like)}")
        for key, value in like.items():
            kind = (int, float) if isinstance(value, float) else type(value)
            if not isinstance(meta[key], kind) or isinstance(meta[key], bool):
                raise ValueError(f"{key} must be of type {type(value).__name__}: {meta[key]!r}")
        if meta["unit"].upper() not in TimeUnit.__members__:
            raise ValueError(f"unit {meta['unit']!r} is not one of {', '.join(TimeUnit.__members__).lower()}")
        xz_cfg = XzConfig(resolution=meta["resolution"], epoch=meta["epoch"], period_len=meta["period_len"],
                          unit=TimeUnit[meta["unit"].upper()], num_shards=meta["num_shards"])
        seg_cfg = SegmentationConfig(d_seg=meta["d_seg"], t_seg=meta["t_seg"], max_speed=meta["max_speed"])
    except ValueError as exc:  # a JSONDecodeError too
        raise CliError(f"store {store_dir!r} has a malformed {META_NAME}: {exc}") from exc
    return meta, xz_cfg, seg_cfg


def _open_store(store_dir: str) -> tuple[FileBackend, XzConfig, SegmentationConfig]:
    meta_path = os.path.join(store_dir, META_NAME)
    log_path = os.path.join(store_dir, LOG_NAME)
    if not (os.path.isfile(meta_path) and os.path.isfile(log_path)):
        raise CliError(f"no store at {store_dir!r} (run ingest first)")
    _, xz_cfg, seg_cfg = _read_meta(store_dir)
    return FileBackend(log_path), xz_cfg, seg_cfg


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """The file at ``path``, closed on leaving, or stdout, left open."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as out:
        yield out


def _write_results(args: argparse.Namespace, header: list[str], results: list[tuple],
                   counters: dict[str, int], keys: tuple[str, ...]) -> None:
    """A query's CSV: ``header``, a row a result with its score to nine
    decimals, then under ``--explain`` a ``# key=value`` line a counter."""
    with _output(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows((*ids, f"{ir:.9f}") for *ids, ir in results)
        if args.explain:
            for key in keys:
                out.write(f"# {key}={counters.get(key, 0)}\n")


def _params(args: argparse.Namespace) -> QueryParams:
    try:
        return QueryParams(
            lam=args.lam, theta=args.theta, theta_d=args.theta_d, theta_t=args.theta_t
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _load_query_csv(path: str, columns: bool = False) -> list[Trajectory] | Tracks:
    """A points CSV's trajectories: ``Trajectory`` objects, or with
    ``columns`` their columns (``read_points_csv``)."""
    try:
        trajectories, skipped = read_points_csv(path) if columns else load_trajectories_csv(path)
    except OSError as exc:
        raise CliError(f"cannot read {path!r}: {exc.strerror}") from exc
    if skipped:
        print(f"# skipped {skipped} malformed lines in {path}", file=sys.stderr)
    if not trajectories:
        raise CliError(f"no usable trajectories in {path!r}")
    return trajectories


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--lambda", dest="lam", type=float, default=0.5, help="spatial weight in [0,1]")
    sub.add_argument("--theta", type=float, default=0.5, help="score threshold in [0,1]")
    sub.add_argument("--theta-d", type=float, default=50.0, help="spatial reach in meters")
    sub.add_argument("--theta-t", type=float, default=120.0, help="temporal reach in seconds")


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = GenConfig(
        seed=args.seed,
        n_traj=args.n_traj,
        contact_fraction=args.contact_fraction,
        contact_dist=args.contact_dist,
        contact_dt=args.contact_dt,
        dwell_prob=args.dwell_prob,
    )
    trajectories, labels = generate(cfg)
    out = args.out or "points.csv"
    write_points_csv(trajectories, out)
    labels_path = os.path.join(os.path.dirname(out) or ".", "labels.csv")
    write_labels(labels, labels_path)
    print(f"wrote {sum(len(t) for t in trajectories)} points for {len(trajectories)} "
          f"trajectories to {out}; {len(labels)} contacts in {labels_path}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    tracks = _load_query_csv(args.input, columns=True)
    xz_cfg = XzConfig(
        resolution=args.resolution, period_len=args.period_len, num_shards=args.shards
    )
    seg_cfg = SegmentationConfig(d_seg=args.d_seg, t_seg=args.t_seg, max_speed=args.max_speed)
    meta = _meta(xz_cfg, seg_cfg)
    meta_path = os.path.join(args.store, META_NAME)
    if os.path.isfile(meta_path):
        stored = _read_meta(args.store)[0]  # with the keys meta has
        changed = sorted(k for k in meta if stored[k] != meta[k])
        if changed:
            was = ", ".join(f"{k}={stored[k]}" for k in changed)
            now = ", ".join(f"{k}={meta[k]}" for k in changed)
            raise CliError(f"store {args.store!r} was built with {was}; this ingest asks for {now}")
    else:
        os.makedirs(args.store, exist_ok=True)
        _save_meta(args.store, meta)
    with FileBackend(os.path.join(args.store, LOG_NAME)) as backend:
        written = ingest(tracks, xz_cfg, seg_cfg, backend)
    print(f"ingested {written} segments from {len(tracks)} trajectories into {args.store}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    params = _params(args)
    backend, xz_cfg, seg_cfg = _open_store(args.store)
    try:
        if args.query_csv:
            trajectories = _load_query_csv(args.query_csv)
            if len(trajectories) != 1:
                raise CliError(f"{args.query_csv!r} must hold exactly one trajectory")
            q = trajectories[0]
        else:
            q = load_trajectory(backend, args.traj_id)
            if q is None:
                raise CliError(f"trajectory {args.traj_id!r} not found in the store")
        counters: dict[str, int] = {}
        results = irq(q, params, backend, xz_cfg, seg_cfg, counters=counters)
    finally:
        backend.close()

    _write_results(args, ["traj_id", "ir"], results, counters, COUNTER_KEYS)
    return 0


def cmd_join(args: argparse.Namespace) -> int:
    params = _params(args)
    backend, xz_cfg, seg_cfg = _open_store(args.store)
    try:
        query_set = _load_query_csv(args.query_csv)
        counters: dict[str, int] = {}
        results = irjq(
            query_set,
            params,
            backend,
            xz_cfg,
            seg_cfg,
            capacity=args.leaf_capacity,
            counters=counters,
        )
    finally:
        backend.close()

    _write_results(args, ["query_traj_id", "candidate_traj_id", "ir"], results, counters, JOIN_COUNTER_KEYS)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        rows = bench_mod.run_suite(
            args.suite,
            repeats=args.repeats,
            n_traj=args.n_traj,
            seed=args.seed,
            query_size=args.query_size,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    with _output(args.out) as out:
        writer = csv.DictWriter(
            out,
            fieldnames=["sweep_param", "value", "algo", "median_ms", "result_count"],
            lineterminator="\n",
        )
        writer.writeheader()
        writer.writerows(rows)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process and shared by
    every ``main`` call; nothing in it depends on the environment."""
    parser = argparse.ArgumentParser(
        prog="crowdtrace",
        description="Trajectory contact store: ingest GPS points, query close contacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a deterministic synthetic workload")
    p_gen.add_argument("--out", help="points CSV path (default points.csv)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--n-traj", type=int, default=500)
    p_gen.add_argument("--contact-fraction", type=float, default=0.1)
    p_gen.add_argument("--contact-dist", type=float, default=50.0)
    p_gen.add_argument("--contact-dt", type=float, default=120.0)
    p_gen.add_argument("--dwell-prob", type=float, default=0.5)

    p_ingest = sub.add_parser("ingest", help="segment, encode and store a points CSV")
    p_ingest.add_argument("--input", required=True, help="points CSV")
    p_ingest.add_argument("--store", help="store directory (default: $CONTACT_STORE_DIR or ./store)")
    p_ingest.add_argument("--resolution", type=int, default=15, help="index quadtree depth")
    p_ingest.add_argument("--period-len", type=int, default=86_400, help="time period seconds")
    p_ingest.add_argument("--shards", type=int, default=1)
    p_ingest.add_argument("--d-seg", type=float, default=200.0, help="segment spatial bound (m)")
    p_ingest.add_argument("--t-seg", type=int, default=1800, help="segment temporal bound (s)")
    p_ingest.add_argument("--max-speed", type=float, default=50.0, help="noise gate (m/s)")

    p_query = sub.add_parser("query", help="contacts of one trajectory")
    p_query.add_argument("--store", help="store directory (default: $CONTACT_STORE_DIR or ./store)")
    src = p_query.add_mutually_exclusive_group(required=True)
    src.add_argument("--query-csv", help="points CSV holding the query trajectory")
    src.add_argument("--traj-id", help="id of a stored trajectory to query")
    _add_param_flags(p_query)
    p_query.add_argument("--explain", action="store_true", help="append '#' counter lines")
    p_query.add_argument("--out", help="write CSV here instead of stdout")

    p_join = sub.add_parser("join", help="contacts of every trajectory in a query set")
    p_join.add_argument("--store", help="store directory (default: $CONTACT_STORE_DIR or ./store)")
    p_join.add_argument("--query-csv", required=True, help="points CSV with the query set")
    _add_param_flags(p_join)
    p_join.add_argument("--leaf-capacity", type=int, default=DEFAULT_LEAF_CAPACITY,
                        help="queries per scan set, each set one store read (at least 1)")
    p_join.add_argument("--explain", action="store_true", help="append '#' counter lines")
    p_join.add_argument("--out", help="write CSV here instead of stdout")

    p_bench = sub.add_parser("bench", help="parameter sweep timings as CSV")
    p_bench.add_argument("suite", choices=bench_mod.SUITES)
    p_bench.add_argument("--out", help="write CSV here instead of stdout")
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--n-traj", type=int, default=1200)
    p_bench.add_argument("--seed", type=int, default=7)
    p_bench.add_argument("--query-size", type=int, default=10)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "store", "") is None:
        args.store = _default_store()
    try:
        return globals()[f"cmd_{args.command}"](args)  # at call time, so a rebound command runs
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
