"""End-to-end benchmark of crowdtrace: one process, one thread, one client
in a closed loop, where each operation starts when the previous one ends.

Run from the root of a checkout:

    python3 perfbench/run.py --workload city-day --seed 1 --seconds 45 --trace 0

It builds the workload's inputs (three times, reporting the median as
``setup_s``), runs one untimed warm-up round of the workload's operations,
then repeats whole blocks of timed rounds while another fits in
``--seconds`` (and until ``irq`` has 100 samples), then checks the last
round's outputs. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer figures of a traced run with
``--trace 1``. A traced run also writes its spans to ``.perfbench_out/``.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 3
IRQ_SAMPLES_FOR_P90 = 100

END_TO_END = {
    "setup_s": "s",
    "ingest_points_per_s": "points/s",
    "update_points_per_s": "points/s",
    "store_bytes_per_point": "bytes/point",
    "irq_p50_ms": "ms",
    "irq_p90_ms": "ms",
    "cli_query_p50_ms": "ms",
    "join_traj_per_s": "traj/s",
    "peak_rss_mb": "MB",
}

SPANS = (
    "cli.ingest", "cli.query", "cli.join", "model.load_trajectories_csv", "store.ingest",
    "model.filter_noise", "model.segment", "xz.encode_key", "store.encode_segment",
    "store.FileBackend.put", "store.FileBackend.open", "store.load_trajectory", "query.irq",
    "query.extract_candidates", "store.st_query", "xz.st_scan_ranges", "store.decode_segment",
    "metric.segment_ir", "join.irjq", "join.sft_build",
)
COUNTS = {
    "store.decode_segment.calls": "count",
    "store.st_query.records_scanned": "count",
    "store.st_query.records_kept": "count",
    "store.st_query.kept_ratio": "ratio",
    "store.FileBackend.scan.calls": "count",
    "store.FileBackend.scan.records": "count",
    "xz.st_scan_ranges.ranges": "count",
    "store.load_trajectory.records_decoded": "count",
    "store.FileBackend.open.frames_replayed": "count",
    "store.FileBackend.open.bytes_read": "bytes",
    "model.filter_noise.points_dropped": "count",
    "model.segment.segments": "count",
    "store.FileBackend.put.calls": "count",
    "store.FileBackend.put.bytes_written": "bytes",
    "store.FileBackend.put.bytes_per_point_byte": "ratio",
    "query.irq.candidates": "count",
    "query.irq.evaluated": "count",
    "query.irq.lemma1": "count",
    "query.irq.lemma2": "count",
    "query.irq.lemma3": "count",
    "query.irq.lemma4": "count",
    "metric.segment_ir.calls": "count",
    "metric.segment_ir.point_pairs": "count",
    "join.scan_sets": "count",
    "join.pairs_scored": "count",
    "join.pairs_removed": "count",
    "join.irjq.records_decoded": "count",
    "trace.overhead_pct": "%",
    "baseline.irq10.records_scanned": "count",
    "baseline.irq10.records_kept": "count",
    "baseline.join50.records_decoded": "count",
    "baseline.join50.scan_sets": "count",
}
PER_LAYER = {
    **{f"{s}.ms": "ms" for s in SPANS},
    **{f"{s}.self_ms": "ms" for s in SPANS},
    **COUNTS,
}


def load_program():
    """Import crowdtrace from this checkout's ``src``, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import crowdtrace
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import crowdtrace from {SRC}: {exc}")
    if Path(crowdtrace.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: crowdtrace comes from {crowdtrace.__file__}, not {SRC}")


@dataclass
class Outputs:
    """What one round returned, for the checks."""

    irq: dict = field(default_factory=dict)  # (step index, query id) -> results
    lookups: dict = field(default_factory=dict)  # (step index, id) -> query CSV
    joins: dict = field(default_factory=dict)  # step index -> join CSV
    reported: list = field(default_factory=list)  # segments each ingest reported


@dataclass
class Samples:
    """Every timed operation of the run, pooled over its rounds."""

    times: dict = field(default_factory=dict)  # kind -> [seconds]
    sizes: dict = field(default_factory=dict)  # kind -> points or trajectories handled
    attempted: int = 0
    failed: int = 0
    timing: bool = True  # off in the warm-up round, whose operations count but are not timed

    def add(self, kind: str, seconds: float, size: int = 0) -> None:
        if self.timing:
            self.times.setdefault(kind, []).append(seconds)
            self.sizes[kind] = self.sizes.get(kind, 0) + size

    def rate(self, kind: str) -> float:
        """Work per second over every operation of ``kind``: a mean over the
        whole run, which evens out the machine's swings better than a median
        of the few long operations a run holds."""
        return self.sizes[kind] / sum(self.times[kind])

    def ms(self, kind: str) -> list[float]:
        return [t * 1000.0 for t in self.times.get(kind, [])]


class Runner:
    """Runs rounds of one workload's plan against a store under ``workdir``."""

    def __init__(self, plan, workdir: str):
        from crowdtrace.cli import LOG_NAME
        from crowdtrace.metric import QueryParams
        from crowdtrace.model import SegmentationConfig
        from crowdtrace.xz import XzConfig

        self.plan = plan
        self.workdir = workdir
        self.store_dir = os.path.join(workdir, "store")
        self.log_path = os.path.join(self.store_dir, LOG_NAME)
        self.params = QueryParams()
        # the ingest command's defaults, which the store's meta.json records
        self.xz, self.seg_cfg = XzConfig(), SegmentationConfig()
        self.samples = Samples()
        self.rounds_run = 0

    def _cli(self, argv: list[str], what: str) -> tuple[float, str]:
        """One timed command; returns (seconds, its standard output)."""
        import crowdtrace.cli as cli

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            code = cli.main(argv)
            took = time.perf_counter() - start
        self.samples.attempted += 1
        if code != 0:
            self.samples.failed += 1
            err = stderr.getvalue().strip()
            # the kept fault: a re-ingested probe left a stale frame behind
            if not (what in self.plan.probe_ids and "not sorted by time" in err):
                print(f"perfbench: {what} failed: {err}", file=sys.stderr)
            return took, ""
        return took, stdout.getvalue()

    def _ingest(self, feed) -> tuple[float, int]:
        took, text = self._cli(["ingest", "--input", feed.path, "--store", self.store_dir],
                               feed.path)
        match = re.search(r"ingested (\d+) segments", text)
        return took, int(match.group(1)) if match else -1

    def round(self) -> Outputs:
        import crowdtrace.query as query
        from crowdtrace.store import FileBackend

        plan, s, out = self.plan, self.samples, Outputs()
        shutil.rmtree(self.store_dir, ignore_errors=True)
        took, reported = self._ingest(plan.main)
        s.add("ingest", took, plan.main.points)
        out.reported.append(reported)
        result_path = os.path.join(self.workdir, "result.csv")
        for i, step in enumerate(plan.steps):
            if step.update is not None:
                took, reported = self._ingest(step.update)
                s.add("update", took, step.update.points)
                out.reported.append(reported)

            with FileBackend(self.log_path) as backend:
                for qid in step.queries(self.rounds_run):
                    s.attempted += 1
                    start = time.perf_counter()
                    try:
                        res = query.irq(step.current[qid], self.params, backend, self.xz,
                                        self.seg_cfg)
                    except Exception:  # a fault in the program fails this operation only
                        s.failed += 1
                        traceback.print_exc(file=sys.stderr)
                        continue
                    s.add("irq", time.perf_counter() - start)
                    out.irq[i, qid] = res

            for tid in step.lookup_ids:
                argv = ["query", "--store", self.store_dir, "--traj-id", tid, "--out", result_path]
                took, _ = self._cli(argv, tid)
                if os.path.exists(result_path):
                    s.add("lookup", took)
                    out.lookups[i, tid] = Path(result_path).read_text(encoding="utf-8")
                    os.remove(result_path)

            if step.join is not None:
                argv = ["join", "--store", self.store_dir, "--query-csv", step.join.path,
                        "--out", result_path]
                took, _ = self._cli(argv, "join")
                s.add("join", took, len(step.join.trajectories))
                if os.path.exists(result_path):
                    out.joins[i] = Path(result_path).read_text(encoding="utf-8")
                    os.remove(result_path)
        self.rounds_run += 1
        return out

    def warm_up(self) -> None:
        """One round that is counted but not timed: imports, first calls and
        the allocator's growth happen here."""
        self.samples.timing = False
        self.round()
        self.samples.timing = True

    def rounds(self, seconds: float) -> tuple[Outputs, int, float]:
        """Whole blocks of ``plan.cycles`` rounds, so that every query runs
        equally often: as many as fit in ``seconds``, and at least enough
        for ``irq``'s 90th percentile."""
        start = time.perf_counter()
        n = 0
        while True:
            began = time.perf_counter()
            for _ in range(self.plan.cycles):
                out = self.round()
            n += self.plan.cycles
            now = time.perf_counter()
            enough = len(self.samples.ms("irq")) >= IRQ_SAMPLES_FOR_P90
            if enough and now - start + (now - began) > seconds:
                return out, n, now - start

    def store_bytes_per_point(self) -> float:
        from checks import gated

        size = sum(p.stat().st_size for p in Path(self.store_dir).iterdir())
        held = sum(len(gated(t)) for t in self.plan.steps[-1].current.values())
        return size / held


def end_to_end(s: Samples, setup_s: float, bytes_per_point: float, rss_mb: float) -> dict:
    irq_ms = s.ms("irq")
    return {
        "setup_s": setup_s,
        "ingest_points_per_s": s.rate("ingest"),
        "update_points_per_s": s.rate("update"),
        "store_bytes_per_point": bytes_per_point,
        "irq_p50_ms": statistics.median(irq_ms),
        "irq_p90_ms": statistics.quantiles(irq_ms, n=10)[8],
        "cli_query_p50_ms": statistics.median(s.ms("lookup")),
        "join_traj_per_s": s.rate("join"),
        "peak_rss_mb": rss_mb,
    }


def reproduce_baseline() -> dict[str, float]:
    """The ROADMAP Baseline counters: 10 irq calls on ``build_workload(1200)``,
    and the 50-trajectory join on ``gen --seed 42 --n-traj 5000``."""
    import crowdtrace.join as join
    import crowdtrace.query as query
    from crowdtrace.bench import build_workload
    from crowdtrace.gen import GenConfig, generate
    from crowdtrace.metric import QueryParams
    from crowdtrace.model import SegmentationConfig
    from crowdtrace.store import MemoryBackend, ingest
    from crowdtrace.xz import XzConfig
    from tracing import DECODE, Tracer

    out = {}
    w = build_workload(n_traj=1200)
    tracer = Tracer()
    tracer.install()
    try:
        for q in w.query_set:
            query.irq(q, QueryParams(), w.backend, w.xz_cfg, w.seg_cfg)
    finally:
        tracer.uninstall()
    out["baseline.irq10.records_scanned"] = tracer.decoded["store.st_query"]
    out["baseline.irq10.records_kept"] = tracer.counts["store.st_query.records_kept"]

    population, _ = generate(GenConfig(seed=42, n_traj=5000, contact_fraction=0.1))
    backend = MemoryBackend()
    ingest(population, XzConfig(), SegmentationConfig(), backend)
    tracer = Tracer()
    tracer.install()
    counters: dict[str, int] = {}
    try:
        join.irjq(population[:50], QueryParams(), backend, XzConfig(), SegmentationConfig(),
                  counters=counters)
    finally:
        tracer.uninstall()
    out["baseline.join50.records_decoded"] = tracer.calls[DECODE]
    out["baseline.join50.scan_sets"] = counters["scan_sets"]
    return out


def main(argv: list[str] | None = None) -> int:
    load_program()
    import checks
    import workloads
    from tracing import Tracer

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = workdir / "inputs"
    try:
        setup_times = []
        plan = None
        for _ in range(SETUPS):
            plan = None  # let the previous copy go before building the next
            shutil.rmtree(inputs, ignore_errors=True)
            inputs.mkdir(parents=True)
            start = time.perf_counter()
            plan = workloads.WORKLOADS[args.workload](args.seed, str(inputs))
            setup_times.append(time.perf_counter() - start)
        # the inputs live as long as the run; keep them out of the program's collections
        gc.collect()
        gc.freeze()

        runner = Runner(plan, str(workdir))
        runner.warm_up()
        if args.trace:
            began = time.perf_counter()
            runner.round()  # untraced, as the reference for the tracing overhead
            untraced_s = time.perf_counter() - began
            tracer = Tracer()
            tracer.install()
            try:
                out, rounds, measured_s = runner.rounds(args.seconds)
            finally:
                tracer.uninstall()
            figures = tracer.layer_figures(rounds)
            figures["trace.overhead_pct"] = (measured_s / rounds / untraced_s - 1.0) * 100.0
            figures.update(reproduce_baseline())
            metrics = {name: (figures.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}
            trace_dir = ROOT / ".perfbench_out"
            trace_dir.mkdir(exist_ok=True)
            dump = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                    "untraced_round_s": untraced_s, "figures": figures,
                    "spans_summary": tracer.summary(), "spans": tracer.spans}
            path = trace_dir / f"trace-{args.workload}-seed{args.seed}.json"
            path.write_text(json.dumps(dump), encoding="utf-8")
        else:
            out, rounds, measured_s = runner.rounds(args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = end_to_end(runner.samples, statistics.median(setup_times),
                                runner.store_bytes_per_point(), rss_mb)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

        began = time.perf_counter()
        try:
            errors = checks.check_all(plan, out, runner.log_path, runner.params)
        except Exception:  # a fault in the program the checks ran into
            errors = [traceback.format_exc()]
        print(f"perfbench: {args.workload} seed {args.seed}: setup {sum(setup_times):.1f} s, "
              f"{rounds} round(s) in {measured_s:.1f} s, "
              f"checks {time.perf_counter() - began:.1f} s", file=sys.stderr)
        for error in errors:
            print(f"perfbench: check failed: {error}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    s = runner.samples
    print(json.dumps({
        "correct": not errors,
        "attempted": s.attempted,
        "failed": s.failed + len(errors),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
