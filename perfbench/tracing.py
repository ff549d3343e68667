"""Spans and counts around the program's public functions, for the traced run.

The tracer replaces a function at the module attribute each caller looks up
(``crowdtrace.query.st_query`` is the binding ``extract_candidates`` calls,
``crowdtrace.join.st_query`` the one ``irjq`` calls) and restores every
binding on ``uninstall``. Each wrapped call is a span: name, start, end and
the span open when it began. Spans of the hot inner functions, called up to
millions of times a run, are folded into per-name totals as they end; the
others are also kept one by one. A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import os
from collections import Counter
from time import perf_counter_ns

import crowdtrace.cli as cli
import crowdtrace.join as join
import crowdtrace.query as query
import crowdtrace.store as store
from crowdtrace.store import FileBackend

DECODE = "store.decode_segment"
POINT_BYTES = 24  # one stored point: lon and lat as doubles, t as an int64

# spans kept one by one; the rest are folded into totals only
KEPT = {
    "cli.ingest", "cli.query", "cli.join", "model.load_trajectories_csv", "store.ingest",
    "store.FileBackend.open", "store.load_trajectory", "query.irq",
    "query.extract_candidates", "store.st_query", "xz.st_scan_ranges", "join.irjq",
    "join.sft_build",
}


class Tracer:
    """Spans and counts of one traced stretch, between ``install`` and ``uninstall``."""

    def __init__(self) -> None:
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.decoded: Counter[str] = Counter()  # records decoded inside each span name
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self._stack: list[list[int]] = []  # open spans: [child ns, index in spans or -1]
        self._frames: dict[str, int] = {}  # log path -> frames appended so far
        self._patches: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    def span(self, name: str, fn, measure=None):
        """``fn`` timed as span ``name``; ``measure(result, args)`` adds counts
        when it returns. Records decoded inside the span are counted even
        when it raises."""
        keep = name in KEPT
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = -1
            if keep:
                index = len(tracer.spans)
                tracer.spans.append([name, 0, 0, stack[-1][1] if stack else -1])
            frame = [0, index]
            decoded = tracer.calls[DECODE]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                tracer.total_ns[name] += duration
                tracer.self_ns[name] += duration - frame[0]
                tracer.calls[name] += 1
                tracer.decoded[name] += tracer.calls[DECODE] - decoded
                if keep:
                    tracer.spans[index][1:3] = [start, end]
            if measure is not None:
                measure(result, args)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owners, attr: str, name: str, measure=None) -> None:
        for owner in owners:
            self._patch(owner, attr, self.span(name, getattr(owner, attr), measure))

    def _with_counters(self, fn, prefix: str):
        """``fn`` with its ``counters`` dict also summed into ``prefix + key``."""
        counts = self.counts

        def call(*args, **kwargs):
            theirs = kwargs.get("counters")
            mine: dict[str, int] = {}
            kwargs["counters"] = mine
            result = fn(*args, **kwargs)
            for key, n in mine.items():
                counts[prefix + key] += n
                if theirs is not None:
                    theirs[key] = theirs.get(key, 0) + n
            return result

        return call

    # --- the program's layers ---------------------------------------------

    def install(self) -> None:
        c = self.counts

        def add(key, fn):
            def measure(result, args):
                c[key] += fn(result, args)
            return measure

        self._wrap([cli], "cmd_ingest", "cli.ingest")
        self._wrap([cli], "cmd_query", "cli.query")
        self._wrap([cli], "cmd_join", "cli.join")
        self._wrap([cli], "load_trajectories_csv", "model.load_trajectories_csv")
        self._wrap([cli], "ingest", "store.ingest")
        self._wrap([cli], "load_trajectory", "store.load_trajectory")
        self._wrap([store, query, join], "filter_noise", "model.filter_noise",
                   add("model.filter_noise.points_dropped", lambda r, a: len(a[0]) - len(r)))
        self._wrap([store, query, join], "segment", "model.segment",
                   add("model.segment.segments", lambda r, a: len(r)))
        self._wrap([store], "encode_key", "xz.encode_key")
        self._wrap([store], "encode_segment", "store.encode_segment",
                   add("store.encode_segment.points", lambda r, a: len(a[0].locations)))
        self._wrap([store], "decode_segment", DECODE)
        self._wrap([store], "st_scan_ranges", "xz.st_scan_ranges",
                   add("xz.st_scan_ranges.ranges", lambda r, a: len(r)))
        self._wrap([query, join], "st_query", "store.st_query",
                   add("store.st_query.records_kept", lambda r, a: len(r)))
        self._wrap([query, join], "segment_ir", "metric.segment_ir",
                   add("metric.segment_ir.point_pairs",
                       lambda r, a: len(a[0].locations) * _size(a[1])))
        self._wrap([query], "extract_candidates", "query.extract_candidates")
        self._wrap([join], "sft_build", "join.sft_build")
        irq = self.span("query.irq", self._with_counters(query.irq, "query.irq."))
        self._patch(query, "irq", irq)
        self._patch(cli, "irq", irq)
        self._patch(cli, "irjq", self.span("join.irjq", self._with_counters(join.irjq, "join.")))
        self._install_backend()

    def _install_backend(self) -> None:
        c = self.counts
        frames = self._frames

        def put_measure(result, args):
            backend, key, value = args
            frames[backend.path] = frames.get(backend.path, 0) + 1
            c["store.FileBackend.put.bytes_written"] += 8 + len(key) + len(value)

        self._wrap([FileBackend], "put", "store.FileBackend.put", put_measure)
        timed_open = self.span("store.FileBackend.open", FileBackend.__init__)

        def open_(backend, path):
            size = os.path.getsize(path) if os.path.exists(path) else 0
            # a new or empty log starts with no frames; this process wrote all others
            frames[path] = frames.get(path, 0) if size else 0
            c["store.FileBackend.open.frames_replayed"] += frames[path]
            c["store.FileBackend.open.bytes_read"] += size
            timed_open(backend, path)

        self._patch(FileBackend, "__init__", open_)
        scan = FileBackend.scan

        def counted_scan(backend, low, high):
            c["store.FileBackend.scan.calls"] += 1
            for item in scan(backend, low, high):
                c["store.FileBackend.scan.records"] += 1
                yield item

        self._patch(FileBackend, "scan", counted_scan)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self milliseconds."""
        return {
            name: {
                "calls": self.calls[name],
                "ms": self.total_ns[name] / 1e6,
                "self_ms": self.self_ns[name] / 1e6,
            }
            for name in sorted(self.calls)
        }

    def layer_figures(self, rounds: int) -> dict[str, float]:
        """Every per-layer figure, per round of the workload."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.ms"] = self.total_ns[name] / 1e6 / rounds
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6 / rounds
        for name in (DECODE, "metric.segment_ir", "store.FileBackend.put"):
            out[f"{name}.calls"] = self.calls[name] / rounds
        for key, n in self.counts.items():
            out[key] = n / rounds
        c = self.counts
        scanned = self.decoded["store.st_query"]
        out["store.st_query.records_scanned"] = scanned / rounds
        out["store.load_trajectory.records_decoded"] = self.decoded["store.load_trajectory"] / rounds
        out["join.irjq.records_decoded"] = self.decoded["join.irjq"] / rounds
        out["store.st_query.kept_ratio"] = _ratio(c["store.st_query.records_kept"], scanned)
        out["store.FileBackend.put.bytes_per_point_byte"] = _ratio(
            c["store.FileBackend.put.bytes_written"], POINT_BYTES * c["store.encode_segment.points"])
        return out


def _size(points) -> int:
    size = getattr(points, "size", None)
    return len(points) if size is None else size


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
