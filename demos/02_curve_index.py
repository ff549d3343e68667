"""How a segment's bounding box becomes one sortable integer, and how a
query window becomes a handful of key scans.

Every quadtree cell, at every depth, gets a number: its position in a
depth-first walk. A box is filed under the deepest cell that is at least as
big as the box and contains its min corner; the cell doubled in width and
height always covers the whole box, so a window scan that respects doubled
cells never misses anything. Subtrees are contiguous number ranges, which is
what makes window queries turn into a few byte-range scans. The store
itself tests every record of a window's time periods instead: one mask over
contiguous header columns costs less than planning those scans.
"""

from crowdtrace import (
    MBR,
    GenConfig,
    Segment,
    Location,
    MemoryBackend,
    SegmentationConfig,
    TimeRange,
    XzConfig,
    encode_key,
    generate,
    ingest,
    sequence_code,
    spatial_scan_ranges,
    st_scan_ranges,
    storage_segments,
    xz2_element,
)
from crowdtrace.store import expand_boxes, expand_time_range
from crowdtrace.xz import period_spans

cfg = XzConfig(resolution=15)  # cells down to ~1 km

boxes = {
    "city block": MBR(116.390, 39.900, 116.396, 39.904),
    "city": MBR(116.0, 39.5, 117.0, 40.5),
    "continent": MBR(70.0, 10.0, 140.0, 55.0),
    "whole world": MBR(-180.0, -90.0, 180.0, 90.0),
}
print("box -> element depth and code")
for name, box in boxes.items():
    element = xz2_element(box, cfg)
    code = sequence_code(element, cfg)
    print(f"  {name:12s} depth {len(element.digits):2d}  code {code}")

# A stored segment gets zero byte | period | code | segment id, big-endian,
# so plain byte order walks the curve.
seg = Segment.build(
    "walker#0",
    "walker",
    [Location(116.391, 39.901, 1_600_000_000), Location(116.392, 39.902, 1_600_000_060)],
)
key = encode_key(seg, cfg)
print(f"\nrow key of {seg.sid}: period={key.bin} code={key.xz2}")
print(f"  bytes: {key.packed().hex()}")

# Planning a window query: a few code intervals instead of one huge scan.
window = MBR(116.38, 39.89, 116.41, 39.92)
intervals = spatial_scan_ranges(window, cfg)
total = cfg.total_elements()
covered = sum(hi - lo for lo, hi in intervals)
print(f"\n~3 km window -> {len(intervals)} code intervals")
print(f"  covering {covered} of {total} cells ({100 * covered / total:.5f}%)")

ranges = st_scan_ranges(window, TimeRange(1_600_000_000, 1_600_040_000), cfg)
print(f"  with one day-length period plus its predecessor: {len(ranges)} key ranges")
print(f"  first: [{ranges[0].low.hex()}, {ranges[0].high.hex()})")

# The access path the store takes. A key starts with a zero byte and its
# period, so the records of a window's periods are one contiguous key span,
# and testing every header in it needs no plan at all. On the pinned shape
# (gen --seed 42 --n-traj 5000: 2 km of city over 6 hours, one day-length
# period) every record shares a period and a few cells, so planning would
# walk the curve only to keep half the store's records for the same tests.
population, _ = generate(GenConfig(seed=42, n_traj=5000))
seg_cfg = SegmentationConfig()
backend = MemoryBackend()
stored = ingest(population, cfg, seg_cfg, backend)
first = storage_segments(population[0], cfg, seg_cfg)[0]
box = expand_boxes(first.mbr, 50.0)[0]  # the reach of irq's defaults: 50 m, 120 s
tr = expand_time_range(TimeRange(first.st, first.et), 120.0)


def records_in(key_ranges):
    return sum(1 for r in key_ranges for _ in backend.scan(r.low, r.high))


spans = period_spans(tr, cfg)
ranges = st_scan_ranges(box, tr, cfg)
found = backend.refine(spans, box, tr)  # what st_query tests for this window
print(f"\nwindow of {first.sid}'s first segment, on the pinned shape ({stored} segments):")
print(f"  its periods are one key span holding {records_in(spans)} records: all of them are tested")
print(f"  planning would make {len(ranges)} key ranges holding {records_in(ranges)} records first")
print(f"  both keep the same {len(found)} records")
assert records_in(spans) == stored  # one period: the span is the whole store
assert found.tolist() == backend.refine(ranges, box, tr).tolist()
