"""Query many patients at once without hammering the store.

Running the single query per patient reads the store once per patient. The
batch join instead orders all query segments by the quadtree cell of their
min corner, then by start time, cuts that order into chunks of at most
``capacity`` segments, and issues ONE read per chunk over its segments'
windows, so nearby patients share I/O. The results are identical to the
per-patient queries, bit for bit.
"""

from crowdtrace import (
    GenConfig,
    MemoryBackend,
    QueryParams,
    SegmentationConfig,
    XzConfig,
    generate,
    ingest,
    irjq,
    irq,
    sft_build,
)
from crowdtrace.query import query_segments

population, _ = generate(GenConfig(seed=23, n_traj=400, contact_fraction=0.08))
xz_cfg = XzConfig()
seg_cfg = SegmentationConfig()
backend = MemoryBackend()
ingest(population, xz_cfg, seg_cfg, backend)

query_set = population[:12]
params = QueryParams(theta=0.3)
capacity = 16

all_segments = []
for q in query_set:
    all_segments.extend(query_segments(q, seg_cfg)[0])
chunks = sft_build(all_segments, resolution=15, capacity=capacity)
print(f"{len(query_set)} queries -> {len(all_segments)} segments -> {len(chunks)} chunks of at most {capacity}")

counters: dict[str, int] = {}
joined = irjq(query_set, params, backend, xz_cfg, seg_cfg, capacity=capacity, counters=counters)
assert counters["scan_sets"] == len(chunks)
print(f"store reads issued by the join: {counters['scan_sets']} (one per chunk)")
print(f"pairs above {params.theta}: {len(joined)}")
for qid, tid, ir in joined[:6]:
    print(f"  {qid} ~ {tid}  ir={ir:.9f}")

# the join is just a batched execution plan: per query it matches irq exactly
for q in query_set:
    single = irq(q, params, backend, xz_cfg, seg_cfg)
    batched = [(tid, ir) for qid, tid, ir in joined if qid == q.id]
    assert batched == single
print(f"\nper-query engine agrees on all {len(query_set)} queries, bit for bit")
print(f"it would have made {len(query_set)} reads, one per query; the join made {counters['scan_sets']}")
