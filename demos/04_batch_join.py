"""Query many patients at once without hammering the store.

Running the single query per patient issues one store lookup per query
segment. The batch join instead sorts all query segments by the quadtree
cell of their min corner, merges overlapping time ranges within each cell
into leaves, and issues ONE lookup per leaf, so nearby patients share I/O.
The results are identical to the per-patient queries.
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
    segment,
    sft_build,
)

population, _ = generate(GenConfig(seed=23, n_traj=400, contact_fraction=0.08))
xz_cfg = XzConfig()
seg_cfg = SegmentationConfig()
backend = MemoryBackend()
ingest(population, xz_cfg, seg_cfg, backend)

query_set = population[:12]
params = QueryParams(theta=0.3)

all_segments = []
for q in query_set:
    all_segments.extend(segment(q, seg_cfg))
leaves = sft_build(all_segments, resolution=15, max_leaf_span=xz_cfg.period_seconds)
print(f"{len(query_set)} queries -> {len(all_segments)} segments -> {len(leaves)} index leaves")

counters: dict[str, int] = {}
joined = irjq(query_set, params, backend, xz_cfg, seg_cfg, counters=counters)
print(f"store lookups issued by the join: {counters['scan_sets']} (one per leaf)")
print(f"pairs above {params.theta}: {len(joined)}")
for qid, tid, ir in joined[:6]:
    print(f"  {qid} ~ {tid}  ir={ir:.9f}")

# the join is just a batched execution plan: per query it matches irq exactly
lookups_single = 0
for q in query_set:
    c: dict[str, int] = {}
    single = irq(q, params, backend, xz_cfg, seg_cfg, counters=c)
    lookups_single += len(segment(q, seg_cfg))
    batched = [(tid, ir) for qid, tid, ir in joined if qid == q.id]
    assert [tid for tid, _ in batched] == [tid for tid, _ in single]
print(f"\nper-query engine agrees on all {len(query_set)} queries")
print(f"it would have issued {lookups_single} lookups; the join used {counters['scan_sets']}")
