"""Query many patients at once without hammering the store.

Running the single query per patient reads the store once per patient. The
batch join instead orders the patients by the cell code the store keys their
first segment under (the store's own curve code, at its index resolution),
then by its start time, cuts that order into chunks of at most ``capacity``
patients, and issues ONE read per chunk over all of its patients' segment
windows, so nearby patients share I/O. Each patient is then ranked by the
single query's own scoring loop, so the results and the pruning counters are
identical to the per-patient queries, bit for bit.
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
capacity = 5

cuts = query_segments(query_set, seg_cfg)  # every query cut in one kernel pass
n_segments = sum(len(segs) for segs, _ in cuts)
chunks = sft_build([segs[0] for segs, _ in cuts], xz_cfg, capacity=capacity)
print(f"{len(query_set)} queries ({n_segments} segments) -> {len(chunks)} chunks of at most {capacity} queries")
for chunk in chunks:
    print(f"  chunk: {', '.join(query_set[k].id for k in chunk)}")

counters: dict[str, int] = {}
joined = irjq(query_set, params, backend, xz_cfg, seg_cfg, capacity=capacity, counters=counters)
assert counters["scan_sets"] == len(chunks)
print(f"store reads issued by the join: {counters['scan_sets']} (one per chunk)")
print(f"pairs above {params.theta}: {len(joined)}")
for qid, tid, ir in joined[:6]:
    print(f"  {qid} ~ {tid}  ir={ir:.9f}")

# the join is just a batched execution plan: per query it ranks exactly as irq does
single_counters: dict[str, int] = {}
for q in query_set:
    single = irq(q, params, backend, xz_cfg, seg_cfg, counters=single_counters)
    batched = [(tid, ir) for qid, tid, ir in joined if qid == q.id]
    assert batched == single
assert counters == {"scan_sets": len(chunks), **single_counters}
print(f"\nper-query engine agrees on all {len(query_set)} queries, bit for bit")
print("and so do the counters: " + ", ".join(f"{key}={n}" for key, n in single_counters.items()))
print(f"it would have made {len(query_set)} reads, one per query; the join made {counters['scan_sets']}")
