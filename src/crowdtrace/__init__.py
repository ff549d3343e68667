"""crowdtrace: trajectory storage and spatio-temporal contact queries.

Store GPS trajectories as stay-point segments under a space-filling-curve
key in an ordered key-value store, then find every stored trajectory whose
contact score against a query trajectory exceeds a threshold, one query at a
time (``irq``) or for a whole query set in one batched pass (``irjq``).
"""

from .gen import GenConfig, generate, write_labels
from .join import irjq, sft_build
from .metric import (
    QueryParams,
    exhaustive_irq,
    segment_ir,
    span_weight,
    st_cor,
    st_dist,
    trajectory_ir,
)
from .model import (
    MBR,
    WORLD,
    DegenerateTrajectoryError,
    Location,
    Segment,
    SegmentationConfig,
    TimeRange,
    Tracks,
    Trajectory,
    filter_noise,
    filter_noise_batch,
    haversine_m,
    load_trajectories_csv,
    mbr_of,
    read_points_csv,
    segment,
    time_range_of,
    write_points_csv,
)
from .query import extract_candidates, irq
from .store import (
    FileBackend,
    MemoryBackend,
    decode_segment,
    encode_segment,
    ingest,
    load_trajectory,
    st_query,
    storage_segments,
)
from .xz import (
    STKey,
    ScanRange,
    TimeUnit,
    XzConfig,
    XzElement,
    bin_of,
    encode_key,
    sequence_code,
    spatial_scan_ranges,
    st_scan_ranges,
    xz2_element,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateTrajectoryError",
    "FileBackend",
    "GenConfig",
    "Location",
    "MBR",
    "MemoryBackend",
    "QueryParams",
    "STKey",
    "ScanRange",
    "Segment",
    "SegmentationConfig",
    "TimeRange",
    "TimeUnit",
    "Tracks",
    "Trajectory",
    "WORLD",
    "XzConfig",
    "XzElement",
    "bin_of",
    "decode_segment",
    "encode_key",
    "encode_segment",
    "exhaustive_irq",
    "extract_candidates",
    "filter_noise",
    "filter_noise_batch",
    "generate",
    "haversine_m",
    "ingest",
    "irjq",
    "irq",
    "load_trajectories_csv",
    "load_trajectory",
    "mbr_of",
    "read_points_csv",
    "segment",
    "segment_ir",
    "sequence_code",
    "sft_build",
    "span_weight",
    "spatial_scan_ranges",
    "st_cor",
    "st_dist",
    "st_query",
    "st_scan_ranges",
    "storage_segments",
    "time_range_of",
    "trajectory_ir",
    "write_labels",
    "write_points_csv",
    "xz2_element",
]
