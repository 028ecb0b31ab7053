"""The paper's primary contribution: GPU-accelerated incremental
checkpointing by Merkle-tree de-duplication, plus the Full/Basic/List
baselines it is evaluated against, the diff wire format, and restore.
"""

from .analysis import (
    DiffComposition,
    analyze_diff,
    analyze_record,
    composition_report,
    verify_chain,
)
from .base import DedupEngine
from .checkpointer import ENGINES, IncrementalCheckpointer
from .chunking import ChunkSpec, as_uint8, min_recommended_chunk_size
from .dedup_basic import BasicDedup
from .dedup_full import FullCheckpoint
from .dedup_list import ListDedup
from .dedup_tree import TreeDedup
from .diff import (
    DIGEST_BYTES,
    FIRST_ENTRY_BYTES,
    METHODS,
    SHIFT_ENTRY_BYTES,
    CheckpointDiff,
    encode_legacy_v1,
)
from .labels import (
    FIRST_OCUR,
    FIXED_DUPL,
    MIXED,
    SHIFT_DUPL,
    UNLABELED,
    count_labels,
    label_name,
)
from .merkle import MerkleTree, TreeLayout
from .provenance import (
    IndexedRestorer,
    IndexedRestoreReport,
    ProvenanceBuilder,
    ProvenanceIndex,
    ProvenanceTable,
    RecordRestoreReport,
    indexed_restore_latest,
    materialize_index,
    restore_record_indexed,
)
from .record import CheckpointRecord, CheckpointStats, merge_records
from .restore import Restorer, restore_latest, scrub_chain
from .retention import (
    payload_dependencies,
    rebase_record,
    rebase_stored_record,
    required_payloads,
)
from .sharded_restore import (
    ShardedRestorePlan,
    ShardReport,
    ShardSpec,
    partition_chunks,
)
from .store import (
    AppendReceipt,
    CheckpointStatus,
    RecordVerification,
    RecordWriter,
    load_provenance,
    load_provenance_row,
    load_record,
    load_record_frames,
    record_frame_sizes,
    record_index_bytes,
    record_manifest,
    save_record,
    stored_frame_sizes,
    verify_record,
)

__all__ = [
    "DiffComposition",
    "analyze_diff",
    "analyze_record",
    "composition_report",
    "verify_chain",
    "DedupEngine",
    "ENGINES",
    "IncrementalCheckpointer",
    "ChunkSpec",
    "as_uint8",
    "min_recommended_chunk_size",
    "BasicDedup",
    "FullCheckpoint",
    "ListDedup",
    "TreeDedup",
    "FIRST_ENTRY_BYTES",
    "METHODS",
    "SHIFT_ENTRY_BYTES",
    "DIGEST_BYTES",
    "CheckpointDiff",
    "encode_legacy_v1",
    "AppendReceipt",
    "CheckpointStatus",
    "RecordVerification",
    "RecordWriter",
    "load_provenance",
    "load_provenance_row",
    "load_record",
    "load_record_frames",
    "record_frame_sizes",
    "record_index_bytes",
    "record_manifest",
    "save_record",
    "stored_frame_sizes",
    "verify_record",
    "FIRST_OCUR",
    "FIXED_DUPL",
    "MIXED",
    "SHIFT_DUPL",
    "UNLABELED",
    "count_labels",
    "label_name",
    "MerkleTree",
    "TreeLayout",
    "CheckpointRecord",
    "CheckpointStats",
    "merge_records",
    "Restorer",
    "restore_latest",
    "scrub_chain",
    "IndexedRestorer",
    "IndexedRestoreReport",
    "ProvenanceBuilder",
    "ProvenanceIndex",
    "ProvenanceTable",
    "RecordRestoreReport",
    "indexed_restore_latest",
    "materialize_index",
    "restore_record_indexed",
    "payload_dependencies",
    "rebase_record",
    "rebase_stored_record",
    "required_payloads",
    "ShardedRestorePlan",
    "ShardReport",
    "ShardSpec",
    "partition_chunks",
]
