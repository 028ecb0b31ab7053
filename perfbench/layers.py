"""Which public entry points the traced run wraps, and what it counts.

Layer names follow the package layout (``core.engine`` is
``TreeDedup.checkpoint``'s own work, i.e. the label passes).  Module-level
functions are patched on the module whose callers resolve them, e.g.
``repro.core.dedup_tree.hash_chunks`` and ``repro.core.provenance.
scrub_chain``.  An entry point a later version of the program no longer
has is skipped and listed by :func:`missing`.
"""

from __future__ import annotations

from typing import List

from spans import Patch


def _probes(args, kwargs):
    return args[0].total_probes


def _map_keys(tracer, probes_before, args, kwargs, result):
    keys = args[1] if len(args) > 1 else kwargs["keys"]
    tracer.add("kokkos.map.keys", keys.shape[0])
    tracer.add("kokkos.map.probes", args[0].total_probes - probes_before)


def _hashed_bytes(tracer, token, args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    tracer.add("hashing.hash_chunks.bytes", data.nbytes)


def _gathered(tracer, token, args, kwargs, result):
    nodes = args[3] if len(args) > 3 else kwargs["nodes"]
    tracer.add("core.serialize.regions", len(nodes))
    tracer.add("core.serialize.payload_bytes", len(result[0]))


def _receipt(tracer, token, args, kwargs, result):
    tracer.add("core.store.bytes_written", result.bytes_written)
    tracer.add("core.store.frame_bytes", result.frame_bytes)
    tracer.add("core.store.manifest_bytes", result.manifest_bytes)


def _flush(tracer, token, args, kwargs, result):
    tracer.add("runtime.flush.blocked_sim_s", result.blocked_seconds)


def _cost(tracer, token, args, kwargs, result):
    tracer.add("gpusim.sim_launch_s", result.launch_seconds)
    tracer.add("gpusim.sim_stream_s", result.stream_seconds)
    tracer.add("gpusim.sim_random_s", result.random_seconds)
    tracer.add("gpusim.sim_transfer_s", result.transfer_seconds)


def _restore_cost(tracer, token, args, kwargs, result):
    tracer.add("gpusim.restore_sim_s", result.seconds)


def patches() -> List[Patch]:
    """The traced run's wrappers, outermost layers first."""
    from repro.core import dedup_tree, merkle, provenance, store
    from repro.core.diff import CheckpointDiff
    from repro.gpusim.perfmodel import KernelCostModel
    from repro.kokkos.unordered_map import DigestMap
    from repro.runtime.async_flush import AsyncFlushPipeline
    from repro.runtime.node import NodeRuntime
    from repro.telemetry import events
    from repro.telemetry.live.monitor import LiveMonitor

    return [
        Patch(NodeRuntime, "checkpoint_all", "runtime.node"),
        Patch(NodeRuntime, "crash_restart", "runtime.node"),
        Patch(AsyncFlushPipeline, "submit", "runtime.flush.submit", post=_flush),
        Patch(dedup_tree.TreeDedup, "checkpoint", "core.engine"),
        Patch(dedup_tree, "hash_chunks", "hashing.hash_chunks", post=_hashed_bytes),
        Patch(dedup_tree, "hash_digest_pairs", "hashing.hash_digest_pairs"),
        Patch(merkle, "hash_digest_pairs", "hashing.hash_digest_pairs"),
        # insert() delegates to insert_or_lookup(): one layer, re-entrant.
        Patch(DigestMap, "insert", "kokkos.map.insert_or_lookup"),
        Patch(
            DigestMap,
            "insert_or_lookup",
            "kokkos.map.insert_or_lookup",
            pre=_probes,
            post=_map_keys,
        ),
        Patch(DigestMap, "lookup", "kokkos.map.lookup", pre=_probes, post=_map_keys),
        Patch(dedup_tree, "gather_region_payload", "core.serialize.gather", post=_gathered),
        Patch(CheckpointDiff, "to_bytes", "core.diff.to_bytes"),
        Patch(provenance.ProvenanceBuilder, "append", "core.provenance.builder_append"),
        Patch(provenance.IndexedRestorer, "restore_with_report", "core.provenance.restore"),
        Patch(provenance, "materialize_index", "core.provenance.materialize"),
        Patch(provenance, "scrub_chain", "core.restore.scrub"),
        Patch(store.RecordWriter, "append", "core.store.append", post=_receipt),
        Patch(store.RecordWriter, "reset", "core.store.reset"),
        Patch(store, "load_provenance", "core.store.load_provenance"),
        Patch(store, "load_record_frames", "core.store.load_record_frames"),
        Patch(KernelCostModel, "price", "gpusim.price", post=_cost),
        Patch(KernelCostModel, "price_restore", "gpusim.price_restore", post=_restore_cost),
        Patch(events, "emit", "telemetry.events.emit"),
        Patch(LiveMonitor, "prometheus", "telemetry.live.render"),
        Patch(LiveMonitor, "poll", "telemetry.live.poll"),
    ]


def missing(table: List[Patch]) -> List[str]:
    """Targets of *table* the program does not have."""
    return [p.target for p in table if not p.available()]
