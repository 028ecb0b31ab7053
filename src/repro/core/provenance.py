"""Chunk-provenance index: restore without chain replay.

Chain replay reconstructs checkpoint *k* by applying every diff ``0..k``
in order — O(chain) buffer copies no matter what *k* actually references.
But the diff chain fully determines, for every chunk of checkpoint *k*,
*which stored payload byte range holds its bytes*: a chunk last written as
a first occurrence of checkpoint *t* lives in diff *t*'s payload; a chunk
covered by a shifted duplicate inherits the provenance of the chunk it
references; an untouched chunk keeps the previous checkpoint's entry.

:class:`ProvenanceBuilder` composes that mapping transitively as diffs
are appended — one vectorized pass per diff, one fancy-index composition
per *unique* referenced checkpoint — yielding a
:class:`ProvenanceIndex` per checkpoint: two flat arrays ``src_ckpt``
(int32, ``-1`` = never written, i.e. implicit zeros) and ``src_off``
(int64 byte offset into the *decompressed* payload of diff ``src_ckpt``).

Materializing checkpoint *k* is then one batched gather per referenced
source payload — typically a handful of diffs out of an arbitrarily long
chain — and a cold restart from disk only has to *parse the frames the
index names* (:func:`restore_record_indexed`), because
:func:`~repro.core.store.save_record` persists the stacked index
(:class:`ProvenanceTable`) next to the record manifest with the same
digest discipline as the ``.rdif`` frames.

The composition relies on the engines' serialization invariant (§2.2):
shifted-duplicate references point at content stored as a first
occurrence, never at bytes another shifted duplicate of the same diff
wrote.  :meth:`ProvenanceBuilder.append` enforces it (a reference whose
chunks do not resolve into the referenced checkpoint's own payload is a
corrupt chain), and every restore path in the test suite asserts
bit-identity against chain replay.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .. import telemetry
from ..telemetry import events
from ..errors import IntegrityError, RestoreError
from .chunking import ChunkSpec
from .diff import CheckpointDiff
from .merkle import TreeLayout
from .restore import scrub_chain
from .serialize import (
    chunk_payload_offsets,
    expand_node_chunks,
    node_region_bounds,
    unpack_bitmap,
)

#: ``src_ckpt`` value for chunks never written by any diff (implicit zeros).
ZERO_SOURCE = -1

_TABLE_MAGIC = b"RPIX"
#: v1: raw little-endian ``i4`` + ``i8`` arrays.  v2: the same arrays
#: delta+RLE+bitpacked per plane (``src_ckpt``, and ``src_off`` split
#: into low/high u32 words) with the cascaded codec — the rows are runny
#: (long runs of identical sources, arithmetic offset progressions), so
#: the 12 B/chunk raw encoding shrinks toward 1–2 B/chunk.
#: v3: the append-optimized layout — a fixed prologue (header + header
#: digest) followed by self-contained *row-group* records, one per
#: appended checkpoint, each carrying its own digest and the same three
#: compressed planes over just its rows.  Appending a checkpoint writes
#: one group record and rewrites the 60-byte prologue in place; nothing
#: else on disk is touched.
_TABLE_VERSION_V1 = 1
_TABLE_VERSION = 2
_TABLE_VERSION_V3 = 3
_TABLE_HEADER = struct.Struct("<4sHHIIQI")
# magic, version, reserved, num_checkpoints, num_chunks, data_len, chunk_size
_TABLE_DIGEST_BYTES = 32
_PLANE_LEN = struct.Struct("<Q")
#: v3 row-group record header: body length, first checkpoint row, row
#: count, SHA-256 over ``pack("<II", first_ckpt, num_rows) + body``.
_GROUP_HEADER = struct.Struct("<QII32s")
#: Fixed v3 prologue: table header + SHA-256 of the header bytes.  An
#: append rewrites exactly this region (the row count lives here) and
#: appends one group record after the last — O(rows in this checkpoint).
V3_PROLOGUE_BYTES = _TABLE_HEADER.size + _TABLE_DIGEST_BYTES
#: Raw (v1) index bytes per chunk per checkpoint: i4 src_ckpt + i8 src_off.
RAW_INDEX_BYTES_PER_CHUNK = 12


def _pack_planes(src_ckpt: np.ndarray, src_off: np.ndarray) -> bytes:
    """Three length-prefixed cascaded-compressed planes over the rows.

    ``src_off`` is split into low/high u32 words (rather than
    interleaving an i8 stream) so the delta pass sees the arithmetic
    progression directly and the high plane is almost entirely zero runs.
    """
    from ..compress.cascaded import CascadedCodec  # local: core ↔ compress

    codec = CascadedCodec()
    ckpt_plane = np.ascontiguousarray(src_ckpt, dtype="<i4").tobytes()
    off = np.ascontiguousarray(src_off, dtype=np.int64)
    lo_plane = (off & np.int64(0xFFFFFFFF)).astype("<u4").tobytes()
    hi_plane = (off >> np.int64(32)).astype("<u4").tobytes()
    parts = [codec.compress(p) for p in (ckpt_plane, lo_plane, hi_plane)]
    return b"".join(_PLANE_LEN.pack(len(p)) + p for p in parts)


def _unpack_planes(
    buf: bytes, n_rows: int, n_chunks: int, off: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode the three planes back into ``(src_ckpt, src_off)`` arrays.

    Consumes *buf* from *off* to its end — trailing bytes are damage.
    """
    from ..compress.cascaded import CascadedCodec  # local: core ↔ compress
    from ..errors import CompressionError

    codec = CascadedCodec()
    count = n_rows * n_chunks
    planes = []
    for name in ("src_ckpt", "src_off_lo", "src_off_hi"):
        if off + _PLANE_LEN.size > len(buf):
            raise IntegrityError(
                f"provenance index truncated before {name} plane"
            )
        (length,) = _PLANE_LEN.unpack_from(buf, off)
        off += _PLANE_LEN.size
        if off + length > len(buf):
            raise IntegrityError(
                f"provenance index {name} plane overruns the file"
            )
        try:
            raw = codec.decompress(buf[off : off + length])
        except CompressionError as exc:
            raise IntegrityError(
                f"provenance index {name} plane is damaged: {exc}"
            ) from exc
        if len(raw) != count * 4:
            raise IntegrityError(
                f"provenance index {name} plane holds {len(raw)} bytes, "
                f"expected {count * 4}"
            )
        planes.append(raw)
        off += length
    if off != len(buf):
        raise IntegrityError(
            f"provenance index has {len(buf) - off} trailing bytes"
        )
    src_ckpt = (
        np.frombuffer(planes[0], dtype="<i4").reshape(n_rows, n_chunks).copy()
    )
    lo = np.frombuffer(planes[1], dtype="<u4").astype(np.int64)
    hi = np.frombuffer(planes[2], dtype="<u4").astype(np.int64)
    src_off = ((hi << np.int64(32)) | lo).reshape(n_rows, n_chunks)
    return src_ckpt, src_off


@dataclass
class ProvenanceIndex:
    """Resolved chunk sources of one checkpoint.

    ``src_ckpt[c]`` is the checkpoint whose payload holds chunk *c*'s
    bytes (:data:`ZERO_SOURCE` for implicit zeros); ``src_off[c]`` the
    byte offset of those bytes inside that payload (after payload-codec
    decompression, for hybrid tree diffs).
    """

    ckpt_id: int
    data_len: int
    chunk_size: int
    src_ckpt: np.ndarray  # int32, shape (num_chunks,)
    src_off: np.ndarray  # int64, shape (num_chunks,)

    @property
    def num_chunks(self) -> int:
        return int(self.src_ckpt.shape[0])

    def referenced(self) -> np.ndarray:
        """Checkpoints whose payloads this checkpoint's bytes live in."""
        uniq = np.unique(self.src_ckpt)
        return uniq[uniq >= 0].astype(np.int64)


class ProvenanceBuilder:
    """Incrementally composes :class:`ProvenanceIndex` rows over a chain.

    Append diffs in chain order (``append`` validates ordering and
    geometry); ``index_for(k)`` returns checkpoint *k*'s resolved index.
    The builder holds one int32+int64 pair per chunk per checkpoint —
    metadata-sized, never payload-sized.
    """

    def __init__(self) -> None:
        self.indexes: List[ProvenanceIndex] = []
        self._layouts: Dict[int, TreeLayout] = {}

    def __len__(self) -> int:
        return len(self.indexes)

    def reset(self) -> None:
        """Drop all rows (a crashed process restarts its chain at 0)."""
        self.indexes.clear()

    def extend(self, diffs: Sequence[CheckpointDiff]) -> None:
        for diff in diffs:
            self.append(diff)

    def seed(self, table: "ProvenanceTable") -> None:
        """Adopt a decoded table's rows as the already-composed prefix.

        :class:`~repro.core.store.RecordWriter` reopens a record by
        decoding its persisted index once and seeding the builder from
        it, so appends resume without re-deriving provenance from the
        diff chain.
        """
        if self.indexes:
            raise RestoreError("cannot seed a non-empty provenance builder")
        for k in range(table.num_checkpoints):
            self.indexes.append(table.row(k))

    def index_for(self, ckpt_id: int) -> ProvenanceIndex:
        if not 0 <= ckpt_id < len(self.indexes):
            raise RestoreError(
                f"checkpoint {ckpt_id} outside indexed chain of {len(self.indexes)}"
            )
        return self.indexes[ckpt_id]

    # ------------------------------------------------------------------
    def append(self, diff: CheckpointDiff) -> ProvenanceIndex:
        """Compose the next checkpoint's index from *diff*."""
        k = len(self.indexes)
        if diff.ckpt_id != k:
            raise RestoreError(
                f"diff chain out of order: position {k} holds "
                f"checkpoint {diff.ckpt_id}"
            )
        spec = ChunkSpec(diff.data_len, diff.chunk_size)
        if self.indexes:
            prev = self.indexes[-1]
            if prev.data_len != diff.data_len:
                raise RestoreError(
                    f"checkpoint length changed mid-chain at {k}"
                )
            if prev.chunk_size != diff.chunk_size:
                raise RestoreError(f"chunk size changed mid-chain at {k}")
            src_ckpt = prev.src_ckpt.copy()
            src_off = prev.src_off.copy()
        else:
            src_ckpt = np.full(spec.num_chunks, ZERO_SOURCE, dtype=np.int32)
            src_off = np.zeros(spec.num_chunks, dtype=np.int64)

        cs = spec.chunk_size
        if diff.method == "full":
            src_ckpt[:] = k
            src_off[:] = np.arange(spec.num_chunks, dtype=np.int64) * cs
        elif diff.method == "basic":
            changed = unpack_bitmap(diff.bitmap, spec.num_chunks)
            chunks = np.nonzero(changed)[0].astype(np.int64)
            offsets, _, _ = chunk_payload_offsets(spec, chunks)
            src_ckpt[chunks] = k
            src_off[chunks] = offsets
        else:
            first_chunks, first_offs = self._first_occurrence_chunks(diff, spec)
            src_ckpt[first_chunks] = k
            src_off[first_chunks] = first_offs
            dst, src, refs = self._shift_chunks(diff, spec)
            if refs.size:
                if int(refs.max()) > k:
                    raise RestoreError(
                        f"shifted duplicate references checkpoint "
                        f"{int(refs.max())}, which is not reconstructed yet"
                    )
                for t in np.unique(refs):
                    sel = refs == t
                    if t == k:
                        s_ck, s_off = src_ckpt, src_off
                    else:
                        ref_index = self.indexes[int(t)]
                        s_ck, s_off = ref_index.src_ckpt, ref_index.src_off
                    sources = s_ck[src[sel]]
                    # §2.2: a shifted reference (t, src) names chunks
                    # stored in checkpoint t's own payload.  Anything
                    # else (e.g. two shifts of one diff pointing at each
                    # other) is a corrupt chain.
                    if np.any(sources != t):
                        raise RestoreError(
                            f"shifted duplicate in checkpoint {k} references "
                            f"chunks of checkpoint {int(t)} that are not "
                            f"stored in its payload"
                        )
                    src_ckpt[dst[sel]] = sources
                    src_off[dst[sel]] = s_off[src[sel]]

        index = ProvenanceIndex(
            ckpt_id=k,
            data_len=diff.data_len,
            chunk_size=diff.chunk_size,
            src_ckpt=src_ckpt,
            src_off=src_off,
        )
        self.indexes.append(index)
        return index

    def _first_occurrence_chunks(
        self, diff: CheckpointDiff, spec: ChunkSpec
    ) -> Tuple[np.ndarray, np.ndarray]:
        """First-occurrence chunk ids + their payload byte offsets."""
        firsts = diff.first_ids.astype(np.int64)
        if diff.method == "list":
            if firsts.size and (
                firsts.min() < 0 or firsts.max() >= spec.num_chunks
            ):
                raise RestoreError(
                    f"chunk id {int(firsts.max())} outside checkpoint of "
                    f"{spec.num_chunks} chunks"
                )
            offsets, _, _ = chunk_payload_offsets(spec, firsts)
            return firsts, offsets
        layout = self._layout_for(spec.num_chunks)
        self._check_nodes(layout, firsts)
        r0, r1 = node_region_bounds(spec, layout, firsts)
        region_lengths = r1 - r0
        region_offsets = np.empty(firsts.shape[0], dtype=np.int64)
        if firsts.size:
            region_offsets[0] = 0
            np.cumsum(region_lengths[:-1], out=region_offsets[1:])
        chunks, region_of, within = expand_node_chunks(layout, firsts)
        return chunks, region_offsets[region_of] + within * spec.chunk_size

    def _shift_chunks(
        self, diff: CheckpointDiff, spec: ChunkSpec
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shifted-duplicate (dst chunk, src chunk, ref ckpt) triples."""
        if diff.num_shift == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        refs = diff.shift_ref_ckpts.astype(np.int64)
        if diff.method == "list":
            dst = diff.shift_ids.astype(np.int64)
            src = diff.shift_ref_ids.astype(np.int64)
            for arr in (dst, src):
                if arr.min() < 0 or arr.max() >= spec.num_chunks:
                    raise RestoreError(
                        f"chunk id {int(arr.max())} outside checkpoint of "
                        f"{spec.num_chunks} chunks"
                    )
            return dst, src, refs
        layout = self._layout_for(spec.num_chunks)
        dst_nodes = diff.shift_ids.astype(np.int64)
        src_nodes = diff.shift_ref_ids.astype(np.int64)
        self._check_nodes(layout, dst_nodes)
        self._check_nodes(layout, src_nodes)
        d0, d1 = node_region_bounds(spec, layout, dst_nodes)
        s0, s1 = node_region_bounds(spec, layout, src_nodes)
        bad = np.nonzero((d1 - d0) != (s1 - s0))[0]
        if bad.size:
            raise RestoreError(
                f"shifted region {int(dst_nodes[bad[0]])} length mismatch"
            )
        dst_chunks, dst_region, _ = expand_node_chunks(layout, dst_nodes)
        src_chunks, _, _ = expand_node_chunks(layout, src_nodes)
        return dst_chunks, src_chunks, refs[dst_region]

    def _layout_for(self, num_chunks: int) -> TreeLayout:
        layout = self._layouts.get(num_chunks)
        if layout is None:
            layout = TreeLayout(num_chunks)
            self._layouts[num_chunks] = layout
        return layout

    @staticmethod
    def _check_nodes(layout: TreeLayout, nodes: np.ndarray) -> None:
        if nodes.size and (nodes.min() < 0 or nodes.max() >= layout.num_nodes):
            bad = int(nodes.min()) if nodes.min() < 0 else int(nodes.max())
            raise RestoreError(
                f"node id {bad} outside tree of {layout.num_nodes}"
            )


@dataclass
class ProvenanceTable:
    """All checkpoints' provenance rows, stacked — the persisted form.

    Row *k* (``row(k)``) is checkpoint *k*'s :class:`ProvenanceIndex`.
    The wire encoding mirrors the ``.rdif`` discipline: fixed header, a
    SHA-256 content digest over header+body, then the two little-endian
    arrays — so a bit flip anywhere in a stored index is detected at
    parse time.
    """

    data_len: int
    chunk_size: int
    src_ckpt: np.ndarray  # int32, shape (num_checkpoints, num_chunks)
    src_off: np.ndarray  # int64, shape (num_checkpoints, num_chunks)

    @property
    def num_checkpoints(self) -> int:
        return int(self.src_ckpt.shape[0])

    @property
    def num_chunks(self) -> int:
        return int(self.src_ckpt.shape[1])

    def row(self, ckpt_id: int) -> ProvenanceIndex:
        if not 0 <= ckpt_id < self.num_checkpoints:
            raise RestoreError(
                f"checkpoint {ckpt_id} outside indexed chain of "
                f"{self.num_checkpoints}"
            )
        return ProvenanceIndex(
            ckpt_id=ckpt_id,
            data_len=self.data_len,
            chunk_size=self.chunk_size,
            src_ckpt=self.src_ckpt[ckpt_id],
            src_off=self.src_off[ckpt_id],
        )

    @classmethod
    def from_builder(cls, builder: ProvenanceBuilder) -> "ProvenanceTable":
        if not builder.indexes:
            raise RestoreError("cannot build a provenance table from no diffs")
        first = builder.indexes[0]
        return cls(
            data_len=first.data_len,
            chunk_size=first.chunk_size,
            src_ckpt=np.stack([i.src_ckpt for i in builder.indexes]),
            src_off=np.stack([i.src_off for i in builder.indexes]),
        )

    @classmethod
    def from_diffs(cls, diffs: Sequence[CheckpointDiff]) -> "ProvenanceTable":
        builder = ProvenanceBuilder()
        builder.extend(diffs)
        return cls.from_builder(builder)

    # ------------------------------------------------------------------
    @property
    def raw_index_bytes(self) -> int:
        """Uncompressed (v1-equivalent) array bytes: 12 B/chunk/checkpoint."""
        return self.num_checkpoints * self.num_chunks * RAW_INDEX_BYTES_PER_CHUNK

    def to_bytes(self) -> bytes:
        header = _TABLE_HEADER.pack(
            _TABLE_MAGIC,
            _TABLE_VERSION,
            0,
            self.num_checkpoints,
            self.num_chunks,
            self.data_len,
            self.chunk_size,
        )
        body = self._encode_planes()
        digest = hashlib.sha256(header + body).digest()
        return header + digest + body

    def _encode_planes(self) -> bytes:
        """v2 body: three length-prefixed cascaded-compressed planes."""
        return _pack_planes(self.src_ckpt, self.src_off)

    @classmethod
    def from_bytes(cls, blob: bytes, verify: bool = True) -> "ProvenanceTable":
        if len(blob) < _TABLE_HEADER.size + _TABLE_DIGEST_BYTES:
            raise IntegrityError(
                f"provenance index too short ({len(blob)} bytes)"
            )
        magic, version, _reserved, n_ckpts, n_chunks, data_len, chunk_size = (
            _TABLE_HEADER.unpack_from(blob, 0)
        )
        if magic != _TABLE_MAGIC:
            raise IntegrityError(f"bad provenance index magic {magic!r}")
        if version == _TABLE_VERSION_V3:
            _header, groups = scan_v3(blob)
            src_ckpt, src_off = decode_v3_groups(
                blob, groups, n_chunks, verify=verify
            )
            return cls(
                data_len=data_len,
                chunk_size=chunk_size,
                src_ckpt=src_ckpt,
                src_off=src_off,
            )
        if version not in (_TABLE_VERSION_V1, _TABLE_VERSION):
            raise IntegrityError(f"unsupported provenance index version {version}")
        off = _TABLE_HEADER.size
        stored_digest = blob[off : off + _TABLE_DIGEST_BYTES]
        off += _TABLE_DIGEST_BYTES
        count = n_ckpts * n_chunks
        if version == _TABLE_VERSION_V1:
            need = off + count * RAW_INDEX_BYTES_PER_CHUNK
            if len(blob) != need:
                raise IntegrityError(
                    f"provenance index length {len(blob)} != expected {need}"
                )
        if verify:
            actual = hashlib.sha256()
            actual.update(blob[: _TABLE_HEADER.size])
            actual.update(blob[off:])
            if actual.digest() != stored_digest:
                raise IntegrityError(
                    f"provenance index digest mismatch "
                    f"(stored {stored_digest.hex()[:16]}…, "
                    f"computed {actual.hexdigest()[:16]}…)"
                )
        if version == _TABLE_VERSION_V1:
            src_ckpt = (
                np.frombuffer(blob, dtype="<i4", count=count, offset=off)
                .reshape(n_ckpts, n_chunks)
                .copy()
            )
            src_off = (
                np.frombuffer(blob, dtype="<i8", count=count, offset=off + 4 * count)
                .reshape(n_ckpts, n_chunks)
                .copy()
            )
        else:
            src_ckpt, src_off = cls._decode_planes(blob, off, n_ckpts, n_chunks)
        return cls(
            data_len=data_len,
            chunk_size=chunk_size,
            src_ckpt=src_ckpt,
            src_off=src_off,
        )

    @staticmethod
    def _decode_planes(
        blob: bytes, off: int, n_ckpts: int, n_chunks: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        return _unpack_planes(blob, n_ckpts, n_chunks, off=off)


# ----------------------------------------------------------------------
# RPIX v3: append-only row-group layout
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RowGroup:
    """Structural description of one v3 row-group (body not yet decoded)."""

    first_ckpt: int
    num_rows: int
    digest: bytes
    body_off: int
    body_len: int


def encode_v3_prologue(
    num_checkpoints: int, num_chunks: int, data_len: int, chunk_size: int
) -> bytes:
    """The fixed-size v3 file prologue: header + SHA-256 of the header."""
    header = _TABLE_HEADER.pack(
        _TABLE_MAGIC,
        _TABLE_VERSION_V3,
        0,
        num_checkpoints,
        num_chunks,
        data_len,
        chunk_size,
    )
    return header + hashlib.sha256(header).digest()


def encode_v3_group(
    first_ckpt: int, src_ckpt: np.ndarray, src_off: np.ndarray
) -> Tuple[bytes, bytes]:
    """Encode one self-contained row-group record.

    *src_ckpt*/*src_off* are 2-D ``(num_rows, num_chunks)`` row slices.
    Returns ``(record_bytes, group_digest)`` — the digest also feeds the
    manifest's rolling ``chain_sha256`` over all group digests.
    """
    rows = int(np.atleast_2d(src_ckpt).shape[0])
    body = _pack_planes(src_ckpt, src_off)
    digest = hashlib.sha256(
        struct.pack("<II", first_ckpt, rows) + body
    ).digest()
    return _GROUP_HEADER.pack(len(body), first_ckpt, rows, digest) + body, digest


def scan_v3(
    blob: bytes, max_rows: Optional[int] = None
) -> Tuple[dict, List[RowGroup]]:
    """Structurally walk a v3 blob: prologue + group framing, no bodies.

    Verifies the header digest and group framing only — group *bodies*
    are hashed later, and only for the groups a caller actually decodes:
    a restore of checkpoint K hashes and decodes just the group holding
    row K (:func:`decode_v3_row`), a full-table load every group.
    With *max_rows* (the manifest's authoritative row count) the walk
    stops once that many rows are covered and tolerates trailing bytes:
    a crash between the group append and the manifest update leaves an
    orphan group that the next writer open truncates away.
    """
    if len(blob) < V3_PROLOGUE_BYTES:
        raise IntegrityError(f"provenance index too short ({len(blob)} bytes)")
    magic, version, _reserved, n_ckpts, n_chunks, data_len, chunk_size = (
        _TABLE_HEADER.unpack_from(blob, 0)
    )
    if magic != _TABLE_MAGIC:
        raise IntegrityError(f"bad provenance index magic {magic!r}")
    if version != _TABLE_VERSION_V3:
        raise IntegrityError(
            f"unsupported provenance index version {version} (expected v3)"
        )
    stored = blob[_TABLE_HEADER.size : V3_PROLOGUE_BYTES]
    if hashlib.sha256(blob[: _TABLE_HEADER.size]).digest() != stored:
        raise IntegrityError("provenance index header digest mismatch")
    want = n_ckpts if max_rows is None else max_rows
    groups: List[RowGroup] = []
    rows = 0
    off = V3_PROLOGUE_BYTES
    while rows < want:
        if off + _GROUP_HEADER.size > len(blob):
            raise IntegrityError(
                f"provenance index truncated: holds {rows} of {want} rows"
            )
        body_len, first, g_rows, digest = _GROUP_HEADER.unpack_from(blob, off)
        off += _GROUP_HEADER.size
        if first != rows or g_rows <= 0:
            raise IntegrityError(
                f"provenance index row-group claims rows "
                f"{first}..{first + g_rows}, expected to start at {rows}"
            )
        if off + body_len > len(blob):
            raise IntegrityError(
                f"provenance index row-group {first} body overruns the file"
            )
        groups.append(RowGroup(first, g_rows, digest, off, body_len))
        off += body_len
        rows += g_rows
    if max_rows is None and (rows != want or off != len(blob)):
        raise IntegrityError(
            f"provenance index row-groups hold {rows} rows and "
            f"{len(blob) - off} trailing bytes; header claims {want} rows"
        )
    header = {
        "num_checkpoints": n_ckpts,
        "num_chunks": n_chunks,
        "data_len": data_len,
        "chunk_size": chunk_size,
    }
    return header, groups


def verify_v3_group(blob: bytes, group: RowGroup) -> bool:
    """Whether a row-group's stored digest matches its bytes."""
    actual = hashlib.sha256(
        struct.pack("<II", group.first_ckpt, group.num_rows)
        + blob[group.body_off : group.body_off + group.body_len]
    ).digest()
    return actual == group.digest


def decode_v3_groups(
    blob: bytes,
    groups: Sequence[RowGroup],
    n_chunks: int,
    verify: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode (a contiguous prefix of) row-groups into stacked planes."""
    if not groups:
        raise IntegrityError("provenance index holds no row-groups")
    parts_ckpt = []
    parts_off = []
    for g in groups:
        body = blob[g.body_off : g.body_off + g.body_len]
        if verify and not verify_v3_group(blob, g):
            raise IntegrityError(
                f"provenance index row-group {g.first_ckpt} digest mismatch "
                f"(stored {g.digest.hex()[:16]}…)"
            )
        try:
            ck, off_arr = _unpack_planes(body, g.num_rows, n_chunks)
        except IntegrityError as exc:
            raise IntegrityError(
                f"provenance index row-group {g.first_ckpt} is damaged: {exc}"
            ) from exc
        parts_ckpt.append(ck)
        parts_off.append(off_arr)
    return (
        np.concatenate(parts_ckpt, axis=0),
        np.concatenate(parts_off, axis=0),
    )


def decode_v3_row(
    blob: bytes, header: dict, groups: Sequence[RowGroup], ckpt_id: int
) -> ProvenanceIndex:
    """Verify and decode only the row-group holding checkpoint *ckpt_id*.

    Every row is fully resolved through the chain at append time, so a
    restore of checkpoint K needs row K alone — never the rows before or
    after it.  *header* and *groups* come from :func:`scan_v3`.
    """
    for g in groups:
        if g.first_ckpt <= ckpt_id < g.first_ckpt + g.num_rows:
            break
    else:
        covered = groups[-1].first_ckpt + groups[-1].num_rows if groups else 0
        raise RestoreError(
            f"checkpoint {ckpt_id} outside indexed chain of {covered}"
        )
    src_ckpt, src_off = decode_v3_groups(blob, [g], header["num_chunks"])
    r = ckpt_id - g.first_ckpt
    return ProvenanceIndex(
        ckpt_id=ckpt_id,
        data_len=header["data_len"],
        chunk_size=header["chunk_size"],
        src_ckpt=src_ckpt[r],
        src_off=src_off[r],
    )


# ----------------------------------------------------------------------
# Lineage analytics (the attribution plane reads these)
# ----------------------------------------------------------------------
def lineage_depths(table: ProvenanceTable) -> np.ndarray:
    """Restore-gather hop distance of every chunk of every checkpoint.

    Entry ``[k, c]`` is how many checkpoints back checkpoint *k* reaches
    for chunk *c*'s bytes (``k - src_ckpt``); self-sourced chunks and
    implicit zeros are depth 0.  Because the table is fully transitively
    resolved, this is exactly the age of the payload a restore-time
    gather touches — derivable on cold records without replay.
    """
    rows = np.arange(table.num_checkpoints, dtype=np.int64)[:, None]
    depth = rows - table.src_ckpt.astype(np.int64)
    depth[table.src_ckpt == ZERO_SOURCE] = 0
    return depth


def cell_reference_counts(table: ProvenanceTable) -> Tuple[np.ndarray, int]:
    """How many table entries resolve to each chunk's payload cell.

    A *cell* is one distinct ``(src_ckpt, src_off)`` pair — one stored
    chunk's bytes on disk.  Returns ``(counts, num_cells)``: ``counts``
    has the table's shape and gives, per entry, the total number of
    entries anywhere in the table sharing its cell (≥ 1; 0 for implicit
    zeros); ``num_cells`` is the number of distinct non-zero cells, i.e.
    the record's unique stored-chunk population.
    """
    keys = np.empty(
        table.src_ckpt.size, dtype=[("c", "<i8"), ("o", "<i8")]
    )
    keys["c"] = table.src_ckpt.astype(np.int64).ravel()
    keys["o"] = table.src_off.astype(np.int64).ravel()
    uniq, inverse, counts = np.unique(
        keys, return_inverse=True, return_counts=True
    )
    per_entry = counts[inverse].astype(np.int64)
    zero = keys["c"] == ZERO_SOURCE
    per_entry[zero] = 0
    num_cells = int(np.count_nonzero(uniq["c"] >= 0))
    return per_entry.reshape(table.src_ckpt.shape), num_cells


# ----------------------------------------------------------------------
# Materialization
# ----------------------------------------------------------------------
@dataclass
class IndexedRestoreReport:
    """What one indexed restore actually touched."""

    target_ckpt: int
    data_len: int
    chain_len: int
    #: Payload bytes gathered per referenced source checkpoint.
    payload_bytes_read: Dict[int, int] = field(default_factory=dict)

    @property
    def frames_referenced(self) -> int:
        """How many diffs' payloads the target actually lives in."""
        return len(self.payload_bytes_read)

    @property
    def total_payload_bytes_read(self) -> int:
        return sum(self.payload_bytes_read.values())


def materialize_index(
    index: ProvenanceIndex,
    payload_of: Callable[[int], np.ndarray],
    out: Optional[np.ndarray] = None,
    space=None,
    report: Optional[IndexedRestoreReport] = None,
    chunk_lo: int = 0,
    chunk_hi: Optional[int] = None,
    zero: bool = True,
    h2d: bool = True,
) -> np.ndarray:
    """Gather checkpoint bytes straight from source payloads.

    ``payload_of(t)`` must return diff *t*'s (decompressed) payload as a
    uint8 array; it is called once per checkpoint the index references.
    Full chunks move as whole ``chunk_size`` rows: one slice when a
    source's offsets form a single contiguous run, otherwise one row
    gather through a sliding-window view of the payload (any byte
    offset, no per-byte index array).  The tail chunk is copied alone.

    ``[chunk_lo, chunk_hi)`` restricts the gather to a chunk range — the
    sharding primitive: each simulated GPU of a fleet restore
    materializes its own contiguous range into the shared ``out`` buffer
    and uploads only that range (``h2d``).  ``zero=False`` skips the
    upfront zero fill (a sharded caller zeroes ``out`` once, not once
    per shard per window).  The defaults reproduce the original
    whole-buffer behavior exactly.
    """
    spec = ChunkSpec(index.data_len, index.chunk_size)
    cs = spec.chunk_size
    full = index.data_len // cs
    lo = chunk_lo
    hi = spec.num_chunks if chunk_hi is None else chunk_hi
    if not 0 <= lo <= hi <= spec.num_chunks:
        raise RestoreError(
            f"chunk range [{lo}, {hi}) outside checkpoint of "
            f"{spec.num_chunks} chunks"
        )
    if out is None:
        out = np.zeros(index.data_len, dtype=np.uint8)
    elif zero:
        out[lo * cs : min(hi * cs, index.data_len)] = 0
    body = out[: full * cs].reshape(full, cs) if full else None

    sub_ckpt = index.src_ckpt[lo:hi]
    referenced = np.unique(sub_ckpt)
    referenced = referenced[referenced >= 0]
    for t in referenced:
        t = int(t)
        payload = payload_of(t)
        sel = sub_ckpt == t
        chunks = np.nonzero(sel)[0].astype(np.int64) + lo
        offs = index.src_off[chunks]
        lengths = np.full(chunks.shape[0], cs, dtype=np.int64)
        if index.data_len % cs:
            lengths[chunks == spec.num_chunks - 1] = spec.tail_len
        if int((offs + lengths).max()) > payload.shape[0] or int(offs.min()) < 0:
            raise RestoreError(
                f"provenance index points outside checkpoint {t}'s payload"
            )
        is_full = chunks < full
        rows = chunks[is_full]
        if rows.size:
            f_offs = offs[is_full]
            n = rows.shape[0]
            if n == 1 or bool(np.all(np.diff(f_offs) == cs)):
                start = int(f_offs[0])
                body[rows] = payload[start : start + n * cs].reshape(n, cs)
            else:
                # Row r of the window view is the cs bytes at offset r,
                # so one fancy index gathers whole chunks at any offset.
                body[rows] = sliding_window_view(payload, cs)[f_offs]
        for i in np.nonzero(~is_full)[0]:
            b0, b1 = spec.chunk_bounds(int(chunks[i]))
            off = int(offs[i])
            out[b0:b1] = payload[off : off + (b1 - b0)]
        gathered = int(lengths.sum())
        if report is not None:
            report.payload_bytes_read[t] = (
                report.payload_bytes_read.get(t, 0) + gathered
            )
        if space is not None:
            # One gather kernel per source payload: reads the gathered
            # bytes plus the index row slice once, writes them into place.
            space.launch(
                "restore.gather",
                items=int(chunks.shape[0]),
                bytes_read=gathered + (hi - lo) * RAW_INDEX_BYTES_PER_CHUNK,
                bytes_written=gathered,
            )
    if space is not None and h2d:
        extent = min(hi * cs, index.data_len) - lo * cs
        if extent > 0:
            space.transfer("H2D", extent)
    return out


class IndexedRestorer:
    """Provenance-indexed restore: the fast path of the restore overhaul.

    Drop-in for :class:`~repro.core.restore.Restorer.restore` on intact
    chains — bit-identical output, but materialized as one batched gather
    per referenced source payload instead of replaying the chain.  A
    long-lived caller (e.g. :class:`~repro.runtime.node.NodeRuntime`)
    passes its incrementally maintained :class:`ProvenanceBuilder`;
    otherwise the builder is composed on the fly (still vectorized, and
    metadata-sized rather than payload-sized work per diff).
    """

    def __init__(self, payload_codec=None, scrub: bool = False, space=None) -> None:
        self.payload_codec = payload_codec
        self.scrub = scrub
        self.space = space

    def restore(
        self,
        diffs: Sequence[CheckpointDiff],
        upto: Optional[int] = None,
        builder: Optional[ProvenanceBuilder] = None,
    ) -> np.ndarray:
        out, _ = self.restore_with_report(diffs, upto, builder)
        return out

    def restore_with_report(
        self,
        diffs: Sequence[CheckpointDiff],
        upto: Optional[int] = None,
        builder: Optional[ProvenanceBuilder] = None,
    ) -> Tuple[np.ndarray, IndexedRestoreReport]:
        if len(diffs) == 0:
            raise RestoreError("cannot restore from an empty diff chain")
        if upto is None:
            upto = len(diffs) - 1
        if not 0 <= upto < len(diffs):
            raise RestoreError(f"checkpoint {upto} outside chain of {len(diffs)}")
        if self.scrub:
            scrub_chain(diffs[: upto + 1], self.payload_codec)
        with telemetry.span(
            "restore.indexed",
            space=self.space,
            upto=upto,
            chain_len=len(diffs),
        ) as span:
            if builder is None:
                builder = ProvenanceBuilder()
            if len(builder) <= upto:
                builder.extend(diffs[len(builder) : upto + 1])
            index = builder.index_for(upto)
            if index.data_len != diffs[0].data_len:
                raise RestoreError(
                    "provenance builder does not match the supplied chain"
                )

            payloads: Dict[int, np.ndarray] = {}

            def payload_of(t: int) -> np.ndarray:
                cached = payloads.get(t)
                if cached is None:
                    cached = np.frombuffer(
                        self._payload(diffs[t]), dtype=np.uint8
                    )
                    payloads[t] = cached
                return cached

            report = IndexedRestoreReport(
                target_ckpt=upto, data_len=index.data_len, chain_len=len(diffs)
            )
            out = materialize_index(
                index, payload_of, space=self.space, report=report
            )
            span.set(
                sources=len(report.payload_bytes_read),
                payload_bytes=sum(report.payload_bytes_read.values()),
            )
        events.emit(
            events.RESTORE,
            path="indexed",
            target_ckpt=upto,
            chain_len=len(diffs),
            state_bytes=int(out.nbytes),
            payload_bytes=sum(report.payload_bytes_read.values()),
            sources=len(report.payload_bytes_read),
        )
        return out, report

    def _payload(self, diff: CheckpointDiff) -> bytes:
        if self.payload_codec is not None and diff.method == "tree":
            return self.payload_codec.decompress(diff.payload)
        return diff.payload


def indexed_restore_latest(
    diffs: Sequence[CheckpointDiff], payload_codec=None, scrub: bool = False
) -> np.ndarray:
    """Convenience wrapper: indexed reconstruction of the final checkpoint."""
    return IndexedRestorer(payload_codec=payload_codec, scrub=scrub).restore(diffs)


# ----------------------------------------------------------------------
# Cold restart from disk
# ----------------------------------------------------------------------
@dataclass
class RecordRestoreReport:
    """I/O accounting of one from-disk restore."""

    target_ckpt: int
    frames_total: int
    #: Frames actually read and parsed (index-referenced ones on the fast
    #: path; the whole record when no index is available or scrub is on).
    frames_parsed: int
    #: Total ``.rdif`` bytes the record holds on disk.
    record_bytes: int
    #: ``.rdif`` bytes actually read (+ the index file on the fast path).
    record_bytes_read: int
    index_bytes: int
    used_index: bool
    payload_bytes_read: Dict[int, int] = field(default_factory=dict)


def restore_record_indexed(
    directory,
    upto: Optional[int] = None,
    payload_codec=None,
    scrub: bool = False,
    space=None,
) -> Tuple[np.ndarray, RecordRestoreReport]:
    """Reconstruct a checkpoint from a stored record, parsing only the
    frames its provenance index names.

    Only the target's index row is hashed and decoded
    (:func:`~repro.core.store.load_provenance_row`): damage in another
    row-group cannot block this restore, while damage to the target's
    own group, the header or the manifest chain digest still raises.
    The manifest is read once and handed to every loader.

    Falls back to loading (and indexing) the full record when the record
    predates the index or ``scrub=True`` (scrubbing validates the whole
    chain, which needs every frame).  The frame digests (manifest and
    embedded) are checked on both paths.
    """
    from .store import (  # local import: store ↔ provenance layering
        load_provenance_row,
        load_record,
        load_record_frames,
        record_index_bytes,
        record_manifest,
        stored_frame_sizes,
    )

    manifest = record_manifest(directory)
    count = manifest["num_checkpoints"]
    if upto is None:
        upto = count - 1
    if not 0 <= upto < count:
        raise RestoreError(f"checkpoint {upto} outside record of {count}")

    frame_sizes = stored_frame_sizes(directory, manifest)
    record_bytes = int(sum(frame_sizes))
    index = None if scrub else load_provenance_row(directory, upto, manifest)

    if index is None:
        diffs = load_record(directory)
        restorer = IndexedRestorer(
            payload_codec=payload_codec, scrub=scrub, space=space
        )
        out, ireport = restorer.restore_with_report(diffs, upto)
        report = RecordRestoreReport(
            target_ckpt=upto,
            frames_total=count,
            frames_parsed=count,
            record_bytes=record_bytes,
            record_bytes_read=record_bytes,
            index_bytes=0,
            used_index=False,
            payload_bytes_read=dict(ireport.payload_bytes_read),
        )
        return out, report

    if index.data_len != manifest.get("data_len", index.data_len):
        raise IntegrityError(
            f"provenance index describes {index.data_len}-byte checkpoints, "
            f"record holds {manifest['data_len']}-byte ones"
        )
    refs = [int(t) for t in index.referenced()]
    frames = load_record_frames(directory, refs, manifest)

    def payload_of(t: int) -> np.ndarray:
        diff = frames[t]
        if payload_codec is not None and diff.method == "tree":
            return np.frombuffer(payload_codec.decompress(diff.payload), np.uint8)
        return np.frombuffer(diff.payload, dtype=np.uint8)

    index_bytes = record_index_bytes(directory, manifest)
    report = RecordRestoreReport(
        target_ckpt=upto,
        frames_total=count,
        frames_parsed=len(refs),
        record_bytes=record_bytes,
        record_bytes_read=int(sum(frame_sizes[t] for t in refs)) + index_bytes,
        index_bytes=index_bytes,
        used_index=True,
    )
    with telemetry.span(
        "restore.indexed_record",
        space=space,
        upto=upto,
        frames_total=count,
        frames_parsed=len(refs),
        bytes_read=report.record_bytes_read,
    ):
        out = materialize_index(index, payload_of, space=space, report=report)
    events.emit(
        events.RESTORE,
        path="indexed_record",
        target_ckpt=upto,
        chain_len=count,
        state_bytes=int(out.nbytes),
        payload_bytes=sum(report.payload_bytes_read.values()),
        sources=len(refs),
        record_bytes_read=report.record_bytes_read,
    )
    return out, report
