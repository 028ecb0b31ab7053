"""On-disk checkpoint record store.

Persists a diff chain as one file per checkpoint plus a small JSON
manifest — the shape a deployment would push down the Fig. 3 hierarchy.
The wire format is the versioned encoding of
:class:`~repro.core.diff.CheckpointDiff`, so records written here can be
read by any tool that speaks it.

Layout::

    <dir>/record.json            manifest: method, count, geometry, digests
    <dir>/ckpt-00000.rdif        CheckpointDiff.to_bytes() per checkpoint
    <dir>/ckpt-00001.rdif
    ...

Manifest format v2 adds integrity: a per-checkpoint SHA-256 of each
``.rdif`` file and a manifest-level *chain digest* (SHA-256 over the
concatenated per-file digests), so swapping one valid frame for another
valid-but-wrong frame is detected even though both frames self-verify.
v1 manifests (and v1 frames) written before the format bump still load;
their checkpoints are reported as ``unverified`` by :func:`verify_record`
rather than trusted silently.  See ``docs/FAULT_MODEL.md``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..errors import IntegrityError, ReproError, SerializationError, StorageError
from .. import telemetry
from ..telemetry import events
from .diff import CheckpointDiff

_FRAMES_READ = telemetry.counter(
    "store.frames_read", "Checkpoint .rdif frames read and parsed"
)
_FRAME_BYTES_READ = telemetry.counter(
    "store.frame_bytes_read", "Bytes of .rdif frames read from disk"
)
_FRAMES_WRITTEN = telemetry.counter(
    "store.frames_written", "Checkpoint .rdif frames written to disk"
)
_FRAMES_REUSED = telemetry.counter(
    "store.frames_reused",
    "Frames already on disk with matching digests, skipped by save_record",
)
_SALVAGE_EVENTS = telemetry.counter(
    "store.salvage_events", "Non-strict loads truncated at a damaged frame"
)

_MANIFEST = "record.json"
_PATTERN = "ckpt-{:05d}.rdif"
_INDEX_FILE = "provenance.rpix"
_FORMAT_VERSION = 2
_V1 = 1

#: Per-checkpoint statuses reported by :func:`verify_record`.
STATUS_OK = "ok"
STATUS_UNVERIFIED = "unverified"
STATUS_CORRUPT = "corrupt"
STATUS_MISSING = "missing"


def _file_digest(path: Path) -> str:
    with open(path, "rb") as f:
        if hasattr(hashlib, "file_digest"):  # Python >= 3.11: zero-copy path
            return hashlib.file_digest(f, "sha256").hexdigest()
        h = hashlib.sha256()
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
        return h.hexdigest()


def _chain_digest(digests: List[str]) -> str:
    h = hashlib.sha256()
    for d in digests:
        h.update(bytes.fromhex(d))
    return h.hexdigest()


def _read_manifest(path: Path) -> dict:
    """Load and minimally validate a manifest, wrapping parse errors.

    A malformed manifest is a *storage* failure, not a programming error:
    raw ``json.JSONDecodeError`` / ``KeyError`` must never escape to
    callers.
    """
    manifest_path = path / _MANIFEST
    if not manifest_path.exists():
        raise StorageError(f"{path} holds no record manifest")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StorageError(f"malformed record manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise StorageError(
            f"malformed record manifest {manifest_path}: not a JSON object"
        )
    try:
        manifest["num_checkpoints"] = int(manifest["num_checkpoints"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(
            f"malformed record manifest {manifest_path}: bad num_checkpoints"
        ) from exc
    version = manifest.get("format_version")
    if version not in (_V1, _FORMAT_VERSION):
        raise StorageError(f"unsupported record format {version!r}")
    return manifest


@dataclass
class AppendReceipt:
    """What one :meth:`RecordWriter.append` actually put on disk."""

    ckpt_id: int
    #: Bytes of the new ``.rdif`` frame (the checkpoint itself).
    frame_bytes: int
    #: Provenance rows appended (0 when the record is unindexed).
    index_rows_appended: int
    #: Bytes appended to + rewritten in ``provenance.rpix``.
    index_bytes: int
    #: Bytes of the rewritten manifest.
    manifest_bytes: int

    @property
    def bytes_written(self) -> int:
        """Total bytes this append put on disk."""
        return self.frame_bytes + self.index_bytes + self.manifest_bytes


class RecordWriter:
    """Append-optimized handle on a record directory.

    ``open → append(diff) × N → close``; the record is durable and
    loadable after *every* append.  Each append writes only the new
    frame, one RPIX v3 row-group, the 60-byte index prologue, and the
    manifest — never the existing frames or index rows, so the cost of
    appending checkpoint N is O(rows in checkpoint N), not O(chain).

    Opening an existing record is the only O(chain) step: the manifest's
    cached per-frame digests seed the rolling chain digest (no frame is
    re-read or re-hashed, except a cheap sanity check of the last frame),
    and the persisted index is decoded once to seed the
    :class:`~repro.core.provenance.ProvenanceBuilder`.  A legacy v1/v2
    index is upgraded to the v3 row-group layout on the first append; a
    record with *no* index (an unindexable chain) stays unindexed.

    The writer mirrors :func:`save_record`'s leniency for hand-built
    chains: a diff the builder rejects drops the index (the record still
    saves, restores fall back to replay), exactly as the whole-chain
    path always behaved.
    """

    def __init__(self, directory: Union[str, Path], method: str = "") -> None:
        from .provenance import ProvenanceBuilder  # local: store ↔ provenance

        self.path = Path(directory)
        self.path.mkdir(parents=True, exist_ok=True)
        self.method = method
        self._last_method = ""
        self._digests: List[str] = []
        self._frame_sizes: List[int] = []
        self._chain = hashlib.sha256()
        self._data_len: Optional[int] = None
        self._chunk_size: Optional[int] = None
        self._builder: Optional[ProvenanceBuilder] = ProvenanceBuilder()
        self._group_chain = hashlib.sha256()
        self._index_end = 0  # byte offset past the last valid row-group
        self._index_legacy = False  # v1/v2 blob pending v3 rewrite
        self._closed = False
        if (self.path / _MANIFEST).exists():
            self._open_existing()

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Checkpoints the record currently holds."""
        return len(self._digests)

    @property
    def digests(self) -> List[str]:
        """Per-frame SHA-256 hexes, in chain order (a copy)."""
        return list(self._digests)

    @property
    def indexed(self) -> bool:
        """Whether the record carries a provenance index."""
        return self._builder is not None

    def __enter__(self) -> "RecordWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Mark the writer closed (every append was already durable)."""
        self._closed = True

    # ------------------------------------------------------------------
    def _open_existing(self) -> None:
        from . import provenance as _prov  # local: store ↔ provenance

        existing = _read_manifest(self.path)
        count = existing["num_checkpoints"]
        if count <= 0:
            return
        self._data_len = existing.get("data_len")
        self._chunk_size = existing.get("chunk_size")
        held_method = existing.get("method")
        if held_method:
            if self.method and count > 1 and held_method != self.method:
                raise StorageError(
                    f"{self.path} holds an incompatible record: "
                    f"method={held_method!r} on disk vs {self.method!r} "
                    f"being saved"
                )
            self._last_method = str(held_method)

        digests = existing.get("digests")
        if digests and len(digests) == count:
            self._digests = [str(d) for d in digests]
            # Torn-append sanity: the manifest is written last, so the
            # one frame that could disagree with it after a crash is the
            # final one.  One file hash, not a chain re-scan.
            last = self.path / _PATTERN.format(count - 1)
            if not last.exists() or _file_digest(last) != self._digests[-1]:
                raise IntegrityError(
                    f"{last.name}: frame does not match the manifest "
                    f"(damaged or torn record; run verify_record)",
                    ckpt_id=count - 1,
                    path=str(last),
                )
        else:
            # v1 manifest (or digestless): hash what is on disk once, so
            # the next append upgrades the record to the v2 manifest.
            for i in range(count):
                frame = self.path / _PATTERN.format(i)
                if not frame.exists():
                    raise StorageError(
                        f"record is missing checkpoint file {frame.name}"
                    )
                self._digests.append(_file_digest(frame))
        for d in self._digests:
            self._chain.update(bytes.fromhex(d))

        sizes = existing.get("frame_bytes")
        if sizes and len(sizes) == count:
            self._frame_sizes = [int(s) for s in sizes]
        else:
            self._frame_sizes = [
                (lambda p: p.stat().st_size if p.exists() else 0)(
                    self.path / _PATTERN.format(i)
                )
                for i in range(count)
            ]

        entry = existing.get("provenance")
        index_path = self.path / _INDEX_FILE
        if entry is None:
            # Unindexed record (unindexable chain, or the index was
            # dropped): appends continue without an index.
            self._builder = None
            return
        if isinstance(entry, dict) and "chain_sha256" in entry:
            table = load_provenance(self.path, existing)
            blob = index_path.read_bytes()
            _header, groups = _prov.scan_v3(blob, max_rows=int(entry["rows"]))
            for g in groups:
                self._group_chain.update(g.digest)
            last_group = groups[-1]
            self._index_end = last_group.body_off + last_group.body_len
        else:
            # Legacy v1/v2 blob: decode it for the builder seed; the
            # first append rewrites it in the v3 row-group layout.
            table = load_provenance(self.path, existing)
            self._index_legacy = True
        self._builder.seed(table)

    # ------------------------------------------------------------------
    def _drop_index(self) -> None:
        self._builder = None
        index_path = self.path / _INDEX_FILE
        if index_path.exists():
            index_path.unlink()
        self._index_end = 0
        self._index_legacy = False

    def _append_index(self, diff: CheckpointDiff) -> tuple:
        """Extend the v3 index by one row-group; returns (rows, bytes)."""
        assert self._builder is not None
        try:
            row = self._builder.append(diff)
        except ReproError:
            self._drop_index()
            return 0, 0
        return self._write_group(row)

    def _write_group(self, row) -> tuple:
        from . import provenance as _prov

        rows_before = len(self._builder.indexes) - 1
        n_chunks = int(row.src_ckpt.shape[0])
        with telemetry.span(
            "store.index.append_group", rows=1, first_ckpt=rows_before
        ) as span:
            record, digest = _prov.encode_v3_group(
                rows_before,
                row.src_ckpt.reshape(1, n_chunks),
                row.src_off.reshape(1, n_chunks),
            )
            self._group_chain.update(digest)
            prologue = _prov.encode_v3_prologue(
                rows_before + 1, n_chunks, row.data_len, row.chunk_size
            )
            index_path = self.path / _INDEX_FILE
            if self._index_legacy or not index_path.exists():
                # One-time v3 (re)materialization: prologue + one group
                # per already-held checkpoint, then the new group.
                parts = [prologue]
                self._group_chain = hashlib.sha256()
                for k, idx in enumerate(self._builder.indexes):
                    rec, dig = _prov.encode_v3_group(
                        k,
                        idx.src_ckpt.reshape(1, n_chunks),
                        idx.src_off.reshape(1, n_chunks),
                    )
                    parts.append(rec)
                    self._group_chain.update(dig)
                blob = b"".join(parts)
                index_path.write_bytes(blob)
                self._index_end = len(blob)
                self._index_legacy = False
                written = len(blob)
            else:
                with open(index_path, "r+b") as f:
                    f.seek(self._index_end)
                    f.write(record)
                    f.truncate()
                    f.seek(0)
                    f.write(prologue)
                self._index_end += len(record)
                written = len(record) + len(prologue)
            span.set(bytes=written)
        return 1, written

    # ------------------------------------------------------------------
    def append(self, diff: CheckpointDiff, index_row=None) -> AppendReceipt:
        """Durably append one checkpoint: frame + row-group + manifest.

        *index_row* optionally supplies the checkpoint's already-resolved
        :class:`~repro.core.provenance.ProvenanceIndex` row (a rebase
        holds the whole table); otherwise the row is composed
        incrementally from *diff*.
        """
        if self._closed:
            raise StorageError(f"record writer for {self.path} is closed")
        if self._data_len is not None and diff.data_len != self._data_len:
            raise StorageError(
                f"{self.path} holds an incompatible record: "
                f"data_len={self._data_len!r} on disk vs "
                f"{diff.data_len!r} being saved"
            )
        with telemetry.span(
            "store.append", ckpt=diff.ckpt_id, path=str(self.path)
        ) as span:
            blob = diff.to_bytes()
            digest = hashlib.sha256(blob).hexdigest()
            diff._frame_digest = digest
            (self.path / _PATTERN.format(diff.ckpt_id)).write_bytes(blob)
            _FRAMES_WRITTEN.inc()
            prior = self.count
            self._digests.append(digest)
            self._frame_sizes.append(len(blob))
            self._chain.update(bytes.fromhex(digest))
            if self._data_len is None:
                self._data_len = diff.data_len
                self._chunk_size = diff.chunk_size
            self._last_method = diff.method

            if self._builder is not None:
                if index_row is not None:
                    self._builder.indexes.append(index_row)
                    rows_appended, index_bytes = self._write_group(index_row)
                else:
                    rows_appended, index_bytes = self._append_index(diff)
            else:
                rows_appended, index_bytes = 0, 0

            manifest_bytes = self._write_manifest()
            span.set(
                bytes=len(blob) + index_bytes + manifest_bytes,
                frame_bytes=len(blob),
                index_bytes=index_bytes,
                manifest_bytes=manifest_bytes,
            )
        receipt = AppendReceipt(
            ckpt_id=diff.ckpt_id,
            frame_bytes=len(blob),
            index_rows_appended=rows_appended,
            index_bytes=index_bytes,
            manifest_bytes=manifest_bytes,
        )
        events.emit(
            events.RECORD_APPENDED,
            path=str(self.path),
            ckpt_id=diff.ckpt_id,
            frames_written=1,
            frames_reused=prior,
            index_rows_appended=rows_appended,
            bytes_written=receipt.bytes_written,
            checkpoint_bytes=len(blob),
        )
        return receipt

    def _write_manifest(self) -> int:
        manifest = {
            "format_version": _FORMAT_VERSION,
            "method": self.method or self._last_method,
            "num_checkpoints": self.count,
            "data_len": self._data_len,
            "chunk_size": self._chunk_size,
            "digests": list(self._digests),
            "frame_bytes": list(self._frame_sizes),
            "chain_digest": self._chain.hexdigest(),
        }
        if self._builder is not None and self._builder.indexes:
            manifest["provenance"] = {
                "file": _INDEX_FILE,
                "version": 3,
                "rows": len(self._builder.indexes),
                "chain_sha256": self._group_chain.hexdigest(),
            }
        text = json.dumps(manifest, indent=2)
        (self.path / _MANIFEST).write_text(text)
        return len(text)

    def reset(self) -> None:
        """Drop the record entirely (a crashed chain restarts at 0)."""
        from .provenance import ProvenanceBuilder  # local: store ↔ provenance

        for frame in self.path.glob("ckpt-*.rdif"):
            frame.unlink()
        for name in (_INDEX_FILE, _MANIFEST):
            target = self.path / name
            if target.exists():
                target.unlink()
        self._digests = []
        self._frame_sizes = []
        self._chain = hashlib.sha256()
        self._data_len = None
        self._chunk_size = None
        self._builder = ProvenanceBuilder()
        self._group_chain = hashlib.sha256()
        self._index_end = 0
        self._index_legacy = False
        self._last_method = ""


def save_record(
    diffs: List[CheckpointDiff],
    directory: Union[str, Path],
    method: str = "",
    provenance=None,
) -> Path:
    """Write a diff chain to *directory* (created if missing).

    Refuses to overwrite a directory already holding a different record
    length unless it holds a strict prefix of this chain (append-style
    updates are fine) — and the existing record must agree on geometry
    (``data_len``, ``chunk_size``) and ``method``, so a chain can never
    be silently mixed with an incompatible one.

    A thin wrapper over :class:`RecordWriter`: frames whose stored
    digests already match the chain are *reused*, never rewritten, and
    only the suffix past the stored prefix is appended — so appending
    one checkpoint through this legacy entry point costs one frame, one
    index row-group, and a manifest, not a record rewrite.

    *provenance* optionally supplies a prebuilt
    :class:`~repro.core.provenance.ProvenanceTable` for exactly this
    chain (a rebase computes one as it rewrites diffs); it is validated
    against the chain's shape and persisted instead of rebuilding the
    index from the diffs.
    """
    if not diffs:
        raise StorageError("cannot save an empty record")
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    manifest_path = path / _MANIFEST
    prefix = 0
    if manifest_path.exists():
        existing = _read_manifest(path)
        if existing["num_checkpoints"] > len(diffs):
            raise StorageError(
                f"{path} already holds a longer record "
                f"({existing['num_checkpoints']} checkpoints)"
            )
        for key, value in (
            ("data_len", diffs[0].data_len),
            ("chunk_size", diffs[0].chunk_size),
        ):
            held = existing.get(key)
            if held is not None and held != value:
                raise StorageError(
                    f"{path} holds an incompatible record: "
                    f"{key}={held!r} on disk vs {value!r} being saved"
                )
        # Method compatibility: a single-checkpoint record's manifest
        # method is just its first diff's method (a tree chain opens
        # with a full checkpoint), so only a longer record pins the
        # chain method.
        held_method = existing.get("method")
        new_method = method or diffs[-1].method
        if (
            held_method is not None
            and existing["num_checkpoints"] > 1
            and held_method != new_method
        ):
            raise StorageError(
                f"{path} holds an incompatible record: "
                f"method={held_method!r} on disk vs {new_method!r} being saved"
            )
        # Strongest append guard: the overlapping prefix must be the
        # same bytes checkpoint for checkpoint (v2 manifests only).
        # The diffs' cached frame digests make this O(chain) hash
        # *comparisons*, not O(chain) re-serialization.
        held_digests = existing.get("digests")
        if held_digests:
            for i in range(min(len(held_digests), len(diffs))):
                if diffs[i].frame_digest() != held_digests[i]:
                    raise StorageError(
                        f"{path} holds a different chain: checkpoint {i} "
                        f"does not match the stored record (append must "
                        f"extend, not rewrite)"
                    )
            prefix = min(len(held_digests), len(diffs))

    if provenance is not None:
        if (
            provenance.num_checkpoints != len(diffs)
            or provenance.data_len != diffs[0].data_len
            or provenance.chunk_size != diffs[0].chunk_size
        ):
            raise StorageError(
                f"supplied provenance table ({provenance.num_checkpoints} "
                f"checkpoints, data_len={provenance.data_len}) does not "
                f"match the chain being saved ({len(diffs)} checkpoints, "
                f"data_len={diffs[0].data_len})"
            )

    with telemetry.span(
        "store.save_record", frames=len(diffs), path=str(path)
    ) as span:
        writer = RecordWriter(path, method=method)
        if prefix == 0 and writer.count:
            # Digestless (v1) record: no prefix can be trusted, so the
            # whole chain is rewritten — the historical upgrade path.
            writer.reset()
        _FRAMES_REUSED.inc(prefix)
        written = 0
        for i in range(prefix, len(diffs)):
            receipt = writer.append(
                diffs[i],
                index_row=provenance.row(i) if provenance is not None else None,
            )
            written += receipt.frame_bytes
        writer.close()
        span.set(
            bytes=written,
            frames_written=len(diffs) - prefix,
            frames_reused=prefix,
            indexed=writer.indexed,
        )
    return path


def _load_one(
    path: Path, index: int, expected_digest: Optional[str]
) -> CheckpointDiff:
    """Load + fully verify one checkpoint frame; raises on any damage."""
    if not path.exists():
        raise StorageError(f"record is missing checkpoint file {path.name}")
    blob = path.read_bytes()
    _FRAMES_READ.inc()
    _FRAME_BYTES_READ.inc(len(blob))
    if expected_digest is not None:
        actual = hashlib.sha256(blob).hexdigest()
        if actual != expected_digest:
            raise IntegrityError(
                f"{path.name}: file digest mismatch "
                f"(manifest {expected_digest[:16]}…, file {actual[:16]}…)",
                ckpt_id=index,
                path=str(path),
            )
    try:
        diff = CheckpointDiff.from_bytes(blob)
    except IntegrityError as exc:
        raise IntegrityError(str(exc), ckpt_id=index, path=str(path)) from exc
    if diff.ckpt_id != index:
        raise StorageError(f"{path.name} holds checkpoint {diff.ckpt_id}")
    return diff


def load_record(
    directory: Union[str, Path], strict: bool = True
) -> List[CheckpointDiff]:
    """Read a diff chain previously written by :func:`save_record`.

    With ``strict=True`` (the default) any missing, corrupt, or
    mismatched checkpoint file raises (:class:`StorageError` /
    :class:`IntegrityError`).  With ``strict=False`` the longest valid
    *prefix* of the chain is salvaged instead: loading stops at the first
    bad checkpoint and whatever verified before it is returned (possibly
    an empty list).  Diffs are chains — a checkpoint past a hole cannot
    be reconstructed anyway, so the valid prefix is exactly the
    recoverable part.
    """
    path = Path(directory)
    manifest = _read_manifest(path)
    count = manifest["num_checkpoints"]
    digests = manifest.get("digests")
    diffs: List[CheckpointDiff] = []
    with telemetry.span(
        "store.load_record", path=str(path), frames=count, strict=strict
    ) as span:
        for i in range(count):
            expected = (
                digests[i] if digests is not None and i < len(digests) else None
            )
            try:
                diffs.append(_load_one(path / _PATTERN.format(i), i, expected))
            except (StorageError, SerializationError) as exc:
                if strict:
                    raise
                _SALVAGE_EVENTS.inc()
                telemetry.instant(
                    "store.salvage",
                    path=str(path),
                    first_bad=i,
                    valid_prefix=len(diffs),
                    error=type(exc).__name__,
                )
                events.emit(
                    events.SALVAGE,
                    path=str(path),
                    first_bad=i,
                    valid_prefix=len(diffs),
                    error=type(exc).__name__,
                )
                break
        span.set(loaded=len(diffs))
    return diffs


def load_record_frames(
    directory: Union[str, Path],
    indices: Sequence[int],
    manifest: Optional[dict] = None,
) -> Dict[int, CheckpointDiff]:
    """Load + verify only the named checkpoint frames of a record.

    The selective-read primitive behind the indexed restore path: a
    provenance index names the frames whose payloads a checkpoint's bytes
    live in, and only those files are read and parsed.  Each frame still
    gets the full v2 treatment (manifest digest + embedded digest).
    *manifest* is the record's already-parsed manifest, if the caller
    holds one.
    """
    path = Path(directory)
    if manifest is None:
        manifest = _read_manifest(path)
    count = manifest["num_checkpoints"]
    digests = manifest.get("digests")
    frames: Dict[int, CheckpointDiff] = {}
    with telemetry.span(
        "store.load_frames", path=str(path), frames_total=count
    ) as span:
        for i in indices:
            i = int(i)
            if not 0 <= i < count:
                raise StorageError(f"checkpoint {i} outside record of {count}")
            if i in frames:
                continue
            expected = (
                digests[i] if digests is not None and i < len(digests) else None
            )
            frames[i] = _load_one(path / _PATTERN.format(i), i, expected)
        span.set(frames_read=len(frames))
    return frames


def record_frame_sizes(directory: Union[str, Path]) -> List[int]:
    """On-disk byte size of each ``.rdif`` frame (0 for missing files)."""
    path = Path(directory)
    manifest = _read_manifest(path)
    sizes = []
    for i in range(manifest["num_checkpoints"]):
        frame = path / _PATTERN.format(i)
        sizes.append(frame.stat().st_size if frame.exists() else 0)
    return sizes


def stored_frame_sizes(directory: Union[str, Path], manifest: dict) -> List[int]:
    """Byte size of each ``.rdif`` frame as the manifest records it.

    Reads the manifest's ``frame_bytes`` list; only a manifest without
    one (written before the list existed) costs a ``stat`` per frame.
    """
    sizes = manifest.get("frame_bytes")
    if sizes is not None and len(sizes) == manifest["num_checkpoints"]:
        return [int(s) for s in sizes]
    return record_frame_sizes(directory)


def _read_index(path: Path, manifest: dict):
    """Read the index file the manifest names and check what spans it.

    Returns ``None`` for a record without an index.  A legacy v1/v2 blob
    comes back as ``(blob, None)`` once its whole-file digest matched;
    a v3 blob as ``(blob, (header, groups))`` once its header digest
    (:func:`~repro.core.provenance.scan_v3`) and the manifest's
    ``chain_sha256`` over every group digest matched.  Group bodies are
    left for the caller to verify and decode.
    """
    from . import provenance as _prov  # local: store ↔ provenance

    entry = manifest.get("provenance")
    if entry is None:
        return None
    try:
        index_path = path / str(entry["file"])
    except (TypeError, KeyError) as exc:
        raise StorageError(
            f"malformed provenance entry in {path / _MANIFEST}"
        ) from exc
    if not index_path.exists():
        raise IntegrityError(
            f"manifest names provenance index {index_path.name}, "
            f"which is missing",
            path=str(index_path),
        )
    blob = index_path.read_bytes()

    if "chain_sha256" in entry:
        try:
            rows = int(entry["rows"])
            expected_chain = str(entry["chain_sha256"])
        except (TypeError, KeyError, ValueError) as exc:
            raise StorageError(
                f"malformed provenance entry in {path / _MANIFEST}"
            ) from exc
        header, groups = _prov.scan_v3(blob, max_rows=rows)
        actual_chain = hashlib.sha256(
            b"".join(g.digest for g in groups)
        ).hexdigest()
        if actual_chain != expected_chain:
            raise IntegrityError(
                f"{index_path.name}: row-group chain digest mismatch "
                f"(manifest {expected_chain[:16]}…, file "
                f"{actual_chain[:16]}…)",
                path=str(index_path),
            )
        return blob, (header, groups)

    try:
        expected = str(entry["sha256"])
    except (TypeError, KeyError) as exc:
        raise StorageError(
            f"malformed provenance entry in {path / _MANIFEST}"
        ) from exc
    actual = hashlib.sha256(blob).hexdigest()
    if actual != expected:
        raise IntegrityError(
            f"{index_path.name}: file digest mismatch "
            f"(manifest {expected[:16]}…, file {actual[:16]}…)",
            path=str(index_path),
        )
    return blob, None


def load_provenance(
    directory: Union[str, Path], manifest: Optional[dict] = None
):
    """Load a record's whole persisted provenance index, if it has one.

    Returns a :class:`~repro.core.provenance.ProvenanceTable`, or ``None``
    when the record predates the index (v1 records, or chains that were
    not indexable at save time).  A *present but damaged* index raises
    :class:`IntegrityError` — callers choose whether to fall back.  Every
    row-group of a v3 index is verified and decoded; this is the
    writer-reopen and attribution load.  A restore needs one row and
    uses :func:`load_provenance_row`.
    """
    from . import provenance as _prov  # local: store ↔ provenance

    path = Path(directory)
    if manifest is None:
        manifest = _read_manifest(path)
    loaded = _read_index(path, manifest)
    if loaded is None:
        return None
    blob, v3 = loaded
    if v3 is None:
        return _prov.ProvenanceTable.from_bytes(blob)
    header, groups = v3
    src_ckpt, src_off = _prov.decode_v3_groups(blob, groups, header["num_chunks"])
    return _prov.ProvenanceTable(
        data_len=header["data_len"],
        chunk_size=header["chunk_size"],
        src_ckpt=src_ckpt,
        src_off=src_off,
    )


def load_provenance_row(
    directory: Union[str, Path], ckpt_id: int, manifest: Optional[dict] = None
):
    """Load checkpoint *ckpt_id*'s provenance row, if the record has an index.

    Returns a :class:`~repro.core.provenance.ProvenanceIndex`, or ``None``
    for a record without an index.  Every row is resolved through the
    whole chain at append time, so a restore needs its own row alone.
    For a v3 index the structural walk, the header digest and the
    manifest's ``chain_sha256`` over all group digests are checked in
    full; then only the group holding the row is hashed and decoded.
    Damage in any other group therefore cannot block this load
    (:func:`verify_record` still reports it).  A legacy v1/v2 blob is
    verified and decoded whole.  An index covering fewer checkpoints
    than the record raises :class:`IntegrityError`.
    """
    from . import provenance as _prov  # local: store ↔ provenance

    path = Path(directory)
    if manifest is None:
        manifest = _read_manifest(path)
    loaded = _read_index(path, manifest)
    if loaded is None:
        return None
    blob, v3 = loaded
    if v3 is None:
        table = _prov.ProvenanceTable.from_bytes(blob)
        rows = table.num_checkpoints
    else:
        rows = int(manifest["provenance"]["rows"])
    count = manifest["num_checkpoints"]
    if rows < count:
        raise IntegrityError(
            f"provenance index covers {rows} checkpoints, record holds {count}"
        )
    if v3 is None:
        return table.row(ckpt_id)
    return _prov.decode_v3_row(blob, *v3, ckpt_id)


def record_index_bytes(
    directory: Union[str, Path], manifest: Optional[dict] = None
) -> int:
    """On-disk byte size of the record's provenance index (0 if absent)."""
    path = Path(directory)
    if manifest is None:
        manifest = _read_manifest(path)
    entry = manifest.get("provenance")
    if entry is None:
        return 0
    try:
        index_path = path / str(entry["file"])
    except (TypeError, KeyError) as exc:
        raise StorageError(
            f"malformed provenance entry in {path / _MANIFEST}"
        ) from exc
    return index_path.stat().st_size if index_path.exists() else 0


def record_manifest(directory: Union[str, Path]) -> dict:
    """Read just the manifest of a stored record."""
    return _read_manifest(Path(directory))


@dataclass
class CheckpointStatus:
    """Verification outcome of one stored checkpoint."""

    index: int
    filename: str
    status: str  # one of STATUS_OK / STATUS_UNVERIFIED / STATUS_CORRUPT / STATUS_MISSING
    detail: str = ""

    @property
    def loadable(self) -> bool:
        """Whether the frame parses at all (ok or merely unverified)."""
        return self.status in (STATUS_OK, STATUS_UNVERIFIED)


@dataclass
class RecordVerification:
    """Full integrity report of a stored record directory."""

    directory: str
    format_version: int
    checkpoints: List[CheckpointStatus] = field(default_factory=list)
    chain_ok: Optional[bool] = None  # None when the manifest has no chain digest
    provenance_ok: Optional[bool] = None  # None when the record has no index
    #: On-disk provenance index size vs its uncompressed 12 B/chunk form
    #: (both 0 when the record has no index or the index is damaged).
    index_bytes: int = 0
    index_raw_bytes: int = 0
    #: v3 row-group accounting: total groups scanned, and the first
    #: checkpoint of every group whose digest did not match (empty for
    #: legacy v1/v2 blobs, which verify whole-file).
    index_groups: int = 0
    index_bad_groups: List[int] = field(default_factory=list)
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Every checkpoint verified and the chain digest matched.

        A record without a provenance index is still ``ok`` (replay
        restores it); a record whose index is *damaged* is not.
        """
        return (
            all(c.status == STATUS_OK for c in self.checkpoints)
            and self.chain_ok is True
            and self.provenance_ok is not False
        )

    @property
    def first_bad(self) -> Optional[int]:
        """Index of the first non-loadable checkpoint, or ``None``."""
        for c in self.checkpoints:
            if not c.loadable:
                return c.index
        return None

    @property
    def index_compression_ratio(self) -> float:
        """Raw index bytes over stored (RPIX v2/v3 compressed) bytes."""
        if self.index_bytes <= 0:
            return 0.0
        return self.index_raw_bytes / self.index_bytes

    @property
    def valid_prefix_len(self) -> int:
        """Length of the longest loadable prefix (what salvage recovers)."""
        n = 0
        for c in self.checkpoints:
            if not c.loadable:
                break
            n += 1
        return n

    def summary(self) -> str:
        """One line per checkpoint plus the chain verdict."""
        lines = [
            f"{c.filename}: {c.status}" + (f" ({c.detail})" if c.detail else "")
            for c in self.checkpoints
        ]
        if self.chain_ok is None:
            lines.append("chain digest: absent (v1 record)")
        else:
            lines.append(f"chain digest: {'ok' if self.chain_ok else 'MISMATCH'}")
        if self.provenance_ok is None:
            lines.append("provenance index: absent")
        elif not self.provenance_ok:
            detail = (
                f" ({len(self.index_bad_groups)}/{self.index_groups} "
                f"row-groups damaged)"
                if self.index_bad_groups
                else ""
            )
            lines.append(f"provenance index: DAMAGED{detail}")
        else:
            ratio = self.index_compression_ratio
            groups_part = (
                f", {self.index_groups} row-groups" if self.index_groups else ""
            )
            detail = (
                f" ({self.index_bytes} B, {ratio:.1f}x vs raw 12 B/chunk"
                f"{groups_part})"
                if ratio
                else ""
            )
            lines.append(f"provenance index: ok{detail}")
        return "\n".join(lines)


def verify_record(directory: Union[str, Path]) -> RecordVerification:
    """Scan a record directory and report per-checkpoint integrity.

    Never raises for damage inside the record (only for an unusable
    manifest): every checkpoint is classified ``ok`` / ``unverified`` /
    ``corrupt`` / ``missing`` so callers see the full extent of the
    damage, not just the first problem.
    """
    path = Path(directory)
    manifest = _read_manifest(path)
    digests = manifest.get("digests")
    report = RecordVerification(
        directory=str(path), format_version=manifest["format_version"]
    )

    frame_sizes = manifest.get("frame_bytes")
    seen_digests: List[str] = []
    skipped_hash = False
    for i in range(manifest["num_checkpoints"]):
        blob_path = path / _PATTERN.format(i)
        name = blob_path.name
        if not blob_path.exists():
            report.checkpoints.append(
                CheckpointStatus(i, name, STATUS_MISSING, "file not found")
            )
            continue
        expected_size = (
            int(frame_sizes[i])
            if frame_sizes is not None and i < len(frame_sizes)
            else None
        )
        if expected_size is not None:
            actual_size = blob_path.stat().st_size
            if actual_size != expected_size:
                # Size fast path: the manifest digest cannot possibly
                # match, so the frame is classified without reading or
                # hashing it.
                report.checkpoints.append(
                    CheckpointStatus(
                        i,
                        name,
                        STATUS_CORRUPT,
                        f"file size {actual_size} != manifest {expected_size}",
                    )
                )
                skipped_hash = True
                continue
        blob = blob_path.read_bytes()
        seen_digests.append(hashlib.sha256(blob).hexdigest())
        expected = digests[i] if digests is not None and i < len(digests) else None
        if expected is not None and seen_digests[-1] != expected:
            report.checkpoints.append(
                CheckpointStatus(i, name, STATUS_CORRUPT, "file digest mismatch")
            )
            continue
        try:
            diff = CheckpointDiff.from_bytes(blob)
        except SerializationError as exc:  # includes IntegrityError
            report.checkpoints.append(
                CheckpointStatus(i, name, STATUS_CORRUPT, str(exc))
            )
            continue
        if diff.ckpt_id != i:
            report.checkpoints.append(
                CheckpointStatus(
                    i, name, STATUS_CORRUPT, f"holds checkpoint {diff.ckpt_id}"
                )
            )
            continue
        if diff.verified is False:
            report.checkpoints.append(
                CheckpointStatus(i, name, STATUS_UNVERIFIED, "v1 frame, no digest")
            )
        elif expected is None:
            report.checkpoints.append(
                CheckpointStatus(
                    i, name, STATUS_UNVERIFIED, "no manifest digest for this frame"
                )
            )
        else:
            report.checkpoints.append(CheckpointStatus(i, name, STATUS_OK))

    chain_expected = manifest.get("chain_digest")
    if chain_expected is not None:
        complete = all(c.status != STATUS_MISSING for c in report.checkpoints)
        report.chain_ok = (
            complete
            and not skipped_hash
            and _chain_digest(seen_digests) == chain_expected
        )

    entry = manifest.get("provenance")
    if entry is not None:
        if isinstance(entry, dict) and "chain_sha256" in entry:
            _verify_v3_index(path, entry, report)
        else:
            try:
                table = load_provenance(path, manifest)
            except (StorageError, SerializationError):
                report.provenance_ok = False
            else:
                report.provenance_ok = table is not None
                if table is not None:
                    report.index_bytes = record_index_bytes(path, manifest)
                    report.index_raw_bytes = table.raw_index_bytes
    return report


def _verify_v3_index(path: Path, entry: dict, report: RecordVerification) -> None:
    """Per-row-group integrity of a v3 index, reported not raised.

    Every group's digest is checked independently, so the report names
    exactly which appends' rows are damaged — while every checkpoint
    whose own group is intact stays restorable, since a restore decodes
    only its target's row (:func:`load_provenance_row`).
    """
    from . import provenance as _prov  # local: store ↔ provenance
    from .provenance import RAW_INDEX_BYTES_PER_CHUNK

    try:
        index_path = path / str(entry["file"])
        rows = int(entry["rows"])
        expected_chain = str(entry["chain_sha256"])
    except (TypeError, KeyError, ValueError):
        report.provenance_ok = False
        return
    if not index_path.exists():
        report.provenance_ok = False
        return
    blob = index_path.read_bytes()
    try:
        header, groups = _prov.scan_v3(blob, max_rows=rows)
    except (StorageError, SerializationError):
        report.provenance_ok = False
        return
    report.index_groups = len(groups)
    report.index_bad_groups = [
        g.first_ckpt for g in groups if not _prov.verify_v3_group(blob, g)
    ]
    actual_chain = hashlib.sha256(
        b"".join(g.digest for g in groups)
    ).hexdigest()
    report.provenance_ok = (
        not report.index_bad_groups and actual_chain == expected_chain
    )
    if report.provenance_ok:
        report.index_bytes = index_path.stat().st_size
        report.index_raw_bytes = (
            rows * header["num_chunks"] * RAW_INDEX_BYTES_PER_CHUNK
        )
