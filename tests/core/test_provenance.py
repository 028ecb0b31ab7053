"""Provenance-indexed restore: equivalence, persistence, integrity.

The invariant everything here defends: for any valid diff chain, the
indexed restore path produces byte-for-byte the same state as chain
replay — while touching only the checkpoints the target state actually
references.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import (
    ENGINES,
    IndexedRestorer,
    ProvenanceBuilder,
    ProvenanceTable,
    Restorer,
    indexed_restore_latest,
    load_provenance,
    load_provenance_row,
    load_record,
    record_manifest,
    restore_record_indexed,
    save_record,
    verify_record,
)
from repro.core.dedup_full import FullCheckpoint
from repro.core.diff import CheckpointDiff
from repro.core.provenance import ProvenanceIndex, materialize_index
from repro.core.retention import rebase_record
from repro.errors import IntegrityError, ReproError, RestoreError

N = 64 * 80
CS = 64


def _chain(method, rng, steps=6, n=N):
    """A chain with overwrites, shifted content, and zero regions."""
    engine = ENGINES[method](n, CS)
    buf = np.zeros(n, dtype=np.uint8)
    buf[: n // 2] = rng.integers(0, 256, n // 2, dtype=np.uint8)
    diffs = [engine.checkpoint(buf)]
    states = [buf.copy()]
    for k in range(1, steps):
        buf = buf.copy()
        off = int(rng.integers(0, n - 700))
        buf[off : off + 640] = rng.integers(0, 256, 640, dtype=np.uint8)
        if k % 2 == 0:  # duplicate an aligned run → shifted references
            buf[CS * 4 : CS * 8] = buf[CS * 20 : CS * 24]
        diffs.append(engine.checkpoint(buf))
        states.append(buf.copy())
    return diffs, states


class TestEquivalence:
    @pytest.mark.parametrize("method", ["full", "basic", "list", "tree"])
    def test_indexed_matches_replay_every_checkpoint(self, method, rng):
        diffs, states = _chain(method, rng)
        replay = Restorer().restore_all(diffs)
        restorer = IndexedRestorer()
        for k in range(len(diffs)):
            fast = restorer.restore(diffs, upto=k)
            assert np.array_equal(fast, replay[k])
            assert np.array_equal(fast, states[k])

    @pytest.mark.parametrize("method", ["basic", "list", "tree"])
    def test_tail_chunk_handled(self, method, rng):
        diffs, states = _chain(method, rng, n=N + 17)
        fast = indexed_restore_latest(diffs)
        assert np.array_equal(fast, states[-1])

    def test_external_builder_matches_on_the_fly(self, rng):
        diffs, states = _chain("tree", rng)
        builder = ProvenanceBuilder()
        builder.extend(diffs)
        out = IndexedRestorer().restore(diffs, builder=builder)
        assert np.array_equal(out, states[-1])

    def test_codec_payloads(self, rng):
        from repro.compress import get_codec

        codec = get_codec("deflate")
        engine = ENGINES["tree"](N, CS, payload_codec=codec)
        buf = rng.integers(0, 4, N, dtype=np.uint8)  # compressible
        diffs = [engine.checkpoint(buf)]
        buf = buf.copy()
        buf[:512] = rng.integers(0, 4, 512, dtype=np.uint8)
        diffs.append(engine.checkpoint(buf))
        out = IndexedRestorer(payload_codec=codec).restore(diffs)
        assert np.array_equal(out, buf)

    def test_scrub_catches_corrupt_chain(self, rng):
        diffs, _ = _chain("tree", rng)
        diffs[2].payload = diffs[2].payload[:-4]
        with pytest.raises(IntegrityError):
            IndexedRestorer(scrub=True).restore(diffs)


class TestBuilderValidation:
    def test_out_of_order_chain(self, rng):
        diffs, _ = _chain("tree", rng)
        builder = ProvenanceBuilder()
        with pytest.raises(RestoreError, match="out of order"):
            builder.append(diffs[1])

    def test_empty_chain(self):
        with pytest.raises(RestoreError, match="empty"):
            IndexedRestorer().restore([])

    def test_upto_out_of_range(self, rng):
        diffs, _ = _chain("full", rng, steps=2)
        with pytest.raises(RestoreError, match="outside chain"):
            IndexedRestorer().restore(diffs, upto=5)

    def test_forward_reference_rejected(self, rng):
        diffs, _ = _chain("tree", rng)
        shifted = next(d for d in diffs if d.num_shift)
        shifted.shift_ref_ckpts = np.full_like(shifted.shift_ref_ckpts, 7)
        builder = ProvenanceBuilder()
        with pytest.raises(RestoreError, match="not reconstructed yet"):
            builder.extend(diffs)

    @staticmethod
    def _base(rng, n=256, cs=64):
        return CheckpointDiff(
            method="full", ckpt_id=0, data_len=n, chunk_size=cs,
            payload=bytes(rng.integers(0, 256, n, dtype=np.uint8)),
        )

    def test_chunk_size_change_rejected(self, rng):
        d0 = self._base(rng)
        d1 = CheckpointDiff(
            method="full", ckpt_id=1, data_len=256, chunk_size=32,
            payload=bytes(256),
        )
        with pytest.raises(RestoreError, match="chunk size changed mid-chain at 1"):
            IndexedRestorer().restore([d0, d1])

    def test_cyclic_shift_references_rejected(self, rng):
        # Two shifted chunks referencing each other within checkpoint 1:
        # neither is stored in checkpoint 1's payload.
        d1 = CheckpointDiff(
            method="list", ckpt_id=1, data_len=256, chunk_size=64,
            shift_ids=np.array([0, 1], dtype=np.uint32),
            shift_ref_ids=np.array([1, 0], dtype=np.uint32),
            shift_ref_ckpts=np.array([1, 1], dtype=np.uint32),
        )
        with pytest.raises(RestoreError, match="checkpoint 1 references"):
            IndexedRestorer().restore([self._base(rng), d1])

    def test_shift_into_unstored_chunk_of_earlier_checkpoint_rejected(self, rng):
        # Checkpoint 1 stores only chunk 0; chunk 2 passes through from 0,
        # so checkpoint 2 may not name (1, chunk 2) as its shift source.
        d1 = CheckpointDiff(
            method="list", ckpt_id=1, data_len=256, chunk_size=64,
            first_ids=np.array([0], dtype=np.uint32), payload=bytes(64),
        )
        d2 = CheckpointDiff(
            method="list", ckpt_id=2, data_len=256, chunk_size=64,
            shift_ids=np.array([3], dtype=np.uint32),
            shift_ref_ids=np.array([2], dtype=np.uint32),
            shift_ref_ckpts=np.array([1], dtype=np.uint32),
        )
        chain = [self._base(rng), d1, d2]
        fine = IndexedRestorer().restore(chain, upto=1)
        assert np.array_equal(fine, Restorer().restore(chain, 1))
        with pytest.raises(RestoreError, match="2 references chunks of checkpoint 1"):
            IndexedRestorer().restore(chain)


class TestIndexedRestoreAccounting:
    """What :class:`IndexedRestoreReport` says one restore read."""

    @pytest.mark.parametrize("n", [N, N + 17], ids=["aligned", "tail"])
    def test_reads_exactly_data_len(self, rng, n):
        diffs, _ = _chain("tree", rng, n=n)
        for k in range(len(diffs)):
            _, report = IndexedRestorer().restore_with_report(diffs, k)
            assert report.total_payload_bytes_read == n

    def test_reads_less_than_whole_chain_payload(self, rng):
        diffs, _ = _chain("tree", rng)
        _, report = IndexedRestorer().restore_with_report(diffs)
        assert report.total_payload_bytes_read < sum(d.payload_bytes for d in diffs)

    def test_checkpoint_zero_reads_only_itself(self, rng):
        diffs, _ = _chain("tree", rng)
        _, report = IndexedRestorer().restore_with_report(diffs, 0)
        assert report.payload_bytes_read == {0: N}

    def test_unchanged_checkpoints_read_only_base(self, rng):
        data = rng.integers(0, 256, N, dtype=np.uint8)
        engine = ENGINES["tree"](N, CS)
        diffs = [engine.checkpoint(data) for _ in range(4)]
        _, report = IndexedRestorer().restore_with_report(diffs)
        assert report.payload_bytes_read == {0: N}

    def test_full_chain_references_one_frame(self, rng):
        diffs, _ = _chain("full", rng)
        _, report = IndexedRestorer().restore_with_report(diffs)
        assert report.frames_referenced == 1
        assert report.payload_bytes_read == {len(diffs) - 1: N}


class TestTablePersistence:
    def test_round_trip(self, rng):
        diffs, _ = _chain("tree", rng)
        table = ProvenanceTable.from_diffs(diffs)
        back = ProvenanceTable.from_bytes(table.to_bytes())
        assert np.array_equal(back.src_ckpt, table.src_ckpt)
        assert np.array_equal(back.src_off, table.src_off)
        assert back.data_len == N and back.chunk_size == CS

    def test_bit_flip_detected(self, rng):
        diffs, _ = _chain("list", rng)
        blob = bytearray(ProvenanceTable.from_diffs(diffs).to_bytes())
        blob[len(blob) // 2] ^= 0x40
        with pytest.raises(IntegrityError, match="digest mismatch"):
            ProvenanceTable.from_bytes(bytes(blob))

    def test_truncation_detected(self, rng):
        diffs, _ = _chain("basic", rng)
        blob = ProvenanceTable.from_diffs(diffs).to_bytes()
        with pytest.raises(IntegrityError):
            ProvenanceTable.from_bytes(blob[:-8])

    def test_save_record_persists_index(self, rng, tmp_path):
        diffs, _ = _chain("tree", rng)
        save_record(diffs, tmp_path)
        manifest = record_manifest(tmp_path)
        assert "provenance" in manifest
        table = load_provenance(tmp_path)
        assert table is not None
        assert table.num_checkpoints == len(diffs)

    def test_unindexable_chain_still_saves(self, rng, tmp_path):
        # A chain missing its opening full checkpoint cannot be indexed
        # from position 0, but the record must still land on disk.
        diffs, _ = _chain("tree", rng)
        shifted = next(d for d in diffs if d.num_shift)
        shifted.ckpt_id = 0  # hand-built: claims position 0
        shifted.shift_ref_ckpts = np.full_like(shifted.shift_ref_ckpts, 3)
        broken = [shifted]
        with pytest.raises(ReproError):
            ProvenanceTable.from_diffs(broken)
        save_record(broken, tmp_path)
        assert load_provenance(tmp_path) is None
        assert "provenance" not in record_manifest(tmp_path)


class TestRpixV2:
    """The delta+bitpacked index encoding (v2) and its v1 compatibility."""

    def test_v2_much_smaller_than_raw(self, rng):
        diffs, _ = _chain("tree", rng)
        table = ProvenanceTable.from_diffs(diffs)
        blob = table.to_bytes()
        assert len(blob) < table.raw_index_bytes / 4
        back = ProvenanceTable.from_bytes(blob)
        assert np.array_equal(back.src_ckpt, table.src_ckpt)
        assert np.array_equal(back.src_off, table.src_off)

    def test_v1_blob_still_parses(self, rng):
        import hashlib as _hashlib

        from repro.core.provenance import (
            _TABLE_HEADER,
            _TABLE_MAGIC,
            _TABLE_VERSION_V1,
        )

        diffs, _ = _chain("list", rng)
        table = ProvenanceTable.from_diffs(diffs)
        header = _TABLE_HEADER.pack(
            _TABLE_MAGIC,
            _TABLE_VERSION_V1,
            0,
            table.num_checkpoints,
            table.num_chunks,
            table.data_len,
            table.chunk_size,
        )
        body = (
            np.ascontiguousarray(table.src_ckpt, dtype="<i4").tobytes()
            + np.ascontiguousarray(table.src_off, dtype="<i8").tobytes()
        )
        digest = _hashlib.sha256(header + body).digest()
        back = ProvenanceTable.from_bytes(header + digest + body)
        assert np.array_equal(back.src_ckpt, table.src_ckpt)
        assert np.array_equal(back.src_off, table.src_off)

    def test_unknown_version_rejected(self, rng):
        diffs, _ = _chain("full", rng, steps=2)
        blob = bytearray(ProvenanceTable.from_diffs(diffs).to_bytes())
        blob[4:6] = (99).to_bytes(2, "little")  # version field
        with pytest.raises(IntegrityError, match="version"):
            ProvenanceTable.from_bytes(bytes(blob))

    def test_damaged_plane_detected_even_unverified(self, rng):
        diffs, _ = _chain("tree", rng)
        table = ProvenanceTable.from_diffs(diffs)
        blob = bytearray(table.to_bytes())
        blob[-1] ^= 0xFF  # inside the last compressed plane
        # verify=False skips the digest, so the plane decoder itself
        # must catch the damage.
        with pytest.raises(IntegrityError):
            ProvenanceTable.from_bytes(bytes(blob), verify=False)

    def test_truncated_plane_detected(self, rng):
        diffs, _ = _chain("tree", rng)
        blob = ProvenanceTable.from_diffs(diffs).to_bytes()
        with pytest.raises(IntegrityError):
            ProvenanceTable.from_bytes(blob[:-6], verify=False)

    def test_verify_record_reports_compression_ratio(self, rng, tmp_path):
        diffs, _ = _chain("tree", rng)
        save_record(diffs, tmp_path)
        report = verify_record(tmp_path)
        assert report.index_bytes > 0
        assert report.index_raw_bytes == len(diffs) * (N // CS) * 12
        assert report.index_compression_ratio > 4.0
        assert "vs raw 12 B/chunk" in report.summary()


class TestRecordRestore:
    def test_cold_restart_parses_only_referenced_frames(self, rng, tmp_path):
        # Churn one window repeatedly: the final state lives in the first
        # and last checkpoints only.
        engine = ENGINES["tree"](N, CS)
        buf = rng.integers(0, 256, N, dtype=np.uint8)
        diffs = [engine.checkpoint(buf)]
        for _ in range(7):
            buf = buf.copy()
            buf[: N // 4] = rng.integers(0, 256, N // 4, dtype=np.uint8)
            diffs.append(engine.checkpoint(buf))
        save_record(diffs, tmp_path)
        out, report = restore_record_indexed(tmp_path)
        assert np.array_equal(out, buf)
        assert report.used_index
        assert report.frames_parsed < report.frames_total
        assert report.record_bytes_read < report.record_bytes + report.index_bytes

    def test_unreferenced_frame_loss_survivable(self, rng, tmp_path):
        # The point of the index: a restore of the latest state does not
        # even read frames it doesn't reference — so losing one of them
        # cannot block the restart (replay would die parsing the chain).
        engine = FullCheckpoint(N, CS)
        b0 = rng.integers(0, 256, N, dtype=np.uint8)
        b1 = rng.integers(0, 256, N, dtype=np.uint8)
        diffs = [engine.checkpoint(b0), engine.checkpoint(b1)]
        save_record(diffs, tmp_path)
        (tmp_path / "ckpt-00000.rdif").unlink()
        out, report = restore_record_indexed(tmp_path)
        assert np.array_equal(out, b1)
        assert report.frames_parsed == 1
        with pytest.raises(ReproError):
            Restorer().restore(load_record(tmp_path))

    def test_replay_fallback_without_index(self, rng, tmp_path):
        diffs, states = _chain("list", rng)
        save_record(diffs, tmp_path)
        (tmp_path / "provenance.rpix").unlink()
        manifest_path = tmp_path / "record.json"
        import json

        manifest = json.loads(manifest_path.read_text())
        del manifest["provenance"]
        manifest_path.write_text(json.dumps(manifest))
        out, report = restore_record_indexed(tmp_path)
        assert np.array_equal(out, states[-1])
        assert not report.used_index
        assert report.frames_parsed == report.frames_total

    def test_corrupt_index_detected(self, rng, tmp_path):
        diffs, _ = _chain("tree", rng)
        save_record(diffs, tmp_path)
        index_path = tmp_path / "provenance.rpix"
        blob = bytearray(index_path.read_bytes())
        blob[-3] ^= 0x01
        index_path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            restore_record_indexed(tmp_path)
        report = verify_record(tmp_path)
        assert report.provenance_ok is False
        assert not report.ok

    def test_verify_record_reports_index_ok(self, rng, tmp_path):
        diffs, _ = _chain("basic", rng)
        save_record(diffs, tmp_path)
        report = verify_record(tmp_path)
        assert report.provenance_ok is True
        assert report.ok
        assert "provenance index: ok" in report.summary()

    def test_scrub_path_validates_whole_record(self, rng, tmp_path):
        diffs, states = _chain("tree", rng)
        save_record(diffs, tmp_path)
        out, report = restore_record_indexed(tmp_path, scrub=True)
        assert np.array_equal(out, states[-1])
        assert not report.used_index  # scrub needs every frame anyway

    def test_upto_selects_checkpoint(self, rng, tmp_path):
        diffs, states = _chain("tree", rng)
        save_record(diffs, tmp_path)
        for k in (0, 2, len(diffs) - 1):
            out, report = restore_record_indexed(tmp_path, upto=k)
            assert np.array_equal(out, states[k])
            assert report.target_ckpt == k
        with pytest.raises(RestoreError, match="outside record"):
            restore_record_indexed(tmp_path, upto=len(diffs))


def _tail_chain(method, rng, steps=6, n=64 * 40 + 23):
    """A tail-geometry chain (``n % CS != 0``) that rewrites the tail and
    a scatter of chunks every step — for tree diffs the short tail region
    pushes every later region to an unaligned payload offset."""
    engine = ENGINES[method](n, CS)
    buf = rng.integers(0, 256, n, dtype=np.uint8)
    diffs = [engine.checkpoint(buf)]
    states = [buf.copy()]
    for _ in range(1, steps):
        buf = buf.copy()
        buf[-10:] = rng.integers(0, 256, 10, dtype=np.uint8)
        for c in rng.choice(n // CS, 6, replace=False):
            buf[c * CS + 5] ^= 0xFF
        diffs.append(engine.checkpoint(buf))
        states.append(buf.copy())
    return diffs, states


def _assert_row_equal(got, want):
    assert got.ckpt_id == want.ckpt_id
    assert (got.data_len, got.chunk_size) == (want.data_len, want.chunk_size)
    assert np.array_equal(got.src_ckpt, want.src_ckpt)
    assert np.array_equal(got.src_off, want.src_off)


class TestRowLoader:
    """``load_provenance_row`` against the in-memory table, row by row."""

    @pytest.mark.parametrize("method", sorted(ENGINES))
    @pytest.mark.parametrize("chain", [_chain, _tail_chain])
    def test_every_row_matches_from_diffs(self, method, chain, rng, tmp_path):
        diffs, _ = chain(method, rng)
        save_record(diffs, tmp_path)
        table = ProvenanceTable.from_diffs(diffs)
        for k in range(len(diffs)):
            _assert_row_equal(load_provenance_row(tmp_path, k), table.row(k))

    def test_rebased_chain(self, rng, tmp_path):
        diffs, _ = _tail_chain("tree", rng, steps=8)
        rebased, table = rebase_record(diffs, 3, with_index=True)
        save_record(rebased, tmp_path, provenance=table)
        want = ProvenanceTable.from_diffs(rebased)
        for k in range(len(rebased)):
            _assert_row_equal(load_provenance_row(tmp_path, k), want.row(k))

    def test_legacy_blob_falls_back_to_full_decode(self, rng, tmp_path):
        diffs, _ = _chain("tree", rng)
        save_record(diffs, tmp_path)
        table = ProvenanceTable.from_diffs(diffs)
        blob = table.to_bytes()  # RPIX v2, whole-file digest
        (tmp_path / "provenance.rpix").write_bytes(blob)
        manifest_path = tmp_path / "record.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["provenance"] = {
            "file": "provenance.rpix",
            "sha256": hashlib.sha256(blob).hexdigest(),
        }
        manifest_path.write_text(json.dumps(manifest))
        for k in range(len(diffs)):
            _assert_row_equal(load_provenance_row(tmp_path, k), table.row(k))

    def test_unindexed_record_has_no_row(self, rng, tmp_path):
        b = rng.integers(0, 256, N, dtype=np.uint8)
        save_record([FullCheckpoint(N, CS).checkpoint(b)], tmp_path)
        (tmp_path / "provenance.rpix").unlink()
        manifest = json.loads((tmp_path / "record.json").read_text())
        del manifest["provenance"]
        (tmp_path / "record.json").write_text(json.dumps(manifest))
        assert load_provenance_row(tmp_path, 0) is None

    def test_row_outside_index_rejected(self, rng, tmp_path):
        diffs, _ = _chain("list", rng)
        save_record(diffs, tmp_path)
        with pytest.raises(RestoreError, match="outside indexed chain"):
            load_provenance_row(tmp_path, len(diffs))

    def test_index_shorter_than_record_rejected(self, rng, tmp_path):
        diffs, _ = _chain("tree", rng)
        save_record(diffs, tmp_path)
        manifest_path = tmp_path / "record.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["num_checkpoints"] += 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IntegrityError, match="covers"):
            load_provenance_row(tmp_path, 0)


class TestWholeChunkGather:
    """Gathers at arbitrary (unaligned) payload offsets stay bit-exact."""

    @pytest.mark.parametrize("method", ["list", "tree"])
    def test_unaligned_record_restores_match_replay(self, method, rng, tmp_path):
        diffs, states = _tail_chain(method, rng, steps=8)
        table = ProvenanceTable.from_diffs(diffs)
        full = diffs[0].data_len // CS
        if method == "tree":
            # The geometry really does produce unaligned source offsets.
            assert np.any(table.src_off[:, :full] % CS)
        save_record(diffs, tmp_path)
        replayed = Restorer().restore_all(diffs)
        for k in range(len(diffs)):
            out, report = restore_record_indexed(tmp_path, upto=k)
            assert report.used_index
            assert np.array_equal(out, replayed[k])
            assert np.array_equal(out, states[k])

    @pytest.mark.parametrize("data_len", [64 * 50, 64 * 50 + 17])
    def test_random_offsets_match_bytewise_copy(self, data_len, rng):
        # Any byte offset into any source payload, in any order: the
        # whole-chunk gather must equal a chunk-by-chunk reference copy.
        n_chunks = -(-data_len // CS)
        payloads = {
            t: rng.integers(0, 256, 64 * 30 + 7, dtype=np.uint8) for t in range(3)
        }
        src_ckpt = rng.integers(-1, 3, n_chunks).astype(np.int32)
        src_off = np.empty(n_chunks, dtype=np.int64)
        want = np.zeros(data_len, dtype=np.uint8)
        for c in range(n_chunks):
            lo, hi = c * CS, min((c + 1) * CS, data_len)
            src_off[c] = rng.integers(0, 64 * 29)
            if src_ckpt[c] >= 0:
                off = int(src_off[c])
                want[lo:hi] = payloads[int(src_ckpt[c])][off : off + hi - lo]
        index = ProvenanceIndex(
            ckpt_id=0,
            data_len=data_len,
            chunk_size=CS,
            src_ckpt=src_ckpt,
            src_off=src_off,
        )
        assert np.array_equal(materialize_index(index, payloads.__getitem__), want)
        lo, hi = n_chunks // 3, 2 * n_chunks // 3
        part = np.full(data_len, 0xAA, dtype=np.uint8)
        materialize_index(
            index, payloads.__getitem__, out=part, chunk_lo=lo, chunk_hi=hi
        )
        assert np.array_equal(part[lo * CS : hi * CS], want[lo * CS : hi * CS])


class TestManifestReadOnce:
    def test_restore_parses_the_manifest_once(self, rng, tmp_path, monkeypatch):
        from repro.core import store

        diffs, states = _chain("tree", rng)
        save_record(diffs, tmp_path)
        calls = []
        real = store._read_manifest
        monkeypatch.setattr(
            store, "_read_manifest", lambda path: calls.append(path) or real(path)
        )
        out, report = restore_record_indexed(tmp_path, upto=3)
        assert np.array_equal(out, states[3])
        assert len(calls) == 1
        sizes = [p.stat().st_size for p in sorted(tmp_path.glob("ckpt-*.rdif"))]
        assert report.record_bytes == sum(sizes)

    def test_frame_sizes_stat_only_without_manifest_list(self, rng, tmp_path):
        from repro.core import stored_frame_sizes

        diffs, _ = _chain("list", rng)
        save_record(diffs, tmp_path)
        manifest = record_manifest(tmp_path)
        want = [d.serialized_size for d in diffs]
        assert stored_frame_sizes(tmp_path, manifest) == want
        del manifest["frame_bytes"]
        assert stored_frame_sizes(tmp_path, manifest) == want
