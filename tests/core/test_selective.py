"""Selective reconstruction of a single checkpoint from a diff chain.

Selective restore is served by the provenance-indexed engine
(:class:`~repro.core.IndexedRestorer`): it reads only the payload bytes
the target state references instead of replaying the chain.  These tests
check it against chain replay on a stream with unaligned shifted copies,
and its error paths.
"""

import numpy as np
import pytest

from repro.core import ENGINES, IndexedRestorer, Restorer, indexed_restore_latest
from repro.errors import RestoreError


@pytest.fixture
def stream(rng):
    n = 64 * 200 + 9
    base = rng.integers(0, 256, n, dtype=np.uint8)
    out = [base.copy()]
    cur = base
    for _ in range(5):
        cur = cur.copy()
        idx = rng.integers(0, n, 80)
        cur[idx] = rng.integers(0, 256, 80, dtype=np.uint8)
        s = int(rng.integers(0, n - 2048))
        d = int(rng.integers(0, n - 2048))
        cur[d : d + 2048] = cur[s : s + 2048]
        out.append(cur.copy())
    return out


@pytest.mark.parametrize("method", sorted(ENGINES))
class TestAgreementWithChainRestore:
    def test_every_checkpoint_identical(self, stream, method):
        n = stream[0].shape[0]
        engine = ENGINES[method](n, 64)
        diffs = [engine.checkpoint(c) for c in stream]
        chain = Restorer().restore_all(diffs)
        restorer = IndexedRestorer()
        for k in range(len(stream)):
            buf = restorer.restore(diffs, upto=k)
            assert np.array_equal(buf, chain[k]), f"ckpt {k}"
            assert np.array_equal(buf, stream[k]), f"ckpt {k}"


class TestErrors:
    def test_empty_chain(self):
        with pytest.raises(RestoreError):
            IndexedRestorer().restore([])

    def test_out_of_range(self, stream):
        engine = ENGINES["tree"](stream[0].shape[0], 64)
        diffs = [engine.checkpoint(c) for c in stream[:2]]
        with pytest.raises(RestoreError):
            IndexedRestorer().restore(diffs, upto=5)

    def test_out_of_order_chain(self, stream):
        engine = ENGINES["tree"](stream[0].shape[0], 64)
        diffs = [engine.checkpoint(c) for c in stream[:2]]
        with pytest.raises(RestoreError):
            IndexedRestorer().restore([diffs[1]])


class TestHelpers:
    def test_with_payload_codec(self, rng):
        from repro.compress import get_codec

        codec = get_codec("deflate")
        n = 64 * 64
        base = rng.integers(0, 4, n, dtype=np.uint8)
        engine = ENGINES["tree"](n, 64, payload_codec=codec)
        diffs = [engine.checkpoint(base)]
        nxt = base.copy()
        nxt[:512] = rng.integers(0, 4, 512, dtype=np.uint8)
        diffs.append(engine.checkpoint(nxt))
        out = indexed_restore_latest(diffs, payload_codec=codec)
        assert np.array_equal(out, nxt)
