"""The benchmark's three workloads: sizes, schedules and seeded inputs.

Every input is a pure function of ``(seed, session, rank)``: a source
yields the rank's initial buffer and then mutates that buffer in place
once per round, outside the timed calls.  The sessions of one run see
different inputs, so a run's medians do not hang on one draw of the
seed; only ``oranges-gdv`` replays the same trace window in every session
(see :class:`OrangesSource`).  The program under test only ever sees the
buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

KIB = 1 << 10
MIB = 1 << 20

#: Simulated seconds between checkpoint rounds (the cadence period).
PERIOD_S = 10.0
#: The rank that crash-restarts; every restart rebuilds an equally long chain.
RESTART_RANK = 0


@dataclass(frozen=True)
class Workload:
    name: str
    ranks: int
    chunk_size: int
    #: Checkpoint rounds per session after the initial full checkpoint.
    rounds: int
    #: :data:`RESTART_RANK` crash-restarts after every this many rounds.
    restart_every: int
    #: Restore targets per rank, as fractions of the final chain length.
    restore_fractions: Tuple[float, ...]
    #: Journal on (the live monitor then follows a growing journal).
    journal: bool
    #: Set-ups per session (all timed, the last one kept).
    setups: int = 1
    #: Rounds in which a rank is idle and commits an unchanged buffer.
    idle_share: float = 0.0

    def idle_rounds(self, seed: int, session: int, rank: int) -> frozenset:
        """Rounds in which *rank* does not change its buffer."""
        k = round(self.idle_share * self.rounds)
        rng = np.random.default_rng([seed, session, rank, 0])
        return frozenset(int(r) for r in rng.choice(self.rounds, k, replace=False) + 1)

    def restart_rank(self, round_no: int):
        """Rank that crash-restarts after *round_no* (``None``: none).

        The final round never restarts, so every chain ends on a commit.
        """
        if round_no % self.restart_every or round_no >= self.rounds:
            return None
        return RESTART_RANK

    def restore_targets(self, rank: int) -> List[int]:
        """Checkpoints of *rank* read back after the last round.

        The restarting rank's chain is cut short, so only the other ranks
        are read back; their round *k* committed checkpoint *k*.
        """
        if rank == RESTART_RANK:
            return []
        return sorted({max(1, round(f * self.rounds)) for f in self.restore_fractions})


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="oranges-gdv",
            ranks=4,
            chunk_size=128,
            rounds=40,
            restart_every=5,
            restore_fractions=(1.0, 0.8, 0.6, 0.4, 0.2),
            journal=True,
        ),
        Workload(
            name="scatter-128",
            ranks=4,
            chunk_size=128,
            rounds=30,
            restart_every=5,
            restore_fractions=(1.0, 0.8, 0.6, 0.4, 0.2),
            journal=False,
            setups=2,
            idle_share=0.1,
        ),
        Workload(
            name="bulk-4k-restart",
            ranks=2,
            chunk_size=4 * KIB,
            rounds=28,
            restart_every=6,
            restore_fractions=(1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1),
            journal=False,
            idle_share=0.1,
        ),
    )
}


# ----------------------------------------------------------------------
# Input sources
# ----------------------------------------------------------------------
class ScatterSource:
    """4 MiB per rank: thousands of short random runs plus chunk-aligned
    block copies per round — many small FIRST and SHIFT regions."""

    data_len = 4 * MIB
    runs = 3000
    max_run = 48
    blocks = 12
    max_block_chunks = 256

    def __init__(self, seed: int, session: int, rank: int, chunk_size: int) -> None:
        self.rng = np.random.default_rng([seed, session, rank, 128])
        self.cs = chunk_size

    def initial(self) -> np.ndarray:
        return self.rng.integers(0, 256, self.data_len, dtype=np.uint8)

    def mutate(self, buf: np.ndarray, round_no: int) -> None:
        rng = self.rng
        n_chunks = self.data_len // self.cs
        for _ in range(self.blocks):
            length = int(rng.integers(8, self.max_block_chunks + 1))
            src = int(rng.integers(0, n_chunks - length)) * self.cs
            dst = int(rng.integers(0, n_chunks - length)) * self.cs
            nbytes = length * self.cs
            buf[dst : dst + nbytes] = buf[src : src + nbytes].copy()
        lengths = rng.integers(1, self.max_run + 1, self.runs)
        starts = rng.integers(0, self.data_len - self.max_run, self.runs)
        within = np.arange(int(lengths.sum())) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        idx = np.repeat(starts, lengths) + within
        buf[idx] = rng.integers(0, 256, idx.shape[0], dtype=np.uint8)


class BulkSource:
    """64 MiB per rank: a hot window of 2–6 MiB walks through the buffer
    and one 1 MiB chunk-aligned block is copied elsewhere each round."""

    data_len = 64 * MIB
    block = 1 * MIB

    def __init__(self, seed: int, session: int, rank: int) -> None:
        self.rng = np.random.default_rng([seed, session, rank, 4096])
        self.pos = 0

    def initial(self) -> np.ndarray:
        buf = self.rng.integers(0, 256, self.data_len, dtype=np.uint8)
        self.pos = int(self.rng.integers(0, self.data_len))
        return buf

    def mutate(self, buf: np.ndarray, round_no: int) -> None:
        rng = self.rng
        width = int(rng.integers(2 * MIB, 6 * MIB))
        fresh = rng.integers(0, 256, width, dtype=np.uint8)
        head = min(width, self.data_len - self.pos)
        buf[self.pos : self.pos + head] = fresh[:head]
        if head < width:
            buf[: width - head] = fresh[head:]
        self.pos = (self.pos + width) % self.data_len
        n_blocks = self.data_len // self.block
        src, dst = rng.choice(n_blocks, 2, replace=False) * self.block
        buf[dst : dst + self.block] = buf[src : src + self.block].copy()


class OrangesSource:
    """The paper's ORANGES application on ``message_race``: rank *r*
    runs the graph seeded ``seed + r`` and checkpoints its GDV buffer.

    States come from :func:`repro.replay.driver.workload_states`; they
    are kept as the initial buffer plus one sparse patch per round and
    cached per seed under *cache_dir*.

    Every session replays the same trace from the application's start:
    its updates are alike from step to step (~140 changed bytes each), so
    one window is a fair sample, and a trace per session would cost ~3 s
    of input generation per rank and session.
    """

    num_vertices = 8000

    def __init__(self, seed: int, rank: int, rounds: int, cache_dir: Path) -> None:
        cache = cache_dir / f"oranges-mr{self.num_vertices}-s{seed + rank}-r{rounds}.npz"
        if not cache.exists():
            _write_oranges_cache(cache, seed + rank, rounds, self.num_vertices)
        with np.load(cache) as data:
            self.base = data["base"]
            offsets = data["offsets"]
            self.idx = np.split(data["idx"], offsets)
            self.vals = np.split(data["vals"], offsets)

    def initial(self) -> np.ndarray:
        return self.base.copy()

    def mutate(self, buf: np.ndarray, round_no: int) -> None:
        buf[self.idx[round_no - 1]] = self.vals[round_no - 1]


def _write_oranges_cache(path: Path, seed: int, rounds: int, vertices: int) -> None:
    from repro.replay.driver import workload_states
    from repro.replay.timeline import RunConfig

    config = RunConfig(
        workload="message_race",
        num_vertices=vertices,
        num_processes=1,
        steps=rounds + 1,
        seed=seed,
    )
    states = [row[0] for row in workload_states(config)]
    idx: List[np.ndarray] = []
    vals: List[np.ndarray] = []
    for prev, cur in zip(states, states[1:]):
        changed = np.flatnonzero(prev != cur)
        idx.append(changed)
        vals.append(cur[changed])
    offsets = np.cumsum([len(i) for i in idx])[:-1]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp.npz")
    np.savez(
        tmp,
        base=states[0],
        idx=np.concatenate(idx),
        vals=np.concatenate(vals),
        offsets=offsets,
    )
    tmp.replace(path)


def make_sources(workload: Workload, seed: int, session: int, cache_dir: Path) -> list:
    """One input source per rank of *workload* for *session*."""
    ranks = range(workload.ranks)
    if workload.name == "oranges-gdv":
        return [OrangesSource(seed, r, workload.rounds, cache_dir) for r in ranks]
    if workload.name == "scatter-128":
        return [ScatterSource(seed, session, r, workload.chunk_size) for r in ranks]
    return [BulkSource(seed, session, r) for r in ranks]
