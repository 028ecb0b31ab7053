"""Full-stack commit/restore benchmark of the Tree checkpointing runtime.

One checkpoint of one rank passes through the dedup engine, the GPU cost
model, the flush hierarchy and the on-disk record; restores and
crash-restarts read it back.  Run from the repository root::

    python3 perfbench/run.py --workload scatter-128 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps every
layer's public entry points (see ``layers.py``) on half the commits and
prints per-layer self times, counts and the tracing overhead.  Lines
starting with ``#`` describe the environment, the clock of every number
and the waterfall; the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Wall-clock numbers are this host's: records go to a work directory in
the checkout and no layer fsyncs.  The end-to-end latencies and
``setup_s`` are on the *reference* clock: each operation's wall time is
divided by the host-speed factor measured around it (see
``hostspeed.py``), so a slow spell on a shared host does not read as a
regression.  Per-layer times are plain wall time.  Numbers named ``sim``
are on the simulated A100 clock of ``KernelCostModel``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from workloads import PERIOD_S, WORKLOADS, Workload, make_sources  # noqa: E402

#: Full sessions every run makes at least, and at most.
MIN_SESSIONS = 2
MAX_SESSIONS = 10

#: End-to-end metrics: name → (unit, clock).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "reference"),
    "commit_ms_p50": ("ms", "reference"),
    "commit_ms_p90": ("ms", "reference"),
    "restore_ms_p50": ("ms", "reference"),
    "restart_ms_p50": ("ms", "reference"),
    "scrape_ms_p50": ("ms", "reference"),
    "dedup_ratio": ("ratio", "count"),
    "commit_sim_gb_s": ("GB/s", "sim"),
    "restart_sim_ms": ("ms", "sim"),
    "peak_rss_mib": ("MiB", "memory"),
    "ok_share": ("share", "count"),
}

#: Per-layer metrics of the traced run: name → (unit, clock).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "commit.wall_ms": ("ms", "wall"),
    "commit.runtime.node.self_ms": ("ms", "wall"),
    "commit.runtime.flush.submit.self_ms": ("ms", "wall"),
    "commit.runtime.flush.blocked_sim_us": ("us", "sim"),
    "commit.core.engine.self_ms": ("ms", "wall"),
    "commit.hashing.hash_chunks.self_ms": ("ms", "wall"),
    "commit.hashing.hash_chunks.gb_s": ("GB/s", "wall"),
    "commit.hashing.hash_digest_pairs.self_ms": ("ms", "wall"),
    "commit.kokkos.map.insert_or_lookup.self_ms": ("ms", "wall"),
    "commit.kokkos.map.lookup.self_ms": ("ms", "wall"),
    "commit.kokkos.map.keys": ("count", "count"),
    "commit.kokkos.map.probes_per_key": ("count", "count"),
    "commit.core.serialize.gather.self_ms": ("ms", "wall"),
    "commit.core.serialize.regions": ("count", "count"),
    "commit.core.serialize.payload_bytes": ("B", "count"),
    "commit.core.diff.to_bytes.self_ms": ("ms", "wall"),
    "commit.core.diff.to_bytes.calls": ("count", "count"),
    "commit.core.provenance.builder_append.self_ms": ("ms", "wall"),
    "commit.core.provenance.builder_append.calls": ("count", "count"),
    "commit.core.store.append.self_ms": ("ms", "wall"),
    "commit.core.store.bytes_written": ("B", "count"),
    "commit.core.store.manifest_bytes": ("B", "count"),
    "commit.core.store.write_amp": ("ratio", "count"),
    "commit.gpusim.price.self_ms": ("ms", "wall"),
    "commit.gpusim.sim_launch_us": ("us", "sim"),
    "commit.gpusim.sim_stream_us": ("us", "sim"),
    "commit.gpusim.sim_random_us": ("us", "sim"),
    "commit.gpusim.sim_transfer_us": ("us", "sim"),
    "commit.telemetry.events.emit.self_ms": ("ms", "wall"),
    "commit.telemetry.journal_bytes": ("B", "count"),
    "commit.unattributed_ms": ("ms", "wall"),
    "restore.wall_ms": ("ms", "wall"),
    "restore.core.provenance.materialize.self_ms": ("ms", "wall"),
    "restore.core.provenance.payload_bytes": ("B", "count"),
    "restore.core.store.load_provenance.self_ms": ("ms", "wall"),
    "restore.core.store.load_record_frames.self_ms": ("ms", "wall"),
    "restore.core.store.bytes_read": ("B", "count"),
    "restore.core.store.frames_parsed": ("count", "count"),
    "restore.unattributed_ms": ("ms", "wall"),
    "restart.wall_ms": ("ms", "wall"),
    "restart.runtime.node.self_ms": ("ms", "wall"),
    "restart.core.restore.scrub.self_ms": ("ms", "wall"),
    "restart.core.provenance.restore.self_ms": ("ms", "wall"),
    "restart.core.provenance.materialize.self_ms": ("ms", "wall"),
    "restart.core.engine.self_ms": ("ms", "wall"),
    "restart.hashing.hash_chunks.self_ms": ("ms", "wall"),
    "restart.core.store.reseed.self_ms": ("ms", "wall"),
    "restart.unattributed_ms": ("ms", "wall"),
    "scrape.wall_ms": ("ms", "wall"),
    "scrape.telemetry.live.poll.self_ms": ("ms", "wall"),
    "scrape.telemetry.live.render.self_ms": ("ms", "wall"),
    "scrape.telemetry.live.records_seen": ("count", "count"),
    "scrape.page_bytes": ("B", "count"),
    "scrape.unattributed_ms": ("ms", "wall"),
    "trace_overhead_pct": ("%", "wall"),
}


# ----------------------------------------------------------------------
# Process memory
# ----------------------------------------------------------------------
def _status_kib(field: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def reset_peak_rss() -> int:
    """Reset VmHWM to the current RSS; returns that level in KiB."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")
    return _status_kib("VmRSS")


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding *path*."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    with open("/proc/mounts") as fh:
        for line in fh:
            fields = line.split()
            mount = fields[1]
            if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(
                mount
            ) > len(best):
                best, fstype = mount, fields[2]
    return fstype


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
class Bench:
    """One benchmark run: several sessions of one workload, each on inputs
    of its own, plus a replay of session 0's first rounds whose counts
    must repeat session 0's exactly."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = ROOT / ".bench_work" / f"{workload.name}-s{seed}-p{os.getpid()}"
        self.cache = ROOT / ".bench_work" / "cache"
        self.tracer = spans.Tracer()
        self.host = hostspeed.HostSpeed()
        #: Unscaled wall milliseconds per operation kind, for the ``#`` lines.
        self.wall_ms: Dict[str, List[float]] = {}
        self.patches: List[spans.Patch] = []
        self.sessions = 0
        self.run_s = 0.0
        self.attempted = 0
        self.failures: List[str] = []
        self.setup_s: List[float] = []
        self.commit_ms: List[float] = []
        self.traced_commit_ms: List[float] = []
        self.restore_ms: List[float] = []
        self.restart_ms: List[float] = []
        self.scrape_ms: List[float] = []
        self.restart_sim_s: List[float] = []
        self.peak_rss_mib = 0.0
        self.logical_bytes = 0
        self.commit_sim_s = 0.0
        #: Logical bytes the full sessions' records hold, and their size.
        self.held_bytes = 0
        self.disk_bytes = 0
        #: Session 0's counts, which its replay must repeat.
        self.reference: List[tuple] = []
        self.made = 0
        self.records_seen: List[int] = []

    # ------------------------------------------------------------------
    def check(self, ok: bool, what: str) -> None:
        """One standalone check: attempted once, failed unless *ok*."""
        self.attempted += 1
        self.expect(ok, what)

    def expect(self, ok: bool, what: str) -> None:
        """A check on an operation already counted as attempted."""
        if not ok:
            self.failures.append(what)

    def timed(self, kind: str, call, traced: bool = True):
        """Run one *kind* operation; returns ``(reference seconds, result)``,
        result ``None`` when it raised (counted as a failure).

        *call* takes no arguments and looks the entry point up itself, so
        a traced call goes through the wrappers installed here.
        """
        clock = time.perf_counter
        self.attempted += 1
        before = self.host.factor()
        try:
            if self.trace and traced:
                with spans.installed(self.patches, self.tracer):
                    start = clock()
                    with self.tracer.operation(kind):
                        result = call()
                    elapsed = clock() - start
            else:
                start = clock()
                result = call()
                elapsed = clock() - start
        except Exception as exc:  # every failure is counted, none hidden
            traceback.print_exc(file=sys.stderr)
            self.expect(False, f"{kind}: {type(exc).__name__}: {exc}")
            return None, None
        self.wall_ms.setdefault(kind, []).append(1e3 * elapsed)
        return elapsed / self.host.span_factor(before), result

    # ------------------------------------------------------------------
    def run(self) -> None:
        from repro.hashing.native import native_available

        import layers

        self.native = native_available()  # builds the kernel before timing
        self.patches = layers.patches() if self.trace else []
        self.unpatched = layers.missing(self.patches)
        make_sources(self.w, self.seed, 0, self.cache)  # writes any input cache untimed
        start = time.perf_counter()
        try:
            self.session(0, self.w.rounds)
            # The replay spans the first restart, so restarts are checked too.
            self.session(0, self.w.restart_every + 1)
            self.sessions = 1
            # Sessions go on while the next one, at the mean length so far,
            # still ends within the run.
            while self.sessions < MAX_SESSIONS:
                elapsed = time.perf_counter() - start
                if (
                    self.sessions >= MIN_SESSIONS
                    and elapsed * (self.sessions + 1) / self.sessions > self.seconds
                ):
                    break
                self.session(self.sessions, self.w.rounds)
                self.sessions += 1
            self.run_s = time.perf_counter() - start
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def setup(self, root: Path, bufs):
        """Build the runtime (+ journal) and the monitor, and commit every
        rank's full checkpoint; returns ``(node, monitor, journal)``."""
        from repro.runtime.node import NodeRuntime
        from repro.telemetry import events
        from repro.telemetry.live.monitor import LiveMonitor

        root.mkdir(parents=True)
        journal_path = root / "journal.jsonl"
        before = self.host.factor()
        start = time.perf_counter()
        journal = None
        if self.w.journal:
            journal = events.install(
                events.EventJournal(
                    journal_path, node="node0", run_id=f"perfbench-{self.made}", retain=False
                )
            )
        node = NodeRuntime(
            bufs[0].nbytes,
            self.w.chunk_size,
            method="tree",
            num_processes=self.w.ranks,
            record_root=root / "records",
            heartbeat_interval=PERIOD_S,
        )
        # With the journal off nothing writes journal_path, so a scrape
        # renders the idle page: registry families and no live records.
        monitor = LiveMonitor(path=journal_path)
        node.checkpoint_all(bufs, now=0.0)
        elapsed = time.perf_counter() - start
        self.setup_s.append(elapsed / self.host.span_factor(before))
        return node, monitor, journal

    @staticmethod
    def teardown(monitor, journal) -> None:
        from repro.telemetry import events

        monitor.close()
        if journal is not None:
            events.uninstall()
            journal.close()

    def session(self, index: int, rounds: int) -> None:
        """Session *index*'s inputs through *rounds* rounds; fewer rounds
        than the workload's make the replay, which reads nothing back but
        checks its counts against session 0's."""
        from repro.core.provenance import restore_record_indexed
        from repro.core.store import verify_record
        from repro.telemetry.export import validate_prometheus_text

        w = self.w
        replay = rounds < w.rounds
        made = self.made
        self.made += 1
        sources = make_sources(w, self.seed, index, self.cache)
        bufs = [src.initial() for src in sources]
        idle = [w.idle_rounds(self.seed, index, p) for p in range(w.ranks)]
        targets = [[] if replay else w.restore_targets(p) for p in range(w.ranks)]
        expected: Dict[Tuple[int, int], bytes] = {}
        signature: List[tuple] = []
        gc.collect()
        rss_base = reset_peak_rss()

        for attempt in range(w.setups - 1):  # set-up repetitions, discarded
            root = self.work / f"session{made}-setup{attempt}"
            _node, monitor, journal = self.setup(root, bufs)
            self.teardown(monitor, journal)
            del _node
            shutil.rmtree(root)
        root = self.work / f"session{made}"
        journal_path = root / "journal.jsonl"
        node, monitor, journal = self.setup(root, bufs)
        try:
            for rnd in range(1, rounds + 1):
                now = rnd * PERIOD_S
                for p in range(w.ranks):
                    # Half the commits are traced; the halves swap from one
                    # session to the next.
                    traced = (rnd + p + made) % 2 == 0
                    if rnd not in idle[p]:
                        sources[p].mutate(bufs[p], rnd)
                    self.commit(node, bufs, p, now, traced, journal_path, signature)
                    if rnd in targets[p]:
                        expected[(p, rnd)] = hashlib.sha256(bufs[p]).digest()
                self.scrape(monitor, validate_prometheus_text)
                victim = w.restart_rank(rnd)
                if victim is not None:
                    self.restart(node, bufs, victim, now + PERIOD_S / 2, signature)
            # A replay's window still holds the initial full checkpoints,
            # whose flushes dwarf the incremental ones; the grade is judged
            # where the workload ends, after its last round.
            if w.journal and not replay:
                status = monitor.report().status
                self.check(status == "ok", f"live grade {status!r} after the last round")
        finally:
            self.teardown(monitor, journal)

        for p in range(w.ranks):
            for k in targets[p]:
                elapsed, got = self.timed(
                    "restore", lambda: restore_record_indexed(node.record_path(p), k)
                )
                if got is None:
                    continue
                out, report = got
                self.restore_ms.append(1e3 * elapsed)
                self.expect(
                    hashlib.sha256(out).digest() == expected[(p, k)],
                    f"restore of rank {p} ckpt {k} returned other bytes",
                )
                payload = sum(report.payload_bytes_read.values())
                signature.append(("restore", p, k, report.record_bytes_read, payload))
                if self.trace:
                    counts = self.tracer.counts
                    counts[("restore", "core.store.bytes_read")] += report.record_bytes_read
                    counts[("restore", "core.store.frames_parsed")] += report.frames_parsed
                    counts[("restore", "core.provenance.payload_bytes")] += payload
        if made == 0:  # later sessions reuse memory the allocator kept
            self.peak_rss_mib = (_status_kib("VmHWM") - rss_base) / 1024.0

        held = 0
        for p in range(w.ranks):
            verification = verify_record(node.record_path(p))
            self.check(verification.ok, f"verify_record rank {p}: {verification.summary()}")
            held += bufs[p].nbytes * len(verification.checkpoints)
        if not replay:
            disk = dir_bytes(root / "records")
            self.held_bytes += held
            self.disk_bytes += disk
            signature.append(("disk", disk, held))

        reported = [r.restore_seconds for r in node.crash_reports]
        self.check(
            reported == self.restart_sim_s[len(self.restart_sim_s) - len(reported):],
            "restart sim seconds disagree with the runtime's crash reports",
        )
        if replay:
            self.check(
                signature == self.reference[: len(signature)],
                "replayed rounds' counts differ from session 0's for the same seed",
            )
        elif index == 0:
            self.reference = signature
        del node, monitor, bufs, sources
        shutil.rmtree(root)
        gc.collect()

    # ------------------------------------------------------------------
    def commit(self, node, bufs, p, now, traced, journal_path, signature) -> None:
        timeline = node.timelines[p]
        device_before = timeline.blocking_device_seconds
        engine = node.engines[p]
        probes_before = engine.map.total_probes
        journal_before = journal_path.stat().st_size if journal_path.exists() else 0
        traced = self.trace and traced
        elapsed, done = self.timed(
            "commit", lambda: node.checkpoint_all(bufs, now, processes=[p]), traced
        )
        if done is None:
            return
        (self.traced_commit_ms if traced else self.commit_ms).append(1e3 * elapsed)
        device = timeline.blocking_device_seconds - device_before
        self.commit_sim_s += device
        self.logical_bytes += bufs[p].nbytes
        diff = node.persisted[p][-1].diff
        signature.append(
            (
                "commit",
                p,
                diff.ckpt_id,
                diff.num_first,
                diff.num_shift,
                diff.payload_bytes,
                diff.serialized_size,
                device,
                engine.map.total_probes - probes_before,
                dir_bytes(node.record_path(p)),  # frames + index + manifest
            )
        )
        if traced:
            counts = self.tracer.counts
            counts[("commit", "runtime.node.device_sim_s")] += device
            journal_after = journal_path.stat().st_size if journal_path.exists() else 0
            counts[("commit", "telemetry.journal_bytes")] += journal_after - journal_before

    def scrape(self, monitor, validate) -> None:
        elapsed, page = self.timed("scrape", lambda: monitor.prometheus())
        if page is None:
            return
        self.scrape_ms.append(1e3 * elapsed)
        problems = validate(page)
        self.expect(not problems, f"scrape page invalid: {problems[:3]}")
        if self.trace:
            self.tracer.counts[("scrape", "page_bytes")] += len(page)
            self.records_seen.append(monitor.records_seen)

    def restart(self, node, bufs, p, at_time, signature) -> None:
        import numpy as np

        latest = node.persisted[p][-1].ckpt_id
        elapsed, report = self.timed("restart", lambda: node.crash_restart(p, at_time))
        if report is None:
            return
        self.restart_ms.append(1e3 * elapsed)
        self.restart_sim_s.append(report.restore_seconds)
        self.expect(
            report.restored_ckpt_id == latest
            and np.array_equal(report.restored_state, bufs[p]),
            f"restart of rank {p} did not return checkpoint {latest}'s bytes",
        )
        signature.append(
            ("restart", p, report.restored_ckpt_id, report.restore_seconds,
             report.restore_payload_bytes)
        )
        if self.trace:
            self.tracer.counts[("restart", "crash_report_sim_s")] += report.restore_seconds

    # ------------------------------------------------------------------
    def pct(self, values: List[float], q: float, what: str) -> float:
        """Percentile *q* of *values*; 0 and a failed check when none."""
        if values:
            return stats.percentile(values, q)
        self.check(False, f"no successful {what} to measure")
        return 0.0

    def end_to_end(self) -> Dict[str, float]:
        samples = len(self.commit_ms)
        if stats.samples_beyond(max(samples, 1), 90) < stats.MIN_BEYOND:
            self.check(False, f"only {samples} commit samples: too few beyond p90")
        restarts = len(self.restart_sim_s)
        return {
            "setup_s": stats.median(self.setup_s),
            "commit_ms_p50": self.pct(self.commit_ms, 50, "commit"),
            "commit_ms_p90": self.pct(self.commit_ms, 90, "commit"),
            "restore_ms_p50": self.pct(self.restore_ms, 50, "restore"),
            "restart_ms_p50": self.pct(self.restart_ms, 50, "restart"),
            "scrape_ms_p50": self.pct(self.scrape_ms, 50, "scrape"),
            "dedup_ratio": self.held_bytes / self.disk_bytes,
            "commit_sim_gb_s": self.logical_bytes / self.commit_sim_s / 1e9
            if self.commit_sim_s
            else 0.0,
            "restart_sim_ms": 1e3 * sum(self.restart_sim_s) / restarts if restarts else 0.0,
            "peak_rss_mib": self.peak_rss_mib,
            "ok_share": (self.attempted - len(self.failures)) / self.attempted,
        }

    def per_layer(self) -> Dict[str, float]:
        t = self.tracer
        count = t.count_per_op

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def total(kind: str, name: str) -> float:
            return t.counts.get((kind, name), 0.0)

        hashed_s = t.self_s.get(("commit", "hashing.hash_chunks"), 0.0)
        sim = {
            part: total("commit", f"gpusim.sim_{part}_s")
            for part in ("launch", "stream", "random", "transfer")
        }
        modeled = total("commit", "runtime.node.device_sim_s")
        if abs(sum(sim.values()) - modeled) > 1e-9 * max(1e-9, modeled):
            self.check(False, f"sim components {sum(sim.values())} != modeled {modeled}")
        restore_sim = total("restart", "gpusim.restore_sim_s")
        reported = total("restart", "crash_report_sim_s")
        if abs(restore_sim - reported) > 1e-9 * max(1e-9, reported):
            self.check(False, f"priced restore {restore_sim} != crash reports {reported}")
        for problem in t.accounting_errors:
            self.check(False, f"self times do not add up: {problem}")
        ops = t.ops["commit"]
        untraced = self.pct(self.commit_ms, 50, "untraced commit")
        traced = self.pct(self.traced_commit_ms, 50, "traced commit")
        return {
            "commit.wall_ms": ratio(1e3 * t.wall["commit"], ops),
            "commit.runtime.node.self_ms": t.self_ms("commit", "runtime.node"),
            "commit.runtime.flush.submit.self_ms": t.self_ms("commit", "runtime.flush.submit"),
            "commit.runtime.flush.blocked_sim_us": 1e6
            * count("commit", "runtime.flush.blocked_sim_s"),
            "commit.core.engine.self_ms": t.self_ms("commit", "core.engine"),
            "commit.hashing.hash_chunks.self_ms": t.self_ms("commit", "hashing.hash_chunks"),
            "commit.hashing.hash_chunks.gb_s": ratio(
                total("commit", "hashing.hash_chunks.bytes"), hashed_s
            )
            / 1e9,
            "commit.hashing.hash_digest_pairs.self_ms": t.self_ms(
                "commit", "hashing.hash_digest_pairs"
            ),
            "commit.kokkos.map.insert_or_lookup.self_ms": t.self_ms(
                "commit", "kokkos.map.insert_or_lookup"
            ),
            "commit.kokkos.map.lookup.self_ms": t.self_ms("commit", "kokkos.map.lookup"),
            "commit.kokkos.map.keys": count("commit", "kokkos.map.keys"),
            "commit.kokkos.map.probes_per_key": ratio(
                total("commit", "kokkos.map.probes"), total("commit", "kokkos.map.keys")
            ),
            "commit.core.serialize.gather.self_ms": t.self_ms("commit", "core.serialize.gather"),
            "commit.core.serialize.regions": count("commit", "core.serialize.regions"),
            "commit.core.serialize.payload_bytes": count("commit", "core.serialize.payload_bytes"),
            "commit.core.diff.to_bytes.self_ms": t.self_ms("commit", "core.diff.to_bytes"),
            "commit.core.diff.to_bytes.calls": t.calls_per_op("commit", "core.diff.to_bytes"),
            "commit.core.provenance.builder_append.self_ms": t.self_ms(
                "commit", "core.provenance.builder_append"
            ),
            "commit.core.provenance.builder_append.calls": t.calls_per_op(
                "commit", "core.provenance.builder_append"
            ),
            "commit.core.store.append.self_ms": t.self_ms("commit", "core.store.append"),
            "commit.core.store.bytes_written": count("commit", "core.store.bytes_written"),
            "commit.core.store.manifest_bytes": count("commit", "core.store.manifest_bytes"),
            "commit.core.store.write_amp": ratio(
                total("commit", "core.store.bytes_written"),
                total("commit", "core.store.frame_bytes"),
            ),
            "commit.gpusim.price.self_ms": t.self_ms("commit", "gpusim.price"),
            **{f"commit.gpusim.sim_{part}_us": 1e6 * ratio(v, ops) for part, v in sim.items()},
            "commit.telemetry.events.emit.self_ms": t.self_ms("commit", "telemetry.events.emit"),
            "commit.telemetry.journal_bytes": count("commit", "telemetry.journal_bytes"),
            "commit.unattributed_ms": t.unattributed_ms("commit"),
            "restore.wall_ms": ratio(1e3 * t.wall["restore"], t.ops["restore"]),
            "restore.core.provenance.materialize.self_ms": t.self_ms(
                "restore", "core.provenance.materialize"
            ),
            "restore.core.provenance.payload_bytes": count(
                "restore", "core.provenance.payload_bytes"
            ),
            "restore.core.store.load_provenance.self_ms": t.self_ms(
                "restore", "core.store.load_provenance"
            ),
            "restore.core.store.load_record_frames.self_ms": t.self_ms(
                "restore", "core.store.load_record_frames"
            ),
            "restore.core.store.bytes_read": count("restore", "core.store.bytes_read"),
            "restore.core.store.frames_parsed": count("restore", "core.store.frames_parsed"),
            "restore.unattributed_ms": t.unattributed_ms("restore"),
            "restart.wall_ms": ratio(1e3 * t.wall["restart"], t.ops["restart"]),
            "restart.runtime.node.self_ms": t.self_ms("restart", "runtime.node"),
            "restart.core.restore.scrub.self_ms": t.self_ms("restart", "core.restore.scrub"),
            "restart.core.provenance.restore.self_ms": t.self_ms(
                "restart", "core.provenance.restore"
            ),
            "restart.core.provenance.materialize.self_ms": t.self_ms(
                "restart", "core.provenance.materialize"
            ),
            "restart.core.engine.self_ms": t.self_ms("restart", "core.engine"),
            "restart.hashing.hash_chunks.self_ms": t.self_ms("restart", "hashing.hash_chunks"),
            "restart.core.store.reseed.self_ms": t.self_ms(
                "restart", "core.store.append", "core.store.reset"
            ),
            "restart.unattributed_ms": t.unattributed_ms("restart"),
            "scrape.wall_ms": ratio(1e3 * t.wall["scrape"], t.ops["scrape"]),
            "scrape.telemetry.live.poll.self_ms": t.self_ms("scrape", "telemetry.live.poll"),
            "scrape.telemetry.live.render.self_ms": t.self_ms("scrape", "telemetry.live.render"),
            "scrape.telemetry.live.records_seen": ratio(
                sum(self.records_seen), len(self.records_seen)
            ),
            "scrape.page_bytes": count("scrape", "page_bytes"),
            "scrape.unattributed_ms": t.unattributed_ms("scrape"),
            "trace_overhead_pct": 100.0 * ratio(traced - untraced, untraced),
        }


# ----------------------------------------------------------------------
def describe(bench: Bench, metrics: Dict[str, float], table: Dict[str, tuple]) -> None:
    """The ``#`` lines: environment, sample counts, clocks, waterfall."""
    import numpy as np

    w = bench.w
    print(f"# perfbench {w.name} seed={bench.seed} trace={int(bench.trace)} "
          f"sessions={bench.sessions}+replay ({bench.run_s:.1f} s) rounds/session={w.rounds} ranks={w.ranks} "
          f"chunk={w.chunk_size}B journal={'on' if w.journal else 'off'}")
    print(f"# env: native_murmur3={'on' if bench.native else 'off'} "
          f"python={platform.python_version()} numpy={np.__version__} "
          f"nproc={os.cpu_count()} record_fs={filesystem_of(ROOT)} fsync=none")
    factors = bench.host.factors
    low, mid, high = statistics.quantiles(factors, n=4)
    print(f"# host speed: reference clock = wall / factor; factor quartiles "
          f"{low:.3f} {mid:.3f} {high:.3f} over {len(factors)} calibrations "
          f"(1 = quiet 2-core Xeon VM); unscaled wall p50 "
          + " ".join(f"{k}={stats.median(v):.4g}ms" for k, v in bench.wall_ms.items()))
    n = len(bench.commit_ms)
    print(f"# samples: commit={n} (p90 leaves {stats.samples_beyond(n, 90)} beyond; "
          f"highest reportable p{stats.highest_percentile(n):g}) "
          f"restore={len(bench.restore_ms)} restart={len(bench.restart_ms)} "
          f"scrape={len(bench.scrape_ms)}")
    if bench.trace:
        print(f"# traced commits={len(bench.traced_commit_ms)} "
              f"untraced commits={n}; unpatched entry points: "
              f"{', '.join(bench.unpatched) or 'none'}")
        for kind in ("commit", "restore", "restart", "scrape"):
            rows = bench.tracer.waterfall(kind)
            if not rows:
                continue
            wall = 1e3 * bench.tracer.wall[kind] / bench.tracer.ops[kind]
            print(f"# waterfall {kind} (wall {wall:.3f} ms/op over "
                  f"{bench.tracer.ops[kind]} ops, self times add up to wall)")
            for layer, ms, share in rows:
                print(f"#   {layer:<36} {ms:10.4f} ms  {100 * share:6.2f} %")
    for name, value in metrics.items():
        unit, clock = table[name]
        print(f"# {name} = {value:.6g} {unit} [{clock}]")
    for failure in bench.failures[:20]:
        print(f"# FAILED: {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import repro

    source = (ROOT / "src").resolve()
    if source not in Path(repro.__file__).resolve().parents:
        parser.error(f"repro was imported from {repro.__file__}, not from {source}")
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    bench.run()
    if bench.trace:
        metrics, table = bench.per_layer(), PER_LAYER
    else:
        metrics, table = bench.end_to_end(), END_TO_END
    describe(bench, metrics, table)
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": table[name][0]} for name in table
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
