"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import hostspeed
import run
import spans
import stats
from workloads import WORKLOADS


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(5, 0.0), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.highest_percentile(n) == expected
    if expected:
        assert stats.samples_beyond(n, expected) >= stats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.samples_beyond(100, 90) == 10


def test_median_of_even_count_is_mean_of_middle_pair():
    assert stats.median([4, 1, 3, 2]) == 2.5
    assert stats.median([3, 1, 2]) == 2


def test_host_speed_factor_is_mean_ratio_to_nominal():
    ticks = []
    for slowdowns in ((1.0, 2.0, 3.0, 2.0), (4.0, 4.0, 4.0, 4.0)):
        for slowdown, nominal in zip(slowdowns, hostspeed.NOMINAL_S.values()):
            ticks += [0.0, slowdown * nominal]
    host = hostspeed.HostSpeed(clock=iter(ticks).__next__)
    before = host.factor()
    assert before == pytest.approx(2.0)
    # an operation's factor is the mean of the passes before and after it
    assert host.span_factor(before) == pytest.approx(3.0)
    assert host.factors == [pytest.approx(2.0), pytest.approx(4.0)]


# ----------------------------------------------------------------------
# Self-time accounting
# ----------------------------------------------------------------------
class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


class FakeMap:
    """``insert`` delegates to ``insert_or_lookup``, like ``DigestMap``."""

    def __init__(self, clock: ManualClock) -> None:
        self.clock = clock

    def insert_or_lookup(self, keys):
        self.clock.work(3.0)
        return len(keys)

    def insert(self, keys):
        self.clock.work(1.0)
        n = self.insert_or_lookup(keys)
        self.clock.work(1.0)
        return n


class FakeEngine:
    def __init__(self, clock: ManualClock, table: FakeMap) -> None:
        self.clock = clock
        self.map = table

    def checkpoint(self, keys):
        self.clock.work(2.0)
        self.map.insert(keys)
        self.map.insert_or_lookup(keys)
        self.clock.work(1.0)


def traced_fakes():
    clock = ManualClock()
    tracer = spans.Tracer(clock=clock)
    table = [
        spans.Patch(FakeEngine, "checkpoint", "core.engine"),
        spans.Patch(FakeMap, "insert", "kokkos.map.insert_or_lookup"),
        spans.Patch(
            FakeMap,
            "insert_or_lookup",
            "kokkos.map.insert_or_lookup",
            post=lambda t, token, args, kwargs, result: t.add("keys", result),
        ),
    ]
    return clock, tracer, table


def test_reentrant_spans_count_self_time_once():
    clock, tracer, table = traced_fakes()
    engine = FakeEngine(clock, FakeMap(clock))
    with spans.installed(table, tracer):
        with tracer.operation("commit"):
            clock.work(4.0)  # outside every wrapped layer
            engine.checkpoint([1, 2])
    # checkpoint: 2 + insert(1 + 3 + 1) + insert_or_lookup(3) + 1 = 11
    assert tracer.self_s[("commit", "core.engine")] == 3.0
    # insert's own 2 s plus two insert_or_lookup calls of 3 s each
    assert tracer.self_s[("commit", "kokkos.map.insert_or_lookup")] == 8.0
    assert tracer.calls[("commit", "kokkos.map.insert_or_lookup")] == 3
    assert tracer.counts[("commit", "keys")] == 4
    assert tracer.wall["commit"] == 15.0
    assert tracer.unattributed["commit"] == 4.0
    assert tracer.accounting_errors == []


def test_self_times_plus_residue_equal_wall():
    clock, tracer, table = traced_fakes()
    engine = FakeEngine(clock, FakeMap(clock))
    with spans.installed(table, tracer):
        for extra in (0.0, 0.5, 2.0):
            with tracer.operation("commit"):
                engine.checkpoint([1])
                clock.work(extra)
    attributed = sum(v for (op, _), v in tracer.self_s.items() if op == "commit")
    assert attributed + tracer.unattributed["commit"] == tracer.wall["commit"]
    assert tracer.unattributed_ms("commit") == pytest.approx(1e3 * 2.5 / 3)
    assert tracer.self_ms("commit", "core.engine") == pytest.approx(3e3)
    rows = tracer.waterfall("commit")
    assert rows[-1][0] == "unattributed"
    assert sum(share for _, _, share in rows) == pytest.approx(1.0)


def test_operation_without_spans_is_all_unattributed():
    clock = ManualClock()
    tracer = spans.Tracer(clock=clock)
    with tracer.operation("scrape"):
        clock.work(0.25)
    assert tracer.unattributed["scrape"] == 0.25
    assert tracer.self_ms("scrape", "telemetry.live.poll") == 0.0
    assert tracer.ops["scrape"] == 1


def test_residue_survives_a_raising_layer():
    clock, tracer, table = traced_fakes()

    class Broken(FakeMap):
        def insert_or_lookup(self, keys):
            self.clock.work(1.0)
            raise RuntimeError("boom")

    engine = FakeEngine(clock, Broken(clock))
    with spans.installed(table, tracer):
        with pytest.raises(RuntimeError):
            with tracer.operation("commit"):
                engine.checkpoint([1])
    assert tracer.accounting_errors == []
    assert tracer.wall["commit"] == 4.0  # 2 + insert(1 + 1)
    assert tracer.op is None


def test_wrappers_pass_through_outside_operations():
    clock, tracer, table = traced_fakes()
    table_map = FakeMap(clock)
    with spans.installed(table, tracer):
        assert table_map.insert([1, 2, 3]) == 3
    assert not tracer.self_s and not tracer.ops


def test_operations_do_not_nest():
    tracer = spans.Tracer()
    with tracer.operation("commit"):
        with pytest.raises(RuntimeError):
            with tracer.operation("restore"):
                pass


def test_patch_removes_what_it_added():
    clock, tracer, table = traced_fakes()

    class Child(FakeMap):
        pass

    patch = spans.Patch(Child, "insert", "kokkos.map.insert_or_lookup")
    original = FakeMap.insert
    with spans.installed([patch], tracer):
        assert "insert" in vars(Child)
        assert FakeMap.insert is original
    assert "insert" not in vars(Child)
    missing = spans.Patch(Child, "no_such_method", "x")
    with spans.installed([missing], tracer):
        assert not missing.installed


# ----------------------------------------------------------------------
# Workload schedules and the metric declarations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_restore_targets_lie_in_chains_that_never_restart(name):
    w = WORKLOADS[name]
    assert w.restart_rank(w.rounds) is None
    restarted = {w.restart_rank(r) for r in range(1, w.rounds + 1)} - {None}
    for rank in range(w.ranks):
        targets = w.restore_targets(rank)
        if rank in restarted:
            assert targets == []
        else:
            assert len(targets) == len(w.restore_fractions)
            assert all(1 <= k <= w.rounds for k in targets)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == {k: unit for k, (unit, _) in run.END_TO_END.items()}
    layered = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layered == {k: unit for k, (unit, _) in run.PER_LAYER.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_every_layer_entry_point_exists():
    import layers

    assert layers.missing(layers.patches()) == []


def test_layer_patches_leave_the_program_as_found():
    import layers
    from repro.core import dedup_tree
    from repro.kokkos.unordered_map import DigestMap

    before = (dedup_tree.hash_chunks, DigestMap.insert, vars(dedup_tree.TreeDedup).get("checkpoint"))
    with spans.installed(layers.patches(), spans.Tracer()):
        assert dedup_tree.hash_chunks is not before[0]
    after = (dedup_tree.hash_chunks, DigestMap.insert, vars(dedup_tree.TreeDedup).get("checkpoint"))
    assert after == before
