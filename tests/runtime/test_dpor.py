"""Dynamic partial-order reduction: soundness, shrinking, footprints.

The core soundness obligation is Mazurkiewicz-trace equivalence: two
schedules that differ only in the order of *independent* steps reach the
same terminal state, so exploring one representative per trace must
observe exactly the same terminal-state SET as naive enumeration.  These
tests compare the two engines on seeded micro-programs (including one
with a crash plan) where naive enumeration is cheap enough to be the
ground truth.
"""

import pytest

from repro.analysis.metrics import ExplorationMetrics
from repro.memory import ObjectStore
from repro.memory.registers import AtomicRegister, RegisterArray
from repro.runtime import (CounterexampleFound, CrashPlan, ObjectProxy,
                           explore, explore_dpor, replay_schedule,
                           shrink_schedule)
from repro.runtime.ops import (EMPTY_FOOTPRINT, WHOLE, Footprint, conflicts)
from repro.scenarios import check_scenarios


# ---------------------------------------------------------------------------
# footprint algebra
# ---------------------------------------------------------------------------

class TestFootprints:
    def test_read_read_is_independent(self):
        a = Footprint.read("r")
        b = Footprint.read("r")
        assert not conflicts(a, b)

    def test_write_conflicts_with_read_same_location(self):
        assert conflicts(Footprint.write("r"), Footprint.read("r"))
        assert conflicts(Footprint.read("r"), Footprint.write("r"))

    def test_write_write_conflicts(self):
        assert conflicts(Footprint.write("r"), Footprint.write("r"))

    def test_distinct_objects_are_independent(self):
        assert not conflicts(Footprint.write("a"), Footprint.write("b"))

    def test_distinct_keys_are_independent(self):
        a = Footprint.write("arr", 0)
        b = Footprint.write("arr", 1)
        assert not conflicts(a, b)

    def test_whole_overlaps_every_key(self):
        snap = Footprint.read("arr", WHOLE)
        cell = Footprint.write("arr", 3)
        assert conflicts(snap, cell)

    def test_tuple_keys_elementwise(self):
        a = Footprint.write("fam", ("k", 0))
        b = Footprint.write("fam", ("k", 1))
        c = Footprint.read("fam", ("k", WHOLE))
        assert not conflicts(a, b)
        assert conflicts(a, c)
        assert conflicts(b, c)

    def test_unknown_footprint_conflicts_conservatively(self):
        assert conflicts(None, EMPTY_FOOTPRINT)
        assert conflicts(Footprint.read("r"), None)

    def test_empty_footprint_commutes_with_everything(self):
        assert not conflicts(EMPTY_FOOTPRINT, Footprint.write("r"))
        assert not conflicts(EMPTY_FOOTPRINT, EMPTY_FOOTPRINT)

    def test_merge_unions_both_sides(self):
        m = Footprint.read("a").merge(Footprint.write("b"))
        assert conflicts(m, Footprint.write("a"))
        assert conflicts(m, Footprint.read("b"))
        assert not m.is_readonly


# ---------------------------------------------------------------------------
# micro-programs: DPOR visits the same terminal states as naive
# ---------------------------------------------------------------------------

def _terminal_states(build, crash_plan_factory=None, max_steps=30,
                     reduction="naive"):
    """Explore and collect the set of distinct terminal states."""
    seen = set()

    def record(result):
        seen.add((frozenset(result.statuses.items()),
                  frozenset(result.decisions.items()),
                  result.deadlocked))

    stats = explore(build, record, crash_plan_factory=crash_plan_factory,
                    max_steps=max_steps, reduction=reduction)
    return seen, stats


def _build_independent_writers():
    """3 processes writing/reading disjoint cells: all steps commute."""
    arr = ObjectProxy("arr")

    def build():
        store = ObjectStore()
        store.add(RegisterArray("arr", 3))

        def prog(pid):
            yield arr.write(pid, pid * 10)
            mine = yield arr.read(pid)
            return mine

        return {i: prog(i) for i in range(3)}, store

    return build


def _build_racing_writers():
    """3 processes racing on one register: order matters."""
    reg = ObjectProxy("reg")

    def build():
        store = ObjectStore()
        store.add(AtomicRegister("reg", 0))

        def prog(pid):
            yield reg.write(pid)
            final = yield reg.read()
            return final

        return {i: prog(i) for i in range(3)}, store

    return build


def _build_crashy_race():
    """2 writers + a crash of p0: crash timing is part of the state."""
    reg = ObjectProxy("reg")

    def build():
        store = ObjectStore()
        store.add(AtomicRegister("reg", "init"))

        def prog(pid):
            yield reg.write(f"w{pid}")
            seen = yield reg.read()
            return seen

        return {i: prog(i) for i in range(2)}, store

    return build, (lambda: CrashPlan.at_own_step({0: 2}))


class TestDporMatchesNaive:
    def test_independent_writers_collapse_to_one_run(self):
        build = _build_independent_writers()
        naive_states, naive_stats = _terminal_states(build)
        dpor_states, dpor_stats = _terminal_states(build, reduction="dpor")
        assert dpor_states == naive_states
        assert len(dpor_states) == 1
        # Every interleaving is equivalent: one representative suffices.
        assert dpor_stats.complete_runs == 1
        assert dpor_stats.complete_runs < naive_stats.complete_runs
        assert dpor_stats.pruned_runs > 0

    def test_racing_writers_same_terminal_states(self):
        build = _build_racing_writers()
        naive_states, naive_stats = _terminal_states(build)
        dpor_states, dpor_stats = _terminal_states(build, reduction="dpor")
        assert dpor_states == naive_states
        # The race is real: more than one distinct outcome survives.
        assert len(dpor_states) > 1
        assert dpor_stats.complete_runs <= naive_stats.complete_runs

    def test_crash_plan_same_terminal_states(self):
        build, plan = _build_crashy_race()
        naive_states, _ = _terminal_states(build, crash_plan_factory=plan)
        dpor_states, _ = _terminal_states(build, crash_plan_factory=plan,
                                          reduction="dpor")
        assert dpor_states == naive_states

    def test_explore_rejects_unknown_reduction(self):
        build = _build_independent_writers()
        with pytest.raises(ValueError, match="unknown reduction"):
            explore(build, lambda r: None, reduction="magic")


# ---------------------------------------------------------------------------
# naive run counts on the scenario registry
# ---------------------------------------------------------------------------

#: (scenario, n, (complete, truncated, max depth)) of naive exploration:
#: DPOR's ground truth, pinned so a drift in the naive engine shows.
NAIVE_PINS = [
    ("safe-agreement", 2, (98, 0, 9)),
    ("adopt-commit", 2, (70, 0, 8)),
    ("x-safe-agreement", 2, (16, 0, 7)),
    ("queue-2cons", 2, (6, 0, 5)),
    pytest.param("x-safe-agreement", 3, (30_328, 0, 14),
                 marks=pytest.mark.exhaustive),
]


def _naive_stats(name, n, metrics=None):
    sc = check_scenarios(n=n)[name]
    return explore(sc.build, sc.check,
                   crash_plan_factory=sc.crash_plan_factory,
                   max_steps=sc.max_steps, reduction="naive",
                   metrics=metrics)


class TestNaivePins:
    @pytest.mark.parametrize("name,n,expected", NAIVE_PINS)
    def test_run_counts(self, name, n, expected):
        stats = _naive_stats(name, n)
        assert (stats.complete_runs, stats.truncated_runs,
                stats.max_depth_seen) == expected

    def test_peak_frontier(self):
        # Prefixes pushed but not yet visited, at their most.
        metrics = ExplorationMetrics(scenario="safe-agreement",
                                     engine="naive")
        _naive_stats("safe-agreement", 2, metrics)
        assert metrics.peak_frontier_size == 6
        assert metrics.complete_runs == 98


# ---------------------------------------------------------------------------
# inclusive max_runs bound (the historical off-by-one)
# ---------------------------------------------------------------------------

class TestRunBudget:
    def _exact_run_count(self, build):
        stats = explore(build, lambda r: None, max_steps=30)
        return stats.total_runs

    def test_budget_equal_to_schedule_count_passes(self):
        build = _build_racing_writers()
        count = self._exact_run_count(build)
        stats = explore(build, lambda r: None, max_steps=30,
                        max_runs=count)
        assert stats.total_runs == count

    def test_budget_one_below_schedule_count_raises(self):
        build = _build_racing_writers()
        count = self._exact_run_count(build)
        with pytest.raises(RuntimeError, match="max_runs"):
            explore(build, lambda r: None, max_steps=30,
                    max_runs=count - 1)

    def test_dpor_budget_is_inclusive_too(self):
        build = _build_racing_writers()
        count = explore_dpor(build, lambda r: None,
                             max_steps=30).total_runs
        assert explore_dpor(build, lambda r: None, max_steps=30,
                            max_runs=count).total_runs == count
        with pytest.raises(RuntimeError, match="max_runs"):
            explore_dpor(build, lambda r: None, max_steps=30,
                         max_runs=count - 1)


# ---------------------------------------------------------------------------
# stats rendering
# ---------------------------------------------------------------------------

class TestStats:
    def test_reduction_ratio_without_pruning_is_one(self):
        stats = explore(_build_racing_writers(), lambda r: None,
                        max_steps=30)
        assert stats.pruned_runs == 0
        assert stats.reduction_ratio == 1.0
        assert "pruned" not in str(stats)

    def test_reduction_ratio_with_pruning(self):
        stats = explore_dpor(_build_independent_writers(),
                             lambda r: None, max_steps=30)
        assert 0.0 < stats.reduction_ratio < 1.0
        assert "pruned" in str(stats)


# ---------------------------------------------------------------------------
# counterexample shrinking
# ---------------------------------------------------------------------------

def _build_buggy_handoff():
    """p0 pads then writes a flag; p1 pads then reads it.

    The injected "bug": the check asserts p1 always observes the flag,
    which only holds when p1's read is scheduled after p0's write.
    """
    regs = ObjectProxy("regs")

    def build():
        store = ObjectStore()
        store.add(RegisterArray("regs", 8))

        def writer():
            yield regs.write(1, 0)
            yield regs.write(2, 0)
            yield regs.write(3, 0)
            yield regs.write(0, 1)
            return "done"

        def reader():
            yield regs.write(4, 0)
            yield regs.write(5, 0)
            yield regs.write(6, 0)
            flag = yield regs.read(0)
            return flag

        return {0: writer(), 1: reader()}, store

    return build


def _check_handoff(result):
    assert result.decisions.get(1) == 1, "reader missed the flag"


class TestShrinking:
    def test_explorer_raises_counterexample_found(self):
        with pytest.raises(CounterexampleFound) as info:
            explore_dpor(_build_buggy_handoff(), _check_handoff,
                         max_steps=12)
        ce = info.value.counterexample
        assert info.value.stats is not None
        # Shrunk, replayable, and no longer than the original schedule.
        assert len(ce.prefix) <= len(ce.original_schedule)
        assert len(ce.schedule) <= len(ce.original_schedule)
        assert ce.reproduces()

    def test_shrunk_prefix_is_locally_minimal(self):
        with pytest.raises(CounterexampleFound) as info:
            explore_dpor(_build_buggy_handoff(), _check_handoff,
                         max_steps=12)
        ce = info.value.counterexample
        # The minimal failure needs all four of p1's steps before p0's
        # flag write: prefix [1, 1, 1, 1], completed by p0.
        assert ce.prefix == [1, 1, 1, 1]
        result = replay_schedule(_build_buggy_handoff(), ce.schedule)
        with pytest.raises(AssertionError):
            _check_handoff(result)

    def test_shrink_schedule_direct(self):
        # A deliberately padded failing schedule: p1 runs first but with
        # p0 interleaved harmlessly in between.
        schedule = [0, 1, 0, 1, 0, 1, 1, 0]
        result = replay_schedule(_build_buggy_handoff(), schedule)
        with pytest.raises(AssertionError):
            _check_handoff(result)
        ce = shrink_schedule(_build_buggy_handoff(), _check_handoff,
                             schedule)
        assert len(ce.prefix) <= len(schedule)
        assert ce.prefix == [1, 1, 1, 1]
        assert ce.reproduces()
        assert "prefix" in ce.describe()

    def test_shrink_rejects_passing_schedule(self):
        # p0 completes first: the reader sees the flag, check passes.
        schedule = [0, 0, 0, 0, 1, 1, 1, 1]
        with pytest.raises(ValueError, match="does not reproduce"):
            shrink_schedule(_build_buggy_handoff(), _check_handoff,
                            schedule)

    def test_shrinking_can_be_disabled(self):
        with pytest.raises(CounterexampleFound) as info:
            explore_dpor(_build_buggy_handoff(), _check_handoff,
                         max_steps=12, shrink=False)
        ce = info.value.counterexample
        assert ce.prefix == ce.original_schedule
        assert ce.reproduces()
