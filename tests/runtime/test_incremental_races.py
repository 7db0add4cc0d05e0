"""Incremental race detection equals the whole-path reference.

A new DPOR node checks only the newest step for a candidate that kept
its pending footprint, and builds the stepping process's clock from
the racers the parent's scan found (``repro.runtime.dpor``'s module
docstring argues why that is exact).  These tests wrap
``dpor._make_node`` and ``dpor._update_backtracks`` and recompute, at
every node, what a scan of the whole path gives:

* the incoming step's clock: its own index joined with the clock of
  every earlier step of the same process or with a conflicting
  footprint;
* the backtrack set of every state on the path after race detection:
  the sets before it, plus a plant for every candidate's every racing
  step (a conflicting step of another process, not in the candidate's
  past);
* each candidate's racers: the indices of those racing steps.

They run on the seeded micro-programs of ``test_dpor.py`` (with and
without a crash plan), on the scenario registry at n=3, serial and
sharded over two fork workers (whose shard-prefix nodes take the
full-scan path), on a program in which a write wakes a stuttering
spinner, so that a candidate the parent did not have is scanned, on
one whose pending footprint changes when another process steps, and
on a crash after a step with an unknown footprint.

The last two tests pin the work itself: the number of conflict queries
on x-safe-agreement n=4 and on the generative sweep's exploring
configurations, so a whole-path scan per candidate cannot come back
unnoticed.
"""

import multiprocessing as mp

import pytest

from repro.generative import execute_config, generate_config
from repro.memory import ObjectStore
from repro.memory.base import SharedObject
from repro.memory.registers import AtomicRegister
from repro.runtime import (CounterexampleFound, CrashPlan, ObjectProxy, dpor,
                           explore, explore_dpor)
from repro.runtime.ops import SPIN_FAILED, Footprint, SpinOp, conflicts
from repro.runtime.parallel import fork_available
from repro.scenarios import check_scenarios

from .test_dpor import (_build_buggy_handoff, _build_crashy_race,
                        _build_independent_writers, _build_racing_writers,
                        _check_handoff)

pytestmark = pytest.mark.exhaustive


def _reference_clock(path, pick, fp):
    """Clock of a step by ``pick`` with footprint ``fp`` taken after the
    steps of ``path``: program order plus conflict order, joined over
    the whole path."""
    index = len(path)
    clock = {}
    for j in range(1, index):
        step = path[j]
        if step.in_pid == pick or conflicts(step.in_fp, fp):
            for q, k in step.in_clock.items():
                clock[q] = max(clock.get(q, 0), k)
    clock[pick] = index
    return clock


def _reference_past(path, p):
    """Clock of ``p``'s last step on ``path`` ({} if it never stepped)."""
    for step in reversed(path[1:]):
        if step.in_pid == p:
            return step.in_clock
    return {}


def _reference_races(path, before):
    """Backtrack sets after a whole-path race check at ``path[-1]``,
    starting from ``before``, and every candidate's racing steps."""
    expected = [set(b) for b in before]
    node = path[-1]
    racing = {}
    for p in node.candidates:
        f_p = node.pending_fps.get(p)
        past = _reference_past(path, p)
        racing[p] = []
        for j in range(1, len(path)):
            step = path[j]
            q = step.in_pid
            if q == p or j <= past.get(q, 0):
                continue
            if conflicts(step.in_fp, f_p):
                racing[p].append(j)
                pre = path[j - 1]
                if p in pre.candidates:
                    if p not in pre.done and p not in pre.sleep:
                        expected[j - 1].add(p)
                else:
                    expected[j - 1].update(pre.candidates)
    return expected, {p: tuple(js) for p, js in racing.items()}


@pytest.fixture
def reference(monkeypatch):
    """Check every node against the reference; count what was checked.

    The counters live in fork-shared memory, so shards run by forked
    pool workers are counted too."""
    ctx = mp.get_context("fork") if fork_available() else mp
    counts = {key: ctx.Value("q", 0)
              for key in ("clocks", "scans", "woken")}
    make_node, update = dpor._make_node, dpor._update_backtracks

    def bump(key):
        with counts[key].get_lock():
            counts[key].value += 1

    def checked_make_node(sysm, parent, pick, fp, path, sleep, conflict):
        node = make_node(sysm, parent, pick, fp, path, sleep, conflict)
        if parent is not None:
            assert node.in_clock == _reference_clock(path, pick, fp), \
                f"clock of step {len(path)} ({pick}) differs"
            bump("clocks")
        return node

    def checked_update(path, conflict):
        node, parent = path[-1], path[-2]
        before = [set(n.backtrack) for n in path]
        expected, racing = _reference_races(path, before)
        if parent.racers is not None and any(
                p != node.in_pid and p not in parent.candidates
                for p in node.candidates):
            bump("woken")
        update(path, conflict)
        assert [n.backtrack for n in path] == expected, \
            f"backtrack sets differ after step {len(path) - 1}"
        assert node.racers == racing
        bump("scans")

    monkeypatch.setattr(dpor, "_make_node", checked_make_node)
    monkeypatch.setattr(dpor, "_update_backtracks", checked_update)
    return counts


def _counts(reference):
    return {key: value.value for key, value in reference.items()}


@pytest.mark.parametrize("build", [_build_independent_writers,
                                   _build_racing_writers])
def test_micro_programs(reference, build):
    stats = explore(build(), lambda result: None, max_steps=30,
                    reduction="dpor")
    assert stats.complete_runs >= 1
    counts = _counts(reference)
    assert counts["clocks"] > 0 and counts["scans"] > 0


def test_micro_program_with_a_crash_plan(reference):
    build, plan = _build_crashy_race()
    explore(build, lambda result: None, crash_plan_factory=plan,
            max_steps=30, reduction="dpor")
    assert _counts(reference)["scans"] > 0


def test_micro_program_with_a_violation(reference):
    with pytest.raises(CounterexampleFound):
        explore_dpor(_build_buggy_handoff(), _check_handoff, max_steps=12)
    assert _counts(reference)["scans"] > 0


def _explore_registry(jobs):
    for sc in check_scenarios(n=3).values():
        try:
            explore(sc.build, sc.check,
                    crash_plan_factory=sc.crash_plan_factory,
                    max_steps=sc.max_steps, max_runs=sc.max_runs,
                    reduction="dpor", jobs=jobs)
        except CounterexampleFound:
            pass  # broken-demo


def test_registry_serial(reference):
    _explore_registry(jobs=None)
    assert _counts(reference)["scans"] > 1000


@pytest.mark.parallel
@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_registry_two_fork_workers(reference):
    _explore_registry(jobs=2)
    assert _counts(reference)["scans"] > 1000


def _build_woken_spinner():
    """p1 spins on register a, then on register b, and so on, until one
    holds 1; p0 writes 0 to b and p2 writes 1 to a.  On the first run p0
    writes b, p1's spin on a fails and p1 stutters until p2's write
    wakes it: p1 is then a candidate its parent state did not have, and
    its pending read of b races with p0's write, not with the newest
    step."""
    a, b = ObjectProxy("a"), ObjectProxy("b")

    def build():
        store = ObjectStore()
        store.add(AtomicRegister("a", 0))
        store.add(AtomicRegister("b", 0))

        def waiter():
            while True:
                for reg in (a, b):
                    seen = yield SpinOp(reg.read(), lambda v: v == 1)
                    if seen is not SPIN_FAILED:
                        return seen

        def writer(reg, value):
            yield reg.write(value)

        return {0: writer(b, 0), 1: waiter(), 2: writer(a, 1)}, store

    return build


def test_a_woken_spinner_is_scanned_in_full(reference):
    stats = explore(_build_woken_spinner(), lambda result: None,
                    max_steps=30, reduction="dpor")
    assert stats.complete_runs >= 1
    assert _counts(reference)["woken"] > 0


class _Indirect(SharedObject):
    """A pointer and two cells: ``read`` reads the cell the pointer
    names, so its footprint depends on the pointer's value."""

    READONLY = frozenset({"read"})
    FOOTPRINT_PURE = False

    def __init__(self, name):
        super().__init__(name)
        self.ptr = 0
        self.cells = {0: 0, 1: 0}

    def op_point(self, pid, k):
        self.ptr = k

    def op_write(self, pid, k, value):
        self.cells[k] = value

    def op_read(self, pid):
        return self.cells[self.ptr]

    def footprint(self, pid, method, args):
        if method == "point":
            return Footprint.write(self.name, "ptr")
        if method == "write":
            return Footprint.write(self.name, f"c{args[0]}")
        return Footprint.read(self.name, "ptr").merge(
            Footprint.read(self.name, f"c{self.ptr}"))


def test_a_footprint_changed_by_another_step_is_scanned_in_full(
        reference):
    """On the first run p0 writes cell 1 and p1 points at it: p2's
    pending read, which did not step, then has a new footprint, racing
    with p0's write as well as with the newest step."""
    ind = ObjectProxy("ind")

    def build():
        store = ObjectStore()
        store.add(_Indirect("ind"))

        def reader():
            return (yield ind.read())

        def pointer():
            yield ind.point(1)

        def writer():
            yield ind.write(1, 5)

        return {0: writer(), 1: pointer(), 2: reader()}, store

    stats = explore(build, lambda result: None, max_steps=30,
                    reduction="dpor")
    assert stats.complete_runs > 1
    assert _counts(reference)["scans"] > 0


class _Opaque(SharedObject):
    """An object that declares no footprint: its steps are unknown and
    conflict with every step, a crash's empty footprint included."""

    def op_touch(self, pid):
        pass

    def footprint(self, pid, method, args):
        return None


def test_a_crash_after_an_unknown_footprint_joins_it(reference):
    """p0 writes, then crashes before its second step; p1 makes one step
    with an unknown footprint.  The crash step executes the empty
    footprint, not the one checked at its parent, so its clock comes
    from a scan, which joins p1's step when p1 stepped first."""
    reg, opaque = ObjectProxy("reg"), ObjectProxy("opaque")

    def build():
        store = ObjectStore()
        store.add(AtomicRegister("reg", 0))
        store.add(_Opaque("opaque"))

        def writer():
            yield reg.write(1)
            return (yield reg.read())

        def toucher():
            yield opaque.touch()

        return {0: writer(), 1: toucher()}, store

    stats = explore(build, lambda result: None,
                    crash_plan_factory=lambda: CrashPlan.at_own_step({0: 1}),
                    max_steps=30, reduction="dpor")
    assert stats.complete_runs > 1
    assert _counts(reference)["clocks"] > 0


# ---------------------------------------------------------------------------
# work pin: a whole-path scan per candidate cannot creep back unnoticed
# ---------------------------------------------------------------------------

#: Conflict queries on the default path.  Whole-path scans at every node
#: asked 473,158 (x-safe-agreement n=4) and 368,780 (the sweep's
#: exploring configurations); incremental race detection asks 68,379
#: and 47,843.
MAX_QUERIES_X_SAFE_N4 = 80_000
MAX_QUERIES_SWEEP = 60_000


@pytest.fixture
def queries(monkeypatch):
    """Count every ``_Footprints.conflicts`` query."""
    count = [0]
    real = dpor._Footprints.conflicts

    def counting(self, a, b):
        count[0] += 1
        return real(self, a, b)

    monkeypatch.setattr(dpor._Footprints, "conflicts", counting)
    return count


def test_conflict_queries_on_x_safe_agreement_n4(queries):
    sc = check_scenarios(n=4)["x-safe-agreement"]
    stats = explore(sc.build, sc.check,
                    crash_plan_factory=sc.crash_plan_factory,
                    max_steps=sc.max_steps, max_runs=sc.max_runs,
                    reduction="dpor")
    assert stats.complete_runs == 3198
    assert 0 < queries[0] <= MAX_QUERIES_X_SAFE_N4


def test_conflict_queries_on_the_sweep(queries):
    explored = 0
    for i in range(250):
        cfg = generate_config(7, i)
        if cfg.explorable:
            execute_config(cfg)
            explored += 1
    assert explored > 0
    assert 0 < queries[0] <= MAX_QUERIES_SWEEP
