"""The memoised conflict relation agrees with ``ops.conflicts``.

DPOR's race checks (``_make_node``, ``_update_backtracks``, the sleep-set
filter, the state cache's ``_plants_are_noops`` and frontier expansion)
ask :meth:`repro.runtime.dpor._Footprints.conflicts`, which memoises
:func:`repro.runtime.ops.conflicts` on the ids of interned footprints.
These tests record every pair the explorer asks about -- on the registry
scenarios, on the sweep's explorable configurations and on a program
whose operation arguments are unhashable (so its footprints skip the
derivation memo and are derived fresh at every step) -- and check each
answer against ``ops.conflicts`` (whose ``_keys_overlap`` stays the
definition) in both argument orders.  They also pin that the default
path explores x-safe-agreement n=4 identically, run after run, and
exactly as ``perfbench/pinned.json`` records it.
"""

import json
import os

import pytest

import repro
from repro.analysis.metrics import ExplorationMetrics, deterministic_view
from repro.generative import execute_config, generate_config
from repro.memory import ObjectStore
from repro.memory.registers import RegisterArray
from repro.runtime import (CounterexampleFound, ExplorationInterrupted,
                           ObjectProxy, explore)
from repro.runtime.dpor import _Footprints
from repro.runtime.ops import conflicts
from repro.runtime.parallel import explore_parallel
from repro.scenarios import check_scenarios

pytestmark = pytest.mark.exhaustive

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(repro.__file__))))

#: The memo itself, captured before the fixture wraps it.
MEMO = _Footprints.conflicts

#: Run budget for the n=4 registry slices: DPOR order is deterministic,
#: so the first runs of a tree are a fixed sample of its pairs.
N4_SLICE_RUNS = 2_000


@pytest.fixture
def asked(monkeypatch):
    """Record ``(a, b, answer)`` for every conflict query, by value, and
    check at query time that both operands are interned (or None)."""
    seen = set()
    real = _Footprints.conflicts

    def recording(self, a, b):
        for fp in (a, b):
            assert fp is None or self.interned.get(fp) is fp, \
                f"conflict query on a footprint that is not interned: {fp}"
        answer = real(self, a, b)
        seen.add((a, b, answer))
        return answer

    monkeypatch.setattr(_Footprints, "conflicts", recording)
    return seen


def _assert_oracle(seen):
    """Every recorded answer equals ``ops.conflicts`` in both orders,
    and a fresh table agrees on every pair in both orders."""
    assert seen, "no conflict queries were recorded"
    table = _Footprints()
    for a, b, answer in seen:
        assert answer == conflicts(a, b) == conflicts(b, a), (a, b)
        ia, ib = table.intern(a), table.intern(b)
        assert MEMO(table, ia, ib) == MEMO(table, ib, ia) == answer
    assert {answer for _, _, answer in seen} == {True, False}


def _explore(sc, max_runs=None):
    try:
        explore(sc.build, sc.check,
                crash_plan_factory=sc.crash_plan_factory,
                max_steps=sc.max_steps,
                max_runs=sc.max_runs if max_runs is None else max_runs,
                reduction="dpor")
    except (CounterexampleFound, ExplorationInterrupted):
        pass  # broken-demo's violation and the n=4 slices end here


def test_registry_pairs_match_the_oracle(asked):
    for sc in check_scenarios(n=3).values():
        _explore(sc)
    for sc in check_scenarios(n=4).values():
        _explore(sc, max_runs=min(sc.max_runs, N4_SLICE_RUNS))
    _assert_oracle(asked)


def test_frontier_expansion_pairs_match_the_oracle(asked):
    sc = check_scenarios(n=3)["adopt-commit"]
    explore_parallel(sc.build, sc.check,
                     crash_plan_factory=sc.crash_plan_factory,
                     max_steps=sc.max_steps, max_runs=sc.max_runs,
                     jobs=1, reduction="dpor")
    _assert_oracle(asked)


def test_sweep_pairs_match_the_oracle(asked):
    explored = 0
    for i in range(250):
        cfg = generate_config(7, i)
        if cfg.explorable:
            execute_config(cfg)
            explored += 1
    assert explored > 0
    _assert_oracle(asked)


def _build_dict_writers():
    """Three processes publishing dicts into a register array: every
    write's arguments are unhashable, so its footprint is derived fresh
    at every step instead of coming from the derivation memo."""
    arr = ObjectProxy("arr")

    def build():
        store = ObjectStore()
        store.add(RegisterArray("arr", 3))

        def prog(pid):
            yield arr.write(pid, {"round": 0, "pid": pid})
            seen = yield arr.read((pid + 1) % 3)
            yield arr.write(pid, {"round": 1, "seen": seen})
            return pid

        return {i: prog(i) for i in range(3)}, store

    return build


def test_unhashable_args_pairs_match_the_oracle(asked, monkeypatch):
    derived_fresh = []
    real = ObjectStore.footprint

    def counting(self, pid, inv):
        derived_fresh.append(inv)
        return real(self, pid, inv)

    monkeypatch.setattr(ObjectStore, "footprint", counting)
    stats = explore(_build_dict_writers(), lambda result: None,
                    max_steps=30, reduction="dpor")
    assert stats.complete_runs > 1
    assert derived_fresh, "the unhashable-args path was not exercised"
    _assert_oracle(asked)


def _default_view(sc):
    metrics = ExplorationMetrics(scenario=sc.name, engine="dpor")
    explore(sc.build, sc.check, crash_plan_factory=sc.crash_plan_factory,
            max_steps=sc.max_steps, max_runs=sc.max_runs,
            reduction="dpor", metrics=metrics)
    return deterministic_view(metrics.to_dict())


def test_default_path_is_reproducible_and_matches_the_pinned_view():
    sc = check_scenarios(n=4)["x-safe-agreement"]
    first, second = _default_view(sc), _default_view(sc)
    assert first == second
    with open(os.path.join(REPO_ROOT, "perfbench", "pinned.json")) as fh:
        pinned = json.load(fh)["serial"]["x-safe-agreement/4"]
    assert first == pinned
