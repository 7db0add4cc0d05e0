"""Hot-path acceleration: the DPOR state cache on x-safe-agreement.

The prefix-equivalence state cache (``docs/performance.md``, off by
default, enabled by ``state_cache=True``) lets DPOR recognise
already-expanded states by canonical fingerprint and fold the redundant
subtree instead of re-executing it.  This bench measures what that buys
on the paper's own object -- Figure 6 x-safe-agreement under one
mid-propose crash -- at n=3 and n=4:

* *executed runs*: schedules actually replayed (``total_runs`` minus
  ``cache_skipped_runs``).  This is the quantity the cache exists to
  shrink, and the acceptance bar: >= 10x fewer executed runs at n=4.
* *executed steps and DPOR nodes*: scheduler steps actually executed
  (prefix replays included) and search nodes built.  These are the
  work a run costs, and a folded leaf saves almost none of it: every
  hit lands deep in the tree, so the cache cuts runs far more than
  steps or nodes.
* *wall clock and runs/sec*: reported as measured.  Fingerprinting a
  state costs canonicalisation work at every node, which at these sizes
  outweighs the few steps a hit saves -- the reason the cache is off by
  default.

Steps and nodes are counted in a second, instrumented run of each mode,
so the timed runs carry no counting overhead.  Both modes must agree on
``ExplorationStats`` bit-for-bit -- the same guarantee the ``cache``
test tier (``pytest -m cache``) locks down on every registry scenario.
"""

from contextlib import contextmanager
from time import perf_counter

from repro.analysis.metrics import ExplorationMetrics
from repro.runtime import dpor, explore
from repro.scenarios import build_scenario

from .harness import header, write_report

#: Acceptance bar: executed-run reduction at the n=4 size.
MIN_EXECUTED_RUN_REDUCTION = 10.0


@contextmanager
def _counting():
    """Count executed scheduler steps and DPOR nodes while active."""
    counts = {"steps": 0, "nodes": 0}
    execute, make_node = dpor._System.execute, dpor._make_node

    def counted_execute(self, pid):
        counts["steps"] += 1
        return execute(self, pid)

    def counted_make_node(*args):
        counts["nodes"] += 1
        return make_node(*args)

    dpor._System.execute, dpor._make_node = \
        counted_execute, counted_make_node
    try:
        yield counts
    finally:
        dpor._System.execute, dpor._make_node = execute, make_node


def _work(n, state_cache):
    """(executed steps, DPOR nodes) of one instrumented sweep."""
    with _counting() as counts:
        _sweep(n, state_cache)
    return counts["steps"], counts["nodes"]


def _sweep(n, state_cache):
    """One full DPOR sweep; returns (stats, executed_runs, seconds)."""
    sc = build_scenario("x-safe-agreement", n=n, x=2)
    metrics = ExplorationMetrics(scenario=sc.name, engine="dpor")
    start = perf_counter()
    stats = explore(sc.build, sc.check,
                    crash_plan_factory=sc.crash_plan_factory,
                    max_steps=sc.max_steps, max_runs=sc.max_runs,
                    reduction="dpor", state_cache=state_cache,
                    metrics=metrics)
    elapsed = perf_counter() - start
    executed = stats.total_runs - metrics.cache_skipped_runs
    return stats, executed, elapsed


def test_hot_path_bench(benchmark):
    """Time the cached n=3 sweep (the ``state_cache=True`` path)."""
    stats = benchmark(lambda: _sweep(3, state_cache=True)[0])
    assert stats.complete_runs > 0


def test_hot_path_report():
    """Cache-on vs cache-off at n=3 and n=4; regenerates the table."""
    rows = []
    for n in (3, 4):
        off_stats, off_executed, off_secs = _sweep(n, state_cache=False)
        on_stats, on_executed, on_secs = _sweep(n, state_cache=True)
        assert on_stats == off_stats, \
            f"n={n}: cache changed the merged statistics"
        assert off_executed == off_stats.total_runs
        rows.append((n, off_stats,
                     (off_executed, *_work(n, False), off_secs),
                     (on_executed, *_work(n, True), on_secs)))

    lines = header(
        "DPOR state-cache hot path: x-safe-agreement (x=2, 1 crash)",
        "Executed runs = schedules actually replayed (cache-on folds",
        "the rest as proven-equivalent subtrees); steps = scheduler",
        "steps executed, prefix replays included; nodes = DPOR search",
        "nodes built.  ExplorationStats are asserted identical between",
        "modes; wall clock is reported as measured.")
    lines.append(f"{'n':>3} {'mode':>4} {'total_runs':>11} "
                 f"{'exec_runs':>9} {'steps':>8} {'nodes':>7} "
                 f"{'seconds':>8} {'runs/s':>7}")
    series = []
    for n, stats, off, on in rows:
        ratio = off[0] / on[0] if on[0] else float("inf")
        entry = {"n": n, "total_runs": stats.total_runs,
                 "executed_run_reduction": ratio}
        for mode, (runs, steps, nodes, secs) in (("off", off), ("on", on)):
            entry.update({f"executed_runs_{mode}": runs,
                          f"executed_steps_{mode}": steps,
                          f"dpor_nodes_{mode}": nodes,
                          f"seconds_{mode}": secs})
            rate = stats.total_runs / secs if secs > 0 else 0.0
            lines.append(f"{n:>3} {mode:>4} {stats.total_runs:>11} "
                         f"{runs:>9} {steps:>8} {nodes:>7} "
                         f"{secs:>8.2f} {rate:>7.0f}")
        lines.append(f"{n:>3} cache on: {ratio:.1f}x fewer executed runs, "
                     f"{100 * (1 - on[1] / off[1]):.1f}% fewer steps, "
                     f"{100 * (1 - on[2] / off[2]):.1f}% fewer nodes, "
                     f"{on[3] / off[3]:.2f}x the wall clock")
        series.append(entry)
        if n == 4:
            assert ratio >= MIN_EXECUTED_RUN_REDUCTION, \
                (f"n=4 executed-run reduction "
                 f"{ratio:.1f}x < {MIN_EXECUTED_RUN_REDUCTION}x")
    path = write_report("hot_path", lines,
                        data={"min_executed_run_reduction":
                              MIN_EXECUTED_RUN_REDUCTION,
                              "series": series})
    assert path.endswith("hot_path.txt")
