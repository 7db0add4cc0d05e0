"""DPOR schedule-space reduction on the paper's agreement objects.

Naive exhaustive exploration enumerates every interleaving --
O(branching^depth) runs.  Dynamic partial-order reduction
explores one representative per Mazurkiewicz trace (schedules equivalent
up to commuting independent steps).  Reproduced claims:

* soundness: naive and DPOR observe exactly the same set of terminal
  states (statuses + decisions) on every configuration both can finish;
* the reduction: on 3-process safe-agreement DPOR explores well under
  25% of naive's schedules (measured: ~1.4%).

The headline naive measurement (3-process safe-agreement, ~219k runs)
takes about 35 seconds (2-vCPU Intel Xeon VM, CPython 3.11.7), so the
full report regeneration is marked ``slow``; the committed
``results/dpor_reduction.txt`` embeds the numbers.
"""

import json
import os

import pytest

from repro.runtime import explore
from repro.scenarios import check_scenarios

from .harness import RESULTS_DIR, header, write_report

#: Column header of the results table; committed rows follow it.
TABLE_HEADER = (f"{'scenario':<38} {'naive':>8} {'dpor':>7} "
                f"{'ratio':>7} {'states':>7}")


def _terminal_states(sc, reduction, max_runs=500_000):
    seen = set()

    def record(result):
        sc.check(result)
        seen.add((frozenset(result.statuses.items()),
                  frozenset(result.decisions.items()),
                  result.deadlocked))

    stats = explore(sc.build, record,
                    crash_plan_factory=sc.crash_plan_factory,
                    max_steps=sc.max_steps, max_runs=max_runs,
                    reduction=reduction)
    return seen, stats


def _compare(sc):
    """(naive_states, naive_stats, dpor_states, dpor_stats) for one
    scenario; asserts the terminal-state sets agree."""
    naive_states, naive_stats = _terminal_states(sc, "naive")
    dpor_states, dpor_stats = _terminal_states(sc, "dpor")
    assert dpor_states == naive_states, sc.name
    return naive_states, naive_stats, dpor_states, dpor_stats


def _committed_totals():
    """{scenario: (naive runs, dpor runs)} of the committed table."""
    with open(os.path.join(RESULTS_DIR, "dpor_reduction.json")) as fh:
        lines = json.load(fh)["data"]["lines"]
    totals = {}
    for line in lines[lines.index(TABLE_HEADER) + 1:]:
        if not line:
            break
        naive, dpor = line[38:].split()[:2]
        totals[line[:38].strip()] = (int(naive), int(dpor))
    return totals


def test_dpor_bench(benchmark):
    """Time one full DPOR sweep of 3-process adopt-commit."""
    sc = check_scenarios(n=3)["adopt-commit"]
    stats = benchmark(lambda: _terminal_states(sc, "dpor")[1])
    assert stats.complete_runs > 0
    assert stats.pruned_runs > 0


def test_dpor_acceptance_fast():
    """The cheap half of the acceptance bar, suitable for every run.

    Terminal-state equality is checked against naive ground truth on
    2-process safe-agreement; the n=3 reduction bound uses DPOR's own
    pruning counter (a lower bound on the saving, no naive run needed).
    """
    sc2 = check_scenarios(n=2)["safe-agreement"]
    _, naive_stats, _, dpor_stats = _compare(sc2)
    assert dpor_stats.complete_runs < naive_stats.complete_runs

    sc3 = check_scenarios(n=3)["safe-agreement"]
    _, stats3 = _terminal_states(sc3, "dpor")
    assert stats3.reduction_ratio <= 0.25


@pytest.mark.slow
def test_dpor_reduction_report():
    """Full naive-vs-DPOR comparison; regenerates the results table.

    The fresh naive and DPOR run totals must equal the committed
    table's before it is overwritten: both engines are deterministic,
    so any difference is a behaviour change, never noise.

    The 3-process safe-agreement naive sweep alone explores ~219k
    schedules (about 35 seconds on a 2-vCPU Intel Xeon VM, CPython
    3.11.7).
    """
    scenarios = {
        "safe-agreement (n=2)": check_scenarios(n=2)["safe-agreement"],
        "safe-agreement (n=3)": check_scenarios(n=3)["safe-agreement"],
        "adopt-commit (n=3)": check_scenarios(n=3)["adopt-commit"],
        "x-safe-agreement (n=3, x=2, 1 crash)":
            check_scenarios(n=3, x=2)["x-safe-agreement"],
        "queue-2cons (n=2)": check_scenarios()["queue-2cons"],
    }
    lines = header(
        "Dynamic partial-order reduction: schedules explored, "
        "naive vs DPOR",
        "Both engines check the same safety property on every complete",
        "run and must observe identical terminal-state sets ('states').",
        "ratio = dpor / naive runs; the acceptance bar for 3-process",
        "safe-agreement is <= 0.25.")
    lines.append(TABLE_HEADER)
    table = []
    for label, sc in scenarios.items():
        states, naive_stats, _, dpor_stats = _compare(sc)
        ratio = dpor_stats.total_runs / naive_stats.total_runs
        table.append({"scenario": label,
                      "naive_runs": naive_stats.total_runs,
                      "dpor_runs": dpor_stats.total_runs,
                      "ratio": ratio, "states": len(states)})
        lines.append(f"{label:<38} {naive_stats.total_runs:>8} "
                     f"{dpor_stats.total_runs:>7} {ratio:>7.4f} "
                     f"{len(states):>7}")
        if "safe-agreement (n=3)" == label:
            assert ratio <= 0.25, f"reduction bar missed: {ratio}"
    fresh = {row["scenario"]: (row["naive_runs"], row["dpor_runs"])
             for row in table}
    committed = _committed_totals()
    assert fresh == committed, (
        f"run totals differ from the committed table; fresh "
        f"(naive, dpor): {fresh}, committed: {committed}")
    lines.append("")
    lines.append("DPOR's own pruned-branch counters (lower bounds on "
                 "the saving):")
    for label, sc in scenarios.items():
        _, stats = _terminal_states(sc, "dpor")
        lines.append(f"  {label:<36} {stats}")
    path = write_report("dpor_reduction", lines, data={"table": table})
    assert path.endswith("dpor_reduction.txt")
