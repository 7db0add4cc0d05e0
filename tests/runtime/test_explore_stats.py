"""``ExplorationStats``: the deterministic shard-combining rule, and
which fields equality compares."""

import dataclasses
import itertools

import pytest

from repro.analysis.metrics import TIMING_KEYS, ExplorationMetrics
from repro.runtime import ExplorationStats, ShardViolation

#: Every count of the record (all fields but ``violation``).
COUNTS = [f.name for f in dataclasses.fields(ExplorationStats)
          if f.name != "violation"]


def _viol(order_key, schedule=None, message="AssertionError: boom"):
    return ShardViolation(order_key=tuple(order_key),
                          schedule=tuple(schedule or order_key),
                          message=message)


class TestMergeCounts:
    def test_empty_plus_empty(self):
        merged = ExplorationStats().merge(ExplorationStats())
        assert merged == ExplorationStats()

    def test_empty_is_identity(self):
        stats = ExplorationStats(complete_runs=7, truncated_runs=2,
                                 max_depth_seen=9, pruned_runs=4)
        assert ExplorationStats().merge(stats) == stats
        assert stats.merge(ExplorationStats()) == stats

    def test_disjoint_counts_add(self):
        a = ExplorationStats(complete_runs=3, truncated_runs=1,
                             max_depth_seen=5, pruned_runs=2)
        b = ExplorationStats(complete_runs=10, truncated_runs=0,
                             max_depth_seen=8, pruned_runs=1)
        merged = a.merge(b)
        assert merged.complete_runs == 13
        assert merged.truncated_runs == 1
        assert merged.max_depth_seen == 8  # watermark, not a sum
        assert merged.pruned_runs == 3
        assert merged.total_runs == 14
        assert merged.violation is None

    def test_sleep_set_and_cache_counts_add_frontier_takes_max(self):
        a = ExplorationStats(sleep_checks=10, sleep_hits=3,
                             peak_frontier=64, cache_hits=2,
                             cache_skipped_runs=9)
        b = ExplorationStats(sleep_checks=5, sleep_hits=1,
                             peak_frontier=7, cache_hits=1,
                             cache_skipped_runs=4)
        for merged in (a.merge(b), b.merge(a)):
            assert merged.sleep_checks == 15
            assert merged.sleep_hits == 4
            assert merged.peak_frontier == 64  # watermark, not a sum
            assert merged.cache_hits == 3
            assert merged.cache_skipped_runs == 13

    def test_operands_not_mutated(self):
        a = ExplorationStats(complete_runs=1)
        b = ExplorationStats(complete_runs=2, violation=_viol((0,)))
        a.merge(b)
        assert a.complete_runs == 1 and a.violation is None
        assert b.complete_runs == 2 and b.violation is not None


class TestMergeViolations:
    def test_one_sided_violation_survives(self):
        v = _viol((1, 0))
        assert ExplorationStats(violation=v).merge(
            ExplorationStats()).violation == v
        assert ExplorationStats().merge(
            ExplorationStats(violation=v)).violation == v

    def test_both_sides_first_by_prefix_order_wins(self):
        early = _viol((0, 1), message="early")
        late = _viol((1, 0), message="late")
        assert ExplorationStats(violation=early).merge(
            ExplorationStats(violation=late)).violation == early
        # ... and in the other merge order too: worker timing must not
        # decide which counterexample the coordinator reports.
        assert ExplorationStats(violation=late).merge(
            ExplorationStats(violation=early)).violation == early

    def test_prefix_order_is_lexicographic_not_length(self):
        shallow = _viol((0, 1))          # shard rooted higher in the tree
        deep = _viol((0, 0, 5))          # longer but lexicographically first
        merged = ExplorationStats(violation=shallow).merge(
            ExplorationStats(violation=deep))
        assert merged.violation == deep

    def test_equal_keys_left_operand_wins(self):
        a = _viol((2,), message="a")
        b = _viol((2,), message="b")
        assert ExplorationStats(violation=a).merge(
            ExplorationStats(violation=b)).violation == a

    def test_fold_order_independence(self):
        shards = [
            ExplorationStats(complete_runs=1, violation=_viol((3,))),
            ExplorationStats(complete_runs=2),
            ExplorationStats(complete_runs=4, violation=_viol((1, 2))),
            ExplorationStats(truncated_runs=1, violation=_viol((1, 1))),
        ]
        results = set()
        for perm in itertools.permutations(shards):
            merged = ExplorationStats()
            for shard in perm:
                merged = merged.merge(shard)
            results.add((merged.total_runs, merged.violation.order_key))
        assert results == {(8, (1, 1))}


def _moved_metrics_keys(field):
    """The metrics-record keys that raising ``field`` alone moves."""
    def record(stats):
        metrics = ExplorationMetrics(scenario="s")
        metrics.record_stats(stats)
        return metrics.finalize(wall_seconds=1.0).to_dict()

    # Nonzero runs and checks, so the derived ratios are defined.
    base = ExplorationStats(complete_runs=5, sleep_checks=5)
    moved = dataclasses.replace(base, **{field: getattr(base, field) + 2})
    before, after = record(base), record(moved)
    return {key for key in before if before[key] != after[key]}


class TestEquality:
    @pytest.mark.parametrize("field", COUNTS)
    def test_ignores_exactly_what_the_metrics_view_strips(self, field):
        # A count is compared unless every metrics key it feeds is in
        # TIMING_KEYS, i.e. stripped by deterministic_view: stats
        # equality and the deterministic metrics view agree on what
        # counts as the exploration's content.
        moved = _moved_metrics_keys(field)
        assert moved, f"record_stats does not copy {field}"
        compared = {f.name: f.compare for f in
                    dataclasses.fields(ExplorationStats)}[field]
        assert compared == (not moved <= TIMING_KEYS), (field, moved)
        differs = ExplorationStats(**{field: 1}) != ExplorationStats()
        assert differs == compared

    def test_cache_counts_are_the_uncompared_ones(self):
        assert [f.name for f in dataclasses.fields(ExplorationStats)
                if not f.compare] == ["cache_hits", "cache_skipped_runs"]

    def test_violation_is_compared(self):
        assert ExplorationStats(violation=_viol((0,))) \
            != ExplorationStats()
