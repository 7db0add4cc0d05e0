"""Typed exploration outcomes: budgets interrupt, failures are errors.

A shard that fails on every attempt raises ``ShardFailed`` and a replay
that does not reproduce its recording raises ``ReplayDivergence``;
neither is an ``ExplorationInterrupted`` (a budget), so the CLI never
reports one as the other.
"""

import pickle

import pytest

from repro.runtime import (ExplorationInterrupted, ExplorationStats,
                           ReplayDivergence, ShardFailed, execute_shard,
                           explore_parallel, replay_schedule)
from repro.scenarios import build_scenario


class TestTypedErrors:
    def test_errors_are_runtime_errors_but_not_budgets(self):
        for error in (ShardFailed, ReplayDivergence):
            assert issubclass(error, RuntimeError)
            assert not issubclass(error, ExplorationInterrupted)

    def test_shard_failing_everywhere_raises_shard_failed(self):
        sc = build_scenario("adopt-commit")
        with pytest.raises(ShardFailed,
                           match="parallel exploration failed on shard 0"):
            explore_parallel(sc.build, sc.check, max_steps=sc.max_steps,
                             jobs=1, fault_plan={0: "raise"})

    @pytest.mark.parametrize("reduction", ["dpor", "naive"])
    def test_diverged_shard_prefix_raises_replay_divergence(self,
                                                            reduction):
        sc = build_scenario("queue-2cons")
        with pytest.raises(ReplayDivergence, match="prefix diverged"):
            execute_shard(sc.build, sc.check, prefix=(7,),
                          sleep=frozenset(), max_steps=sc.max_steps,
                          reduction=reduction)

    def test_unterminated_replay_raises_replay_divergence(self):
        sc = build_scenario("queue-2cons")
        with pytest.raises(ReplayDivergence, match="terminal state"):
            replay_schedule(sc.build, [], max_steps=1)

    def test_interruption_survives_pickling(self):
        # Audit workers ship a budget interruption back as a value.
        stats = ExplorationStats(complete_runs=3)
        exc = pickle.loads(pickle.dumps(
            ExplorationInterrupted("max_steps", "budget", stats)))
        assert (exc.reason, str(exc), exc.stats) == \
            ("max_steps", "budget", stats)
