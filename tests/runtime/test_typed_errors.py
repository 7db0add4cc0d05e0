"""Typed exploration outcomes: budgets interrupt, failures are errors.

A shard that fails on every attempt raises ``ShardFailed`` and a replay
that does not reproduce its recording raises ``ReplayDivergence``;
neither is an ``ExplorationInterrupted`` (a budget), so the CLI never
reports one as the other.  Every engine collects its violation and
raises it through one helper, which replays it first: a violation that
does not recur, or a build that does not repeat itself, is a
``ReplayDivergence`` in every engine.
"""

import pickle

import pytest

from repro.mutants import nondeterministic_scenario
from repro.runtime import (CounterexampleFound, ExplorationInterrupted,
                           ExplorationStats, ReplayDivergence, ShardFailed,
                           ShardViolation, execute_shard, explore,
                           explore_parallel, replay_schedule)
from repro.scenarios import build_scenario

#: Serial DPOR, the naive engine, and the sharded engine at ``jobs=1``.
ENGINES = [pytest.param({"reduction": "dpor"}, id="dpor"),
           pytest.param({"reduction": "naive"}, id="naive"),
           pytest.param({"reduction": "dpor", "jobs": 1}, id="jobs1")]


def _fails_on_first_call_only(check):
    """``check``, except that its first call fails whatever it sees."""
    calls = []

    def flaky(result):
        calls.append(result)
        if len(calls) == 1:
            raise AssertionError("fails on the first call only")
        check(result)
    return flaky


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


class TestOneWayOut:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_non_recurring_violation_raises_replay_divergence(self,
                                                              engine):
        sc = build_scenario("queue-2cons")
        with pytest.raises(ReplayDivergence, match="did not recur"):
            explore(sc.build, _fails_on_first_call_only(sc.check),
                    max_steps=sc.max_steps, **engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_alternating_build_raises_replay_divergence(self, engine):
        build, check = nondeterministic_scenario()
        with pytest.raises(ReplayDivergence, match="diverged"):
            explore(build, check, max_steps=12, **engine)

    def test_serial_counterexample_carries_the_collected_violation(self):
        sc = build_scenario("broken-demo")
        with pytest.raises(CounterexampleFound) as excinfo:
            explore(sc.build, sc.check, max_steps=sc.max_steps,
                    reduction="dpor")
        found = excinfo.value
        violation = found.stats.violation
        assert isinstance(violation, ShardViolation)
        assert violation.order_key == ()
        assert list(violation.schedule) == \
            found.counterexample.original_schedule
        assert violation.error_type == \
            type(found.counterexample.error).__name__

    def test_sharded_naive_raises_the_checks_own_error(self):
        sc = build_scenario("broken-demo")
        raised = []

        def check(result):
            try:
                sc.check(result)
            except AssertionError as exc:
                raised.append(exc)
                raise
        with pytest.raises(AssertionError) as excinfo:
            explore(sc.build, check, max_steps=sc.max_steps,
                    reduction="naive", jobs=1)
        assert not isinstance(excinfo.value, CounterexampleFound)
        assert excinfo.value is raised[-1]
