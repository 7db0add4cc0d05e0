"""The ``python -m repro`` command-line interface."""

import os

import pytest

from repro.__main__ import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT_FIXTURE = os.path.join(REPO_ROOT, "tests", "lint", "fixtures",
                            "broken_protocol.py")


class TestCLI:
    def test_classes(self, capsys):
        assert main(["classes", "12", "8"]) == 0
        out = capsys.readouterr().out
        assert "ASM(n, 4, 1)" in out
        assert "9 <= x <= 12" in out

    def test_band(self, capsys):
        assert main(["band", "2", "3"]) == 0
        assert "6 <= t' <= 8" in capsys.readouterr().out

    def test_solve_possible_runs_construction(self, capsys):
        assert main(["solve", "5", "3", "2", "2"]) == 0
        out = capsys.readouterr().out
        assert "SOLVABLE" in out
        assert "task verdict: ok" in out

    def test_solve_impossible_exits_nonzero(self, capsys):
        assert main(["solve", "6", "5", "2", "2"]) == 1
        assert "IMPOSSIBLE" in capsys.readouterr().out

    def test_solve_read_write_case(self, capsys):
        assert main(["solve", "5", "1", "1", "2"]) == 0
        assert "SOLVABLE" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "preserved" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


def _records(path):
    import json
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _sabotage_queue_footprints(monkeypatch):
    """Give queue-2cons a store whose footprint lies (audit exits 1)."""
    from repro import scenarios as scen
    from tests.lint.fixtures.broken_protocol import SpyingRegister

    real = scen.check_scenarios
    def sabotaged(n=3, x=2):
        registry = real(n=n, x=x)
        sc = registry["queue-2cons"]
        original_build = sc.build

        def build():
            programs, store = original_build()
            store.add(SpyingRegister("spy"))
            from repro.runtime import Invocation

            def spy_prog():
                yield Invocation("spy", "write", ("a",))
                yield Invocation("spy", "write", ("b",))

            programs[99] = spy_prog()
            return programs, store

        sc.build = build
        return registry

    monkeypatch.setattr(scen, "check_scenarios", sabotaged)


def _fail_every_engine(monkeypatch):
    """Make every engine the CLI calls raise ShardFailed (exit 4)."""
    import repro.lint
    import repro.runtime
    from repro.runtime import ShardFailed

    def fail(*args, **kwargs):
        raise ShardFailed("parallel exploration failed on shard 0 "
                          "(prefix []): injected")
    for module, engine in ((repro.runtime, "explore"),
                           (repro.runtime, "explore_parallel"),
                           (repro.lint, "audit_scenario")):
        monkeypatch.setattr(module, engine, fail)


def _violate_once(monkeypatch):
    """Make queue-2cons's check fail on its first call only: a
    violation that does not recur on replay (exit 4)."""
    from repro import scenarios as scen

    real = scen.check_scenarios
    def flaky(n=3, x=2):
        registry = real(n=n, x=x)
        sc = registry["queue-2cons"]
        check, calls = sc.check, []

        def check_once(result):
            calls.append(result)
            assert len(calls) > 1, "fails on the first call only"
            check(result)

        sc.check = check_once
        return registry

    monkeypatch.setattr(scen, "check_scenarios", flaky)


#: ``serve`` runs every shard in-process at once: no worker needed.
SOLO = ["--solo-after", "0"]

#: The exit-code contract of the exploring commands, one row per
#: (command, outcome): arguments, a rig that plants the fault (if
#: any), the exit code, a label the output must carry, and the
#: ``--metrics-out`` record outcome (``None``: no record written).
EXIT_CODES = [
    ("check", ["queue-2cons"], None, 0, "PASSED", "passed"),
    ("check", ["broken-demo"], None, 1, "PROPERTY VIOLATED",
     "violation"),
    ("check", ["no-such-scenario"], None, 2, "unknown scenario", None),
    ("check", ["adopt-commit", "--max-runs", "1"], None, 3,
     "INTERRUPTED (max_runs)", "interrupted"),
    ("check", ["queue-2cons"], _fail_every_engine, 4,
     "ERROR (ShardFailed)", "error"),
    ("check", ["queue-2cons"], _violate_once, 4,
     "ERROR (ReplayDivergence)", "error"),
    ("serve", ["queue-2cons", *SOLO], None, 0, "PASSED", "passed"),
    ("serve", ["broken-demo", *SOLO], None, 1, "PROPERTY VIOLATED",
     "violation"),
    ("serve", ["no-such-scenario", *SOLO], None, 2, "unknown scenario",
     None),
    ("serve", ["adopt-commit", "--max-runs", "1", *SOLO], None, 3,
     "INTERRUPTED (max_runs)", "interrupted"),
    ("serve", ["queue-2cons", *SOLO], _fail_every_engine, 4,
     "ERROR (ShardFailed)", "error"),
    ("audit", ["queue-2cons"], None, 0, "AUDIT PASSED", "passed"),
    ("audit", ["queue-2cons"], _sabotage_queue_footprints, 1,
     "FOOTPRINT VIOLATION", "violation"),
    ("audit", ["no-such-scenario"], None, 2, "unknown scenario", None),
    ("audit", ["adopt-commit", "--max-steps", "2"], None, 3,
     "INTERRUPTED (max_steps)", "interrupted"),
    ("audit", ["queue-2cons"], _fail_every_engine, 4,
     "ERROR (ShardFailed)", "error"),
]


def _row_id(row):
    """``command-code``; the second exit-4 row is told apart."""
    suffix = "-replay" if "ReplayDivergence" in row[4] else ""
    return f"{row[0]}-{row[3]}{suffix}"


class TestExitCodes:
    """0 pass, 1 violation, 2 configuration error, 3 budget interrupt,
    4 error -- for ``check``, ``serve`` and ``audit`` alike."""

    @pytest.mark.parametrize(
        "command,argv,rig,code,label,outcome",
        [pytest.param(*row, id=_row_id(row)) for row in EXIT_CODES])
    def test_exit_code_table(self, command, argv, rig, code, label,
                             outcome, tmp_path, monkeypatch, capsys):
        if rig is not None:
            rig(monkeypatch)
        out_path = str(tmp_path / "metrics.jsonl")
        assert main([command, *argv, "--metrics-out", out_path]) == code
        captured = capsys.readouterr()
        assert label in captured.out + captured.err
        if outcome is None:
            assert not os.path.exists(out_path)
            return
        (record,) = _records(out_path)
        assert record.get("data", record)["outcome"] == outcome


class TestCheckCommand:
    """``python -m repro check`` (exit codes: ``TestExitCodes``)."""

    def test_list_scenarios(self, capsys):
        assert main(["check", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("safe-agreement", "adopt-commit", "x-safe-agreement",
                     "queue-2cons", "broken-demo"):
            assert name in out

    def test_list_flag_enumerates_scenarios(self, capsys):
        assert main(["check", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("safe-agreement", "adopt-commit", "x-safe-agreement",
                     "queue-2cons", "broken-demo"):
            assert name in out

    def test_missing_scenario_lists_but_exits_two(self, capsys):
        assert main(["check"]) == 2
        captured = capsys.readouterr()
        assert "no scenario given" in captured.err
        assert "safe-agreement" in captured.out

    def test_passing_scenario_exits_zero(self, capsys):
        assert main(["check", "queue-2cons"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out
        assert "pruned" in out  # DPOR is the default engine

    def test_sized_scenario_exits_zero(self, capsys):
        assert main(["check", "adopt-commit", "--n", "2"]) == 0
        assert "PASSED" in capsys.readouterr().out

    def test_violation_exits_one_with_shrunk_counterexample(self, capsys):
        assert main(["check", "broken-demo"]) == 1
        out = capsys.readouterr().out
        assert "PROPERTY VIOLATED" in out
        assert "shrunk from" in out
        assert "prefix" in out

    def test_timeout_interrupt_exits_three(self, capsys):
        # A zero-width wall-clock budget interrupts even the smallest
        # sweep on the first deadline check.
        assert main(["check", "adopt-commit",
                     "--timeout", "0.000001"]) == 3
        err = capsys.readouterr().err
        assert "INTERRUPTED" in err
        assert "timeout" in err

    def test_naive_violation_reports_cleanly(self, capsys):
        assert main(["check", "broken-demo", "--naive"]) == 1
        out = capsys.readouterr().out
        assert "PROPERTY VIOLATED" in out
        assert "rerun without --naive" in out

    def test_naive_flag_matches_dpor_verdict(self, capsys):
        assert main(["check", "queue-2cons", "--naive"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out
        assert "pruned" not in out


@pytest.mark.parallel
class TestCheckJobsFlag:
    """``check --jobs``: sharded exploration end-to-end (exit 0/1/2)."""

    def test_jobs_passes_and_reports_job_count(self, capsys):
        assert main(["check", "queue-2cons", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out
        assert "jobs=2" in out

    def test_jobs_auto_resolves_to_cpu_count(self, capsys):
        assert main(["check", "queue-2cons", "--jobs", "auto"]) == 0
        out = capsys.readouterr().out
        assert f"jobs={os.cpu_count() or 1}" in out

    @pytest.mark.parametrize("bad", ["0", "-3", "banana", "2.5"])
    def test_bad_jobs_value_exits_two(self, bad, capsys):
        assert main(["check", "queue-2cons", "--jobs", bad]) == 2
        assert "positive integer or 'auto'" in capsys.readouterr().err

    def test_violation_still_shrinks_under_jobs(self, capsys):
        assert main(["check", "broken-demo", "--jobs", "2"]) == 1
        out = capsys.readouterr().out
        assert "PROPERTY VIOLATED" in out
        assert "shrunk from" in out

    def test_naive_reduction_composes_with_jobs(self, capsys):
        assert main(["check", "queue-2cons", "--naive",
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out
        assert "naive" in out and "jobs=2" in out

    def test_max_runs_interrupt_exits_three_under_jobs(self, capsys):
        assert main(["check", "adopt-commit", "--max-runs", "2",
                     "--jobs", "2"]) == 3
        err = capsys.readouterr().err
        assert "INTERRUPTED" in err
        assert "max_runs" in err


@pytest.mark.parallel
class TestAuditJobsFlag:
    """``audit --jobs``: the adversary battery on a worker pool."""

    def test_jobs_audit_passes(self, capsys):
        assert main(["audit", "queue-2cons", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "AUDIT PASSED" in out
        assert "operations audited" in out

    def test_bad_jobs_value_exits_two(self, capsys):
        assert main(["audit", "queue-2cons", "--jobs", "nope"]) == 2
        assert "positive integer or 'auto'" in capsys.readouterr().err


@pytest.mark.metrics
class TestMetricsFlags:
    """``--metrics`` / ``--metrics-out``: machine-readable run records."""

    def test_metrics_table_rides_along_with_check(self, capsys):
        assert main(["check", "safe-agreement", "--n", "2",
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out
        assert "runs/s" in out

    def test_metrics_out_writes_versioned_jsonl(self, tmp_path):
        from repro.analysis.metrics import METRICS_SCHEMA_VERSION
        out_path = str(tmp_path / "metrics.jsonl")
        assert main(["check", "safe-agreement", "--n", "2",
                     "--metrics-out", out_path]) == 0
        (record,) = _records(out_path)
        assert record["schema_version"] == METRICS_SCHEMA_VERSION
        assert record["kind"] == "exploration"
        assert record["scenario"] == "safe-agreement"
        assert record["outcome"] == "passed"
        assert record["total_runs"] > 0

    def test_jobs_record_deterministically_matches_serial(self, tmp_path):
        """Acceptance bar: jobs=4 record == jobs=1 record byte-for-byte
        once the timing/worker fields are stripped."""
        import json

        from repro.analysis.metrics import deterministic_view
        views = {}
        for jobs in ("1", "4"):
            out_path = str(tmp_path / f"jobs{jobs}.jsonl")
            assert main(["check", "safe-agreement", "--n", "2",
                         "--jobs", jobs, "--metrics-out", out_path]) == 0
            (record,) = _records(out_path)
            views[jobs] = json.dumps(deterministic_view(record),
                                     sort_keys=True)
        assert views["1"] == views["4"]

    def test_check_runs_without_the_state_cache(self, tmp_path):
        """``check`` takes the cache-off DPOR path (the ``cache`` tier
        proves the cache changes no count, and it is slower): its
        record counts no cache hits."""
        out_path = str(tmp_path / "check.jsonl")
        assert main(["check", "x-safe-agreement", "--n", "3",
                     "--metrics-out", out_path]) == 0
        (record,) = _records(out_path)
        assert record["cache_hits"] == 0
        assert record["cache_skipped_runs"] == 0

    def test_violation_record_carries_shrunk_counterexample(self,
                                                            tmp_path,
                                                            capsys):
        out_path = str(tmp_path / "metrics.jsonl")
        assert main(["check", "broken-demo",
                     "--metrics-out", out_path]) == 1
        (record,) = _records(out_path)
        assert record["outcome"] == "violation"
        assert record["violation"]["error_type"] == "AssertionError"
        assert record["violation"]["schedule"]
        assert record["ddmin_replays"] > 0

    def test_interrupted_record_is_partial(self, tmp_path, capsys):
        out_path = str(tmp_path / "metrics.jsonl")
        assert main(["check", "adopt-commit", "--max-runs", "2",
                     "--metrics-out", out_path]) == 3
        (record,) = _records(out_path)
        assert record["outcome"] == "interrupted"
        assert record["partial"] is True
        assert record["interrupt_reason"] == "max_runs"
        # The partial stats carried by the interruption land in the
        # record: coverage up to the budget, not zeros.
        assert record["total_runs"] == 2

    def test_timeout_record_is_partial_and_atomic(self, tmp_path,
                                                  capsys):
        """An interrupted sweep still writes one atomic record -- no
        temp droppings next to it (the mkstemp+replace contract)."""
        out_path = str(tmp_path / "metrics.jsonl")
        assert main(["check", "adopt-commit", "--timeout", "0.000001",
                     "--metrics-out", out_path]) == 3
        (record,) = _records(out_path)
        assert record["outcome"] == "interrupted"
        assert record["partial"] is True
        assert record["interrupt_reason"] == "timeout"
        assert os.listdir(tmp_path) == ["metrics.jsonl"]

    def test_audit_emits_run_metrics(self, tmp_path):
        out_path = str(tmp_path / "metrics.jsonl")
        assert main(["audit", "queue-2cons",
                     "--metrics-out", out_path]) == 0
        (record,) = _records(out_path)
        assert record["kind"] == "audit"
        assert record["name"] == "queue-2cons"
        assert record["data"]["outcome"] == "passed"
        assert record["data"]["audited_ops"] > 0

    def test_audit_record_reproduces_adversary_seeds(self, tmp_path):
        """The audit record names every adversary *with its seed*, so a
        failing randomized audit replays from the record alone."""
        from repro.lint.audit import DEFAULT_AUDIT_SEEDS
        out_path = str(tmp_path / "metrics.jsonl")
        assert main(["audit", "queue-2cons",
                     "--metrics-out", out_path]) == 0
        (record,) = _records(out_path)
        adversaries = record["data"]["adversaries"]
        assert "RoundRobinAdversary()" in adversaries
        for seed in DEFAULT_AUDIT_SEEDS:
            assert f"SeededRandomAdversary(seed={seed})" in adversaries


class TestLintCommand:
    """``python -m repro lint``: exit codes 0 / 1 / 2."""

    def test_clean_repo_exits_zero(self, capsys):
        src = os.path.join(REPO_ROOT, "src", "repro")
        assert main(["lint", src]) == 0

    def test_planted_bugs_exit_one_with_findings(self, capsys):
        assert main(["lint", LINT_FIXTURE]) == 1
        out = capsys.readouterr().out
        for code in ("D101", "N201", "Y301", "X401"):
            assert code in out
        assert "violation(s)" in out

    def test_select_restricts_rules(self, capsys):
        assert main(["lint", LINT_FIXTURE, "--select", "Y301"]) == 1
        out = capsys.readouterr().out
        assert "Y301" in out
        assert "D101" not in out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", LINT_FIXTURE, "--select", "Z999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "/no/such/path.py"]) == 2

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("D101", "N201", "Y301", "X401"):
            assert code in out


class TestAuditCommand:
    """``python -m repro audit`` (exit codes: ``TestExitCodes``)."""

    def test_clean_scenario_exits_zero(self, capsys):
        assert main(["audit", "queue-2cons"]) == 0
        out = capsys.readouterr().out
        assert "AUDIT PASSED" in out
        assert "operations audited" in out

    def test_step_budget_interrupt_exits_three(self, tmp_path, capsys):
        # A run that exhausts --max-steps is a budget interrupt, like
        # check's --max-runs; under --jobs the interruption crosses the
        # worker pipe intact.
        for jobs in ([], ["--jobs", "2"]):
            out_path = str(tmp_path / "metrics.jsonl")
            assert main(["audit", "queue-2cons", "--max-steps", "2",
                         "--metrics-out", out_path, *jobs]) == 3
            assert "INTERRUPTED (max_steps)" in capsys.readouterr().err
            (record,) = _records(out_path)
            assert record["data"]["outcome"] == "interrupted"
            assert record["data"]["interrupt_reason"] == "max_steps"

    def test_violation_exits_one(self, capsys, monkeypatch):
        _sabotage_queue_footprints(monkeypatch)
        assert main(["audit", "queue-2cons"]) == 1
        out = capsys.readouterr().out
        assert "FOOTPRINT VIOLATION" in out
        assert "read-soundness" in out
