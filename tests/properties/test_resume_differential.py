"""The ``resume`` tier: kill -9 mid-exploration, resume, compare.

The frontier store's whole contract is one sentence: *an exploration
interrupted at any point and resumed finishes bit-for-bit identical to
an uninterrupted run*.  These tests enforce it literally -- a subprocess
coordinator SIGKILLs itself at a chosen journal point (the
``REPRO_FRONTIER_KILL_AFTER`` hook in
:mod:`repro.runtime.frontier`; no cooperation from the code under
test), then ``check --resume`` continues in-process and the resulting
metrics record's :func:`deterministic_view` must equal the reference
run's, for every registry scenario, including the deliberately broken
one (same counterexample, same exit code).

Run just this tier with ``pytest -m resume``; the CLI pair under test
is ``python -m repro check NAME --checkpoint PATH`` / ``--resume PATH``.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

import repro
from repro.__main__ import main
from repro.analysis.metrics import deterministic_view
from repro.runtime.frontier import KILL_AFTER_ENV
from repro.scenarios import check_scenarios

pytestmark = pytest.mark.resume

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SCENARIOS = list(check_scenarios())

#: Scenarios whose schedule tree outlives frontier expansion (the
#: 2-process ones finish during expansion, so their pools run zero
#: shards and only the kill-after-header point exists).
SHARDED = [name for name in SCENARIOS
           if name in ("safe-agreement", "adopt-commit",
                       "x-safe-agreement")]

#: Expected uninterrupted exit code per scenario (broken-demo exists to
#: exercise the violation path).
EXPECTED_EXIT = {name: (1 if name == "broken-demo" else 0)
                 for name in SCENARIOS}


def _records(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _run_killed(name, store_path, kill_after, jobs=1):
    """``check NAME --checkpoint`` in a subprocess that SIGKILLs itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env[KILL_AFTER_ENV] = str(kill_after)
    return subprocess.run(
        [sys.executable, "-m", "repro", "check", name,
         "--checkpoint", store_path, "--jobs", str(jobs)],
        env=env, capture_output=True, text=True, timeout=300)


def _reference(name, tmp_path):
    """Uninterrupted in-process run: (exit code, deterministic view)."""
    out = str(tmp_path / "reference.jsonl")
    code = main(["check", name, "--jobs", "1", "--metrics-out", out])
    (record,) = _records(out)
    return code, deterministic_view(record)


class TestKillResumeDifferential:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_every_scenario_resumes_bit_for_bit(self, name, tmp_path,
                                                capsys):
        expected, reference = _reference(name, tmp_path)
        assert expected == EXPECTED_EXIT[name]
        kill_points = [0, 2] if name in SHARDED else [0]
        for kill_after in kill_points:
            store = str(tmp_path / f"frontier-{kill_after}.jsonl")
            proc = _run_killed(name, store, kill_after)
            assert proc.returncode == -signal.SIGKILL, \
                (proc.returncode, proc.stdout, proc.stderr)
            assert os.path.exists(store)

            out = str(tmp_path / f"resumed-{kill_after}.jsonl")
            capsys.readouterr()
            code = main(["check", name, "--resume", store,
                         "--jobs", "1", "--metrics-out", out])
            assert f"resuming from {store}" in capsys.readouterr().out
            assert code == expected
            (record,) = _records(out)
            assert deterministic_view(record) == reference

    def test_broken_demo_resume_reproduces_the_counterexample(
            self, tmp_path, capsys):
        # Exit code equality alone could hide a *different* (still
        # failing) schedule; the violation recorded in the metrics is
        # part of the reference view compared above, so here we only
        # pin that the resumed run actually shrinks and reports one.
        _, reference = _reference("broken-demo", tmp_path)
        assert reference["violation"] is not None
        store = str(tmp_path / "frontier.jsonl")
        proc = _run_killed("broken-demo", store, 0)
        assert proc.returncode == -signal.SIGKILL
        capsys.readouterr()
        out = str(tmp_path / "resumed.jsonl")
        assert main(["check", "broken-demo", "--resume", store,
                     "--jobs", "1", "--metrics-out", out]) == 1
        assert "agreement violated" in capsys.readouterr().out
        (record,) = _records(out)
        assert deterministic_view(record)["violation"] \
            == reference["violation"]

    def test_jobs4_kill_before_pool_resumes_identically(self, tmp_path,
                                                        capsys):
        # Kill-after-header under jobs=4 dies before the pool forks
        # (later kill points would orphan live workers); the resume
        # also runs jobs=4 and must still match the jobs=1 reference --
        # the store's shard partition, not the worker count, fixes the
        # statistics.
        _, reference = _reference("adopt-commit", tmp_path)
        store = str(tmp_path / "frontier.jsonl")
        proc = _run_killed("adopt-commit", store, 0, jobs=4)
        assert proc.returncode == -signal.SIGKILL
        capsys.readouterr()
        out = str(tmp_path / "resumed.jsonl")
        assert main(["check", "adopt-commit", "--resume", store,
                     "--jobs", "4", "--metrics-out", out]) == 0
        (record,) = _records(out)
        assert deterministic_view(record) == reference

    def test_resuming_a_finished_store_is_idempotent(self, tmp_path,
                                                     capsys):
        reference_code, reference = _reference("adopt-commit", tmp_path)
        store = str(tmp_path / "frontier.jsonl")
        assert main(["check", "adopt-commit", "--checkpoint", store,
                     "--jobs", "1"]) == reference_code
        for _ in range(2):
            out = str(tmp_path / "resumed.jsonl")
            capsys.readouterr()
            assert main(["check", "adopt-commit", "--resume", store,
                         "--jobs", "1", "--metrics-out", out]) \
                == reference_code
            (record,) = _records(out)
            assert deterministic_view(record) == reference


class TestResumeCLIContract:
    def test_resume_missing_store_is_rejected(self, tmp_path, capsys):
        # ISSUE 10 satellite: --resume names a checkpoint the operator
        # expects to exist.  Silently starting fresh would discard the
        # progress they thought they were continuing; reject loudly.
        store = str(tmp_path / "never-written.jsonl")
        assert main(["check", "queue-2cons", "--resume", store,
                     "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert "RESUME REJECTED" in err
        assert "no frontier store" in err
        assert not os.path.exists(store)  # rejected, not recreated

    def test_resume_unreadable_store_is_rejected(self, tmp_path, capsys):
        # A corrupt or torn store must produce the same loud rejection,
        # never a traceback.
        store = tmp_path / "garbage.jsonl"
        store.write_text("not a frontier header\n")
        assert main(["check", "queue-2cons", "--resume", str(store),
                     "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert "RESUME REJECTED" in err
        assert "unreadable frontier store" in err

    def test_schema_one_store_is_rejected(self, tmp_path, capsys):
        # Schema 1 kept the sleep-set, frontier and cache counts beside
        # the statistics; such a checkpoint must be restarted.
        store = tmp_path / "old.jsonl"
        store.write_text(json.dumps(
            {"kind": "frontier_header", "frontier_schema": 1,
             "fingerprint": {"state_cache": True},
             "expansion_counters": {}, "shards": []}) + "\n")
        assert main(["check", "adopt-commit", "--resume", str(store),
                     "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert "RESUME REJECTED" in err
        assert "unreadable frontier store" in err
        assert "schema 1" in err

    def test_mistyped_journal_stats_are_rejected(self, tmp_path, capsys):
        # A journal line that parses but carries a mistyped count is
        # neither merged nor mistaken for a torn tail.
        store = str(tmp_path / "frontier.jsonl")
        assert main(["check", "adopt-commit", "--checkpoint", store,
                     "--jobs", "1"]) == 0
        with open(store) as handle:
            header = json.loads(handle.readline())
        stats = dict(header["expansion"], complete_runs="3")
        with open(store, "a") as handle:
            handle.write(json.dumps({"kind": "complete", "shard": 0,
                                     "stats": stats}) + "\n")
        capsys.readouterr()
        assert main(["check", "adopt-commit", "--resume", store,
                     "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert "unreadable frontier store" in err
        assert "complete_runs" in err

    def test_mismatched_fingerprint_is_rejected(self, tmp_path, capsys):
        store = str(tmp_path / "frontier.jsonl")
        assert main(["check", "adopt-commit", "--checkpoint", store,
                     "--jobs", "1"]) == 0
        capsys.readouterr()
        assert main(["check", "adopt-commit", "--resume", store,
                     "--jobs", "1", "--max-steps", "9"]) == 2
        err = capsys.readouterr().err
        assert "RESUME REJECTED" in err
        assert "max_steps" in err

    def test_resume_under_a_different_scenario_is_rejected(
            self, tmp_path, capsys):
        store = str(tmp_path / "frontier.jsonl")
        assert main(["check", "adopt-commit", "--checkpoint", store,
                     "--jobs", "1"]) == 0
        capsys.readouterr()
        assert main(["check", "safe-agreement", "--resume", store,
                     "--jobs", "1"]) == 2
        assert "scenario" in capsys.readouterr().err

    def test_checkpoint_overwrites_a_stale_store(self, tmp_path, capsys):
        store = str(tmp_path / "frontier.jsonl")
        assert main(["check", "adopt-commit", "--checkpoint", store,
                     "--jobs", "1"]) == 0
        # --checkpoint means "fresh run": a second one must not try to
        # resume (or trip over) the finished store from the first.
        assert main(["check", "adopt-commit", "--checkpoint", store,
                     "--jobs", "1"]) == 0

    def test_checkpoint_and_resume_together_exit_two(self, capsys):
        assert main(["check", "adopt-commit", "--checkpoint", "a",
                     "--resume", "b"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_checkpoint_requires_a_single_scenario(self, tmp_path,
                                                   capsys):
        store = str(tmp_path / "frontier.jsonl")
        assert main(["check", "all", "--checkpoint", store]) == 2
        assert "exactly one scenario" in capsys.readouterr().err

    def test_checkpoint_defaults_to_jobs_one(self, tmp_path, capsys):
        # --checkpoint without --jobs must route through the sharded
        # engine (the serial engine has no frontier to persist).
        store = str(tmp_path / "frontier.jsonl")
        assert main(["check", "adopt-commit", "--checkpoint",
                     store]) == 0
        assert os.path.exists(store)
