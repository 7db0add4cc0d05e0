"""The multiprocess exploration backend: pool, sharding, recovery.

Fast correctness tests for :mod:`repro.runtime.parallel` -- the heavier
cross-scenario serial-vs-parallel comparisons live in
``tests/properties/test_parallel_differential.py`` (``parallel`` tier).
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

import repro
from repro.runtime import CounterexampleFound, explore
from repro.runtime.parallel import (LeasePool, explore_parallel,
                                    fork_available, resolve_jobs, run_pool)
from repro.scenarios import ScenarioRef, build_scenario, check_scenarios

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _square(x):
    return x * x


def _sleep_then_square(x):
    from time import sleep
    sleep(x)
    return 0


class TestResolveJobs:
    def test_none_means_one(self):
        assert resolve_jobs(None) == 1

    def test_auto_is_cpu_count(self):
        assert resolve_jobs("auto") == (os.cpu_count() or 1)

    def test_ints_and_int_strings(self):
        assert resolve_jobs(4) == 4
        assert resolve_jobs("4") == 4
        assert resolve_jobs(1) == 1

    @pytest.mark.parametrize("bad", [0, -3, "0", "banana", 2.5, True])
    def test_rejects_non_positive_and_garbage(self, bad):
        with pytest.raises(ValueError, match="positive integer or 'auto'"):
            resolve_jobs(bad)


class TestRunPool:
    def test_results_in_payload_order(self):
        outcomes = run_pool(list(range(10)), _square, jobs=3)
        assert outcomes == [(i * i, None) for i in range(10)]

    def test_serial_degradation_paths(self):
        # jobs=1 and single-payload both stay in-process.
        assert run_pool([3, 4], _square, jobs=1) == [(9, None), (16, None)]
        assert run_pool([5], _square, jobs=8) == [(25, None)]
        assert run_pool([], _square, jobs=4) == []

    def test_task_exception_becomes_error_outcome(self):
        def boom(x):
            if x == 2:
                raise ValueError("bad payload")
            return x

        outcomes = run_pool([1, 2, 3], boom, jobs=2)
        assert outcomes[0] == (1, None)
        assert outcomes[1] == (None, "ValueError: bad payload")
        assert outcomes[2] == (3, None)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_sigkilled_worker_task_is_recovered(self):
        # The fault plan SIGKILLs whichever worker picks up payload 2;
        # the coordinator must re-run that task in-process and still
        # return every outcome in order.
        outcomes = run_pool([1, 2, 3, 4], _square, jobs=2,
                            fault_plan={2: "sigkill"})
        assert outcomes == [(1, None), (4, None), (9, None), (16, None)]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_reexecution_failure_surfaces_as_error(self):
        # 'sigkill,raise': the worker dies AND the in-process re-run
        # fails, so the outcome must be an error, not a hang or a lie.
        outcomes = run_pool([1, 2], _square, jobs=2,
                            fault_plan={0: "sigkill,raise"})
        assert outcomes[0] == (None, "RuntimeError: injected shard fault")
        assert outcomes[1] == (4, None)


class TestScenarioRef:
    def test_ref_resolves_to_registry_scenario(self):
        ref = ScenarioRef("safe-agreement", n=2)
        sc = ref.resolve()
        assert sc.name == "safe-agreement"
        stats = explore(sc.build, sc.check, max_steps=sc.max_steps,
                        reduction="dpor")
        assert stats.complete_runs > 0

    def test_ref_is_picklable(self):
        import pickle
        ref = ScenarioRef("x-safe-agreement", n=3, x=2)
        assert pickle.loads(pickle.dumps(ref)) == ref

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            build_scenario("no-such-scenario")


class TestExploreParallel:
    def test_jobs_one_equals_jobs_two_dpor(self):
        sc = check_scenarios(n=2)["safe-agreement"]
        s1 = explore(sc.build, sc.check, max_steps=sc.max_steps,
                     reduction="dpor", jobs=1)
        s2 = explore(sc.build, sc.check, max_steps=sc.max_steps,
                     reduction="dpor", jobs=2)
        assert s1 == s2
        assert s1.complete_runs > 0 and s1.truncated_runs == 0

    def test_sharded_naive_matches_classic_naive_exactly(self):
        # Naive sharding partitions the schedule tree exactly, so even
        # the classic (jobs=None) engine must agree run for run.
        sc = check_scenarios(n=2)["safe-agreement"]
        classic = explore(sc.build, sc.check, max_steps=sc.max_steps,
                          reduction="naive")
        sharded = explore(sc.build, sc.check, max_steps=sc.max_steps,
                          reduction="naive", jobs=2)
        assert (classic.complete_runs, classic.truncated_runs) == \
            (sharded.complete_runs, sharded.truncated_runs)

    def test_scenario_ref_entry_point(self):
        stats = explore_parallel(jobs=2, max_steps=12,
                                 scenario=ScenarioRef("queue-2cons"))
        assert stats.complete_runs == 2

    def test_counterexample_identical_across_job_counts(self):
        sc = check_scenarios()["broken-demo"]
        found = []
        for jobs in (1, 2):
            with pytest.raises(CounterexampleFound) as excinfo:
                explore(sc.build, sc.check, max_steps=sc.max_steps,
                        reduction="dpor", jobs=jobs)
            found.append(excinfo.value)
        assert found[0].counterexample.prefix == \
            found[1].counterexample.prefix
        assert found[0].counterexample.schedule == \
            found[1].counterexample.schedule
        assert found[0].stats == found[1].stats
        assert found[0].counterexample.reproduces()

    def test_budget_error_is_deterministic(self):
        sc = check_scenarios(n=2)["safe-agreement"]
        messages = []
        for jobs in (1, 2):
            with pytest.raises(RuntimeError, match="max_runs") as excinfo:
                explore(sc.build, sc.check, max_steps=sc.max_steps,
                        max_runs=2, reduction="dpor", jobs=jobs)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_unknown_reduction_rejected(self):
        sc = check_scenarios(n=2)["safe-agreement"]
        with pytest.raises(ValueError, match="unknown reduction"):
            explore_parallel(sc.build, sc.check, jobs=2,
                             reduction="magic")
        with pytest.raises(ValueError, match="explore_parallel needs"):
            explore_parallel(jobs=2)


@pytest.mark.skipif(not fork_available(), reason="needs fork")
class TestWorkerFailureRecovery:
    """Satellite: SIGKILL a pool worker mid-exploration.

    adopt-commit at n=3 is the smallest registry scenario whose schedule
    tree outgrows the frontier target, so real shards reach real workers
    (2-process scenarios fit inside the frontier and would test nothing).
    """

    def test_killed_worker_stats_match_serial(self):
        sc = check_scenarios(n=3)["adopt-commit"]
        serial = explore_parallel(sc.build, sc.check,
                                  max_steps=sc.max_steps, jobs=1)
        killed = explore_parallel(sc.build, sc.check,
                                  max_steps=sc.max_steps, jobs=2,
                                  fault_plan={0: "sigkill"})
        assert killed == serial

    def test_reexecution_failure_raises_runtime_error(self):
        # 'sigkill,raise' fails the orphaned shard's in-process re-run
        # too: the coordinator must raise ShardFailed, a RuntimeError
        # (the CLI reports it as ERROR, exit 4), never return partial
        # statistics.
        sc = check_scenarios(n=3)["adopt-commit"]
        with pytest.raises(RuntimeError,
                           match="parallel exploration failed on shard"):
            explore_parallel(sc.build, sc.check, max_steps=sc.max_steps,
                             jobs=2, fault_plan={0: "sigkill,raise"})


@pytest.mark.skipif(not fork_available(), reason="needs fork")
class TestWedgedWorkerTeardown:
    """Bugfix regression: teardown of a worker that stops responding.

    ``fault_plan={-1: "sigstop"}`` makes each worker SIGSTOP itself on
    receipt of the shutdown sentinel -- the moment the old teardown
    relied on SIGTERM alone.  A stopped process leaves SIGTERM pending
    forever, so the coordinator must escalate to SIGKILL and then
    *reap* the corpse with a final blocking join; skipping that join is
    exactly the zombie leak this class pins down.  ``_JOIN_TIMEOUT`` is
    shrunk so the escalation path runs in milliseconds.
    """

    @pytest.fixture(autouse=True)
    def fast_escalation(self, monkeypatch):
        import repro.runtime.parallel as par
        monkeypatch.setattr(par, "_JOIN_TIMEOUT", 0.2)

    @staticmethod
    def _leaked_children():
        """(pid, state) for every child of this process that is a
        zombie ('Z', dead but unreaped) or stopped ('T', wedged)."""
        me = str(os.getpid())
        leaked = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    # Field 2 (comm) may contain spaces; split after it.
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue  # raced with process exit
            state, ppid = fields[0], fields[1]
            if ppid == me and state in ("Z", "T"):
                leaked.append((int(entry), state))
        return leaked

    def test_run_pool_reaps_wedged_workers(self):
        import multiprocessing

        outcomes = run_pool(list(range(8)), _square, jobs=2,
                            fault_plan={-1: "sigstop"})
        assert outcomes == [(i * i, None) for i in range(8)]
        assert self._leaked_children() == []
        assert multiprocessing.active_children() == []

    def test_explore_parallel_reaps_wedged_workers(self):
        sc = check_scenarios(n=3)["adopt-commit"]
        serial = explore_parallel(sc.build, sc.check,
                                  max_steps=sc.max_steps, jobs=1)
        wedged = explore_parallel(sc.build, sc.check,
                                  max_steps=sc.max_steps, jobs=2,
                                  fault_plan={-1: "sigstop"})
        assert wedged == serial
        assert self._leaked_children() == []


class TestRetryLadder:
    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_flaky_task_survives_multi_attempt_recovery(self, monkeypatch):
        # 'flaky' fails in the worker AND on the first in-process retry,
        # succeeding only from the second retry on: a single
        # re-execution would surface an error, the capped-backoff
        # ladder must not.  Backoff is zeroed so the test stays fast.
        from repro.runtime import parallel
        monkeypatch.setattr(parallel, "_RETRY_BACKOFF_BASE", 0.0)
        outcomes = run_pool([1, 2], _square, jobs=2,
                            fault_plan={0: "flaky"})
        assert outcomes == [(1, None), (4, None)]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_backoff_is_clamped_to_remaining_deadline(self, monkeypatch):
        # Bugfix regression: the ladder used to sleep the full computed
        # backoff even when the wall-clock budget had almost none of it
        # left.  With a 30s base and ~1.5s of budget, a clamped retry
        # finishes in seconds; the old code slept straight through the
        # deadline.
        from time import monotonic

        from repro.runtime import parallel
        monkeypatch.setattr(parallel, "_RETRY_BACKOFF_BASE", 30.0)
        start = monotonic()
        outcomes = run_pool([1, 2], _square, jobs=2,
                            fault_plan={0: "flaky"},
                            deadline=start + 1.5)
        assert outcomes == [(1, None), (4, None)]
        assert monotonic() - start < 10.0

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_exhausted_deadline_raises_timeout_not_oversleep(
            self, monkeypatch):
        # A ladder that reaches the deadline must surface the budget
        # interrupt immediately -- never start another multi-second
        # backoff first.
        from time import monotonic

        from repro.runtime import parallel
        from repro.runtime.explore import ExplorationInterrupted
        monkeypatch.setattr(parallel, "_RETRY_BACKOFF_BASE", 30.0)
        start = monotonic()
        with pytest.raises(ExplorationInterrupted) as excinfo:
            run_pool([1, 2], _square, jobs=2,
                     fault_plan={0: "flaky"},
                     deadline=start - 1.0)
        assert excinfo.value.reason == "timeout"
        assert "retrying task 0" in str(excinfo.value)
        assert monotonic() - start < 10.0


@pytest.mark.skipif(not fork_available(), reason="needs fork")
class TestLeaseRecovery:
    """A wedged worker's lease lapses and its task is re-granted.

    ``fault_plan={0: "sigstop"}`` makes the worker SIGSTOP itself on
    receipt of task 0, *before* its first heartbeat: no EOF ever
    arrives (the process is alive), so only lease expiry can free the
    task.  Timeouts are shrunk so expiry happens in milliseconds.
    """

    @pytest.fixture(autouse=True)
    def fast_leases(self, monkeypatch):
        from repro.runtime import parallel
        monkeypatch.setattr(parallel, "_LEASE_TIMEOUT", 0.5)
        monkeypatch.setattr(parallel, "_HEARTBEAT_INTERVAL", 0.1)
        monkeypatch.setattr(parallel, "_JOIN_TIMEOUT", 0.2)

    def test_stopped_worker_task_is_regranted_to_a_live_one(self):
        grants = []
        task_log = []
        outcomes = run_pool([1, 2, 3], _square, jobs=2,
                            fault_plan={0: "sigstop"},
                            task_log=task_log,
                            on_grant=lambda idx, wid: grants.append(
                                (idx, wid)))
        assert outcomes == [(1, None), (4, None), (9, None)]
        # Task 0 was granted at least twice: once to the worker that
        # wedged, then again after its lease lapsed.
        assert len([g for g in grants if g[0] == 0]) >= 2
        # The result for task 0 came from an executed task, not the
        # stopped holder (which never reports).
        executed = [entry for entry in task_log if entry["index"] == 0]
        assert len(executed) == 1

    def test_heartbeats_keep_a_slow_task_leased(self):
        # A healthy-but-slow task must NOT be re-granted: its worker's
        # heartbeats renew the lease well past the raw timeout.
        task_log = []
        outcomes = run_pool([0.9, 0.0], _sleep_then_square, jobs=2,
                            task_log=task_log)
        assert outcomes == [(0, None), (0, None)]
        assert len(task_log) == 2  # every task executed exactly once

    def test_run_finishes_when_every_worker_wedges(self):
        """Both workers SIGSTOP on their first task: no EOF, no frame,
        no free worker.  Both leases lapse, both workers are presumed
        lost, and the coordinator runs every remaining task itself.

        The pool runs in a child process group with the class's
        timeouts, so a hang fails this test (the group is killed)
        instead of stalling the suite.
        """
        script = textwrap.dedent("""
            import json, os
            from repro.runtime import parallel
            parallel._LEASE_TIMEOUT = 0.5
            parallel._HEARTBEAT_INTERVAL = 0.1
            parallel._JOIN_TIMEOUT = 0.2
            log = []
            outcomes = parallel.run_pool(
                [1, 2, 3, 4], lambda x: x * x, jobs=2,
                fault_plan={0: "sigstop", 1: "sigstop"}, task_log=log)
            me = str(os.getpid())
            children = []
            for entry in os.listdir("/proc"):
                try:
                    with open(f"/proc/{entry}/stat") as handle:
                        fields = handle.read().rsplit(")", 1)[1].split()
                except OSError:
                    continue
                if fields[1] == me:
                    children.append((entry, fields[0]))
            print(json.dumps({"outcomes": outcomes, "log": log,
                              "children": children}))
        """)
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("run_pool hung with every worker wedged")
        assert proc.returncode == 0, err
        report = json.loads(out.strip().splitlines()[-1])
        assert report["outcomes"] == [[1, None], [4, None], [9, None],
                                      [16, None]]
        inprocess = {entry["index"] for entry in report["log"]
                     if entry["worker"] == -1}
        assert {0, 1} <= inprocess
        assert report["children"] == []

    def test_late_result_from_a_lapsed_holder_is_rejected(self, tmp_path):
        """Task 0's first holder stops long enough for its lease to
        lapse, then resumes and reports.  Its result is stale; the
        re-granted holder's result settles the task."""
        marker = str(tmp_path / "first-holder")

        def runner(task):
            if task == 1:
                return "other"
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                time.sleep(1.5)  # heartbeats keep this lease alive
                return "regranted"
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            os.kill(os.getpid(), signal.SIGSTOP)
            return "late"

        def wake_first_holder():
            # Resume the stopped holder 1.5 s after it stopped: its
            # 0.5 s lease has lapsed by then.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    with open(marker) as handle:
                        pid = int(handle.read())
                    break
                except (OSError, ValueError):
                    time.sleep(0.01)
            else:
                return
            time.sleep(1.5)
            os.kill(pid, signal.SIGCONT)

        waker = threading.Thread(target=wake_first_holder, daemon=True)
        waker.start()
        outcomes = run_pool([0, 1], runner, jobs=2)
        waker.join(timeout=30.0)
        assert not waker.is_alive()
        assert outcomes == [("regranted", None), ("other", None)]


class TestLeasePoolLiveness:
    """The core's liveness rule, driven with explicit clocks."""

    @staticmethod
    def _pool(workers):
        pool = LeasePool(lease_timeout=10.0)
        pool.begin([0, 1, 2], _square)
        for worker in workers:
            pool.attach(worker)
        return pool

    def test_presumed_lost_worker_that_asks_again_gets_work(self):
        pool = self._pool([0])
        assert pool.request(0, now=0.0) == 0
        pool.tick(now=100.0)  # the lease lapses: worker 0 presumed lost
        assert pool.request(0, now=100.0) == 0  # it asks again
        # ...and counts as live again: nothing runs in-process.
        assert not pool.maybe_run_inprocess(now=100.0)
        assert pool.outcomes == [None, None, None]

    def test_pending_work_runs_inprocess_once_every_worker_is_lost(self):
        pool = self._pool([0, 1])
        assert pool.request(0, now=0.0) == 0
        assert pool.request(1, now=0.0) == 1
        # Shard 2 waits: both holders are live.
        assert not pool.maybe_run_inprocess(now=1.0)
        pool.tick(now=100.0)
        # A stale heartbeat is no sign of a usable worker.
        assert not pool.heartbeat(0, 0, now=100.0)
        while pool.maybe_run_inprocess(now=100.0):
            pass
        assert pool.outcomes == [(0, None), (1, None), (4, None)]
        assert pool.tallies["inprocess_shards"] == 3
        assert pool.tallies["regrants"] == 2
