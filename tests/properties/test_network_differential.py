"""The ``network`` tier: serial vs fork-pool vs socket must agree exactly.

The socket shard service's contract is the fork pool's, one layer out:
the *transport* controls only where shards execute, never which shards
exist or what they report.  These tests pin that claim bit-for-bit on
every registry scenario -- identical ``ExplorationStats`` and identical
:func:`deterministic_view` metrics records between ``jobs=1``,
``jobs=4`` and a live TCP :class:`ShardServer` with real
:class:`ShardWorker` sessions -- and then keep pinning it while a
:class:`ChaosProxy` mangles the frame stream, a worker process is
SIGKILLed mid-run, and the coordinator itself is killed -9 and resumed
via ``check --resume``.  It also pins how a run ends: workers exit on
the server's ``done`` (a request the server cannot grant yet is held,
not bounced), and only a lost ``done`` leaves them to the backoff
ladder.  Run just this tier with ``pytest -m network``.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.__main__ import main
from repro.analysis.metrics import ExplorationMetrics, deterministic_view
from repro.runtime import CounterexampleFound, explore, wire
from repro.runtime.explore import ExplorationInterrupted, ExplorationStats
from repro.runtime.frontier import (KILL_AFTER_ENV, FrontierStore,
                                    stats_to_dict)
from repro.runtime.netshard import (_LINGER, ChaosProxy, ShardServer,
                                    ShardWorker)
from repro.runtime.parallel import explore_parallel
from repro.scenarios import SOUND_SCENARIOS, ScenarioRef, check_scenarios

pytestmark = pytest.mark.network

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _scenario(name, n=3):
    return check_scenarios(n=n)[name]


def _serial(sc, metrics=None):
    return explore(sc.build, sc.check,
                   crash_plan_factory=sc.crash_plan_factory,
                   max_steps=sc.max_steps, max_runs=sc.max_runs,
                   reduction="dpor", jobs=1, metrics=metrics)


class _SocketRun:
    """One exploration served over a real TCP socket, workers in-thread.

    The coordinator (``explore_parallel`` with the server as its pool)
    runs in a background thread; the caller gets the bound address to
    attach workers or a chaos proxy, then :meth:`finish` joins
    everything and returns (or raises) the exploration outcome.
    """

    def __init__(self, name, sc, n=3, lease_timeout=5.0,
                 metrics=None, max_runs=None, state_cache=True,
                 frontier=None, **server_kwargs):
        self.sc = sc
        max_runs = max_runs or sc.max_runs
        config = {"scenario": name, "n": n, "x": 2,
                  "max_steps": sc.max_steps, "max_runs": max_runs,
                  "reduction": "dpor", "state_cache": state_cache}
        self._ready = threading.Event()
        self._addr = {}

        def announce(host, port):
            self._addr["addr"] = (host, port)
            self._ready.set()

        self.server = ShardServer(config=config,
                                  lease_timeout=lease_timeout,
                                  solo_after=60.0, announce=announce,
                                  **server_kwargs)
        self._box = {}
        self._workers = []

        def coordinate():
            try:
                self._box["stats"] = explore_parallel(
                    sc.build, sc.check,
                    crash_plan_factory=sc.crash_plan_factory,
                    max_steps=sc.max_steps, max_runs=max_runs,
                    jobs=1, reduction="dpor",
                    scenario=ScenarioRef(name, n=n), metrics=metrics,
                    frontier=frontier, pool=self.server)
            except BaseException as exc:  # noqa: BLE001 - re-raised
                self._box["error"] = exc

        self._coord = threading.Thread(target=coordinate, daemon=True)
        self._coord.start()

    @property
    def address(self):
        assert self._ready.wait(10.0), "server never bound its socket"
        return self._addr["addr"]

    def wait_bound(self, timeout=10.0):
        """True once the socket is listening; False when the run ended
        without sharding (2-process scenarios finish during frontier
        expansion, so their pools -- and the listener -- never run)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._ready.is_set():
                return True
            if not self._coord.is_alive():
                return False
            time.sleep(0.01)
        raise AssertionError("server neither bound nor finished")

    def attach_worker(self, name, host=None, port=None, **kwargs):
        bound_host, bound_port = self.address
        worker = ShardWorker(host or bound_host, port or bound_port,
                             name=name, heartbeat_interval=0.2, **kwargs)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        self._workers.append((worker, thread))
        return worker

    def finish(self, timeout=180.0):
        self._coord.join(timeout=timeout)
        assert not self._coord.is_alive(), "coordinator wedged"
        for _worker, thread in self._workers:
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "worker thread wedged"
        if "error" in self._box:
            raise self._box["error"]
        return self._box["stats"]


class TestSocketDifferential:
    @pytest.mark.parametrize("name", SOUND_SCENARIOS)
    def test_serial_fork_and_socket_agree_bit_for_bit(self, name):
        sc = _scenario(name)
        serial_metrics = ExplorationMetrics(scenario=name, jobs=1)
        serial = _serial(sc, metrics=serial_metrics)
        fork_metrics = ExplorationMetrics(scenario=name, jobs=4)
        fork = explore(sc.build, sc.check,
                       crash_plan_factory=sc.crash_plan_factory,
                       max_steps=sc.max_steps, max_runs=sc.max_runs,
                       reduction="dpor", jobs=4, metrics=fork_metrics)
        socket_metrics = ExplorationMetrics(scenario=name, jobs=1)
        run = _SocketRun(name, sc, metrics=socket_metrics)
        sharded = run.wait_bound()
        if sharded:
            run.attach_worker(f"{name}-w0")
            run.attach_worker(f"{name}-w1")
        stats = run.finish()

        assert serial == fork
        assert serial == stats  # every field, not just totals
        reference = deterministic_view(
            serial_metrics.finalize().to_dict())
        assert deterministic_view(
            fork_metrics.finalize().to_dict()) == reference
        assert deterministic_view(
            socket_metrics.finalize().to_dict()) == reference
        if sharded:
            # The comparison must not be vacuous: the workers really
            # served shards over the socket, and nothing fell through
            # the cracks.
            tallies = run.server.tallies
            assert tallies["remote_shards"] > 0, tallies
            assert tallies["remote_shards"] \
                + tallies["inprocess_shards"] \
                >= serial_metrics.shard_count

    def test_broken_demo_socket_finds_identical_counterexample(self):
        sc = check_scenarios()["broken-demo"]
        with pytest.raises(CounterexampleFound) as serial_exc:
            _serial(sc)
        run = _SocketRun("broken-demo", sc)
        if run.wait_bound():
            run.attach_worker("demo-w0")
        with pytest.raises(CounterexampleFound) as socket_exc:
            run.finish()
        assert socket_exc.value.counterexample.prefix == \
            serial_exc.value.counterexample.prefix
        assert socket_exc.value.counterexample.schedule == \
            serial_exc.value.counterexample.schedule
        assert socket_exc.value.stats == serial_exc.value.stats


class TestBudgetStops:
    def test_fork_and_socket_stores_journal_the_same_shards(self,
                                                             tmp_path):
        """A shard that stopped at its ``max_runs`` budget is partial
        coverage, not a completion, whichever venue ran it: a socket
        worker reports the stop, and the socket-served store journals
        exactly the shards the fork pool's store does."""
        name = "safe-agreement"
        sc = _scenario(name)
        budget = 40
        fork_store = FrontierStore(str(tmp_path / "fork.jsonl"))
        with pytest.raises(ExplorationInterrupted) as fork_exc:
            explore_parallel(sc.build, sc.check,
                             crash_plan_factory=sc.crash_plan_factory,
                             max_steps=sc.max_steps, max_runs=budget,
                             jobs=2, reduction="dpor",
                             scenario=ScenarioRef(name),
                             frontier=fork_store)
        socket_store = FrontierStore(str(tmp_path / "socket.jsonl"))
        run = _SocketRun(name, sc, max_runs=budget, state_cache=False,
                         frontier=socket_store)
        assert run.wait_bound()
        run.attach_worker("budget-w0")
        with pytest.raises(ExplorationInterrupted) as socket_exc:
            run.finish()
        assert fork_exc.value.reason == socket_exc.value.reason \
            == "max_runs"
        assert socket_exc.value.stats == fork_exc.value.stats
        journals = []
        for store in (fork_store, socket_store):
            reloaded = FrontierStore(store.path)
            reloaded.load()
            journals.append(reloaded.completed)
        assert journals[0] == journals[1]
        # Not vacuous: some shards finished, others hit the budget, and
        # the worker really served shards over the socket.
        assert 0 < len(journals[0]) < len(reloaded.shards)
        assert run.server.tallies["remote_shards"] > 0


class TestChaos:
    def test_chaotic_transport_changes_nothing(self):
        """Drop, duplicate, delay, truncate, reorder and disconnect
        faults on live connections cost retries, never results."""
        name = "adopt-commit"
        sc = _scenario(name)
        serial = _serial(sc)
        run = _SocketRun(name, sc, lease_timeout=2.0)
        host, port = run.address
        proxy = ChaosProxy(host, port, seed=7, drop=0.02, duplicate=0.03,
                           delay=0.03, delay_seconds=0.005, truncate=0.01,
                           reorder=0.02, disconnect=0.01)
        proxy_host, proxy_port = proxy.start()
        try:
            for i in range(2):
                run.attach_worker(f"chaos-w{i}", host=proxy_host,
                                  port=proxy_port, rpc_timeout=1.0,
                                  rpc_attempts=10)
            stats = run.finish()
        finally:
            proxy.stop()
        assert stats == serial
        assert sum(proxy.injected.values()) > 0, \
            "the chaos proxy injected no faults; the test is vacuous"

    def test_duplicated_completion_frames_are_deduplicated(self):
        """A duplicate-heavy proxy replays completion frames; the
        server must apply each shard exactly once."""
        name = "safe-agreement"
        sc = _scenario(name)
        serial = _serial(sc)
        run = _SocketRun(name, sc)
        host, port = run.address
        proxy = ChaosProxy(host, port, seed=3, duplicate=0.5)
        proxy_host, proxy_port = proxy.start()
        try:
            run.attach_worker("dup-w0", host=proxy_host, port=proxy_port,
                              rpc_timeout=1.0, rpc_attempts=10)
            stats = run.finish()
        finally:
            proxy.stop()
        assert stats == serial
        assert proxy.injected["duplicate"] > 0


    def test_duplicated_replies_do_not_desynchronize_the_worker(self):
        """Replies are paired with requests by ``seq``: under the same
        duplicate-heavy proxy the worker serves shards and ends on
        ``done``, and the server rejects the duplicated completions."""
        name = "safe-agreement"
        sc = _scenario(name)
        serial = _serial(sc)
        run = _SocketRun(name, sc)
        host, port = run.address
        proxy = ChaosProxy(host, port, seed=3, duplicate=0.5)
        proxy_host, proxy_port = proxy.start()
        try:
            worker = run.attach_worker("dup-w0", host=proxy_host,
                                       port=proxy_port, rpc_timeout=1.0,
                                       rpc_attempts=10)
            stats = run.finish()
        finally:
            proxy.stop()
        assert stats == serial
        assert worker.stopped == "done"
        assert run.server.tallies["remote_shards"] > 0
        assert run.server.tallies["stale_rejections"] > 0


class TestProcessDeath:
    def test_worker_sigkill_mid_run_changes_nothing(self, tmp_path):
        """SIGKILL a live remote worker process: its leases lapse, the
        shards re-grant, and the merged statistics are untouched."""
        name = "adopt-commit"
        sc = _scenario(name)
        serial = _serial(sc)
        run = _SocketRun(name, sc, lease_timeout=1.0)
        host, port = run.address
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"{host}:{port}", "--name", "doomed"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            # Let it take (at least) one grant, then kill it cold.
            deadline = time.monotonic() + 30.0
            while (run.server.tallies["remote_shards"] == 0
                   and proc.poll() is None
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            proc.kill()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - belt and braces
                proc.kill()
        # All remotes are now gone: the coordinator's degradation
        # ladder (re-grant, then in-process) finishes the run alone.
        stats = run.finish()
        assert stats == serial
        tallies = run.server.tallies
        assert tallies["remote_shards"] > 0, "worker never served"
        assert tallies["inprocess_shards"] > 0, \
            "the coordinator never had to fall back"

    def test_coordinator_kill9_then_check_resume(self, tmp_path, capsys):
        """kill -9 the serve coordinator mid-journal; plain ``check
        --resume`` finishes the run bit-for-bit (the store is
        transport-agnostic)."""
        name = "adopt-commit"
        out = str(tmp_path / "reference.jsonl")
        expected = main(["check", name, "--jobs", "1",
                         "--metrics-out", out])
        assert expected == 0
        with open(out) as handle:
            (reference,) = [json.loads(line) for line in handle]
        capsys.readouterr()

        store = str(tmp_path / "frontier.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        env[KILL_AFTER_ENV] = "2"  # SIGKILL after two journal entries
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", name,
             "--checkpoint", store, "--solo-after", "0.1"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == -signal.SIGKILL, \
            (proc.returncode, proc.stdout, proc.stderr)
        assert os.path.exists(store)

        resumed_out = str(tmp_path / "resumed.jsonl")
        code = main(["check", name, "--resume", store, "--jobs", "1",
                     "--metrics-out", resumed_out])
        assert f"resuming from {store}" in capsys.readouterr().out
        assert code == expected
        with open(resumed_out) as handle:
            (record,) = [json.loads(line) for line in handle]
        assert deterministic_view(record) == deterministic_view(reference)

    def test_serve_and_worker_cli_end_to_end(self, tmp_path):
        """The documented two-command flow: ``serve`` in one process,
        ``worker`` in another, metrics v4 net tallies on the record."""
        name = "adopt-commit"
        out = str(tmp_path / "serve.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", name,
             "--bind", "127.0.0.1:0", "--solo-after", "120",
             "--metrics-out", out],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        try:
            addr = None
            for _ in range(10):  # banner lines precede the address
                line = serve.stdout.readline()
                if "[serve] listening on " in line:
                    addr = line.strip().rsplit(" ", 1)[-1]
                    break
            assert addr is not None, "serve never announced its address"
            worker = subprocess.run(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", addr],
                env=env, capture_output=True, text=True, timeout=300)
            assert worker.returncode == 0, \
                (worker.stdout, worker.stderr)
            assert "shard(s) completed" in worker.stdout
            serve_out, _ = serve.communicate(timeout=300)
            assert serve.returncode == 0, serve_out
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.wait()
        with open(out) as handle:
            (record,) = [json.loads(line) for line in handle]
        assert record["schema_version"] == 4
        assert record["net"]["remote_shards"] > 0
        assert record["net"]["inprocess_shards"] == 0
        # And the socket record's deterministic view equals serial's.
        ref_out = str(tmp_path / "reference.jsonl")
        assert main(["check", name, "--jobs", "1",
                     "--metrics-out", ref_out]) == 0
        with open(ref_out) as handle:
            (reference,) = [json.loads(line) for line in handle]
        assert deterministic_view(record) == deterministic_view(reference)


class _RawClient:
    """A hand-driven worker connection: one frame out, one frame in."""

    def __init__(self, address, name):
        self.sock = socket.create_connection(address, timeout=10.0)
        self.worker_id = None
        self.worker_id = self.rpc({"type": "hello",
                                   "worker": name})["worker_id"]

    def rpc(self, body):
        deadline = time.monotonic() + 10.0
        wire.send_frame(self.sock, dict(body, worker_id=self.worker_id),
                        deadline=deadline)
        return wire.recv_frame(self.sock, deadline=deadline)

    def close(self):
        self.sock.close()


def _wait_for(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _serve_synthetic(server):
    """Run ``server`` over one synthetic payload in a thread; returns
    (thread, outcome box) once the socket is listening."""
    box = {}

    def coordinate():
        box["outcomes"] = server(
            [((0,), frozenset())],
            lambda payload: (ExplorationStats(), None))

    thread = threading.Thread(target=coordinate, daemon=True)
    thread.start()
    _wait_for(lambda: server.port)
    return thread, box


def _completion(shard, runs):
    return {"type": "complete", "shard": shard,
            "stats": stats_to_dict(ExplorationStats(complete_runs=runs))}


class TestCleanShutdown:
    """A clean run ends with ``done``; the backoff ladder is kept for
    abnormal loss only."""

    def test_workers_exit_on_done_within_a_second_of_the_verdict(self):
        name = "x-safe-agreement"
        sc = _scenario(name)
        serial = _serial(sc)
        run = _SocketRun(name, sc)
        assert run.wait_bound()
        workers = [run.attach_worker(f"clean-w{i}") for i in range(2)]
        run._coord.join(timeout=180.0)
        verdict = time.monotonic()
        for _worker, thread in run._workers:
            thread.join(timeout=max(0.0, verdict + 1.0 - time.monotonic()))
            assert not thread.is_alive(), \
                "a worker outlived the verdict by more than 1 s"
        assert run.finish() == serial
        for worker in workers:
            assert worker.stopped == "done"
            assert worker.tallies["retries"] == 0, worker.tallies
        assert sum(w.shards_completed for w in workers) == \
            run.server.tallies["remote_shards"] > 0

    def test_undelivered_done_still_ends_through_the_ladder(self):
        """When ``done`` never reaches a worker, the linger runs out,
        the server closes, and the worker's reconnect ladder ends it."""
        name = "adopt-commit"
        sc = _scenario(name)
        serial = _serial(sc)
        run = _SocketRun(name, sc)
        send = run.server._reply

        def swallow_done(state, body):
            if body.get("type") == "done":
                return True  # "sent", never delivered
            return send(state, body)

        run.server._reply = swallow_done
        naps = {}
        workers = []
        for i in range(2):
            naps[i] = []
            workers.append(run.attach_worker(
                f"lost-w{i}", sleep=naps[i].append, connect_attempts=3))
        assert run.finish() == serial
        for i, worker in enumerate(workers):
            assert worker.stopped == "server gone"
            assert worker.tallies["retries"] >= 1
            assert len(naps[i]) == 2, "the ladder was not walked"

    def test_idle_worker_gets_done_while_its_request_is_held(self):
        """One long shard leaves the other worker idle: its single
        request is held and answered ``done`` when the shard settles
        -- no idle reply, no sleep, no re-request."""
        server = ShardServer(config={"scenario": "adopt-commit"},
                             solo_after=60.0)
        thread, box = _serve_synthetic(server)
        holder = _RawClient((server.host, server.port), "long")
        assert holder.rpc({"type": "request"})["type"] == "grant"
        naps = []
        idle = ShardWorker(server.host, server.port, name="idle",
                           sleep=naps.append)
        idler = threading.Thread(target=idle.run, daemon=True)
        idler.start()
        # Both hellos and both requests are in: the idle one is held.
        _wait_for(lambda: server.tallies["frames_in"] >= 4)
        time.sleep(0.3)  # the long shard outlasts the default hold
        assert holder.rpc(_completion(0, 7))["accepted"]
        settled = time.monotonic()
        idler.join(timeout=5.0)
        assert not idler.is_alive()
        assert time.monotonic() - settled < 1.0
        assert idle.stopped == "done"
        assert idle.tallies["frames_out"] == 2, idle.tallies  # hello, request
        assert naps == []
        assert holder.rpc({"type": "request"})["type"] == "done"
        holder.close()
        thread.join(timeout=10.0)
        assert box["outcomes"][0][0][0].complete_runs == 7

    def test_regranted_shard_goes_to_a_held_request_at_once(self):
        """A lapsed lease is re-granted to the request already held,
        in the loop pass that notices the expiry."""
        server = ShardServer(config={"scenario": "adopt-commit"},
                             lease_timeout=0.5, solo_after=60.0)
        thread, box = _serve_synthetic(server)
        silent = _RawClient((server.host, server.port), "silent")
        assert silent.rpc({"type": "request"})["shard"] == 0
        granted = time.monotonic()
        waiter = _RawClient((server.host, server.port), "waiter")
        reply = waiter.rpc({"type": "request", "wait": 30.0})
        waited = time.monotonic() - granted
        assert reply["type"] == "grant" and reply["shard"] == 0, reply
        assert 0.5 <= waited < 5.0, waited
        assert server.tallies["regrants"] == 1
        assert waiter.rpc(_completion(0, 3))["accepted"]
        for client in (waiter, silent):
            assert client.rpc({"type": "request"})["type"] == "done"
            client.close()
        thread.join(timeout=10.0)
        assert box["outcomes"][0][0][0].complete_runs == 3


class TestWorkerProcesses:
    def test_worker_jobs_two_runs_two_sessions_that_both_serve(self):
        """``worker --jobs 2`` runs two sessions (one process each)
        against a live server; both complete shards and the exit line
        sums them."""
        name = "x-safe-agreement"
        n = 4
        sc = check_scenarios(n=n)[name]
        serial = _serial(sc)
        run = _SocketRun(name, sc, n=n)
        host, port = run.address
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "worker", "--connect",
             f"{host}:{port}", "--jobs", "2", "--name", "cli"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (proc.stdout, proc.stderr)
        assert run.finish() == serial
        sessions = {row["name"]: row["shards"]
                    for row in run.server.tallies["workers"]}
        assert set(sessions) == {"cli-0", "cli-1"}
        assert all(shards > 0 for shards in sessions.values()), sessions
        assert (f"{sum(sessions.values())} shard(s) completed across "
                f"2 session(s), 0 RPC retr(ies)") in proc.stdout
        assert "stopped on done (2)" in proc.stdout


class TestLiveness:
    def test_silent_grant_holders_do_not_stall_the_run(self):
        """Two connections take a grant each and go silent without
        closing.  Both leases lapse, both holders are presumed lost,
        and the coordinator runs all four shards itself."""
        server = ShardServer(config={"scenario": "adopt-commit"},
                             lease_timeout=0.5, solo_after=60.0)
        payloads = [((i,), frozenset()) for i in range(4)]
        box = {}

        def coordinate():
            box["outcomes"] = server(
                payloads, lambda payload: (
                    ExplorationStats(complete_runs=1 + payload[0][0]), {}))

        thread = threading.Thread(target=coordinate, daemon=True)
        thread.start()
        _wait_for(lambda: server.port)
        clients = [_RawClient((server.host, server.port), f"silent-{i}")
                   for i in range(2)]
        try:
            for client in clients:
                assert client.rpc({"type": "request"})["type"] == "grant"
            thread.join(timeout=15.0)
            finished = not thread.is_alive()
        finally:
            for client in clients:  # unblocks a server that waits on them
                client.close()
            thread.join(timeout=10.0)
        assert finished, "the run waited on workers that went silent"
        assert [stats.complete_runs for (stats, _), _err
                in box["outcomes"]] == [1, 2, 3, 4]
        assert server.tallies["regrants"] == 2
        assert server.tallies["inprocess_shards"] == 4
        assert server.tallies["remote_shards"] == 0

    def test_hello_only_session_does_not_stall_the_run(self):
        """A connection that says hello and never asks for work holds no
        lease; once it has been silent a lease period it is presumed
        lost, and the coordinator runs every shard itself instead of
        waiting out ``solo_after``."""
        server = ShardServer(config={"scenario": "adopt-commit"},
                             lease_timeout=0.5, solo_after=60.0)
        payloads = [((i,), frozenset()) for i in range(3)]
        box = {}

        def coordinate():
            box["outcomes"] = server(
                payloads, lambda payload: (
                    ExplorationStats(complete_runs=1 + payload[0][0]), {}))

        thread = threading.Thread(target=coordinate, daemon=True)
        thread.start()
        _wait_for(lambda: server.port)
        client = _RawClient((server.host, server.port), "hello-only")
        started = time.monotonic()
        try:
            thread.join(timeout=5.0)
            finished = not thread.is_alive()
            elapsed = time.monotonic() - started
        finally:
            client.close()  # unblocks a server that waits on it
            thread.join(timeout=10.0)
        assert finished, "the run waited on a worker that never asked"
        assert elapsed < 5.0, elapsed
        assert [stats.complete_runs for (stats, _), _err
                in box["outcomes"]] == [1, 2, 3]
        assert server.tallies["connections"] == 1
        assert server.tallies["inprocess_shards"] == 3
        assert server.tallies["remote_shards"] == 0

    def test_linger_does_not_wait_for_a_lost_session(self):
        """After the last settle the server lingers until every live
        connection has been sent ``done``; a hello-only session, already
        presumed lost, will never ask, so the server returns at once
        instead of waiting out the whole linger."""
        server = ShardServer(config={"scenario": "adopt-commit"},
                             lease_timeout=0.5, solo_after=60.0)
        payloads = [((i,), frozenset()) for i in range(3)]
        marks = {}
        settle = server._settle

        def timed_settle(idx, outcome):
            settle(idx, outcome)
            marks["settled"] = time.monotonic()

        server._settle = timed_settle

        def coordinate():
            server(payloads, lambda payload: (ExplorationStats(), {}))
            marks["returned"] = time.monotonic()

        thread = threading.Thread(target=coordinate, daemon=True)
        thread.start()
        _wait_for(lambda: server.port)
        client = _RawClient((server.host, server.port), "hello-only")
        try:
            thread.join(timeout=5.0)
        finally:
            client.close()
            thread.join(timeout=10.0)
        assert "returned" in marks, "the run waited on a silent session"
        assert marks["returned"] - marks["settled"] < _LINGER / 2, marks
