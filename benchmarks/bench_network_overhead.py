"""Socket-transport overhead: what the multi-machine shard service costs.

``python -m repro serve`` / ``worker`` carry the lease protocol over
TCP (:mod:`repro.runtime.netshard`), trading frame encode/decode,
checksums, and round-trips for the ability to put workers on other
machines.  On a single host that trade is pure overhead -- this bench
measures exactly how much, on jobs-sharded DPOR exploration of
4-process x-safe-agreement (x=2, p0 crashing mid-propose):

* **fork**   -- the baseline ``explore_parallel`` fork pool (jobs=2);
* **socket** -- the same exploration served by a :class:`ShardServer`
  to two ``python -m repro worker`` processes over real sockets on
  loopback (every grant, heartbeat, and completion is a framed
  round-trip).

Both must return bit-for-bit identical statistics -- the transport may
cost time, never coverage (the ``network`` differential tier enforces
this on every scenario; the bench just prices it).

Both sides run their shards in two worker processes.  The socket time
also covers starting the two worker interpreters and waiting for them
to exit on the server's ``done``, since a ``serve`` run pays both.
"""

import os
import subprocess
import sys
import time

import repro
from repro.runtime.netshard import ShardServer
from repro.runtime.parallel import explore_parallel
from repro.scenarios import ScenarioRef, check_scenarios

from .harness import header, write_report

N = 4
WORKERS = 2
REPEATS = 3
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _scenario():
    return check_scenarios(n=N)["x-safe-agreement"]


def _fork_explore(jobs=WORKERS):
    sc = _scenario()
    return explore_parallel(sc.build, sc.check,
                            crash_plan_factory=sc.crash_plan_factory,
                            max_steps=sc.max_steps, max_runs=sc.max_runs,
                            jobs=jobs)


def _socket_explore():
    """One exploration through the TCP shard service on loopback, its
    shards run by ``WORKERS`` fresh ``python -m repro worker``
    processes."""
    sc = _scenario()
    config = {"scenario": "x-safe-agreement", "n": N, "x": 2,
              "max_steps": sc.max_steps, "max_runs": sc.max_runs,
              "reduction": "dpor", "state_cache": True}
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    procs = []

    def spawn(host, port):
        for i in range(WORKERS):
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", "--connect",
                 f"{host}:{port}", "--name", f"bench-w{i}"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True))

    server = ShardServer(config=config, solo_after=60.0, announce=spawn)
    try:
        stats = explore_parallel(
            sc.build, sc.check, crash_plan_factory=sc.crash_plan_factory,
            max_steps=sc.max_steps, max_runs=sc.max_runs, jobs=1,
            scenario=ScenarioRef("x-safe-agreement", n=N), pool=server)
        for proc in procs:
            _out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    return stats, server.tallies


def _best_of(fn, repeats=REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_network_overhead_report():
    t_fork, fork_stats = _best_of(_fork_explore)
    t_socket, (socket_stats, tallies) = _best_of(_socket_explore)
    assert socket_stats == fork_stats, \
        "the socket transport changed what was explored"
    assert tallies["remote_shards"] > 0, \
        "no shard actually travelled over the socket"

    lines = header(
        f"Socket-transport overhead ({N}-process x-safe-agreement, "
        f"x=2, {WORKERS} workers)",
        "fork = explore_parallel fork pool; socket = ShardServer + "
        "`python -m repro worker` processes over loopback TCP")
    lines.append(f"{'variant':<8} {'runs':>6} "
                 f"{'best-of-%d (s)' % REPEATS:>14} {'vs fork':>9}")
    for label, stats, seconds in (("fork", fork_stats, t_fork),
                                  ("socket", socket_stats, t_socket)):
        lines.append(f"{label:<8} {stats.total_runs:>6} "
                     f"{seconds:>14.4f} {seconds / t_fork:>8.2f}x")
    lines.append("")
    lines.append(f"frames: {tallies['frames_in']} in / "
                 f"{tallies['frames_out']} out across "
                 f"{tallies['connections']} connection(s); "
                 f"{tallies['remote_shards']} shard(s) remote, "
                 f"{tallies['inprocess_shards']} in-process")
    lines.append("fork == socket stats: the transport costs frames, "
                 "never coverage.")
    write_report("network_overhead", lines, data={
        "scenario": "x-safe-agreement", "n": N, "workers": WORKERS,
        "total_runs": fork_stats.total_runs,
        "fork_seconds": t_fork,
        "socket_seconds": t_socket,
        "socket_overhead_ratio": t_socket / t_fork,
        "frames_in": tallies["frames_in"],
        "frames_out": tallies["frames_out"],
        "remote_shards": tallies["remote_shards"],
        "inprocess_shards": tallies["inprocess_shards"],
    })
