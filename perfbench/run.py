"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: deep-cached, fork-pool,
socket-pool, sweep (see perfbench/README.md).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, ``setup_s``
included; with ``--trace 1`` they are the per-layer ones of a traced
run.  Exits non-zero, printing no result, when the checkout holds no
program to measure or a run fails to finish.

Every Python process the benchmark starts gets ``src`` on its path, a
bytecode cache of its own under ``.perfbench/`` that it may write (so
set-up time depends neither on whether ``__pycache__`` directories come
with the checkout nor on ``PYTHONDONTWRITEBYTECODE``) and a fixed hash
seed.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.join(HERE, "bench.py")
WORKLOADS = ("deep-cached", "fork-pool", "socket-pool", "sweep")
#: Fresh-interpreter set-ups timed before and again after the measured
#: passes; ``setup_s`` is the median of all of them.  Spreading them
#: over the run keeps one stretch of a CPU-speed mode from setting it.
SETUP_STARTS = 3
#: A run, set-up included, must end within this many seconds.
RUN_LIMIT = 170.0


def child_env():
    env = dict(os.environ)
    # Bytecode is always written to, and read from, the private cache:
    # an inherited PYTHONDONTWRITEBYTECODE would make every set-up
    # recompile the package from source.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".perfbench", "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, env, deadline):
    """Run one ``bench.py`` process in its own process group; kill the whole
    group if it outlives ``deadline``.  Returns ``(code, stdout)``."""
    proc = subprocess.Popen([sys.executable, BENCH] + argv, env=env,
                            cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0,
                                              deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def time_setups(workload, env, deadline, count):
    """Wall times of ``count`` fresh-interpreter set-ups of ``workload``:
    start-up, imports, input resolution and warm-up."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        code, _ = run_child(["--workload", workload, "--setup-only"], env,
                            deadline)
        if code != 0:
            raise RuntimeError(f"set-up of {workload} exited {code}")
        times.append(time.perf_counter() - start)
    return times


def _terminate(signum, frame):
    # Unwind through run_child's cleanup, which kills the child group.
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"run.py: no program under {ROOT}/src to benchmark",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT
    env = child_env()
    setups = []
    try:
        # The first start-up fills the bytecode cache of a fresh
        # checkout; it is not timed.
        time_setups(args.workload, env, deadline, 1)
        if not args.trace:
            setups += time_setups(args.workload, env, deadline,
                                  SETUP_STARTS)
        code, out = run_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, deadline)
        if code == 0 and not args.trace:
            setups += time_setups(args.workload, env, deadline,
                                  SETUP_STARTS)
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    lines = out.decode().splitlines()
    if code != 0 or not lines:
        print(f"run.py: bench.py exited {code}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])
    if setups:
        report["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s"}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
