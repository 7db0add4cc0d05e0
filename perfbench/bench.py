"""The benchmark's measuring process: one workload, one report.

``run.py`` starts this file in a fresh interpreter (with ``src`` on
``PYTHONPATH``, a private bytecode cache and a fixed hash seed) as

    bench.py --workload NAME --seed N --seconds S --trace 0|1
    bench.py --workload NAME --setup-only

The load is a closed loop: one client runs the workload's checks back to
back, each starting once the previous verdict is in.  A *pass* runs
every check of the workload once, in an order drawn from ``--seed``;
passes repeat while another one fits in ``--seconds``.  Every verdict
and its deterministic statistics are compared with ``pinned.json``.

With ``--trace 1`` the same passes run twice, untraced and then traced,
and the report holds the per-layer metrics of the traced passes; the
counts of both halves must be equal.  The last line of standard output
is the JSON report ``run.py`` completes.
"""

import argparse
import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
from statistics import median
from time import perf_counter

from measure import FailureTally, highest_supported

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pinned.json")
#: Scratch output inside the checkout (span dumps, bytecode cache).
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: ``deep-cached``: the default ``check`` path on every registry scenario.
DEEP_CHECKS = (("x-safe-agreement", 4), ("safe-agreement", 3),
               ("adopt-commit", 3), ("queue-2cons", 3),
               ("broken-demo", 3))
#: ``fork-pool`` / ``socket-pool``: one shard-bound, one transport-bound.
POOL_CHECKS = (("x-safe-agreement", 4), ("adopt-commit", 3))
#: Worker processes (and socket connections) of the pooled workloads,
#: sized for a two-core machine.
JOBS = 2
#: The generated batch the ``sweep`` workload cross-checks in one pass:
#: about 6 s of work with all eight families and the blocking tail
#: (one 2.3 s exploration).  A run makes several passes; four or more
#: give the thousand samples p99 needs (ten beyond it).
SWEEP_SEED = 7
SWEEP_COUNT = 250
#: Seconds a socket worker may take to exit after the verdict (its
#: reconnect backoff is about 6.5 s).
DRAIN_TIMEOUT = 60.0

_WORKER_LINE = re.compile(r"(\d+) RPC retr")


def key_of(name, n):
    return f"{name}/{n}"


class Observation:
    """What one check returned: the pinned-comparable record, the
    schedules it explored, its time to verdict, the counts the traced
    run must reproduce, and transport observations (socket only)."""

    def __init__(self, record, runs, seconds, counts, extra=None):
        self.record = record
        self.runs = runs
        self.seconds = seconds
        self.counts = counts
        self.extra = extra or {}


def exploration_record(metrics):
    """The pinned view of a check: verdict plus deterministic stats."""
    from repro.analysis.metrics import deterministic_view
    return deterministic_view(metrics.to_dict())


def settle_violation(metrics, exc):
    """Record a counterexample exactly as ``check --metrics-out`` does."""
    if exc.stats is not None:
        metrics.record_stats(exc.stats)
    ce = exc.counterexample
    metrics.record_violation(error_type=type(ce.error).__name__,
                             prefix=ce.prefix, schedule=ce.schedule)
    if not metrics.ddmin_replays:
        metrics.ddmin_replays = ce.ddmin_attempts


def warm_up():
    """One tiny exploration through the default path, so one-time
    lazy initialisation is paid in set-up, not by the first check."""
    from repro.runtime import explore
    from repro.scenarios import build_scenario
    sc = build_scenario("queue-2cons")
    explore(sc.build, sc.check, max_steps=sc.max_steps,
            max_runs=sc.max_runs, reduction="dpor")


def metric_counts(metrics):
    return (metrics.total_runs, metrics.cache_hits, metrics.ddmin_replays,
            metrics.shard_count)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class DeepCached:
    """Serial DPOR with the state cache on: the default ``check``."""

    name = "deep-cached"

    def setup(self):
        from repro.analysis.metrics import ExplorationMetrics
        from repro.runtime import CounterexampleFound, explore, explore_dpor
        from repro.scenarios import check_scenarios
        self.ExplorationMetrics = ExplorationMetrics
        self.CounterexampleFound = CounterexampleFound
        self.explore, self.explore_dpor = explore, explore_dpor
        sizes = {n for _, n in DEEP_CHECKS}
        registries = {n: check_scenarios(n=n) for n in sizes}
        self.scenarios = {key_of(name, n): registries[n][name]
                          for name, n in DEEP_CHECKS}
        self.keys = list(self.scenarios)
        warm_up()

    def run_check(self, key, tracer):
        sc = self.scenarios[key]
        metrics = self.ExplorationMetrics(scenario=sc.name, engine="dpor")
        build, check = sc.build, sc.check
        kwargs = dict(crash_plan_factory=sc.crash_plan_factory,
                      max_steps=sc.max_steps, max_runs=sc.max_runs,
                      metrics=metrics)
        start = perf_counter()
        try:
            if tracer is None:
                self.explore(build, check, reduction="dpor", **kwargs)
            else:
                from spans import TimingFingerprinter
                index = tracer.begin("dpor.explore")
                try:
                    self.explore_dpor(
                        tracer.wrap("scenarios.build", build),
                        tracer.wrap("check.call", check),
                        fingerprinter=TimingFingerprinter(tracer),
                        **kwargs)
                finally:
                    tracer.end(index)
        except self.CounterexampleFound as exc:
            settle_violation(metrics, exc)
        seconds = perf_counter() - start
        return Observation(exploration_record(metrics), metrics.total_runs,
                           seconds, metric_counts(metrics),
                           {"metrics": metrics})


class ForkPool:
    """``check --jobs 2``: frontier expansion plus a fork pool."""

    name = "fork-pool"

    def setup(self):
        from repro.analysis.metrics import ExplorationMetrics
        from repro.runtime import explore_parallel
        from repro.scenarios import ScenarioRef
        self.ExplorationMetrics = ExplorationMetrics
        self.explore_parallel = explore_parallel
        self.refs = {key_of(name, n): ScenarioRef(name, n=n)
                     for name, n in POOL_CHECKS}
        self.scenarios = {key: ref.resolve()
                          for key, ref in self.refs.items()}
        self.keys = list(self.refs)
        warm_up()

    def explore_pooled(self, key, metrics, tracer, pool=None):
        sc = self.scenarios[key]
        build, check = sc.build, sc.check
        index = None
        if tracer is not None:
            build = tracer.wrap("scenarios.build", build)
            check = tracer.wrap("check.call", check)
            index = tracer.begin("parallel.explore")
        try:
            self.explore_parallel(
                build, check, crash_plan_factory=sc.crash_plan_factory,
                max_steps=sc.max_steps, max_runs=sc.max_runs, jobs=JOBS,
                reduction="dpor", scenario=self.refs[key],
                metrics=metrics, pool=pool)
        finally:
            if index is not None:
                tracer.end(index)

    def run_check(self, key, tracer):
        metrics = self.ExplorationMetrics(scenario=self.refs[key].name,
                                          engine="dpor", jobs=JOBS)
        start = perf_counter()
        self.explore_pooled(key, metrics, tracer)
        seconds = perf_counter() - start
        busy = sum(row["busy_seconds"] for row in metrics.workers
                   if row["worker"] >= 0)
        return Observation(exploration_record(metrics), metrics.total_runs,
                           seconds, metric_counts(metrics),
                           {"metrics": metrics, "busy_s": busy})


class SocketPool(ForkPool):
    """The same checks served by a ``ShardServer`` to two fresh
    ``python -m repro worker`` processes per check.

    Workers get fixed names: their reconnect backoff after the server
    closes (the drain) is jittered by a hash of the name, and the
    default name embeds the pid.
    """

    name = "socket-pool"

    def setup(self):
        super().setup()
        from repro.runtime import ShardServer, wire
        self.ShardServer = ShardServer
        self.wire = wire

    def run_check(self, key, tracer):
        sc = self.scenarios[key]
        ref = self.refs[key]
        metrics = self.ExplorationMetrics(scenario=ref.name, engine="dpor",
                                          jobs=1)
        procs = []
        seen = {"spawned": None, "hello": {}, "grants": {}, "busy": 0.0,
                "bytes": 0}

        def spawn(host, port):
            index = tracer.begin("bench.spawn") if tracer else None
            seen["spawned"] = perf_counter()
            try:
                for i in range(JOBS):
                    procs.append(subprocess.Popen(
                        [sys.executable, "-m", "repro", "worker",
                         "--connect", f"{host}:{port}", "--name", f"w{i}"],
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                        text=True))
            finally:
                if index is not None:
                    tracer.end(index)

        server = self.ShardServer(
            config={"scenario": ref.name, "n": ref.n, "x": ref.x,
                    "max_steps": sc.max_steps, "max_runs": sc.max_runs,
                    "reduction": "dpor", "state_cache": True},
            announce=spawn)
        restore = None
        if tracer is not None:
            restore = self.instrument(server, tracer, seen)
        outputs = []
        try:
            start = perf_counter()
            self.explore_pooled(key, metrics, tracer, pool=server)
            verdict = perf_counter()
            index = tracer.begin("netshard.drain") if tracer else None
            try:
                for proc in procs:
                    out, err = proc.communicate(timeout=DRAIN_TIMEOUT)
                    outputs.append((proc.returncode, out, err))
            finally:
                if index is not None:
                    tracer.end(index)
            drained = perf_counter()
        finally:
            if restore is not None:
                restore()
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
        for code, out, err in outputs:
            if code != 0:
                raise RuntimeError(f"worker exited {code}: {err.strip()}")
        retries = sum(int(m.group(1)) for _, out, _ in outputs
                      for m in _WORKER_LINE.finditer(out))
        tallies = server.tallies
        extra = {"metrics": metrics, "drain_s": drained - verdict,
                 "bytes": seen["bytes"],
                 "frames": tallies["frames_in"] + tallies["frames_out"],
                 "retries": retries, "reconnects": tallies["reconnects"],
                 "regrants": tallies["regrants"],
                 "inprocess_shards": tallies["inprocess_shards"],
                 "busy_s": seen["busy"]}
        if seen["hello"]:
            extra["worker_start_s"] = (max(seen["hello"].values())
                                       - seen["spawned"])
        return Observation(exploration_record(metrics), metrics.total_runs,
                           verdict - start,
                           metric_counts(metrics) + (extra["frames"],),
                           extra)

    def instrument(self, server, tracer, seen):
        """Span the coordinator's protocol handling and frame codec.

        Returns a callable that undoes the ``wire`` module patches.
        """
        wire = self.wire
        handle = server.handle_message
        encode, decode = wire.encode_frame, wire.try_decode

        def traced_handle(body, now=None):
            index = tracer.begin("netshard.handle")
            try:
                reply = handle(body, now)
            finally:
                tracer.end(index)
            stamp = perf_counter()
            kind = body.get("type")
            if kind == "hello":
                seen["hello"].setdefault(body.get("worker"), stamp)
            elif kind == "complete" and body.get("shard") in seen["grants"]:
                seen["busy"] += stamp - seen["grants"].pop(body["shard"])
            if reply.get("type") == "grant":
                seen["grants"].setdefault(reply["shard"], stamp)
            return reply

        def traced_encode(body):
            index = tracer.begin("wire.encode")
            try:
                frame = encode(body)
            finally:
                tracer.end(index)
            seen["bytes"] += len(frame)
            return frame

        def traced_decode(buffer):
            index = tracer.begin("wire.decode")
            try:
                decoded = decode(buffer)
            finally:
                tracer.end(index)
            if decoded is not None:
                seen["bytes"] += decoded[1]
            return decoded

        server.handle_message = traced_handle
        wire.encode_frame, wire.try_decode = traced_encode, traced_decode

        def restore():
            wire.encode_frame, wire.try_decode = encode, decode
        return restore


class Sweep:
    """Generated configurations cross-checked against the oracle."""

    name = "sweep"

    def setup(self):
        import repro.generative.sweep as sweep_module
        from repro.analysis.metrics import ExplorationMetrics
        from repro.generative import generate_config
        from repro.generative.oracle import SolvabilityOracle
        from repro.runtime import CounterexampleFound, explore_dpor
        self.ExplorationMetrics = ExplorationMetrics
        self.CounterexampleFound = CounterexampleFound
        self.explore_dpor = explore_dpor
        self.generate_config = generate_config
        self.execute_config = sweep_module.execute_config
        self.oracle = SolvabilityOracle()
        self.keys = list(range(SWEEP_COUNT))
        # The sweep calls ``explore`` without a metrics collector; a
        # shim on its module global collects the explored runs (for
        # schedules_per_s and the pinned records) and, when tracing,
        # threads the timing fingerprinter through.
        self.real_explore = sweep_module.explore
        sweep_module.explore = self.explore_shim
        self.tracer = None
        self.explored = None
        warm_up()

    def explore_shim(self, build, check, **kwargs):
        metrics = self.ExplorationMetrics(engine="dpor")
        self.explored = metrics
        tracer = self.tracer
        try:
            if tracer is None:
                return self.real_explore(build, check, metrics=metrics,
                                         **kwargs)
            if kwargs.pop("reduction") != "dpor" or \
                    kwargs.pop("timeout") is not None:
                raise RuntimeError("sweep explored outside the traced path")
            from spans import TimingFingerprinter
            index = tracer.begin("dpor.explore")
            try:
                return self.explore_dpor(
                    tracer.wrap("scenarios.build", build),
                    tracer.wrap("check.call", check), metrics=metrics,
                    fingerprinter=TimingFingerprinter(tracer), **kwargs)
            finally:
                tracer.end(index)
        except self.CounterexampleFound as exc:
            # A predicted violation: its runs are part of the verdict.
            metrics.record_stats(exc.stats)
            raise

    def run_check(self, key, tracer):
        self.tracer = tracer
        self.explored = None
        start = perf_counter()
        if tracer is None:
            cfg = self.generate_config(SWEEP_SEED, key)
            outcome = self.execute_config(cfg, self.oracle)
        else:
            index = tracer.begin("generative.generate")
            try:
                cfg = self.generate_config(SWEEP_SEED, key)
            finally:
                tracer.end(index)
            index = tracer.begin(f"generative.{cfg.family}")
            try:
                outcome = self.execute_config(cfg, self.oracle)
            finally:
                tracer.end(index)
        seconds = perf_counter() - start
        metrics = self.explored
        runs = metrics.total_runs if metrics is not None else None
        digest = hashlib.sha256(json.dumps(
            [outcome.to_dict(), runs], sort_keys=True).encode()
        ).hexdigest()[:16]
        counts = (runs, None if metrics is None else metrics.cache_hits)
        return Observation(digest, runs, seconds, counts,
                           {"metrics": metrics})


WORKLOADS = {w.name: w for w in (DeepCached, ForkPool, SocketPool, Sweep)}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def pass_order(keys, seed, number):
    """The check order of pass ``number``, drawn from ``seed``."""
    order = list(keys)
    random.Random(f"{seed}:{number}").shuffle(order)
    return order


def pinned_record(pins, workload, key):
    if workload.name == "sweep":
        return pins["sweep"][key]
    table = "serial" if workload.name == "deep-cached" else "sharded"
    return pins[table][key]


def run_pass(workload, order, pins, tally, tracer, number):
    """One closed-loop pass; returns ``(wall_s, [(key, obs)])``."""
    results = []
    pass_index = tracer.begin("bench.pass") if tracer else None
    start = perf_counter()
    for key in order:
        if tracer is not None:
            tracer.check_id = f"{number}:{key}"
            check_index = tracer.begin("bench.check")
        try:
            obs = workload.run_check(key, tracer)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            tally.raised(key, exc)
            continue
        finally:
            if tracer is not None:
                tracer.end(check_index)
        tally.compare(key, obs.record, pinned_record(pins, workload, key))
        results.append((key, obs))
    wall = perf_counter() - start
    if tracer is not None:
        tracer.check_id = None
        tracer.end(pass_index)
    return wall, results


def run_passes(workload, seed, seconds, pins, tally, tracer=None,
               count=None):
    """Passes while the next one fits in ``seconds`` (at least one), or
    exactly ``count`` passes."""
    passes = []
    spent = 0.0
    while True:
        number = len(passes)
        wall, results = run_pass(workload, pass_order(workload.keys, seed,
                                                      number),
                                 pins, tally, tracer, number)
        passes.append((wall, results))
        spent += wall
        if count is not None:
            if len(passes) >= count:
                return passes
        elif spent + wall > seconds:
            return passes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(passes):
    """The untraced metrics (``setup_s`` is added by ``run.py``).

    Every time metric is taken over the whole run: work done over time
    spent, and the mean pass wall.  The machine's speed moves between
    levels for seconds to minutes at a time; a total weighs each slow
    stretch by its length, where a median over passes flips between the
    levels from run to run.
    """
    walls = [wall for wall, _ in passes]
    observations = [obs for _, results in passes for _, obs in results]
    explored = [obs for obs in observations if obs.runs is not None]
    return {
        "wall_s": (sum(walls) / len(walls), "s"),
        "checks_per_s": (len(observations) / sum(walls), "1/s"),
        "schedules_per_s": (sum(obs.runs for obs in explored)
                            / sum(obs.seconds for obs in explored), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def percentile_lines(passes):
    """Human-readable time-to-verdict percentiles (stated with n)."""
    samples = [obs.seconds * 1000 for _, results in passes
               for _, obs in results]
    lines = []
    for wanted in (50, 99):
        found = highest_supported(samples, wanted)
        if found is None:
            lines.append(f"check_p{wanted}_ms: not reported (n={len(samples)}"
                         f", needs >= 10 samples beyond it)")
            continue
        p, value, n, beyond = found
        lines.append(f"check_p{p}_ms: {value:.4f} ms (n={n}, {beyond} "
                     f"beyond; asked for p{wanted})")
    return lines


def per_layer(passes, untraced_walls, tracer):
    """Per-layer metrics of the traced passes, each per pass.

    Times and calls of the layers come from the spans; DPOR
    counters, sharding phases and shard counts from the
    ``ExplorationMetrics`` the program fills; transport tallies from
    the ``ShardServer`` and the workers' exit lines.  Fingerprinting
    inside pool workers is not visible to the spans: it is part of
    ``parallel.shard_execution_s``.
    """
    from repro.generative.generator import FAMILIES
    from spans import summarize
    count = len(passes)
    walls = [wall for wall, _ in passes]
    by_name, by_layer = summarize(tracer.spans)
    observations = [obs for _, results in passes for _, obs in results]
    collected = [obs.extra["metrics"] for obs in observations
                 if obs.extra.get("metrics") is not None]
    sharded = [m for m in collected if m.shard_count]

    def layer(name, field):
        return by_layer.get(name, {}).get(field, 0) / count

    def span(name, field):
        return by_name.get(name, {}).get(field, 0.0) / count

    def extra(field):
        return sum(obs.extra.get(field, 0) for obs in observations) / count

    def total(field, rows=collected):
        return sum(getattr(m, field) for m in rows)

    def phase(name):
        return sum(m.phases.get(name, 0.0) for m in sharded)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "scenarios.build_calls": (layer("scenarios", "calls"), "count"),
        "scenarios.build_s": (layer("scenarios", "self_s"), "s"),
        "check.calls": (layer("check", "calls"), "count"),
        "check.s": (layer("check", "self_s"), "s"),
        "fingerprint.calls": (layer("fingerprint", "calls"), "count"),
        "fingerprint.s": (layer("fingerprint", "self_s"), "s"),
        "dpor.self_s": (layer("dpor", "self_s"), "s"),
        "dpor.executed_runs": ((total("total_runs")
                                - total("cache_skipped_runs")) / count,
                               "count"),
        "dpor.cache_hits": (total("cache_hits") / count, "count"),
        "dpor.cache_skip_frac": (ratio(total("cache_skipped_runs"),
                                       total("total_runs")), "frac"),
        "dpor.sleep_set_hit_rate": (ratio(total("sleep_set_hits"),
                                          total("sleep_set_checks")),
                                    "frac"),
        "dpor.ddmin_replays": (total("ddmin_replays") / count, "count"),
        "parallel.frontier_expansion_s": (
            phase("frontier_expansion") / count, "s"),
        "parallel.shard_execution_s": (phase("shard_execution") / count,
                                       "s"),
        "parallel.merge_s": (phase("merge") / count, "s"),
        "parallel.shards": (total("shard_count", sharded) / count,
                            "count"),
        "parallel.worker_busy_frac": (
            ratio(extra("busy_s"), JOBS * phase("shard_execution") / count),
            "frac"),
        "parallel.self_s": (layer("parallel", "self_s"), "s"),
        "netshard.worker_start_s": (extra("worker_start_s"), "s"),
        "netshard.drain_s": (span("netshard.drain", "self_s"), "s"),
        "netshard.handle_s": (span("netshard.handle", "self_s"), "s"),
        "netshard.frames": (extra("frames"), "count"),
        "netshard.retries": (extra("retries"), "count"),
        "netshard.reconnects": (extra("reconnects"), "count"),
        "netshard.regrants": (extra("regrants"), "count"),
        "netshard.inprocess_shards": (extra("inprocess_shards"), "count"),
        "wire.encode_us": (span("wire.encode", "self_s") * 1e6, "us"),
        "wire.decode_us": (span("wire.decode", "self_s") * 1e6, "us"),
        "wire.bytes": (extra("bytes"), "bytes"),
        "generative.generate_s": (span("generative.generate", "self_s"),
                                  "s"),
        "generative.self_s": (layer("generative", "self_s")
                              - span("generative.generate", "self_s"),
                              "s"),
    }
    for family in FAMILIES:
        out[f"generative.{family}_s"] = (
            span(f"generative.{family}", "total_s"), "s")
    out["bench.self_s"] = (layer("bench", "self_s"), "s")
    out["trace.wall_s"] = (median(walls), "s")
    out["trace.overhead_frac"] = (median(walls) / median(untraced_walls)
                                  - 1, "frac")
    return out, by_layer


def accounting_lines(by_layer, traced_walls):
    """Self time per layer as a share of the traced wall."""
    total_wall = sum(traced_walls)
    lines = [f"{'layer':<12} {'self_s/pass':>12} {'share':>7}"]
    accounted = 0.0
    for name in sorted(by_layer, key=lambda n: -by_layer[n]["self_s"]):
        self_s = by_layer[name]["self_s"]
        accounted += self_s
        lines.append(f"{name:<12} {self_s / len(traced_walls):>12.4f} "
                     f"{self_s / total_wall:>7.1%}")
    lines.append(f"{'sum':<12} {accounted / len(traced_walls):>12.4f} "
                 f"{accounted / total_wall:>7.1%} of traced wall "
                 f"{total_wall / len(traced_walls):.4f} s/pass")
    return lines


def counts_by_key(passes):
    return [{key: obs.counts for key, obs in results}
            for _, results in passes]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workload.setup()
    if args.setup_only:
        return 0
    with open(PINS) as handle:
        pins = json.load(handle)
    tally = FailureTally()
    correct = True
    if not args.trace:
        passes = run_passes(workload, args.seed, args.seconds, pins, tally)
        metrics = end_to_end(passes)
        human = percentile_lines(passes)
        human.append("pass walls (s): " + " ".join(
            f"{wall:.3f}" for wall, _ in passes))
    else:
        from spans import Tracer
        untraced = run_passes(workload, args.seed, args.seconds / 2, pins,
                              tally)
        tracer = Tracer()
        traced = run_passes(workload, args.seed, 0, pins, tally,
                            tracer=tracer, count=len(untraced))
        if counts_by_key(traced) != counts_by_key(untraced):
            correct = False
            print("traced and untraced counts differ:",
                  counts_by_key(untraced), counts_by_key(traced))
        metrics, by_layer = per_layer(
            traced, [wall for wall, _ in untraced], tracer)
        human = accounting_lines(by_layer, [wall for wall, _ in traced])
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl"))
        passes = untraced + traced
    for line in human:
        print(line)
    for reason in tally.reasons[:20]:
        print("FAILED", reason)
    print(f"failed_frac: {tally.failed_frac:.4f} ({tally.failed} of "
          f"{tally.attempted} checks)")
    print(json.dumps({
        "correct": correct and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
