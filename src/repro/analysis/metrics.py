"""Observability records for exploration, audit, and benchmark runs.

The exploration/simulation stack proves properties; this module measures
the proving.  It defines versioned, JSON-serializable *run records* --
:class:`ExplorationMetrics` for ``check``-style exhaustive sweeps,
:class:`RunMetrics` for everything else (audits, benchmark reports) --
plus the atomic-write helpers every emitter in the repo shares.

Two invariants, pinned by ``tests/analysis/test_metrics.py``:

* **Schema stability.**  Every record carries
  ``schema_version = METRICS_SCHEMA_VERSION``; the exact key set of an
  exploration record is a golden fixture, so accidental field drift
  fails a test instead of silently breaking downstream diffs.
* **Determinism split.**  Fields are partitioned into deterministic
  content (run counts, prune ratios, counterexample shape -- identical
  for ``jobs=1`` and ``jobs=N`` by the sharding contract of
  :mod:`repro.runtime.parallel`) and timing/worker fields (wall-clock
  phases, per-worker busy time, ``jobs`` itself).
  :func:`deterministic_view` strips the latter, which is how two runs
  are diffed (see ``docs/observability.md``).

The runtime engines never import this module (``repro.analysis.stats``
imports ``repro.runtime``, so the reverse import would cycle); they
accept an optional collector and fill it duck-typed.  Only the CLI,
benchmarks, and tests construct the records defined here.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

#: Bump on any change to the key set or meaning of emitted records.
#: v2 added ``partial`` / ``interrupt_reason`` (graceful degradation
#: under ``--timeout`` / ``--max-runs`` budgets, see
#: ``docs/fault_injection.md``).  v3 added ``cache_hits`` /
#: ``cache_skipped_runs`` (the DPOR state cache, see
#: ``docs/performance.md``).  v4 added ``net`` (socket-transport
#: frame/retry/reconnect tallies from ``python -m repro serve``, see
#: ``docs/distributed_exploration.md``).
METRICS_SCHEMA_VERSION = 4

#: The wall-clock phases of a sharded exploration, in execution order.
#: Serial engines report their whole walk as ``shard_execution`` (a
#: serial run is one shard) and leave the coordinator-only phases at 0.
PHASES = ("frontier_expansion", "shard_execution", "merge", "shrink")

#: Keys stripped by :func:`deterministic_view`: wall-clock measurements
#: and worker-topology facts, which legitimately differ between runs of
#: the same exploration (``jobs`` included -- it is the knob under test
#: in the jobs=1 vs jobs=N differential).
#: ``cache_hits`` / ``cache_skipped_runs`` are stripped too: the state
#: cache is per shard (to keep merged ExplorationStats jobs-invariant),
#: so its hit counts depend on the shard topology, i.e. on ``jobs``.
#: ``net`` is stripped for the same reason: which worker served which
#: shard over which connection (and how many frames or retries that
#: took) is transport topology, never exploration content -- the
#: ``network`` differential demands serial == fork-pool == socket runs
#: be identical after the strip.
TIMING_KEYS = frozenset({
    "phases", "wall_seconds", "runs_per_sec", "busy_seconds",
    "workers", "jobs", "cache_hits", "cache_skipped_runs", "net",
})


def deterministic_view(record: Any) -> Any:
    """Recursively drop :data:`TIMING_KEYS` from a decoded record.

    The result depends only on what was explored, never on how fast or
    by how many workers -- two runs of the same scenario at any job
    counts must produce byte-identical deterministic views.
    """
    if isinstance(record, dict):
        return {key: deterministic_view(value)
                for key, value in record.items() if key not in TIMING_KEYS}
    if isinstance(record, list):
        return [deterministic_view(item) for item in record]
    return record


def fsync_directory(directory: str) -> None:
    """``fsync`` a directory so a just-renamed entry survives a crash.

    ``os.replace`` makes a rename atomic with respect to *readers*, but
    the new directory entry itself lives in the page cache until the
    directory inode is flushed -- after a power loss the file can be
    missing entirely even though the rename returned.  Platforms whose
    directories cannot be opened or fsynced (some network filesystems)
    degrade silently: atomicity still holds, only crash-durability of
    the rename is lost.
    """
    try:
        fd = os.open(directory, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:  # pragma: no cover - platform-specific degradation
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-specific degradation
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str, text: str, durable: bool = True) -> str:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    An interrupted writer leaves either the old file or the new one,
    never a truncated hybrid -- required for every report that other
    documents embed or other tools parse.

    With ``durable=True`` (the default) the write is also *crash*-safe:
    the temp file is fsynced before the rename and the directory after
    it, so once this function returns the new content survives a host
    crash or power loss.  Atomicity alone (the pre-fix behaviour) only
    protects against a crashed *writer* -- the rename could still be
    sitting unflushed in the page cache, leaving an empty or missing
    file after a machine crash, which is fatal for checkpoints other
    runs resume from.  ``durable=False`` opts back out for hot-loop
    emitters (e.g. benchmark report twins regenerated on every run)
    where an extra pair of fsyncs per write is pure overhead.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory,
                                    prefix=f".{os.path.basename(path)}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        if durable:
            fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def write_jsonl(path: str, records: Iterable[Dict[str, Any]],
                durable: bool = True) -> str:
    """Atomically write one JSON object per line (JSON-lines)."""
    lines = [json.dumps(record, sort_keys=False) for record in records]
    return atomic_write_text(path, "\n".join(lines) + "\n" if lines else "",
                             durable=durable)


@dataclass
class RunMetrics:
    """A generic versioned run record: ``kind`` + ``name`` + ``data``.

    Used for audits and benchmark reports, where the interesting content
    is a small free-form dictionary; exhaustive explorations get the
    richer :class:`ExplorationMetrics` instead.  Timing values inside
    ``data`` should use the key names in :data:`TIMING_KEYS` (e.g.
    ``wall_seconds``) so :func:`deterministic_view` strips them.
    """

    kind: str
    name: str
    schema_version: int = METRICS_SCHEMA_VERSION
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "name": self.name,
            "data": dict(self.data),
        }


class ExplorationMetrics:
    """Mutable collector + versioned record for one exhaustive sweep.

    Created by the caller (CLI, benchmark, test), handed to
    :func:`repro.runtime.explore.explore` /
    :func:`repro.runtime.parallel.explore_parallel` via ``metrics=``,
    and filled as the exploration proceeds.  All run-count and
    structure fields live here or in the engine's
    :class:`~repro.runtime.explore.ExplorationStats`; **no timing field
    ever enters ``ExplorationStats``**, so the jobs=1 == jobs=N
    bit-for-bit guarantee on merged statistics is untouched.

    The engines talk to this object through three duck-typed methods --
    :meth:`record_phase`, :meth:`record_stats`,
    :meth:`record_worker_tasks` -- so ``repro.runtime`` never has to
    import ``repro.analysis``.
    """

    def __init__(self, scenario: Optional[str] = None,
                 engine: str = "dpor", jobs: int = 1) -> None:
        self.scenario = scenario
        self.engine = engine
        self.jobs = jobs
        self.outcome = "passed"
        # Set when an exploration budget (max_runs / timeout) stopped
        # the sweep before the state space was exhausted.  The counters
        # below then describe *partial* coverage and must not be read
        # as a proof of absence of violations.
        self.partial = False
        self.interrupt_reason: Optional[str] = None
        # Deterministic counters.
        self.complete_runs = 0
        self.truncated_runs = 0
        self.pruned_runs = 0
        self.max_depth_seen = 0
        self.shard_count = 0
        self.peak_frontier_size = 0
        self.sleep_set_hits = 0
        self.sleep_set_checks = 0
        self.cache_hits = 0
        self.cache_skipped_runs = 0
        self.ddmin_replays = 0
        self.violation: Optional[Dict[str, Any]] = None
        # Timing / worker topology (stripped by deterministic_view).
        self.phases: Dict[str, float] = {name: 0.0 for name in PHASES}
        self.wall_seconds = 0.0
        self.workers: List[Dict[str, Any]] = []
        # Socket-transport tallies (``serve`` runs only; also stripped
        # by deterministic_view -- frames and retries are topology).
        self.net: Dict[str, Any] = {}

    # -- interface the runtime engines call (duck-typed) ---------------

    def record_phase(self, name: str, seconds: float) -> None:
        """Accumulate wall-clock time into one named phase."""
        self.phases[name] = self.phases.get(name, 0.0) + seconds

    def record_stats(self, stats: Any) -> None:
        """Copy every count of the final (merged, or partial)
        :class:`~repro.runtime.explore.ExplorationStats`."""
        self.complete_runs = stats.complete_runs
        self.truncated_runs = stats.truncated_runs
        self.pruned_runs = stats.pruned_runs
        self.max_depth_seen = stats.max_depth_seen
        self.peak_frontier_size = stats.peak_frontier
        self.sleep_set_hits = stats.sleep_hits
        self.sleep_set_checks = stats.sleep_checks
        self.cache_hits = stats.cache_hits
        self.cache_skipped_runs = stats.cache_skipped_runs

    def record_network(self, tallies: Dict[str, Any]) -> None:
        """Record socket-transport tallies from a ``serve`` run.

        ``tallies`` is :attr:`repro.runtime.netshard.ShardServer.
        tallies`: total and per-connection frame counts, reconnects,
        stale-completion rejections, re-grants, and the remote vs
        in-process shard split.  Pure transport observability --
        :func:`deterministic_view` strips it along with the other
        topology fields.
        """
        self.net = dict(tallies)

    def record_worker_tasks(self, task_log: Iterable[Dict[str, Any]]
                            ) -> None:
        """Aggregate a pool task log into per-worker shard/busy rows.

        Worker ``-1`` is the coordinator process (in-process execution:
        degraded pools and orphaned-shard recovery).
        """
        per_worker: Dict[int, Dict[str, Any]] = {}
        for entry in task_log:
            row = per_worker.setdefault(
                entry["worker"],
                {"worker": entry["worker"], "shards": 0,
                 "busy_seconds": 0.0})
            row["shards"] += 1
            row["busy_seconds"] += entry["seconds"]
        self.workers = [per_worker[wid] for wid in sorted(per_worker)]

    # -- caller-side recording -----------------------------------------

    def record_violation(self, error_type: str,
                         prefix: Optional[List[int]] = None,
                         schedule: Optional[List[int]] = None) -> None:
        self.outcome = "violation"
        self.violation = {
            "error_type": error_type,
            "prefix": list(prefix) if prefix is not None else None,
            "schedule": list(schedule) if schedule is not None else None,
        }

    def record_interrupted(self, reason: str, stats: Any = None) -> None:
        """Mark the record as a budget-interrupted partial sweep.

        ``reason`` is :attr:`ExplorationInterrupted.reason` (``max_runs``
        or ``timeout``); ``stats`` is the partial
        :class:`~repro.runtime.explore.ExplorationStats` carried by the
        exception, folded in so the record reflects how far the sweep
        got before the budget fired.
        """
        self.outcome = "interrupted"
        self.partial = True
        self.interrupt_reason = reason
        if stats is not None:
            self.record_stats(stats)

    def record_error(self) -> None:
        """Mark the record as ended by an error, not a verdict.

        A shard that failed on every attempt or a replay that diverged
        (see :class:`~repro.runtime.explore.ShardFailed` and
        :class:`~repro.runtime.explore.ReplayDivergence`) stops the
        sweep without a proof either way; the counters then describe
        whatever ran before the error.
        """
        self.outcome = "error"

    def finalize(self, wall_seconds: Optional[float] = None
                 ) -> "ExplorationMetrics":
        """Fix the total wall clock (defaults to the sum of phases)."""
        if wall_seconds is None:
            wall_seconds = sum(self.phases.values())
        self.wall_seconds = wall_seconds
        return self

    # -- derived quantities --------------------------------------------

    @property
    def total_runs(self) -> int:
        return self.complete_runs + self.truncated_runs

    @property
    def prune_ratio(self) -> float:
        """Fraction of known branches pruned (0.0 = no reduction)."""
        denominator = self.total_runs + self.pruned_runs
        return self.pruned_runs / denominator if denominator else 0.0

    @property
    def sleep_set_hit_rate(self) -> float:
        """Fraction of candidate inspections suppressed by sleep sets."""
        if not self.sleep_set_checks:
            return 0.0
        return self.sleep_set_hits / self.sleep_set_checks

    @property
    def runs_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_runs / self.wall_seconds

    def to_dict(self) -> Dict[str, Any]:
        """The versioned JSON record, deterministic keys first."""
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "kind": "exploration",
            "scenario": self.scenario,
            "engine": self.engine,
            "outcome": self.outcome,
            "partial": self.partial,
            "interrupt_reason": self.interrupt_reason,
            "complete_runs": self.complete_runs,
            "truncated_runs": self.truncated_runs,
            "total_runs": self.total_runs,
            "pruned_runs": self.pruned_runs,
            "prune_ratio": self.prune_ratio,
            "max_depth_seen": self.max_depth_seen,
            "shard_count": self.shard_count,
            "peak_frontier_size": self.peak_frontier_size,
            "sleep_set_hits": self.sleep_set_hits,
            "sleep_set_checks": self.sleep_set_checks,
            "sleep_set_hit_rate": self.sleep_set_hit_rate,
            "cache_hits": self.cache_hits,
            "cache_skipped_runs": self.cache_skipped_runs,
            "ddmin_replays": self.ddmin_replays,
            "violation": self.violation,
            "jobs": self.jobs,
            "phases": dict(self.phases),
            "wall_seconds": self.wall_seconds,
            "runs_per_sec": self.runs_per_sec,
            "workers": [dict(row) for row in self.workers],
            "net": dict(self.net),
        }


def render_metrics_table(records: List[Dict[str, Any]]) -> List[str]:
    """A human summary table for ``--metrics`` (one row per record).

    Accepts decoded record dicts of any kind; exploration records get
    the full column set, other kinds a compact fallback row.
    """
    lines = [f"{'scenario':<20} {'outcome':>10} {'runs':>8} "
             f"{'pruned':>8} {'sleep%':>7} {'shards':>7} "
             f"{'wall_s':>8} {'runs/s':>9}"]
    for record in records:
        if record.get("kind") != "exploration":
            name = record.get("name", "?")
            data = record.get("data", {})
            wall = data.get("wall_seconds", 0.0)
            lines.append(f"{name:<20} {record.get('kind', '?'):>10} "
                         f"{'-':>8} {'-':>8} {'-':>7} {'-':>7} "
                         f"{wall:>8.2f} {'-':>9}")
            continue
        lines.append(
            f"{(record.get('scenario') or '?'):<20} "
            f"{record['outcome']:>10} {record['total_runs']:>8} "
            f"{record['pruned_runs']:>8} "
            f"{100 * record['sleep_set_hit_rate']:>6.1f}% "
            f"{record['shard_count']:>7} {record['wall_seconds']:>8.2f} "
            f"{record['runs_per_sec']:>9.0f}")
    return lines
