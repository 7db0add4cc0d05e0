"""Exhaustive schedule exploration (bounded model checking).

Sampling schedules with seeded adversaries catches most interleaving
bugs; *exhausting* them proves their absence for small configurations.
:func:`explore` enumerates every schedule of a (re-buildable) system by
depth-first search over the candidate set, lowest pid first.  Every
engine walks the tree on the same substrate,
:class:`repro.runtime.dpor._System`: one live system follows the walk
down, and after a backtrack a fresh ``build()`` is re-synced by
replaying the prefix -- objects and generators are cheap to rebuild,
which keeps the explorer stateless and trivially correct.

Used by the test suite to verify, over ALL interleavings of 2-3 process
systems (and per crash plan):

* safe-agreement / x-safe-agreement agreement + validity,
* adopt-commit coherence,
* splitter invariants,
* queue-based 2-consensus.

Busy-waiting configurations have unbounded schedules; ``max_steps``
bounds the depth (safety violations, if any, show up in finite
prefixes -- this is bounded model checking, and the bound is reported).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Generator, List, Optional,
                    Sequence, Tuple, Union)

from time import monotonic, perf_counter

from .crash import CrashPlan
from .run import RunResult


class ExplorationInterrupted(RuntimeError):
    """Exploration stopped cleanly at an explicit budget boundary.

    Raised when a budget is exhausted before the work is done: the
    run-count budget (``max_runs``) or the wall-clock budget
    (``timeout``) of an exploration, or the per-run step budget
    (``max_steps``) of a footprint audit.  Carries the partial
    :attr:`stats` accumulated up to the interruption (``None`` for an
    audit) and a machine-readable :attr:`reason` (``"max_runs"``,
    ``"timeout"`` or ``"max_steps"``), so callers can emit a partial
    metrics record (the CLI maps this to exit code 3 and a record with
    ``"outcome": "interrupted"``).  Subclasses ``RuntimeError``:
    existing budget-error expectations -- including
    ``pytest.raises(RuntimeError, match="max_runs")`` -- keep working
    unchanged.
    """

    def __init__(self, reason: str, message: str,
                 stats: Optional["ExplorationStats"] = None) -> None:
        self.reason = reason
        self.stats = stats
        super().__init__(message)

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the message
        # alone) into the 3-argument ``__init__``; rebuild from the
        # real fields so an interruption survives worker pipes.
        return (type(self), (self.reason, str(self), self.stats))


class ShardFailed(RuntimeError):
    """A pool task (a shard, or an audit adversary) failed on every
    attempt the pool made, its in-process retry included.  An error,
    never a budget: the CLI reports it as ``ERROR``, exit 4."""


class ReplayDivergence(RuntimeError):
    """Re-executing a recorded schedule did not reproduce it: a shard
    prefix named a process that is not schedulable, or a replayed
    schedule never reached a terminal state.  The scenario build is
    not deterministic -- a bug in the system under test or the engine,
    never a budget.  The CLI reports it as ``ERROR``, exit 4."""


def _max_runs_interrupt(max_runs: int,
                        stats: "ExplorationStats"
                        ) -> ExplorationInterrupted:
    return ExplorationInterrupted(
        "max_runs",
        f"exploration exceeded max_runs={max_runs}; "
        f"shrink the configuration ({stats})",
        stats)


def _timeout_interrupt(stats: "ExplorationStats"
                       ) -> ExplorationInterrupted:
    return ExplorationInterrupted(
        "timeout",
        f"exploration exceeded its wall-clock timeout; "
        f"partial coverage: {stats}",
        stats)


def _past_deadline(deadline: Optional[float]) -> bool:
    return deadline is not None and monotonic() >= deadline


@dataclass(frozen=True)
class ShardViolation:
    """The first property failure observed inside one exploration shard.

    Shards are identified by the frontier prefix they explore from
    (``order_key``); merging statistics from many shards keeps the
    violation whose shard prefix sorts first lexicographically, which is
    the violation a serial walk of the shards in prefix order would have
    found first -- independent of worker timing.  ``schedule`` is the
    full failing schedule from the root (frontier prefix included), fit
    for :func:`repro.runtime.dpor.replay_schedule` and ddmin shrinking.
    """

    order_key: Tuple[int, ...]
    schedule: Tuple[int, ...]
    message: str
    error_type: str = "AssertionError"

    @classmethod
    def of(cls, order_key: Sequence[int], schedule: Sequence[int],
           exc: BaseException) -> "ShardViolation":
        """The violation ``exc``, raised by ``check`` on ``schedule``."""
        return cls(tuple(order_key), tuple(schedule),
                   f"{type(exc).__name__}: {exc}", type(exc).__name__)


@dataclass
class ExplorationStats:
    """What the explorer covered.

    ``pruned_runs`` is only nonzero under partial-order reduction
    (``reduction="dpor"``): a lower bound on the schedules proven
    redundant and skipped (each unexplored branch roots a whole subtree,
    so the true saving is at least this large).

    ``violation`` holds the first property failure an engine met.
    Every engine *collects* it and stops (every shard of a sharded run
    finishes, so the merged statistics stay deterministic); the entry
    points then raise it through
    :func:`repro.runtime.dpor.raise_violation`.

    ``sleep_checks`` / ``sleep_hits`` count candidate inspections at
    expanded DPOR states and those a sleep set suppressed;
    ``peak_frontier`` is the open-prefix watermark (the naive walk's
    unvisited prefixes, the sharded engine's expansion queue).
    ``cache_hits`` / ``cache_skipped_runs`` count the state cache's
    folded subtrees and the runs they stood for.  The cache is per
    shard, so these two depend on the shard topology and are left out
    of equality -- exactly the fields whose metrics keys
    :data:`repro.analysis.metrics.TIMING_KEYS` strips.
    """

    complete_runs: int = 0
    truncated_runs: int = 0
    max_depth_seen: int = 0
    pruned_runs: int = 0
    violation: Optional[ShardViolation] = None
    sleep_checks: int = 0
    sleep_hits: int = 0
    peak_frontier: int = 0
    cache_hits: int = field(default=0, compare=False)
    cache_skipped_runs: int = field(default=0, compare=False)

    @property
    def total_runs(self) -> int:
        return self.complete_runs + self.truncated_runs

    def merge(self, other: "ExplorationStats") -> "ExplorationStats":
        """Deterministically combine the statistics of two shards.

        Counts add, the depth and frontier watermarks take the max, and
        when both sides carry a violation the one whose shard prefix
        sorts first (lexicographic ``order_key``) wins -- so folding any
        number of shard results in *any* order yields the same merged
        outcome as exploring the shards serially in prefix order.
        Neither operand is mutated.
        """
        if self.violation is None:
            violation = other.violation
        elif (other.violation is None
              or self.violation.order_key <= other.violation.order_key):
            violation = self.violation
        else:
            violation = other.violation
        return ExplorationStats(
            complete_runs=self.complete_runs + other.complete_runs,
            truncated_runs=self.truncated_runs + other.truncated_runs,
            max_depth_seen=max(self.max_depth_seen, other.max_depth_seen),
            pruned_runs=self.pruned_runs + other.pruned_runs,
            violation=violation,
            sleep_checks=self.sleep_checks + other.sleep_checks,
            sleep_hits=self.sleep_hits + other.sleep_hits,
            peak_frontier=max(self.peak_frontier, other.peak_frontier),
            cache_hits=self.cache_hits + other.cache_hits,
            cache_skipped_runs=(self.cache_skipped_runs
                                + other.cache_skipped_runs),
        )

    def deterministic_view(self) -> Tuple[bool, Optional["ShardViolation"]]:
        """The cache-independent projection of these statistics.

        The DPOR state cache (:mod:`repro.runtime.dpor`) guarantees
        *observational* equivalence, not count equivalence: a cache hit
        whose entry was recorded under a strictly smaller sleep set
        folds run counts for schedules a cache-off walk would have
        sleep-pruned, so raw counts may differ between cache-on and
        cache-off.  What can never differ is whether a violation was
        found and which violation it is (first in DFS order).  The
        differential test tier compares this projection; the raw counts
        are additionally compared on exact-match-only workloads.
        """
        return (self.violation is not None, self.violation)

    @property
    def reduction_ratio(self) -> float:
        """Explored fraction of (explored + provably pruned) branches.

        1.0 means no reduction; smaller is better.  This is an *upper
        bound* on the true explored fraction, because ``pruned_runs``
        undercounts the schedules each pruned branch stood for.
        """
        denominator = self.total_runs + self.pruned_runs
        if denominator == 0:
            return 1.0
        return self.total_runs / denominator

    def __str__(self) -> str:
        text = (f"{self.complete_runs} complete + "
                f"{self.truncated_runs} truncated runs, "
                f"max depth {self.max_depth_seen}")
        if self.pruned_runs:
            text += (f", {self.pruned_runs} pruned branches "
                     f"(reduction ratio <= {self.reduction_ratio:.3f})")
        return text


def _explore_naive(build: Callable[[], Tuple[Dict[int, Generator], Any]],
                   check: Callable[[RunResult], None],
                   crash_plan_factory: Optional[Callable[[], CrashPlan]],
                   max_steps: int,
                   max_runs: int,
                   root: Sequence[int] = (),
                   deadline: Optional[float] = None
                   ) -> ExplorationStats:
    """Naive DFS, lowest pid first, over all schedules extending ``root``.

    One live :class:`repro.runtime.dpor._System` follows the walk down
    the tree; after a leaf it is rebuilt and re-synced from the root
    before the next sibling is stepped, so every engine shares the
    substrate's stutter pruning, deadlock detection and ``RunResult``
    assembly.  Both the replay of ``root`` and each re-sync check that
    every replayed step is schedulable
    (:class:`ReplayDivergence` otherwise).

    The first check failure is recorded as ``stats.violation`` and the
    walk stops there; the caller raises it, or the coordinator merges
    shard outcomes deterministically first.  Besides run counts the
    walk records only its open-node watermark (``stats.peak_frontier``:
    prefixes pushed but not yet visited); it inspects no sleep sets.
    """
    from .dpor import _Footprints, _System

    stats = ExplorationStats()
    footprints = _Footprints()
    sysm = _System(build, crash_plan_factory, footprints)
    sysm.replay(root)
    prefix = list(root)
    # todo[i] holds the unvisited children of the expanded node at depth
    # len(root) + i, highest pid first so that pop() takes the lowest.
    todo: List[List[int]] = []
    unvisited = 1  # the root itself
    synced = True
    while unvisited:
        if unvisited > stats.peak_frontier:
            stats.peak_frontier = unvisited
        if stats.total_runs >= max_runs:
            # Inclusive budget: a prefix is still unvisited, so at least
            # one more run would be needed to finish the exploration.
            raise _max_runs_interrupt(max_runs, stats)
        if _past_deadline(deadline):
            raise _timeout_interrupt(stats)
        unvisited -= 1
        if todo:
            while not todo[-1]:
                todo.pop()
            del prefix[len(root) + len(todo) - 1:]
            pick = todo[-1].pop()
            if not synced:
                sysm = _System(build, crash_plan_factory, footprints)
                sysm.replay(prefix)
                synced = True
            sysm.execute(pick)
            prefix.append(pick)
        stats.max_depth_seen = max(stats.max_depth_seen, len(prefix))
        cands = sysm.candidates()
        if not cands:
            stats.complete_runs += 1
            try:
                check(sysm.result())
            except Exception as exc:  # noqa: BLE001 - collected
                stats.violation = ShardViolation.of(root, prefix, exc)
                return stats
        elif len(prefix) >= max_steps:
            stats.truncated_runs += 1
        else:
            todo.append(cands[::-1])
            unvisited += len(cands)
            continue
        # A leaf: the next prefix is a sibling, not a child, of this one.
        synced = False
    return stats


def _run_serial(engine: Callable[[], ExplorationStats],
                metrics: Optional[Any]) -> ExplorationStats:
    """Run a serial engine, ``engine()``, settling ``metrics``.

    A serial run is one shard.  Its wall clock is the shard phase,
    recorded even when a budget error propagates (whose partial
    statistics the caller records from the exception).
    """
    if metrics is None:
        return engine()
    start = perf_counter()
    try:
        stats = engine()
    finally:
        metrics.record_phase("shard_execution", perf_counter() - start)
    metrics.record_stats(stats)
    return stats


def explore(build: Callable[[], Tuple[Dict[int, Generator], Any]],
            check: Callable[[RunResult], None],
            crash_plan_factory: Optional[Callable[[], CrashPlan]] = None,
            max_steps: int = 24,
            max_runs: int = 200_000,
            reduction: str = "naive",
            jobs: Optional[Union[int, str]] = None,
            metrics: Optional[Any] = None,
            timeout: Optional[float] = None,
            state_cache: bool = False) -> ExplorationStats:
    """Exhaustively check every schedule of the system built by ``build``.

    ``build()`` must return a fresh ``(programs, store)`` pair each call
    (generators are single-use).  ``check(result)`` is invoked on every
    complete run and should assert the safety property under test.
    Prefixes longer than ``max_steps`` are counted as truncated (bounded
    exploration).  The ``max_runs`` budget is inclusive: exactly
    ``max_runs`` runs may execute; needing even one more raises
    :class:`ExplorationInterrupted` -- shrink the configuration instead
    of silently sampling.

    ``reduction`` selects the engine:

    * ``"naive"`` -- enumerate every interleaving (the historical
      behaviour; O(branching^depth)).
    * ``"dpor"`` -- dynamic partial-order reduction
      (:func:`repro.runtime.dpor.explore_dpor`): one representative per
      class of schedules equivalent up to commuting independent steps.
      Same terminal states, far fewer runs; property failures are shrunk
      to a minimal replayable counterexample.

    Every engine collects the first failure and stops;
    :func:`repro.runtime.dpor.raise_violation` replays it once and
    raises it -- the check's own exception under ``"naive"``,
    ``CounterexampleFound`` under ``"dpor"`` -- or raises
    :class:`ReplayDivergence` when the failure does not recur.

    ``jobs`` selects the execution backend.  ``None`` (the default)
    keeps the classic single-process engine.  Any explicit value --
    ``1``, ``4``, ``"auto"`` -- switches to sharded exploration
    (:func:`repro.runtime.parallel.explore_parallel`): the schedule tree
    is split at a frontier of prefixes and the shards are explored by a
    worker pool.  This is the one place that routes on ``jobs``.  Which
    shards exist never depends on ``jobs``, so run counts and
    counterexamples are identical for ``jobs=1`` and ``jobs=N``.

    ``metrics`` is an optional
    :class:`repro.analysis.metrics.ExplorationMetrics` collector.  It
    records wall-clock phases *beside* the returned
    ``ExplorationStats`` and copies the statistics in: collecting
    metrics never changes what is explored or reported.

    ``timeout`` is a wall-clock budget in seconds.  Both budgets stop
    exploration *cleanly*: the engines raise
    :class:`ExplorationInterrupted` carrying the partial statistics and
    the triggering reason, instead of discarding the work done so far.

    ``state_cache`` (default off) enables the DPOR prefix-equivalence
    state cache (see ``docs/performance.md``); it is ignored by the
    naive engine.  The CLI never turns it on.  Checkpointing is a
    property of the sharded engine: pass a frontier store to
    :func:`repro.runtime.parallel.explore_parallel`.
    """
    if reduction not in ("naive", "dpor"):
        raise ValueError(f"unknown reduction {reduction!r} "
                         f"(expected 'naive' or 'dpor')")
    deadline = monotonic() + timeout if timeout is not None else None
    if jobs is not None:
        from .parallel import explore_parallel
        return explore_parallel(
            build, check, crash_plan_factory=crash_plan_factory,
            max_steps=max_steps, max_runs=max_runs, jobs=jobs,
            reduction=reduction, metrics=metrics, deadline=deadline,
            state_cache=state_cache)
    from .dpor import explore_dpor, raise_violation
    if reduction == "dpor":
        return explore_dpor(build, check,
                            crash_plan_factory=crash_plan_factory,
                            max_steps=max_steps, max_runs=max_runs,
                            metrics=metrics, deadline=deadline,
                            state_cache=state_cache)
    stats = _run_serial(
        lambda: _explore_naive(build, check, crash_plan_factory,
                               max_steps, max_runs, deadline=deadline),
        metrics)
    if stats.violation is not None:
        raise_violation(stats, build, check, crash_plan_factory, max_steps,
                        "naive")
    return stats
