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

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Generator, List, Optional,
                    Sequence, Tuple, Union)

from time import monotonic

from .crash import CrashPlan
from .run import RunResult


class ExplorationInterrupted(RuntimeError):
    """Exploration stopped cleanly at an explicit budget boundary.

    Raised when the run-count budget (``max_runs``) or the wall-clock
    budget (``timeout``) is exhausted before the schedule tree is done.
    Carries the partial :attr:`stats` accumulated up to the interruption
    and a machine-readable :attr:`reason` (``"max_runs"`` or
    ``"timeout"``), so callers can emit a partial metrics record (the
    CLI maps this to exit code 3 and an ``ExplorationMetrics`` record
    flagged ``"partial": true``).  Subclasses ``RuntimeError``: existing
    budget-error expectations -- including ``pytest.raises(RuntimeError,
    match="max_runs")`` -- keep working unchanged.
    """

    def __init__(self, reason: str, message: str,
                 stats: Optional["ExplorationStats"] = None) -> None:
        self.reason = reason
        self.stats = stats
        super().__init__(message)


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


@dataclass
class ExplorationStats:
    """What the explorer covered.

    ``pruned_runs`` is only nonzero under partial-order reduction
    (``reduction="dpor"``): a lower bound on the schedules proven
    redundant and skipped (each unexplored branch roots a whole subtree,
    so the true saving is at least this large).

    ``violation`` is only set by shard-mode exploration (see
    :mod:`repro.runtime.parallel`), where property failures are
    *collected* rather than raised so that every shard finishes and the
    merged statistics stay deterministic; the serial engines raise
    immediately instead.
    """

    complete_runs: int = 0
    truncated_runs: int = 0
    max_depth_seen: int = 0
    pruned_runs: int = 0
    violation: Optional[ShardViolation] = None

    @property
    def total_runs(self) -> int:
        return self.complete_runs + self.truncated_runs

    def merge(self, other: "ExplorationStats") -> "ExplorationStats":
        """Deterministically combine the statistics of two shards.

        Run counts add, the depth watermark takes the max, and when both
        sides carry a violation the one whose shard prefix sorts first
        (lexicographic ``order_key``) wins -- so folding any number of
        shard results in *any* order yields the same merged outcome as
        exploring the shards serially in prefix order.  Neither operand
        is mutated.
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
                   collect: bool = False,
                   counters: Optional[Dict[str, Any]] = None,
                   deadline: Optional[float] = None
                   ) -> ExplorationStats:
    """Naive DFS, lowest pid first, over all schedules extending ``root``.

    One live :class:`repro.runtime.dpor._System` follows the walk down
    the tree; after a leaf it is rebuilt and re-synced from the root
    before the next sibling is stepped, so every engine shares the
    substrate's stutter pruning, deadlock detection and ``RunResult``
    assembly.

    With ``collect=True`` (shard mode) the first check failure is
    recorded as ``stats.violation`` and the walk stops there instead of
    raising, so the coordinator can merge shard outcomes
    deterministically.  ``counters`` is an optional plain-dict metrics
    channel (see :mod:`repro.analysis.metrics`); the naive walk reports
    only its open-node watermark (``peak_frontier``: prefixes pushed but
    not yet visited), and never touches ``ExplorationStats`` --
    exploration statistics stay bit-for-bit identical whether or not
    metrics are collected.
    """
    from .dpor import _Footprints, _System

    stats = ExplorationStats()
    footprints = _Footprints()
    sysm = _System(build, crash_plan_factory, footprints)
    for depth, pid in enumerate(root):
        cands = sysm.candidates()
        if pid not in cands:
            raise RuntimeError(
                f"shard prefix diverged: {pid} not schedulable at depth "
                f"{depth} (candidates: {cands})")
        sysm.execute(pid)
    prefix = list(root)
    # todo[i] holds the unvisited children of the expanded node at depth
    # len(root) + i, highest pid first so that pop() takes the lowest.
    todo: List[List[int]] = []
    unvisited = 1  # the root itself
    synced = True
    while unvisited:
        if counters is not None and unvisited > counters.get(
                "peak_frontier", 0):
            counters["peak_frontier"] = unvisited
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
                for pid in prefix:
                    sysm.execute(pid)
                synced = True
            sysm.execute(pick)
            prefix.append(pick)
        stats.max_depth_seen = max(stats.max_depth_seen, len(prefix))
        cands = sysm.candidates()
        if not cands:
            stats.complete_runs += 1
            try:
                check(sysm.result())
            except Exception as exc:
                if not collect:
                    raise
                stats.violation = ShardViolation(
                    order_key=tuple(root),
                    schedule=tuple(prefix),
                    message=f"{type(exc).__name__}: {exc}",
                    error_type=type(exc).__name__)
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


def _run_serial(engine: Callable[[Optional[Dict[str, Any]]],
                                 ExplorationStats],
                metrics: Optional[Any]) -> ExplorationStats:
    """Run a serial engine, ``engine(counters)``, settling ``metrics``.

    A serial run is one shard.  Its wall clock, less the shrink time the
    engine split out into the counters channel, is the shard phase; it
    and the counters are recorded even when a check failure or budget
    error propagates.  Without ``metrics`` the engine gets no counters.
    """
    if metrics is None:
        return engine(None)
    from time import perf_counter
    counters: Dict[str, Any] = {}
    start = perf_counter()
    try:
        stats = engine(counters)
    finally:
        elapsed = perf_counter() - start
        metrics.record_phase(
            "shard_execution",
            max(0.0, elapsed - counters.get("shrink_seconds", 0.0)))
        metrics.absorb_counters(counters)
    metrics.record_stats(stats)
    return stats


def explore(build: Callable[[], Tuple[Dict[int, Generator], Any]],
            check: Callable[[RunResult], None],
            crash_plan_factory: Optional[Callable[[], CrashPlan]] = None,
            max_steps: int = 24,
            max_runs: int = 200_000,
            reduction: str = "naive",
            jobs: Optional[Union[int, str]] = None,
            prefix_factor: Optional[int] = None,
            metrics: Optional[Any] = None,
            timeout: Optional[float] = None,
            state_cache: bool = False,
            frontier: Optional[Any] = None) -> ExplorationStats:
    """Exhaustively check every schedule of the system built by ``build``.

    ``build()`` must return a fresh ``(programs, store)`` pair each call
    (generators are single-use).  ``check(result)`` is invoked on every
    complete run and should assert the safety property under test.
    Prefixes longer than ``max_steps`` are counted as truncated (bounded
    exploration).  The ``max_runs`` budget is inclusive: exactly
    ``max_runs`` runs may execute; needing even one more raises
    ``RuntimeError`` -- shrink the configuration instead of silently
    sampling.

    ``reduction`` selects the engine:

    * ``"naive"`` -- enumerate every interleaving (the historical
      behaviour; O(branching^depth)).
    * ``"dpor"`` -- dynamic partial-order reduction
      (:func:`repro.runtime.dpor.explore_dpor`): one representative per
      class of schedules equivalent up to commuting independent steps.
      Same terminal states, far fewer runs; property failures are shrunk
      to a minimal replayable counterexample.

    ``jobs`` selects the execution backend.  ``None`` (the default)
    keeps the classic single-process engine.  Any explicit value --
    ``1``, ``4``, ``"auto"`` -- switches to sharded exploration
    (:func:`repro.runtime.parallel.explore_parallel`): the schedule tree
    is split at a frontier of prefixes and the shards are explored by a
    worker pool.  Which shards exist depends only on ``prefix_factor``,
    never on ``jobs``, so run counts and counterexamples are identical
    for ``jobs=1`` and ``jobs=N``.

    ``metrics`` is an optional
    :class:`repro.analysis.metrics.ExplorationMetrics` collector.  It
    records wall-clock phases and engine counters *beside* the returned
    ``ExplorationStats``, which stays untouched: collecting metrics
    never changes what is explored or reported.

    ``timeout`` is a wall-clock budget in seconds.  Both budgets stop
    exploration *cleanly*: the engines raise
    :class:`ExplorationInterrupted` carrying the partial statistics and
    the triggering reason, instead of discarding the work done so far.

    ``state_cache`` (default off) enables the DPOR prefix-equivalence
    state cache (see ``docs/performance.md``); it is ignored by the
    naive engine.  The CLI never turns it on.

    ``frontier`` is an optional
    :class:`repro.runtime.frontier.FrontierStore` making the
    exploration durable and resumable (see
    ``docs/resumable_exploration.md``).  Checkpointing is a property of
    the *sharded* engine -- its frontier is the unit of durability --
    so ``frontier`` requires an explicit ``jobs`` value (``jobs=1``
    checkpoints a serial-speed run).
    """
    if reduction not in ("naive", "dpor"):
        raise ValueError(f"unknown reduction {reduction!r} "
                         f"(expected 'naive' or 'dpor')")
    if frontier is not None and jobs is None:
        raise ValueError(
            "frontier checkpointing requires the sharded engine; pass "
            "an explicit jobs value (jobs=1 for serial-speed execution)")
    deadline = monotonic() + timeout if timeout is not None else None
    if jobs is not None:
        from .parallel import DEFAULT_PREFIX_FACTOR, explore_parallel
        return explore_parallel(
            build, check, crash_plan_factory=crash_plan_factory,
            max_steps=max_steps, max_runs=max_runs, jobs=jobs,
            reduction=reduction,
            prefix_factor=prefix_factor or DEFAULT_PREFIX_FACTOR,
            metrics=metrics, deadline=deadline,
            state_cache=state_cache, frontier=frontier)
    if reduction == "dpor":
        from .dpor import explore_dpor
        return explore_dpor(build, check,
                            crash_plan_factory=crash_plan_factory,
                            max_steps=max_steps, max_runs=max_runs,
                            metrics=metrics, deadline=deadline,
                            state_cache=state_cache)
    return _run_serial(
        lambda counters: _explore_naive(
            build, check, crash_plan_factory, max_steps, max_runs,
            counters=counters, deadline=deadline),
        metrics)
