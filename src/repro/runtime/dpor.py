"""Dynamic partial-order reduction for exhaustive schedule exploration.

The naive explorer (`repro.runtime.explore`) enumerates *every*
interleaving, which is O(branching^depth) and caps exhaustive checking at
2-3 processes.  Most of those interleavings are redundant: two steps that
touch disjoint shared locations commute, so any pair of schedules that
differ only in the order of independent adjacent steps reach the same
state.  This module explores at least one representative per
Mazurkiewicz trace (equivalence class of schedules under commuting
independent steps) instead of every schedule, using the two standard
stateless model-checking devices:

* **Persistent sets via dynamic backtracking** (Flanagan & Godefroid
  2005): at each state, start with a single enabled process; whenever a
  later step is found to *race* with an earlier one (conflicting
  footprints, not already ordered by happens-before), add the racer to
  the backtrack set of the state the earlier step executed from.
  Happens-before is tracked with per-process vector clocks over the
  executed steps (program order + footprint-conflict order).  We add a
  backtrack point for *every* racing earlier step, a superset of the
  classic last-racer rule -- slightly more exploration, comfortably
  sound.  Race checks are *incremental*: a new node re-checks only the
  newest step for every candidate that did not step, was a candidate
  at the parent and kept its (interned) pending footprint.  Such a
  candidate's past is the parent's, and the parent's scan already
  checked it against every older step; those plants still stand,
  because no ancestor's ``done`` or ``sleep`` set changes while the
  search is below it, and a plant is idempotent.  Each node records
  every candidate's racing steps, carried forward for the unchanged
  ones, and the stepping process's clock joins only its racers at the
  parent: every other conflicting step is its own or already in its
  past, so joining it would change nothing.  The whole path is scanned
  only for the stepping process, a process that just became
  schedulable (a spinner a write woke) or a footprint that changed, and
  below a node no scan reached (a shard prefix); a crash step, whose
  footprint is not the one checked at its parent, takes its clock from
  a scan too.  The scans skip steps already in the clock.
  ``tests/runtime/test_incremental_races.py`` checks every node
  against the whole-path reference.
* **Sleep sets** (Godefroid 1996): a process whose next step was already
  explored from this state, and which is independent of everything
  executed since, need not be re-scheduled -- subtrees whose every
  candidate sleeps are pruned outright.
* **State caching** (stateful DPOR, opt-in: ``state_cache=True``):
  every state reached during the search is fingerprinted canonically
  (:class:`repro.runtime.fingerprint.Fingerprinter`); when the search
  reaches a state it has already fully expanded under a subsumed sleep
  set and an equal-or-larger depth budget -- and skipping would be
  provably *observationally identical* to re-exploring (see
  :func:`_plants_are_noops`) -- the subtree is folded from the cache
  instead of re-executed.  The hit rule is deliberately exact: a hit is
  taken only when cache-on and cache-off provably visit the same
  terminal states, find the same first violation, and shrink to the
  same counterexample; declining a hit merely re-explores, which is
  always sound.  ``docs/performance.md`` develops the full argument.

Independence is decided by the read/write *footprints* that every shared
object reports for its operations (:class:`repro.runtime.ops.Footprint`,
:meth:`repro.memory.base.SharedObject.footprint`): two steps of different
processes are independent iff neither writes a location the other reads
or writes.  Crash events touch no shared state and commute with
everything.  Footprints may over-approximate (conservative) but must
never omit an accessed location.

Race checks run on *interned* footprints.  One :class:`_Footprints`
table per exploration maps every footprint value to one canonical
object (whether it came from the derivation memo, a fresh derivation,
or an operation whose unhashable arguments skip the memo), and
memoises the conflict relation on the pair of object ids.  An id key
is sound only because the table keeps every interned footprint alive
for the whole exploration: a footprint derived fresh and then freed
would leave its id free for an unrelated footprint, and the memo would
then answer for the wrong pair -- the explored tree would change from
run to run.  ``ops.conflicts`` stays the definition; the memo only
caches its answers.

When the property ``check()`` fails on some schedule, the engine
records the failure and stops; :func:`raise_violation` replays it once
to confirm it recurs, and the failing schedule is **shrunk** by delta
debugging (:func:`shrink_schedule`): the scheduler repeatedly removes
chunks of the schedule prefix, completes each candidate
deterministically (lowest pid first), and keeps any strictly shorter
prefix that still fails, down to a locally-minimal (1-minimal) prefix.
The result is a replayable
:class:`Counterexample` artifact raised inside a
:class:`CounterexampleFound` error.

Soundness of the reduction is pinned by ``tests/runtime/test_dpor.py``:
DPOR and the naive enumerator must visit the same set of terminal states
(statuses + decisions) on seeded micro-programs, including under crash
plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import (Any, Callable, Dict, Generator, List, Optional,
                    Sequence, Set, Tuple)

from .adversary import Adversary
from .crash import CrashPlan
from .explore import (ExplorationStats, ReplayDivergence, ShardViolation,
                      _max_runs_interrupt, _past_deadline, _run_serial,
                      _timeout_interrupt)
from .fingerprint import Fingerprinter
from .ops import EMPTY_FOOTPRINT, Footprint, Invocation, SpinOp, conflicts
from .process import ProcessHandle, ProcessStatus
from .run import RunResult
from .scheduler import Scheduler
from .trace import Trace

#: Type of the ``build`` callback: returns a fresh ``(programs, store)``.
Builder = Callable[[], Tuple[Dict[int, Generator], Any]]


class _InertAdversary(Adversary):
    """The DPOR engine drives the scheduler directly; never consulted."""

    def pick(self, enabled, step):  # pragma: no cover - defensive
        raise AssertionError("DPOR scheduler must not consult an adversary")


class _Footprints:
    """One exploration's footprints: derivation memo, intern table and
    memoised conflict relation, shared by every :class:`_System` rebuilt
    during the exploration.

    ``derived`` maps ``(pid, obj, method, args)`` to the footprint of a
    ``FOOTPRINT_PURE`` object's operation, so re-synced systems skip
    re-deriving it.  ``interned`` maps every footprint value seen to one
    canonical object, and :meth:`intern` routes every derivation through
    it -- memo hits, memo misses, the unhashable-args path and
    :data:`~repro.runtime.ops.EMPTY_FOOTPRINT` alike.  :meth:`conflicts`
    then memoises :func:`~repro.runtime.ops.conflicts` on the *ids* of
    its operands: the table holds every interned footprint until the
    exploration ends, so an id cannot be reused by another value, and
    the memo returns exactly what ``ops.conflicts`` would (see the
    module docstring).  A memo keyed on the footprint values would need
    no interning, but hashing a frozen dataclass is a Python-level call
    per operand: with the state cache off, x-safe-agreement n=4 took a
    median 2.75 s value-keyed against 2.13 s id-keyed (six alternating
    runs each, 2-vCPU VM, CPython 3.11).
    """

    __slots__ = ("derived", "interned", "_pairs")

    def __init__(self) -> None:
        self.derived: Dict[Any, Optional[Footprint]] = {}
        self.interned: Dict[Footprint, Footprint] = {
            EMPTY_FOOTPRINT: EMPTY_FOOTPRINT}
        self._pairs: Dict[Tuple[int, int], bool] = {}

    def intern(self, fp: Optional[Footprint]) -> Optional[Footprint]:
        """The canonical object equal to ``fp`` (None stays None)."""
        if fp is None:
            return None
        return self.interned.setdefault(fp, fp)

    def conflicts(self, a: Optional[Footprint],
                  b: Optional[Footprint]) -> bool:
        """``ops.conflicts(a, b)`` for interned ``a`` and ``b`` (or
        None, which conflicts with everything), memoised."""
        key = (id(a), id(b))
        hit = self._pairs.get(key)
        if hit is None:
            hit = self._pairs[key] = conflicts(a, b)
        return hit


class _System:
    """A live system replayed step by step under explorer control.

    The one replay substrate of every engine: DPOR, the naive DFS,
    frontier expansion and ddmin shrinking.  Wraps a fresh ``build()``
    result plus a scheduler, exposing the filtered candidate set at the
    current state, the pending footprint of each live process, one-step
    execution returning the footprint actually exercised, and the
    ``RunResult`` of a terminal state.

    ``footprints`` is the exploration's :class:`_Footprints` table,
    *shared across rebuilds* (a fresh one when omitted): every footprint
    this system reports is interned there, so race checks can use its
    memoised conflict relation.
    """

    def __init__(self, build: Builder,
                 crash_plan_factory: Optional[Callable[[], CrashPlan]],
                 footprints: Optional[_Footprints] = None) -> None:
        programs, store = build()
        self.footprints = (footprints if footprints is not None
                           else _Footprints())
        self.store = store
        self.handles = {pid: ProcessHandle(pid, gen)
                        for pid, gen in programs.items()}
        self.scheduler = Scheduler(
            handles=self.handles,
            store=store,
            adversary=_InertAdversary(),
            crash_plan=(crash_plan_factory() if crash_plan_factory
                        else None),
            trace=Trace(enabled=False),
            max_steps=10 ** 9,
        )
        self.deadlocked = False
        self._order = sorted(self.handles.items())
        # pid -> (pending operation, its memoized footprint)
        self._pending: Dict[int, Tuple[Any, Footprint]] = {}

    # ------------------------------------------------------------------
    def candidates(self) -> List[int]:
        """Schedulable processes at the current state (sorted).

        Pre-advances never-started generators to their first yield so
        every live process has a known pending operation (processes that
        finish without yielding decide immediately -- an invisible,
        footprint-free event).  A process whose single-condition spin
        already failed since the last state-changing step would
        deterministically fail again, so it stutters and is left out
        (exact stutter pruning).  If every enabled process is a provably
        stuck spinner, they are retired as BLOCKED and the state is
        terminal (permanent deadlock, exactly detected).
        """
        running = ProcessStatus.RUNNING
        enabled: List[int] = []
        cands: List[int] = []
        for pid, handle in self._order:
            if handle.status is not running:
                continue
            if handle.pending is None:
                handle.advance()
                if handle.status is not running:
                    continue
            enabled.append(pid)
            op = handle.pending
            if not (isinstance(op, SpinOp) and op.period == 1
                    and handle.spin_failures > 0):
                cands.append(pid)
        if enabled and not cands:
            self.deadlocked = True
            for pid in enabled:
                self.handles[pid].mark_blocked()
            return []
        return cands

    def pending_footprint(self, pid: int) -> Optional[Footprint]:
        """Footprint of ``pid``'s next operation (None = unknown).

        Always the interned copy (see :class:`_Footprints`).  Memoized
        per ``(pid, obj, method, args)`` when the target object declares
        its footprints pure (``FOOTPRINT_PURE``, the default); unhashable
        arguments fall back to direct derivation.  A memoized answer is
        also kept per pid beside the pending operation it answers for,
        so a process that has not stepped since skips the memo key.
        """
        op = self.handles[pid].pending
        if op is None:
            return None
        last = self._pending.get(pid)
        if last is not None and last[0] is op:
            return last[1]
        inv = op.invocation if isinstance(op, SpinOp) else op
        if not isinstance(inv, Invocation):
            return None
        table = self.footprints
        key = (pid, inv.obj, inv.method, inv.args)
        try:
            fp = table.derived.get(key)
        except TypeError:  # unhashable args: derive directly
            return table.intern(self.store.footprint(pid, inv))
        if fp is None:
            obj = self.store[inv.obj]
            fp = table.intern(obj.footprint(pid, inv.method, inv.args))
            if not obj.FOOTPRINT_PURE:
                return fp
            table.derived[key] = fp
        self._pending[pid] = (op, fp)
        return fp

    def alive_footprints(self) -> Dict[int, Optional[Footprint]]:
        running = ProcessStatus.RUNNING
        return {pid: self.pending_footprint(pid)
                for pid, h in self._order if h.status is running}

    def execute(self, pid: int) -> Optional[Footprint]:
        """Execute one step of ``pid``; returns the footprint exercised.

        A step that turns out to be a crash event touches no shared
        state and reports :data:`~repro.runtime.ops.EMPTY_FOOTPRINT`.
        """
        handle = self.handles[pid]
        if handle.pending is None:
            handle.advance()
        if handle.pending is None:
            return EMPTY_FOOTPRINT  # decided without yielding
        fp = self.pending_footprint(pid)
        self.scheduler._step(handle)
        if handle.status is ProcessStatus.CRASHED:
            return EMPTY_FOOTPRINT
        return fp

    def replay(self, prefix: Sequence[int]) -> None:
        """Execute ``prefix`` from the current state, checking before
        each step that its process is schedulable: a recorded prefix
        that names one that is not raises
        :class:`~repro.runtime.explore.ReplayDivergence`."""
        for depth, pid in enumerate(prefix):
            cands = self.candidates()
            if pid not in cands:
                raise ReplayDivergence(
                    f"prefix diverged: {pid} not schedulable at depth "
                    f"{depth} (candidates: {cands})")
            self.execute(pid)

    def result(self) -> RunResult:
        decisions = {pid: h.decision for pid, h in self.handles.items()
                     if h.decided}
        return RunResult(
            statuses={pid: h.status for pid, h in self.handles.items()},
            decisions=decisions,
            steps=self.scheduler.steps,
            deadlocked=self.deadlocked,
            out_of_steps=False,
            trace=None,
            store=self.store,
        )


# ---------------------------------------------------------------------------
# Counterexamples and shrinking.
# ---------------------------------------------------------------------------

@dataclass
class Counterexample:
    """A replayable failing schedule, shrunk to a locally-minimal prefix.

    ``prefix`` is the minimal scheduling decisions that trigger the
    failure; ``tail`` is the deterministic completion (lowest enabled pid
    first) appended to reach a terminal state.  ``schedule`` (prefix +
    tail) replayed against a fresh ``build()`` under the same crash plan
    reproduces the violation -- :meth:`replay` does exactly that.
    """

    prefix: List[int]
    tail: List[int]
    original_schedule: List[int]
    error: BaseException
    result: RunResult
    build: Builder
    check: Callable[[RunResult], None]
    crash_plan_factory: Optional[Callable[[], CrashPlan]] = None
    max_steps: int = 1_000_000
    #: Replays ddmin spent shrinking (0 when shrinking was skipped).
    ddmin_attempts: int = 0

    @property
    def schedule(self) -> List[int]:
        """The full concrete failing schedule (prefix + completion)."""
        return self.prefix + self.tail

    def replay(self) -> RunResult:
        """Re-execute the counterexample schedule from a fresh build."""
        return replay_schedule(self.build, self.schedule,
                               crash_plan_factory=self.crash_plan_factory,
                               max_steps=self.max_steps)

    def reproduces(self) -> bool:
        """Does the schedule still make ``check`` fail on a fresh run?"""
        try:
            self.check(self.replay())
        except Exception:
            return True
        return False

    def describe(self) -> str:
        lines = [
            f"counterexample ({len(self.prefix)}-step prefix, shrunk "
            f"from a {len(self.original_schedule)}-step schedule):",
            f"  prefix   : {self.prefix}",
            f"  completion (lowest pid first): {self.tail}",
            f"  violation: {type(self.error).__name__}: {self.error}",
            f"  outcome  : {self.result.summary()}",
        ]
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


class CounterexampleFound(AssertionError):
    """Raised by the DPOR explorer when ``check()`` fails on a schedule.

    Carries the shrunk, replayable :attr:`counterexample` plus the
    exploration :attr:`stats` accumulated up to the failure.  Subclasses
    ``AssertionError`` so existing ``pytest.raises(AssertionError)``
    expectations keep working.
    """

    def __init__(self, counterexample: Counterexample,
                 stats: Optional[ExplorationStats] = None) -> None:
        self.counterexample = counterexample
        self.stats = stats
        super().__init__(counterexample.describe())


def _drive(build: Builder,
           candidate: List[int],
           crash_plan_factory: Optional[Callable[[], CrashPlan]],
           max_steps: int):
    """Run ``candidate`` as a scheduling hint, then complete it.

    Entries naming a non-schedulable process are skipped (that is what
    lets delta debugging remove chunks without invalidating the rest);
    after the hint is exhausted the run is completed deterministically,
    lowest enabled pid first.  Returns ``(prefix_run, tail, result)``
    where ``prefix_run`` is the subsequence of ``candidate`` actually
    executed, or ``None`` if no terminal state is reached in
    ``max_steps`` steps.
    """
    sysm = _System(build, crash_plan_factory)
    prefix_run: List[int] = []
    for pid in candidate:
        if len(prefix_run) >= max_steps:
            return None
        cands = sysm.candidates()
        if not cands:
            break
        if pid not in cands:
            continue
        sysm.execute(pid)
        prefix_run.append(pid)
    tail: List[int] = []
    while True:
        cands = sysm.candidates()
        if not cands:
            break
        if len(prefix_run) + len(tail) >= max_steps:
            return None
        pid = cands[0]
        sysm.execute(pid)
        tail.append(pid)
    return prefix_run, tail, sysm.result()


def replay_schedule(build: Builder,
                    schedule: List[int],
                    crash_plan_factory: Optional[Callable[[], CrashPlan]]
                    = None,
                    max_steps: int = 1_000_000) -> RunResult:
    """Replay a recorded schedule against a fresh ``build()``.

    The schedule is followed step by step (entries naming processes that
    are no longer schedulable are skipped) and the run is completed
    deterministically if the schedule stops short of a terminal state.
    A run that is still going after ``max_steps`` steps raises
    :class:`~repro.runtime.explore.ReplayDivergence`: the recorded
    schedule came from a terminating run, so this one is not the same.
    """
    out = _drive(build, schedule, crash_plan_factory, max_steps)
    if out is None:
        raise ReplayDivergence(
            f"schedule did not reach a terminal state in {max_steps} steps")
    return out[2]


def shrink_schedule(build: Builder,
                    check: Callable[[RunResult], None],
                    schedule: List[int],
                    crash_plan_factory: Optional[Callable[[], CrashPlan]]
                    = None,
                    max_steps: int = 1_000_000,
                    max_attempts: int = 2000) -> Counterexample:
    """Delta-debug a failing schedule to a locally-minimal prefix.

    ``schedule`` must make ``check`` fail (any exception counts as the
    failure being reproduced).  Chunks of the scheduling prefix are
    removed ddmin-style -- halves first, then ever smaller chunks down to
    single steps -- and every candidate is completed deterministically;
    a candidate is kept when it still fails with a strictly shorter
    prefix.  The result is 1-minimal: removing any single remaining
    prefix entry makes the failure disappear (or yields no shorter
    prefix).
    """

    def attempt(candidate: List[int]):
        out = _drive(build, candidate, crash_plan_factory, max_steps)
        if out is None:
            return None
        prefix_run, tail, result = out
        try:
            check(result)
        except Exception as exc:  # noqa: BLE001 - the failure under study
            return prefix_run, tail, exc, result
        return None

    base = attempt(list(schedule))
    if base is None:
        raise ValueError(
            "schedule does not reproduce a check failure; nothing to shrink")
    best_prefix, best_tail, best_exc, best_result = base
    attempts = 1
    chunk = max(1, len(best_prefix) // 2)
    while attempts < max_attempts:
        shrunk_this_round = False
        i = 0
        while i < len(best_prefix) and attempts < max_attempts:
            candidate = best_prefix[:i] + best_prefix[i + chunk:]
            attempts += 1
            out = attempt(candidate)
            if out is not None and len(out[0]) < len(best_prefix):
                best_prefix, best_tail, best_exc, best_result = out
                shrunk_this_round = True
                # re-examine position i: new content shifted into place
            else:
                i += chunk
        if chunk == 1 and not shrunk_this_round:
            break
        chunk = max(1, chunk // 2)
    return Counterexample(
        prefix=best_prefix,
        tail=best_tail,
        original_schedule=list(schedule),
        error=best_exc,
        result=best_result,
        build=build,
        check=check,
        crash_plan_factory=crash_plan_factory,
        max_steps=max_steps,
        ddmin_attempts=attempts,
    )


def raise_violation(stats: ExplorationStats,
                    build: Builder,
                    check: Callable[[RunResult], None],
                    crash_plan_factory: Optional[Callable[[], CrashPlan]],
                    max_steps: int,
                    reduction: str,
                    shrink: bool = True,
                    metrics: Optional[Any] = None) -> None:
    """Raise the violation an engine collected into ``stats``.

    The one way a finding leaves :func:`repro.runtime.explore.explore`,
    :func:`explore_dpor` and :func:`repro.runtime.parallel.
    explore_parallel`.  The collected schedule is first replayed once
    against a fresh ``build()`` and re-checked: a replay that does not
    follow the schedule to a terminal state, or whose check does not
    fail with the recorded error type, raises
    :class:`~repro.runtime.explore.ReplayDivergence` -- the build or
    the check is not deterministic, and no verdict can rest on the
    run.  Under ``reduction="naive"`` the check's own exception is then
    raised, carrying the collected violation as its ``violation``
    attribute (:func:`is_check_failure`).  Under DPOR the schedule is
    ddmin-shrunk (:func:`shrink_schedule`; kept whole when
    ``shrink=False``) and
    :class:`CounterexampleFound` is raised, carrying ``stats``; the
    ``shrink`` phase and ``ddmin_replays`` go to ``metrics``.
    """
    start = perf_counter()
    schedule = list(stats.violation.schedule)
    max_steps = max(max_steps, len(schedule))
    out = _drive(build, schedule, crash_plan_factory, max_steps)
    error: Optional[Exception] = None
    if out is not None and out[0] == schedule and not out[1]:
        try:
            check(out[2])
        except Exception as exc:  # noqa: BLE001 - the failure under study
            error = exc
    if error is None or type(error).__name__ != stats.violation.error_type:
        raise ReplayDivergence(
            f"the violation on schedule {schedule} "
            f"({stats.violation.message}) did not recur on replay")
    if reduction == "naive":
        error.violation = stats.violation  # the check's own, not a bug
        raise error
    if shrink:
        counterexample = shrink_schedule(
            build, check, schedule, crash_plan_factory=crash_plan_factory,
            max_steps=max_steps)
    else:
        counterexample = Counterexample(
            prefix=schedule, tail=[], original_schedule=schedule,
            error=error, result=out[2], build=build, check=check,
            crash_plan_factory=crash_plan_factory, max_steps=max_steps)
    if metrics is not None:
        metrics.record_phase("shrink", perf_counter() - start)
        metrics.ddmin_replays += counterexample.ddmin_attempts
    raise CounterexampleFound(counterexample, stats) from error


def is_check_failure(exc: BaseException) -> bool:
    """Is ``exc`` a check's own exception, raised by
    :func:`raise_violation` under naive exploration (whatever its
    type), rather than an error of the engine?"""
    return isinstance(getattr(exc, "violation", None), ShardViolation)


# ---------------------------------------------------------------------------
# The DPOR search itself.
# ---------------------------------------------------------------------------

class _Node:
    """One state on the current DFS path.

    ``in_pid`` / ``in_fp`` / ``in_clock`` describe the incoming step (the
    step that produced this state); the root carries ``None`` for all
    three.  ``cv_proc`` maps each process to the vector clock of its last
    executed step -- the happens-before past of its next transition.
    ``racers`` maps each candidate to the indices (ascending) of the
    executed steps its pending step races with; it is ``None`` on a
    node race detection never scanned (a shard-prefix node).
    """

    __slots__ = ("in_pid", "in_fp", "in_clock", "cv_proc", "candidates",
                 "pending_fps", "sleep", "backtrack", "done", "visited",
                 "racers", "fpr", "snap", "sub_pairs", "sub_max",
                 "fp_parts")

    def __init__(self, in_pid, in_fp, in_clock, cv_proc, candidates,
                 pending_fps, sleep) -> None:
        self.in_pid: Optional[int] = in_pid
        self.in_fp: Optional[Footprint] = in_fp
        self.in_clock: Optional[Dict[int, int]] = in_clock
        self.cv_proc: Dict[int, Dict[int, int]] = cv_proc
        self.candidates: List[int] = candidates
        self.pending_fps: Dict[int, Optional[Footprint]] = pending_fps
        self.sleep: Set[int] = sleep
        self.backtrack: Set[int] = set()
        self.done: Set[int] = set()
        self.visited = False
        self.racers: Optional[Dict[int, Tuple[int, ...]]] = None
        # State-cache bookkeeping (unused when the cache is disabled):
        # the state fingerprint, the statistics snapshot taken when this
        # node was pushed, the (pid, footprint) race summary plus depth
        # watermark accumulated over the node's explored subtree, and
        # the (object-parts, process-heavy-parts) dicts children derive
        # their own fingerprints from incrementally.
        self.fpr: Optional[tuple] = None
        self.snap: Optional[tuple] = None
        self.sub_pairs: Optional[Set[tuple]] = None
        self.sub_max: int = 0
        self.fp_parts: Optional[tuple] = None


def _make_node(sysm: _System, parent: Optional[_Node], pick: Optional[int],
               fp: Optional[Footprint], path: List[_Node],
               sleep: Set[int],
               conflict: Callable[[Any, Any], bool]) -> _Node:
    """Build the node reached by executing ``pick`` (with footprint
    ``fp``) from ``parent``; ``path`` holds the states *before* this one
    and ``conflict`` is the exploration's memoised conflict relation.

    The step's clock is ``pick``'s past joined with the clock of every
    earlier step it conflicts with.  When ``fp`` is the footprint race
    detection checked at ``parent``, only ``pick``'s racers there need
    joining: every other conflicting step is ``pick``'s own or already
    in its past.  Otherwise (a crash, whose footprint is empty, or a
    shard-prefix parent) the path is scanned, newest step first,
    skipping steps already in the clock.
    """
    if parent is None:
        node = _Node(None, None, None, {}, sysm.candidates(),
                     sysm.alive_footprints(), sleep)
        node.racers = {p: () for p in node.candidates}  # no step to race
        return node
    index = len(path)  # 1-based index of the incoming step
    clock = dict(parent.cv_proc.get(pick, ()))
    racers = parent.racers
    if racers is not None and fp is parent.pending_fps.get(pick):
        steps, scan = racers[pick], False
    else:
        steps, scan = range(1, index), True
    for j in reversed(steps):
        step = path[j]
        if j > clock.get(step.in_pid, 0) and (
                not scan or conflict(step.in_fp, fp)):
            for q, k in step.in_clock.items():
                if clock.get(q, 0) < k:
                    clock[q] = k
    clock[pick] = index
    cv_proc = dict(parent.cv_proc)
    cv_proc[pick] = clock
    return _Node(pick, fp, clock, cv_proc, sysm.candidates(),
                 sysm.alive_footprints(), sleep)


def _plant(pre: _Node, p: int) -> None:
    """Backtrack point for a race of ``p`` with the step taken from
    ``pre``: ``p`` itself if it was schedulable there, otherwise
    conservatively every candidate of ``pre``."""
    if p in pre.candidates:
        if p not in pre.done and p not in pre.sleep:
            pre.backtrack.add(p)
    else:
        pre.backtrack.update(pre.candidates)


def _update_backtracks(path: List[_Node],
                       conflict: Callable[[Any, Any], bool]) -> None:
    """Race detection at the newly-reached state (the last node of
    ``path``): every candidate's pending step is checked against every
    earlier executed step it conflicts with (``conflict``, the
    exploration's memoised relation) but is not already happens-after;
    each such race plants a backtrack point at the state the earlier
    step executed from (:func:`_plant`).

    A candidate that did not step, was a candidate at the parent and
    kept its (interned) pending footprint has the parent's past and was
    checked there against every earlier step; the parent's plants still
    stand, since no ancestor's ``done`` or ``sleep`` set changes while
    the search is below it and a plant is idempotent.  Such a candidate
    is checked against the newest step only, and inherits the parent's
    racers.  The others -- the stepping process, a process that just
    became schedulable, and every candidate below a node that was never
    scanned -- are checked against the whole path.
    """
    node = path[-1]
    depth = len(path) - 1
    parent = path[-2]
    pick, fp = node.in_pid, node.in_fp
    known = parent.racers
    parent_fps = parent.pending_fps
    racers: Dict[int, Tuple[int, ...]] = {}
    for p in node.candidates:
        f_p = node.pending_fps.get(p)
        if (known is not None and p != pick and p in known
                and parent_fps.get(p) is f_p):
            found = known[p]
            if conflict(fp, f_p):
                found += (depth,)
                _plant(parent, p)
            racers[p] = found
            continue
        past = node.cv_proc.get(p, {})
        hits = []
        for j in range(depth, 0, -1):
            step = path[j]
            q = step.in_pid
            if q == p or j <= past.get(q, 0):
                continue
            if conflict(step.in_fp, f_p):
                hits.append(j)
                _plant(path[j - 1], p)
        hits.reverse()
        racers[p] = tuple(hits)
    node.racers = racers


def _work_remains(path: List[_Node]) -> bool:
    return any(
        any(p not in node.done and p not in node.sleep
            for p in node.backtrack)
        for node in path)


# ---------------------------------------------------------------------------
# The state cache (stateful DPOR).
# ---------------------------------------------------------------------------

class _CacheEntry:
    """The recorded outcome of fully expanding one (state, sleep) node.

    ``sleep`` / ``rem`` are the sleep set and remaining depth budget the
    node was expanded under; a later arrival may reuse the entry only
    with a *superset* sleep set and an *equal-or-smaller* remaining
    budget, so the recorded subtree covers everything re-exploration
    could visit.  Recorded entries are violation-free by construction
    (a violation aborts the search before any ancestor pops), so
    skipping never hides a counterexample; for a strictly-subsumed
    reuse the folded run counts over-approximate what re-exploration
    would have counted, which is why differential comparisons go
    through ``ExplorationStats.deterministic_view`` rather than raw
    counts.  ``delta`` holds the run and sleep-set counts the subtree
    contributed; ``pairs`` the (pid, footprint) summary of every step
    candidate *strictly below* the node, used by
    :func:`_plants_are_noops`; ``rel_max`` the subtree's depth
    watermark relative to the node.
    """

    __slots__ = ("sleep", "rem", "delta", "pairs", "rel_max")

    def __init__(self, sleep, rem, delta, pairs, rel_max) -> None:
        self.sleep: frozenset = sleep
        self.rem: int = rem
        self.delta: ExplorationStats = delta
        self.pairs: frozenset = pairs
        self.rel_max: int = rel_max


def _plants_are_noops(pairs, path: List[_Node], base: int,
                      conflict: Callable[[Any, Any], bool]) -> bool:
    """Would replaying the cached subtree plant any backtrack point the
    current path does not already semantically contain?

    ``pairs`` summarizes every (pid, pending footprint) that occurred at
    any state strictly inside the recorded subtree.  Race detection from
    those states walks down into the shared path prefix; a hit is only
    sound if every backtrack point such a walk could plant is already a
    no-op -- the racer is already in the pre-state's ``backtrack``,
    ``done``, or ``sleep`` set (planting a done/sleeping pid never
    schedules anything: the DFS pick filters both out, and
    :func:`_work_remains` ignores them).  The conservative branch of
    :func:`_update_backtracks` (racer not schedulable at the pre-state)
    plants *every* candidate, so all of them must be no-ops there.

    This check makes the cache *exact* rather than merely sound: when it
    passes, skipping the subtree leaves every backtrack set on the path
    in a state equivalent to what cache-off re-exploration would have
    produced, so the DFS continues identically.  When it fails the hit
    is declined and the subtree re-explored -- never wrong, just slower.

    Happens-before is deliberately ignored here (treated as "no edge"):
    real vector clocks could only *suppress* plants, so checking every
    conflicting pair over-approximates the plants cache-off could make.
    """
    depth = len(path) - 1
    for p, f_p in pairs:
        for j in range(depth, base, -1):
            step = path[j]
            if step.in_pid == p:
                continue
            if conflict(step.in_fp, f_p):
                pre = path[j - 1]
                if p in pre.candidates:
                    if (p not in pre.backtrack and p not in pre.done
                            and p not in pre.sleep):
                        return False
                else:
                    for c in pre.candidates:
                        if (c not in pre.backtrack and c not in pre.done
                                and c not in pre.sleep):
                            return False
    return True


class _StateCache:
    """Fingerprint -> fully-expanded-subtree cache for one exploration.

    One cache per :func:`_explore_core` call (per shard, in parallel
    mode), so ``jobs=1`` and ``jobs=N`` stay bit-for-bit identical: a
    shard never sees hits against a sibling's subtrees.  Buckets hold
    one entry per distinct (sleep, rem) expansion of a state; lookups
    scan for the first reusable entry (see :class:`_CacheEntry` and
    :func:`_plants_are_noops` for the exactness argument).
    """

    __slots__ = ("fingerprinter", "entries", "_full_override")

    def __init__(self, fingerprinter: Optional[Fingerprinter] = None
                 ) -> None:
        self.fingerprinter = (fingerprinter if fingerprinter is not None
                              else Fingerprinter())
        self.entries: Dict[tuple, List[_CacheEntry]] = {}
        # A subclass overriding the whole-system ``fingerprint`` (e.g. a
        # deliberately-colliding test stub) must see every state: the
        # incremental part-reuse path below would silently bypass it.
        self._full_override = (type(self.fingerprinter).fingerprint
                               is not Fingerprinter.fingerprint)

    def fingerprint(self, sysm: _System) -> tuple:
        """Canonical fingerprint of the system's current state."""
        return self.fingerprinter.fingerprint(sysm)

    def fingerprint_node(self, sysm: _System, parent: Optional[_Node],
                         pick: Optional[int],
                         step_fp: Optional[Footprint]
                         ) -> Tuple[tuple, tuple]:
        """Fingerprint the state reached by executing ``pick`` (with
        declared footprint ``step_fp``) from ``parent``, incrementally.

        One step can change only the stepping process's heavy part and
        the audited state of objects its footprint *writes* (an
        undeclared write would already be a DPOR-soundness bug: race
        detection relies on the same declaration); everything volatile
        -- spin counters, plan state, the step counter -- is read fresh
        by :meth:`Fingerprinter.assemble`.  Per-object granularity is by
        *name*, so Byzantine rewrites (which preserve the target object)
        and ``WHOLE``-key footprints are covered.  ``step_fp is None``
        (unknown footprint) falls back to recomputing every object.

        Returns ``(fingerprint, (obj_parts, heavy))``; the parts are
        stored on the node and shared structurally with children, which
        copy before mutating.
        """
        f = self.fingerprinter
        if self._full_override:
            return f.fingerprint(sysm), None
        parts = parent.fp_parts if parent is not None else None
        if parts is None:
            obj_parts = f.object_parts(sysm)
            heavy = f.heavy_parts(sysm)
        else:
            p_objs, p_heavy = parts
            if step_fp is None:
                obj_parts = f.object_parts(sysm)
            else:
                written = {loc[0] for loc in step_fp.writes}
                if written:
                    obj_parts = dict(p_objs)
                    store = sysm.store
                    for name in written:
                        obj_parts[name] = f.object_fingerprint(
                            store[name])
                else:
                    obj_parts = p_objs  # shared; children copy on write
            heavy = dict(p_heavy)
            heavy[pick] = f.process_heavy(sysm.handles[pick])
        return f.assemble(sysm, obj_parts, heavy), (obj_parts, heavy)

    def record(self, fpr: tuple, sleep: frozenset, rem: int,
               delta: ExplorationStats, pairs: frozenset,
               rel_max: int) -> None:
        """Store the expansion outcome of one popped node."""
        bucket = self.entries.setdefault(fpr, [])
        for entry in bucket:
            if entry.sleep == sleep and entry.rem == rem:
                return  # an identical expansion is already recorded
        bucket.append(_CacheEntry(sleep, rem, delta, pairs, rel_max))

    def lookup(self, fpr: tuple, sleep: Set[int], rem: int,
               path: List[_Node], base: int,
               conflict: Callable[[Any, Any], bool]
               ) -> Optional[_CacheEntry]:
        """First entry whose reuse here is provably exact, else None."""
        bucket = self.entries.get(fpr)
        if not bucket:
            return None
        for entry in bucket:
            if (entry.rem >= rem and entry.sleep.issubset(sleep)
                    and _plants_are_noops(entry.pairs, path, base,
                                          conflict)):
                return entry
        return None


def _explore_core(build: Builder,
                  check: Callable[[RunResult], None],
                  crash_plan_factory: Optional[Callable[[], CrashPlan]]
                  = None,
                  max_steps: int = 24,
                  max_runs: int = 200_000,
                  prefix: Sequence[int] = (),
                  root_sleep: Sequence[int] = (),
                  deadline: Optional[float] = None,
                  state_cache: bool = False,
                  fingerprinter: Optional[Fingerprinter] = None
                  ) -> ExplorationStats:
    """DPOR exploration of the subtree rooted at ``prefix``.

    With an empty ``prefix`` this is the full serial search.  With a
    non-empty prefix (shard mode, see :mod:`repro.runtime.parallel`) the
    prefix is replayed first and DFS proceeds only *below* its final
    state: backtrack points that race detection plants into prefix
    states are ignored here, which is sound because the frontier
    expansion that produced the shard scheduled every non-sleeping
    candidate at each pre-frontier state, so sibling shards cover those
    orderings.  ``root_sleep`` carries the shard root's sleep set across
    the process boundary.

    The first check failure is recorded as ``stats.violation``
    (schedule measured from the true root, prefix included) and the
    walk returns there: the caller raises it (:func:`raise_violation`),
    or a coordinator picks the winning violation deterministically
    across shards first.  After a backtrack the rebuilt system is
    re-synced by replaying the path; a replayed step that does not
    return its recorded (interned) footprint raises
    :class:`~repro.runtime.explore.ReplayDivergence`.

    Sleep-set accounting and the cache's hit/skip counts are part of
    the returned statistics, like the run counts.

    ``state_cache`` enables the prefix-equivalence cache
    (:class:`_StateCache`, default off): subtrees rooted at an
    already-expanded (fingerprint, subsumed-sleep-set) state are folded
    from the cache instead of re-executed.  ``fingerprinter`` overrides
    the canonical :class:`~repro.runtime.fingerprint.Fingerprinter`
    (tests inject deliberately-colliding stubs to prove the
    differential tier catches unsound caching).
    """
    stats = ExplorationStats()
    cache = _StateCache(fingerprinter) if state_cache else None
    footprints = _Footprints()
    conflict = footprints.conflicts
    sysm = _System(build, crash_plan_factory, footprints)
    path: List[_Node] = [_make_node(sysm, None, None, None, [], set(),
                                    conflict)]
    for pid in prefix:
        node = path[-1]
        node.visited = True
        if pid not in node.candidates:
            raise ReplayDivergence(
                f"shard prefix diverged: {pid} not schedulable at depth "
                f"{len(path) - 1} (candidates: {node.candidates})")
        node.done.add(pid)
        fp = sysm.execute(pid)
        child = _make_node(sysm, node, pid, fp, path, set(), conflict)
        path.append(child)
    base = len(path) - 1
    path[-1].sleep = set(root_sleep)
    if cache is not None:
        for d, node in enumerate(path):
            node.sub_pairs = set()
            node.sub_max = d
        if not cache._full_override:
            path[-1].fp_parts = (cache.fingerprinter.object_parts(sysm),
                                 cache.fingerprinter.heavy_parts(sysm))
    synced = True

    def fold_into_parent(child: _Node, pairs, sub_max: int) -> None:
        # The parent's subtree summary gains the popped/skipped child's
        # descendants plus the child's own step candidates (the child is
        # a strict descendant of the parent).
        parent = path[-1]
        parent.sub_pairs.update(pairs)
        for p in child.candidates:
            parent.sub_pairs.add((p, child.pending_fps.get(p)))
        if sub_max > parent.sub_max:
            parent.sub_max = sub_max

    def check_budget() -> None:
        if stats.total_runs >= max_runs and _work_remains(path[base:]):
            raise _max_runs_interrupt(max_runs, stats)
        if _past_deadline(deadline) and _work_remains(path[base:]):
            raise _timeout_interrupt(stats)

    def pop_top() -> None:
        # Pop the fully-processed top node; with the cache enabled,
        # record its expansion as a cache entry and fold its subtree
        # summary into its parent.
        nonlocal synced
        child = path.pop()
        synced = False
        if cache is None:
            return
        d = len(path)  # the popped node's depth
        if d <= base:
            return
        snap = child.snap
        delta = ExplorationStats(
            complete_runs=stats.complete_runs - snap[0],
            truncated_runs=stats.truncated_runs - snap[1],
            pruned_runs=stats.pruned_runs - snap[2],
            sleep_checks=stats.sleep_checks - snap[3],
            sleep_hits=stats.sleep_hits - snap[4])
        cache.record(child.fpr, frozenset(child.sleep), max_steps - d,
                     delta, frozenset(child.sub_pairs), child.sub_max - d)
        fold_into_parent(child, child.sub_pairs, child.sub_max)

    def try_cache(child: _Node, parent: _Node, pick: int,
                  step_fp: Optional[Footprint]) -> bool:
        # Fingerprint the just-pushed node; either skip its whole
        # subtree via a cached entry (folding the entry's recorded
        # statistics) or arm the node for recording at pop time.  Runs
        # *after* _update_backtracks, so the node's own step candidates
        # have planted their races exactly as cache-off would.
        nonlocal synced
        d = len(path) - 1
        child.sub_pairs = set()
        child.sub_max = d
        child.fpr, child.fp_parts = cache.fingerprint_node(
            sysm, parent, pick, step_fp)
        child.snap = (stats.complete_runs, stats.truncated_runs,
                      stats.pruned_runs, stats.sleep_checks,
                      stats.sleep_hits)
        entry = cache.lookup(child.fpr, child.sleep, max_steps - d,
                             path, base, conflict)
        if entry is None:
            return False
        delta = entry.delta
        stats.complete_runs += delta.complete_runs
        stats.truncated_runs += delta.truncated_runs
        stats.pruned_runs += delta.pruned_runs
        stats.sleep_checks += delta.sleep_checks
        stats.sleep_hits += delta.sleep_hits
        stats.cache_hits += 1
        stats.cache_skipped_runs += delta.total_runs
        reach = min(d + entry.rel_max, max_steps)
        if reach > stats.max_depth_seen:
            stats.max_depth_seen = reach
        path.pop()
        synced = False
        fold_into_parent(child, entry.pairs,
                         min(d + entry.rel_max, max_steps))
        check_budget()
        return True

    while len(path) > base:
        node = path[-1]
        depth = len(path) - 1
        if not node.visited:
            node.visited = True
            stats.max_depth_seen = max(stats.max_depth_seen, depth)
            if not node.candidates:
                # Terminal state (all decided/crashed, or exact deadlock).
                stats.complete_runs += 1
                try:
                    check(sysm.result())
                except Exception as exc:  # noqa: BLE001 - collected
                    stats.violation = ShardViolation.of(
                        prefix, [n.in_pid for n in path[1:]], exc)
                    return stats
                pop_top()
                check_budget()
                continue
            if depth >= max_steps:
                stats.truncated_runs += 1
                pop_top()
                check_budget()
                continue
            explorable = [p for p in node.candidates if p not in node.sleep]
            stats.sleep_checks += len(node.candidates)
            stats.sleep_hits += len(node.candidates) - len(explorable)
            if not explorable:
                # Every candidate sleeps: the whole subtree is equivalent
                # to schedules already explored elsewhere.
                stats.pruned_runs += 1
                pop_top()
                continue
            node.backtrack.add(explorable[0])
        todo = node.backtrack - node.done - node.sleep
        if not todo:
            # Fully explored; candidates never scheduled here were pruned
            # by the persistent-set/sleep-set argument (every pick is a
            # candidate, so ``done`` is a subset of ``candidates``).
            stats.pruned_runs += len(node.candidates) - len(node.done)
            pop_top()
            continue
        if not synced:
            sysm = _System(build, crash_plan_factory, footprints)
            execute = sysm.execute
            for n in path[1:]:
                if execute(n.in_pid) is not n.in_fp:
                    raise ReplayDivergence(
                        f"re-sync diverged: step {path.index(n)} "
                        f"({n.in_pid}) did not repeat its recorded "
                        f"footprint")
            synced = True
        pick = min(todo)
        node.done.add(pick)
        fp = sysm.execute(pick)
        child_sleep = {
            q for q in (node.sleep | node.done) - {pick}
            if q in node.pending_fps
            and not conflict(node.pending_fps[q], fp)}
        child = _make_node(sysm, node, pick, fp, path, child_sleep,
                           conflict)
        path.append(child)
        _update_backtracks(path, conflict)
        if cache is not None:
            try_cache(child, node, pick, fp)
    return stats


def explore_dpor(build: Builder,
                 check: Callable[[RunResult], None],
                 crash_plan_factory: Optional[Callable[[], CrashPlan]]
                 = None,
                 max_steps: int = 24,
                 max_runs: int = 200_000,
                 shrink: bool = True,
                 metrics: Optional[Any] = None,
                 deadline: Optional[float] = None,
                 state_cache: bool = False,
                 fingerprinter: Optional[Fingerprinter] = None
                 ) -> ExplorationStats:
    """Explore one representative schedule per Mazurkiewicz trace.

    Same contract as :func:`repro.runtime.explore.explore` -- ``build()``
    returns a fresh ``(programs, store)`` pair, ``check(result)`` asserts
    the safety property on every complete run, prefixes longer than
    ``max_steps`` count as truncated, and exceeding ``max_runs`` complete
    + truncated runs raises ``ExplorationInterrupted`` (inclusive
    bound) -- but schedules equivalent up to commuting independent steps
    are explored only once.  ``stats.pruned_runs`` reports a *lower
    bound* on the schedules avoided (unexplored candidate branches plus
    sleep-blocked subtrees); the true saving is typically far larger,
    since each pruned branch roots a whole subtree.  This is the
    single-process search; :func:`repro.runtime.explore.explore` with a
    ``jobs`` value routes to the sharded one.

    On a ``check`` failure the engine stops and :func:`raise_violation`
    replays the failing schedule, shrinks it (:func:`shrink_schedule`,
    unless ``shrink=False``) and raises :class:`CounterexampleFound`
    from the replayed error; a failure that does not recur on replay
    raises :class:`~repro.runtime.explore.ReplayDivergence`.

    ``metrics`` is an optional
    :class:`repro.analysis.metrics.ExplorationMetrics` collector; it
    gets the wall-clock phases, the ddmin replay count and a copy of
    the returned statistics, which stay bit-for-bit unchanged.

    ``deadline`` is an absolute ``time.monotonic()`` instant (computed
    by :func:`repro.runtime.explore.explore` from its ``timeout``);
    crossing it raises
    :class:`~repro.runtime.explore.ExplorationInterrupted` with the
    partial statistics.

    ``state_cache=True`` enables the prefix-equivalence state cache
    (default off; the path the ``cache`` differential tier compares
    against the default).  ``fingerprinter`` injects a custom
    :class:`~repro.runtime.fingerprint.Fingerprinter`.
    """
    stats = _run_serial(
        lambda: _explore_core(
            build, check, crash_plan_factory=crash_plan_factory,
            max_steps=max_steps, max_runs=max_runs, deadline=deadline,
            state_cache=state_cache, fingerprinter=fingerprinter),
        metrics)
    if stats.violation is not None:
        raise_violation(stats, build, check, crash_plan_factory, max_steps,
                        "dpor", shrink=shrink, metrics=metrics)
    return stats
