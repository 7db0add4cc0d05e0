"""The atomic-step scheduler.

Serializes all shared-memory operations: at each global step the adversary
picks one enabled process, the scheduler executes that process's pending
operation atomically against the object store, and resumes the process
generator with the result.  Linearizability of base objects is therefore by
construction -- there is never more than one operation in flight.

Termination of a run:

* all processes reach a terminal status (decided / crashed / blocked), or
* the deadlock detector proves every still-running process is spinning on a
  read-only condition that can never become true (all are "spin-verified"
  and no state-changing step intervened), in which case the spinners are
  marked BLOCKED -- this is how a simulated process "crashed" by the crash
  of its simulator (paper, Lemma 1 / Lemma 7) becomes an observable outcome,
  or
* the step budget is exhausted (remaining processes stay RUNNING, and the
  result is flagged; tests treat this as a failure unless expected).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .adversary import Adversary
from .crash import CrashPlan
from .ops import SPIN_FAILED, Invocation, LocalOp, SpinOp
from .process import NO_DECISION, ProcessHandle, ProcessStatus
from .trace import EventKind, Trace


class ScheduleError(RuntimeError):
    """A process yielded something the scheduler cannot execute."""


@dataclass
class SchedulerOutcome:
    """Raw outcome of driving the schedule to completion."""

    steps: int
    deadlocked: bool
    out_of_steps: bool


class Scheduler:
    """Drives a set of process handles against a shared-object store."""

    def __init__(self,
                 handles: Dict[int, ProcessHandle],
                 store,
                 adversary: Adversary,
                 crash_plan: Optional[CrashPlan] = None,
                 trace: Optional[Trace] = None,
                 max_steps: int = 1_000_000) -> None:
        self.handles = handles
        self.store = store
        self.adversary = adversary
        # `is None`, not truthiness: a FaultPlan with behaviors but no
        # crash points has len() == 0 and must still be honoured.
        self.crash_plan = (CrashPlan.none() if crash_plan is None
                           else crash_plan)
        # Every run builds a fresh Scheduler (run(), or the explorers'
        # dpor._System), so resetting here guarantees a plan object
        # shared across runs starts each run pristine.
        reset = getattr(self.crash_plan, "reset", None)
        if reset is not None:
            reset()
        # Byzantine rewrite hooks (see repro.runtime.faults.FaultPlan)
        # are duck-typed: plain CrashPlans skip both branches entirely,
        # keeping the no-fault path bit-for-bit unchanged.
        self._rewrites = hasattr(self.crash_plan, "rewrite_invocation")
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.max_steps = max_steps
        self.steps = 0

    # ------------------------------------------------------------------
    def run(self) -> SchedulerOutcome:
        self.adversary.reset()
        while True:
            enabled = self._enabled()
            if not enabled:
                return SchedulerOutcome(self.steps, False, False)
            if self._deadlocked(enabled):
                self._retire_blocked(enabled)
                return SchedulerOutcome(self.steps, True, False)
            if self.steps >= self.max_steps:
                return SchedulerOutcome(self.steps, False, True)
            pid = self.adversary.pick(enabled, self.steps)
            if pid not in self.handles or not self.handles[pid].alive:
                raise ScheduleError(
                    f"adversary picked non-enabled pid {pid}")
            self._step(self.handles[pid])

    # ------------------------------------------------------------------
    def _enabled(self) -> List[int]:
        return sorted(pid for pid, h in self.handles.items() if h.alive)

    def _deadlocked(self, enabled: List[int]) -> bool:
        """True iff every enabled process is provably stuck.

        A process is spin-verified once it accumulated ``period`` consecutive
        failed (read-only) spin steps.  Failed spins cannot change shared
        state, so if *every* enabled process is spin-verified with no
        state-changing step in between, no predicate can ever flip: the
        configuration is a permanent deadlock.
        """
        for pid in enabled:
            handle = self.handles[pid]
            op = handle.pending
            if not isinstance(op, SpinOp):
                return False
            if handle.spin_failures < max(1, op.period):
                return False
        return True

    def _retire_blocked(self, enabled: List[int]) -> None:
        for pid in enabled:
            self.handles[pid].mark_blocked()
            self.trace.record(EventKind.BLOCKED, pid)

    def _reset_spin_verification(self) -> None:
        for handle in self.handles.values():
            handle.spin_failures = 0

    # ------------------------------------------------------------------
    def _step(self, handle: ProcessHandle) -> None:
        if handle.pending is None:
            op = handle.advance()
            if op is None:
                self._record_decision(handle)
                return
        op = handle.pending

        if self.crash_plan.should_crash(handle.pid, handle.steps_taken, op):
            handle.crash()
            self.trace.record(EventKind.CRASH, handle.pid)
            # The crash may have unblocked nobody, but conservatively a
            # change in the enabled set does not affect spin predicates
            # (they read shared state only), so no spin reset is needed.
            return

        if isinstance(op, SpinOp):
            self._spin_step(handle, op)
        elif isinstance(op, Invocation):
            self._invoke_step(handle, op)
        elif isinstance(op, LocalOp):
            raise ScheduleError(
                f"p{handle.pid} yielded a LocalOp to the top-level "
                f"scheduler: {op!r}. Local ops must be resolved by a "
                f"simulator trampoline.")
        else:
            raise ScheduleError(
                f"p{handle.pid} yielded unschedulable {op!r}")

    def _spin_step(self, handle: ProcessHandle, op: SpinOp) -> None:
        if not self.store.is_readonly(op.invocation):
            raise ScheduleError(
                f"spin on non-read-only operation {op.invocation!r}")
        taken = handle.steps_taken
        result = self.store.apply(handle.pid, op.invocation)
        if self._rewrites:
            result = self.crash_plan.rewrite_result(
                handle.pid, taken, op.invocation, result)
        self.steps += 1
        handle.steps_taken += 1
        if op.predicate(result):
            handle.spin_failures = 0
            self.trace.record(EventKind.STEP, handle.pid,
                              op.invocation, result)
            self._resume(handle, result)
        else:
            handle.spin_failures += 1
            self.trace.record(EventKind.SPIN, handle.pid, op.invocation)
            # Resume with the sentinel: the process decides what to spin on
            # next (same condition, or -- for a simulator -- another
            # thread's condition).  spin_failures persists until a success
            # or a state-changing step elsewhere.
            self._resume(handle, SPIN_FAILED)

    def _invoke_step(self, handle: ProcessHandle, op: Invocation) -> None:
        if self._rewrites:
            taken = handle.steps_taken
            op = self.crash_plan.rewrite_invocation(handle.pid, taken, op)
            result = self.store.apply(handle.pid, op)
            result = self.crash_plan.rewrite_result(
                handle.pid, taken, op, result)
        else:
            result = self.store.apply(handle.pid, op)
        self.steps += 1
        handle.steps_taken += 1
        self.trace.record(EventKind.STEP, handle.pid, op, result)
        # A real (non-spin) step breaks this process's consecutive-failed-
        # spin chain: it is demonstrably not stuck.  Without this, a
        # simulator interleaving spins of blocked threads with the
        # read-only steps of a live thread could be retired as deadlocked
        # one quantum before that thread's state-changing write.
        handle.spin_failures = 0
        if not self.store.is_readonly(op):
            # Shared state changed: previously failed spin checks are stale.
            self._reset_spin_verification()
        self._resume(handle, result)

    def _resume(self, handle: ProcessHandle, result) -> None:
        handle.inbox = result
        next_op = handle.advance()
        if next_op is None:
            self._record_decision(handle)

    def _record_decision(self, handle: ProcessHandle) -> None:
        value = (handle.decision if handle.decision is not NO_DECISION
                 else None)
        self.trace.record(EventKind.DECIDE, handle.pid, result=value)
