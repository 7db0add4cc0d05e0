"""Cooperative-step execution runtime for asynchronous shared memory.

See DESIGN.md Section 2: processes are generators yielding one atomic
operation per step; a seeded adversary chooses the interleaving and a crash
plan injects failures.  This replaces OS threads (whose scheduling the GIL
obscures) with exactly the adversarial atomic-step semantics of the
ASM(n, t, x) model.
"""

from .adversary import (Adversary, PriorityAdversary, RoundRobinAdversary,
                        ScriptedAdversary, SeededRandomAdversary)
from .crash import CrashPlan, CrashPoint, op_on
from .dpor import (Counterexample, CounterexampleFound, explore_dpor,
                   replay_schedule, shrink_schedule)
from .explore import (ExplorationInterrupted, ExplorationStats,
                      ReplayDivergence, ShardFailed, ShardViolation, explore)
from .fingerprint import Fingerprinter
from .faults import (ArbitraryPropose, CorruptWrite, FaultBehavior,
                     FaultPlan, FaultTrigger, StaleReadReplay,
                     byzantine_writer)
from .frontier import FrontierMismatch, FrontierStore
from .lease import Lease, LeaseTable
from .netshard import (ChaosProxy, ServerGone, ShardServer, ShardWorker,
                       WorkerUnavailable, backoff_delay)
from .parallel import (execute_shard, explore_parallel, fork_available,
                       resolve_jobs, run_pool)
from .ops import (EMPTY_FOOTPRINT, SPIN_FAILED, WHOLE, Footprint,
                  Invocation, LocalOp, ObjectProxy, SpinOp, conflicts,
                  indexed_proxy, spin, wait_until)
from .process import NO_DECISION, ProcessHandle, ProcessStatus
from .run import RunResult, run_processes
from .scheduler import ScheduleError, Scheduler, SchedulerOutcome
from .trace import Event, EventKind, Trace
from .wire import (BadMagic, ChecksumMismatch, ConnectionClosed,
                   FrameTooLarge, FrameTruncated, VersionMismatch,
                   WireError, WireTimeout)

__all__ = [
    "Adversary", "PriorityAdversary", "RoundRobinAdversary",
    "ScriptedAdversary", "SeededRandomAdversary",
    "CrashPlan", "CrashPoint", "op_on",
    "Counterexample", "CounterexampleFound", "explore_dpor",
    "replay_schedule", "shrink_schedule",
    "ExplorationInterrupted", "ExplorationStats", "ReplayDivergence",
    "ShardFailed", "ShardViolation", "explore",
    "Fingerprinter",
    "ArbitraryPropose", "CorruptWrite", "FaultBehavior", "FaultPlan",
    "FaultTrigger", "StaleReadReplay", "byzantine_writer",
    "FrontierMismatch", "FrontierStore",
    "Lease", "LeaseTable",
    "ChaosProxy", "ServerGone", "ShardServer", "ShardWorker",
    "WorkerUnavailable", "backoff_delay",
    "execute_shard", "explore_parallel", "fork_available", "resolve_jobs",
    "run_pool",
    "EMPTY_FOOTPRINT", "SPIN_FAILED", "WHOLE", "Footprint",
    "Invocation", "LocalOp", "ObjectProxy", "SpinOp", "conflicts",
    "indexed_proxy", "spin", "wait_until",
    "NO_DECISION", "ProcessHandle", "ProcessStatus",
    "RunResult", "run_processes",
    "ScheduleError", "Scheduler", "SchedulerOutcome",
    "Event", "EventKind", "Trace",
    "BadMagic", "ChecksumMismatch", "ConnectionClosed", "FrameTooLarge",
    "FrameTruncated", "VersionMismatch", "WireError", "WireTimeout",
]
