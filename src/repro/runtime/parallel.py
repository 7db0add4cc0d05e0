"""Multiprocess schedule exploration: shard the tree, merge deterministically.

Exhaustive checking is embarrassingly parallel *if* the schedule tree is
split carefully: ``build()`` is a pure factory, so any process can replay
a prefix from scratch and own the whole subtree below it.  The coordinator
here

1. expands a **frontier** serially -- BFS over the schedule tree until at
   least ``prefix_factor x max(16, cpu_count, jobs)`` open prefixes exist
   (terminal/truncated states met on the way are checked and counted
   immediately).  Under DPOR the expansion schedules *every* non-sleeping
   candidate at each pre-frontier state -- a trivially persistent set --
   and propagates sleep sets to the frontier nodes with the exact rule
   the serial engine uses, so the union of shard subtrees covers the same
   Mazurkiewicz traces the serial search would;
2. farms each frontier prefix out through the lease pool
   (:class:`LeasePool`, here over ``fork``-based workers in
   :func:`run_pool`; :class:`repro.runtime.netshard.ShardServer` is the
   same core over TCP), each worker replaying its prefix and exploring
   the subtree with the ordinary serial engine in *collect* mode
   (property failures are recorded, not raised, so every shard
   finishes);
3. **merges** shard statistics in frontier order via
   :meth:`ExplorationStats.merge` -- run counts and the winning violation
   (first by lexicographic prefix order) are therefore reproducible
   regardless of worker timing -- and only then shrinks the winning
   schedule with ddmin, in-process.

Determinism contract: the frontier target is independent of ``jobs``
(for any ``jobs <= max(16, cpu_count)``), so ``jobs=1`` and ``jobs=N``
explore the *identical* shards and report identical statistics and
counterexamples; ``jobs`` only controls how many OS processes execute
them.  Degradation is graceful: with ``jobs=1``, a single shard, or no
``fork`` start method, shards run in-process; a worker that dies or
wedges mid-shard has its shard re-granted, and when no usable worker
remains the coordinator runs it in-process, which is sound because
shards are deterministic.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection  # noqa: F401 - mp.connection.wait
import os
import pickle
from collections import deque
from time import monotonic, perf_counter
from time import sleep as _sleep
from typing import (Any, Callable, Dict, Generator, List, Optional,
                    Sequence, Tuple, Union)

from .dpor import (Counterexample, CounterexampleFound, _explore_core,
                   _Footprints, _System, replay_schedule, shrink_schedule)
from .explore import (ExplorationInterrupted, ExplorationStats,
                      ShardViolation, _explore_naive, _max_runs_interrupt,
                      _past_deadline, _timeout_interrupt)
from .lease import (DEFAULT_HEARTBEAT_INTERVAL, DEFAULT_LEASE_TIMEOUT,
                    LeaseTable)
from .run import RunResult

Builder = Callable[[], Tuple[Dict[int, Generator], Any]]

#: Frontier prefixes generated per potential worker (tunable; larger
#: values give better load balance at the cost of more serial expansion).
DEFAULT_PREFIX_FACTOR = 4

#: Floor on the worker-count term of the frontier target.  Keeping the
#: target at ``prefix_factor * max(_FRONTIER_BASE, cpu_count, jobs)``
#: makes the sharding -- and hence all merged statistics -- identical
#: for every ``jobs <= max(_FRONTIER_BASE, cpu_count)``.
_FRONTIER_BASE = 16

#: Seconds a transport loop waits for frames between lease sweeps and
#: liveness checks (both the fork pool and the TCP shard server).
_POLL_INTERVAL = 0.05

#: Seconds granted at each stage of worker teardown (cooperative exit,
#: then SIGTERM, then SIGKILL) before escalating.  Module-level so tests
#: can shrink it.
_JOIN_TIMEOUT = 2.0

#: In-process attempts granted to a task that failed elsewhere (a
#: worker-reported error, or its re-grant budget used up) before the
#: failure is surfaced.
_RETRY_MAX_ATTEMPTS = 3

#: Base/cap of the exponential backoff slept between retry attempts
#: (0.05s, 0.1s, ... capped).  Module-level so tests can shrink them.
_RETRY_BACKOFF_BASE = 0.05
_RETRY_BACKOFF_CAP = 1.0

#: Lease timeout / heartbeat interval for the coordinator/worker split
#: (see :mod:`repro.runtime.lease`).  A worker renews its shard's lease
#: on every heartbeat; a lease that lapses (SIGKILLed, SIGSTOPped, or
#: otherwise silent worker) has its shard re-granted.  Module-level so
#: tests can shrink both.
_LEASE_TIMEOUT = DEFAULT_LEASE_TIMEOUT
_HEARTBEAT_INTERVAL = DEFAULT_HEARTBEAT_INTERVAL

#: Times a shard may be re-granted to another worker (after a lapsed
#: lease or a dead holder) before the coordinator falls back to the
#: in-process retry ladder.  Bounds the damage of a *deterministically*
#: worker-killing shard: each re-grant costs one worker, the in-process
#: fallback costs none.
_REGRANT_MAX = 2


def fork_available() -> bool:
    """Can this platform start workers by ``fork``?

    Sharded exploration ships closures to workers by fork-time memory
    inheritance, so ``spawn``-only platforms degrade to serial.
    """
    return "fork" in mp.get_all_start_methods()


def resolve_jobs(jobs: Union[int, str, None]) -> int:
    """Normalize a ``--jobs`` value: ``"auto"`` means ``cpu_count``.

    Raises ``ValueError`` on anything that is not a positive integer or
    the string ``"auto"`` (CLI callers turn that into exit code 2).
    """
    if jobs is None:
        return 1
    if isinstance(jobs, str):
        if jobs == "auto":
            return os.cpu_count() or 1
        try:
            jobs = int(jobs)
        except ValueError:
            raise ValueError(
                f"jobs must be a positive integer or 'auto', got {jobs!r}")
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ValueError(
            f"jobs must be a positive integer or 'auto', got {jobs!r}")
    return jobs


# ---------------------------------------------------------------------------
# The lease pool: one protocol core, two transports.
# ---------------------------------------------------------------------------

def _run_task(runner: Callable[[Any], Any], payload: Any,
              fault: Optional[str], in_worker: bool,
              attempt: int = 0):
    """Execute one task, honouring injected test faults.

    Fault kinds (comma-separated): ``sigkill`` makes a *worker* die
    silently before running (ignored in-process, so re-execution
    succeeds); ``raise`` fails the task everywhere (so re-execution
    fails too); ``flaky`` fails in workers and on the *first* in-process
    retry but succeeds from the second retry on -- it distinguishes the
    capped-backoff retry ladder from a single re-execution.  ``attempt``
    is 0 for the original (worker or degraded in-process) execution and
    counts the coordinator's in-process retries from 1.  Returns
    ``((value, error_message_or_None), seconds)`` where ``seconds`` is
    the task's own wall-clock (metrics only -- never part of
    exploration statistics).
    """
    kinds = set(fault.split(",")) if fault else set()
    if "sigkill" in kinds and in_worker:
        import signal
        os.kill(os.getpid(), signal.SIGKILL)
    start = perf_counter()
    try:
        if "raise" in kinds:
            raise RuntimeError("injected shard fault")
        if "flaky" in kinds and (in_worker or attempt < 2):
            raise RuntimeError("injected flaky shard fault")
        return (runner(payload), None), perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - reported to the coordinator
        return (None, f"{type(exc).__name__}: {exc}"), \
            perf_counter() - start


class LeasePool:
    """The lease protocol's transport-free core, shared by every venue.

    It owns one run's shards: the pending queue, the
    :class:`~repro.runtime.lease.LeaseTable`, the re-grant budget,
    holder-checked settling and the in-process fallback.  A transport
    only carries messages: :meth:`request`, :meth:`heartbeat` and
    :meth:`complete` for what a worker says, :meth:`attach` and
    :meth:`detach` as workers come and go, and :meth:`tick` plus
    :meth:`maybe_run_inprocess` on every pass of its loop.
    :func:`run_pool` (forks over pipes) and
    :class:`repro.runtime.netshard.ShardServer` (TCP) are the two.

    **Liveness.**  A worker whose lease lapses is presumed lost until it
    next asks for work or reports a result (a stale heartbeat does not
    count: that worker is still busy with the lapsed shard).  So is a
    worker that holds no lease and has gone a lease period without a
    message -- one that said hello and never asked for work.  The
    coordinator runs a shard itself when one failed elsewhere, or when
    work is pending and every attached worker is presumed lost --
    provided a worker was attached once, or ``solo_after`` seconds
    have passed since :meth:`begin`.
    """

    def __init__(self, *, lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 regrant_max: int = _REGRANT_MAX,
                 solo_after: float = 0.0) -> None:
        self.lease_timeout = lease_timeout
        self.regrant_max = regrant_max
        self.solo_after = solo_after
        #: Observability only, never part of deterministic statistics.
        self.tallies: Dict[str, Any] = {
            "stale_rejections": 0, "regrants": 0, "remote_shards": 0,
            "inprocess_shards": 0,
        }

    def _now(self) -> float:
        return monotonic()

    def begin(self, payloads: Sequence[Any],
              runner: Callable[[Any], Any],
              on_grant: Optional[Callable[[int, int], None]] = None,
              on_settle: Optional[Callable[[int, Any], None]] = None,
              task_log: Optional[List[Dict[str, Any]]] = None,
              deadline: Optional[float] = None,
              fault_plan: Optional[Dict[int, str]] = None) -> None:
        """Arm the pool with one run's shards and callbacks."""
        self._payloads = list(payloads)
        self._runner = runner
        self._on_grant = on_grant
        self._on_settle = on_settle
        self._task_log = task_log
        self._deadline = deadline
        self._fault_plan = fault_plan or {}
        n = len(self._payloads)
        self._outcomes: List[Optional[Tuple[Any, Optional[str]]]] = \
            [None] * n
        self._completed: set = set()
        self._pending: deque = deque(range(n))
        #: ``(shard, last_error)`` for shards that failed elsewhere:
        #: only the coordinator's retry ladder may still run them.
        self._inproc_only: deque = deque()
        self._leases = LeaseTable(timeout=self.lease_timeout)
        self._regrants: Dict[int, int] = {}
        self._attached: set = set()
        self._lost: set = set()
        #: When each worker last said anything (attach included).
        self._heard: Dict[int, float] = {}
        self._seen = False
        self._started = self._now()

    @property
    def done(self) -> bool:
        """Every shard settled?"""
        return len(self._completed) >= len(self._payloads)

    @property
    def outcomes(self) -> List[Optional[Tuple[Any, Optional[str]]]]:
        """Per-payload outcomes settled so far (None = still open)."""
        return list(self._outcomes)

    def attach(self, worker: int) -> None:
        """A worker's channel opened."""
        self._attached.add(worker)
        self._heard[worker] = self._now()
        self._seen = True

    def detach(self, worker: int, lapse: bool = False) -> None:
        """A worker's channel closed; ``lapse`` expires its lease now
        (a dead fork), otherwise it lives on for a reconnect."""
        self._attached.discard(worker)
        held = self._leases.held_by(worker)
        if lapse and held is not None:
            self._lapse(held)

    def request(self, worker: int,
                now: Optional[float] = None) -> Optional[int]:
        """Grant ``worker`` a shard; None when nothing is grantable.

        Idempotent while the worker's lease lives: a worker whose grant
        reply was lost asks again and gets the *same* shard back (lease
        renewed) instead of leaking a second lease.
        """
        now = self._now() if now is None else now
        self._heard[worker] = now
        self._lost.discard(worker)
        idx = self._leases.held_by(worker)
        if idx is not None:
            self._leases.renew(idx, worker, now=now)
            return idx
        while self._pending:
            idx = self._pending.popleft()
            if idx not in self._completed:
                self._leases.grant(idx, worker, now=now)
                if self._on_grant is not None:
                    self._on_grant(idx, worker)
                return idx
        return None

    def heartbeat(self, worker: int, shard: int,
                  now: Optional[float] = None) -> bool:
        """Renew ``shard``'s lease; False when ``worker`` lost it."""
        now = self._now() if now is None else now
        self._heard[worker] = now
        return self._leases.renew(shard, worker, now=now)

    def complete(self, worker: int, shard: int,
                 outcome: Tuple[Any, Optional[str]]) -> bool:
        """Apply ``worker``'s ``(value, error)``; True when it settled.

        An error from the holder sends the shard to the retry ladder (a
        real scenario error reproduces there and surfaces; a
        worker-environment fluke does not).
        """
        self._heard[worker] = self._now()
        self._lost.discard(worker)
        if outcome[1] is not None:
            if self._leases.holder(shard) == worker:
                self._leases.release(shard)
                if shard not in self._completed:
                    self._inproc_only.append((shard, outcome[1]))
            return False
        if not self._accept_completion(shard, worker):
            self.tallies["stale_rejections"] += 1
            return False
        self.tallies["remote_shards"] += 1
        self._settle(shard, outcome)
        return True

    def _accept_completion(self, shard: int, worker_id: int) -> bool:
        # Only the shard's *current* lease holder may complete it: a
        # result from an expired or superseded holder -- including one
        # a network replays from a previous incarnation of the run --
        # is rejected, exactly as LeaseTable rejects a stale heartbeat.
        # The netshard-accept-stale-result mutant drops this check; the
        # network differential tier catches it.
        if shard in self._completed:
            return False
        return self._leases.holder(shard) == worker_id

    def _settle(self, idx: int, outcome: Tuple[Any, Optional[str]]
                ) -> None:
        self._outcomes[idx] = outcome
        self._completed.add(idx)
        self._leases.release(idx)
        if self._on_settle is not None:
            self._on_settle(idx, outcome)

    def tick(self, now: Optional[float] = None) -> None:
        """Sweep lapsed leases: presume the holders lost, and re-queue
        each shard until it has lapsed more than ``regrant_max`` times,
        then hand it to the retry ladder.  Presume lost, too, every
        worker without a lease that has been silent a lease period."""
        now = self._now() if now is None else now
        for lease in self._leases.expired(now):
            self._lost.add(lease.worker)
            self._lapse(lease.shard)
        for worker in self._attached - self._lost:
            if (now - self._heard[worker] > self.lease_timeout
                    and self._leases.held_by(worker) is None):
                self._lost.add(worker)

    def _lapse(self, shard: int) -> None:
        self._leases.release(shard)
        if shard in self._completed:
            return
        self._regrants[shard] = self._regrants.get(shard, 0) + 1
        self.tallies["regrants"] += 1
        if self._regrants[shard] > self.regrant_max:
            self._inproc_only.append((shard, None))
        else:
            self._pending.appendleft(shard)

    def maybe_run_inprocess(self, now: Optional[float] = None) -> bool:
        """Apply the liveness rule; True when a shard ran here."""
        if not self._inproc_only:
            if not self._pending or self._attached - self._lost:
                return False
            if not self._seen and (self._now() if now is None else now) \
                    - self._started < self.solo_after:
                return False
        return self.run_one_inprocess()

    def run_one_inprocess(self) -> bool:
        """Execute one eligible shard in the coordinator process.

        A shard that failed elsewhere goes first, through the retry
        ladder: ``_RETRY_MAX_ATTEMPTS`` attempts with capped exponential
        backoff, each backoff clamped to the deadline (a ladder that
        reaches it raises the timeout interrupt rather than sleep past
        it).  A pending shard runs once.  False when none was eligible.
        """
        while self._inproc_only or self._pending:
            if self._inproc_only:
                idx, last_error = self._inproc_only.popleft()
                attempts = range(1, _RETRY_MAX_ATTEMPTS + 1)
            else:
                idx, last_error = self._pending.popleft(), None
                attempts = range(1)
            if idx in self._completed:
                continue
            if self._on_grant is not None:
                self._on_grant(idx, -1)
            for attempt in attempts:
                if attempt > 1:
                    backoff = min(_RETRY_BACKOFF_BASE * 2 ** (attempt - 2),
                                  _RETRY_BACKOFF_CAP)
                    if self._deadline is not None:
                        remaining = self._deadline - monotonic()
                        if remaining <= 0:
                            raise ExplorationInterrupted(
                                "timeout", f"wall-clock budget exhausted "
                                f"while retrying task {idx} (last error: "
                                f"{last_error})")
                        backoff = min(backoff, remaining)
                    _sleep(backoff)
                outcome, seconds = _run_task(
                    self._runner, self._payloads[idx],
                    self._fault_plan.get(idx), in_worker=False,
                    attempt=attempt)
                if self._task_log is not None:
                    self._task_log.append(
                        {"index": idx, "worker": -1, "seconds": seconds})
                if outcome[1] is None:
                    break
                last_error = outcome[1]
            self.tallies["inprocess_shards"] += 1
            self._settle(idx, outcome)
            return True
        return False


def _worker_loop(task_conn, result_conn,
                 runner: Callable[[Any], Any],
                 fault_plan: Optional[Dict[int, str]],
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL
                 ) -> None:
    """Worker main: drain the private task pipe until the sentinel.

    The worker pickles each outcome itself and ships opaque bytes; a
    value that fails to pickle therefore surfaces as a task error
    instead of wedging the coordinator.  Every channel is private to
    this worker, so even SIGKILL cannot corrupt a sibling's stream (a
    shared ``mp.Queue`` would hang survivors if a worker died holding
    its write lock).

    While a task runs, a per-task heartbeat thread sends
    ``("heartbeat", idx)`` frames every ``heartbeat_interval`` seconds;
    the coordinator renews the task's lease on each one, so only a
    worker that stops making *any* progress (died, SIGSTOPped, wedged
    in a non-Python call) lets its lease lapse.  Heartbeat and result
    frames share the pipe under a lock, so a result can never interleave
    with a beat mid-frame.

    Test-only ``fault_plan`` entries: ``-1: "sigstop"`` makes the
    worker SIGSTOP itself *on receiving the shutdown sentinel* (the
    teardown-escalation fixture); a per-task ``"sigstop"`` makes it
    stop *before* the first heartbeat of that task -- a worker wedged
    mid-shard, observable only through lease expiry.
    """
    import threading
    send_lock = threading.Lock()

    def send_frame(blob: bytes) -> None:
        with send_lock:
            result_conn.send_bytes(blob)

    while True:
        item = task_conn.recv()
        if item is None:
            if "sigstop" in set(((fault_plan or {}).get(-1) or "")
                                .split(",")):
                import signal
                os.kill(os.getpid(), signal.SIGSTOP)
            return
        idx, payload = item
        fault = (fault_plan or {}).get(idx)
        if "sigstop" in set((fault or "").split(",")):
            import signal
            os.kill(os.getpid(), signal.SIGSTOP)
        stop = threading.Event()

        def beat(task_idx: int = idx) -> None:
            while not stop.wait(heartbeat_interval):
                try:
                    send_frame(pickle.dumps(("heartbeat", task_idx)))
                except (OSError, ValueError):
                    return  # coordinator gone; the worker is doomed too
        pulse = threading.Thread(target=beat, daemon=True)
        pulse.start()
        try:
            outcome, seconds = _run_task(runner, payload, fault,
                                         in_worker=True)
        finally:
            stop.set()
            pulse.join()
        try:
            blob = pickle.dumps((idx, outcome, seconds))
        except Exception as exc:  # noqa: BLE001 - unpicklable result
            blob = pickle.dumps(
                (idx, (None, f"unpicklable task result: "
                             f"{type(exc).__name__}: {exc}"), seconds))
        send_frame(blob)


class _Worker:
    """One pool worker: a forked process plus its two private pipes."""

    __slots__ = ("wid", "proc", "task_conn", "result_conn", "busy")

    def __init__(self, wid: int, ctx, runner, fault_plan,
                 heartbeat_interval: float) -> None:
        self.wid = wid
        task_recv, self.task_conn = ctx.Pipe(duplex=False)
        self.result_conn, result_send = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(
            target=_worker_loop,
            args=(task_recv, result_send, runner, fault_plan,
                  heartbeat_interval),
            daemon=True)
        self.proc.start()
        # Close the child's ends in the coordinator so EOF is observable
        # the moment the worker dies.
        task_recv.close()
        result_send.close()
        #: A task was sent and its result has not come back.
        self.busy = False


def run_pool(payloads: Sequence[Any],
             runner: Callable[[Any], Any],
             jobs: int,
             fault_plan: Optional[Dict[int, str]] = None,
             task_log: Optional[List[Dict[str, Any]]] = None,
             deadline: Optional[float] = None,
             on_grant: Optional[Callable[[int, int], None]] = None,
             on_settle: Optional[Callable[[int, Any], None]] = None
             ) -> List[Tuple[Any, Optional[str]]]:
    """Run ``runner(payload)`` for every payload on up to ``jobs`` forks.

    Returns one ``(value, error_message_or_None)`` outcome per payload,
    in payload order.  Degrades to in-process execution when ``jobs <=
    1``, there is at most one payload, or the platform lacks ``fork``.
    ``fault_plan`` maps payload index to an injected fault kind (tests
    only; see :func:`_run_task` and :func:`_worker_loop`).

    This is the fork transport of :class:`LeasePool`, which makes every
    scheduling decision (leases of ``_LEASE_TIMEOUT`` seconds, re-grants,
    the retry ladder, the liveness rule).  The loop asks the core for
    work on behalf of each free worker and feeds it heartbeat and result
    frames; EOF on a worker's result pipe expires its lease at once.

    ``on_grant(idx, wid)`` / ``on_settle(idx, outcome)`` are optional
    observer hooks, fired for every grant (worker ``-1`` = the
    coordinator itself) and exactly once per settled outcome -- the
    frontier store journals through them.  ``task_log``, when given,
    receives one ``{"index", "worker", "seconds"}`` entry per executed
    task (metrics only).

    Teardown never leaks children: each worker gets ``_JOIN_TIMEOUT``
    seconds to exit after the sentinel, is SIGTERMed and re-joined on
    timeout, and SIGKILLed (then reaped with a final ``join``) if it is
    *still* alive -- a wedged worker can therefore neither linger as a
    zombie nor survive the pool as a stopped orphan.
    """
    pool = LeasePool(lease_timeout=_LEASE_TIMEOUT)
    pool.begin(payloads, runner, on_grant=on_grant, on_settle=on_settle,
               task_log=task_log, deadline=deadline, fault_plan=fault_plan)
    n = len(payloads)
    if jobs <= 1 or n <= 1 or not fork_available():
        while pool.run_one_inprocess():
            pass
        return pool.outcomes

    ctx = mp.get_context("fork")
    workers = [_Worker(wid, ctx, runner, fault_plan, _HEARTBEAT_INTERVAL)
               for wid in range(min(jobs, n))]
    live = {worker.result_conn: worker for worker in workers}
    for worker in workers:
        pool.attach(worker.wid)
    try:
        ran_inprocess = False
        while not pool.done:
            for worker in live.values():
                if not worker.busy:
                    idx = pool.request(worker.wid)
                    if idx is not None:
                        worker.busy = True
                        try:
                            worker.task_conn.send((idx, payloads[idx]))
                        except OSError:
                            pass  # it died; EOF below expires the lease
            ready = mp.connection.wait(
                list(live), timeout=0.0 if ran_inprocess else _POLL_INTERVAL)
            for conn in ready:
                worker = live[conn]
                try:
                    frame = pickle.loads(conn.recv_bytes())
                except (EOFError, OSError):
                    del live[conn]
                    pool.detach(worker.wid, lapse=True)
                    continue
                if frame[0] == "heartbeat":
                    pool.heartbeat(worker.wid, frame[1])
                    continue
                idx, outcome, seconds = frame
                if task_log is not None:
                    task_log.append({"index": idx, "worker": worker.wid,
                                     "seconds": seconds})
                pool.complete(worker.wid, idx, outcome)
                worker.busy = False
            pool.tick()
            ran_inprocess = pool.maybe_run_inprocess()
    finally:
        for worker in workers:
            try:
                worker.task_conn.send(None)
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass
        for worker in workers:
            worker.proc.join(timeout=_JOIN_TIMEOUT)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=_JOIN_TIMEOUT)
            if worker.proc.is_alive():
                # SIGTERM can sit pending forever on a stopped process;
                # SIGKILL cannot be blocked or deferred.  The final
                # join has no timeout: it only reaps an already-dead
                # child, and skipping it is exactly the zombie leak.
                worker.proc.kill()
                worker.proc.join()
            for conn in (worker.task_conn, worker.result_conn):
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
    return pool.outcomes


# ---------------------------------------------------------------------------
# Frontier expansion.
# ---------------------------------------------------------------------------

def _expand_frontier(build: Builder,
                     check: Callable[[RunResult], None],
                     crash_plan_factory,
                     max_steps: int,
                     max_runs: int,
                     target: int,
                     use_sleep: bool,
                     counters: Optional[Dict[str, Any]] = None,
                     deadline: Optional[float] = None):
    """Serial BFS until at least ``target`` open prefixes exist.

    Returns ``(stats, shards)`` where each shard is ``(prefix,
    sleep_set)`` in lexicographic prefix order.  Terminal and truncated
    states met during expansion are counted (and checked -- violations
    are *collected* into ``stats.violation``, first-by-prefix wins) so
    frontier + shard statistics add up exactly to a full exploration.
    Each expanded prefix is replayed on a fresh ``_System``, the
    substrate the shard engines use.  Without ``use_sleep`` (naive mode)
    every candidate is scheduled, with an empty sleep set.  With it
    (DPOR mode) every non-sleeping candidate is scheduled at each
    expanded state -- a trivially persistent set -- and children
    inherit sleep sets by the serial engine's exact rule.
    ``counters`` is the optional plain-dict metrics channel (frontier
    watermark and sleep-set accounting; never exploration statistics).
    """
    from collections import deque

    stats = ExplorationStats()
    footprints = _Footprints()
    open_nodes: deque = deque([((), frozenset())])
    while open_nodes and len(open_nodes) < target:
        if counters is not None and len(open_nodes) > counters.get(
                "peak_frontier", 0):
            counters["peak_frontier"] = len(open_nodes)
        prefix, sleep = open_nodes.popleft()
        if stats.total_runs >= max_runs:
            raise _max_runs_interrupt(max_runs, stats)
        if _past_deadline(deadline):
            raise _timeout_interrupt(stats)
        stats.max_depth_seen = max(stats.max_depth_seen, len(prefix))
        sysm = _System(build, crash_plan_factory, footprints)
        for pid in prefix:
            sysm.execute(pid)
        cands = sysm.candidates()
        if not cands:
            stats.complete_runs += 1
            try:
                check(sysm.result())
            except Exception as exc:  # noqa: BLE001 - collected
                stats = stats.merge(ExplorationStats(
                    violation=ShardViolation(
                        order_key=tuple(prefix), schedule=tuple(prefix),
                        message=f"{type(exc).__name__}: {exc}",
                        error_type=type(exc).__name__)))
            continue
        if len(prefix) >= max_steps:
            stats.truncated_runs += 1
            continue
        if not use_sleep:
            for pick in cands:
                open_nodes.append((prefix + (pick,), frozenset()))
            continue
        explorable = [p for p in cands if p not in sleep]
        if counters is not None:
            counters["sleep_checks"] = (counters.get("sleep_checks", 0)
                                        + len(cands))
            counters["sleep_hits"] = (counters.get("sleep_hits", 0)
                                      + len(cands) - len(explorable))
        if not explorable:
            stats.pruned_runs += 1
            continue
        pending_fps = sysm.alive_footprints()
        done: set = set()
        for pick in explorable:
            # Child sleep set: exactly the serial engine's rule,
            # evaluated against the footprint ``pick`` executes.
            child_sys = _System(build, crash_plan_factory, footprints)
            for pid in prefix:
                child_sys.execute(pid)
            child_sys.candidates()
            fp = child_sys.execute(pick)
            child_sleep = frozenset(
                q for q in (set(sleep) | done) - {pick}
                if q in pending_fps
                and not footprints.conflicts(pending_fps[q], fp))
            open_nodes.append((prefix + (pick,), child_sleep))
            done.add(pick)
    if counters is not None and len(open_nodes) > counters.get(
            "peak_frontier", 0):
        counters["peak_frontier"] = len(open_nodes)
    return stats, sorted(open_nodes, key=lambda shard: shard[0])


# ---------------------------------------------------------------------------
# Shard execution (shared by pool workers and remote netshard workers).
# ---------------------------------------------------------------------------

def execute_shard(build: Builder,
                  check: Callable[[RunResult], None],
                  crash_plan_factory=None,
                  *,
                  prefix: Tuple[int, ...],
                  sleep: frozenset,
                  max_steps: int = 24,
                  max_runs: int = 200_000,
                  reduction: str = "dpor",
                  state_cache: bool = False,
                  deadline: Optional[float] = None):
    """Explore one frontier shard; the unit of work every venue runs.

    This is the exact computation a fork-pool worker, the in-process
    fallback, and a remote :class:`repro.runtime.netshard.ShardWorker`
    perform for a ``(prefix, sleep_set)`` shard -- one function, so
    "where a shard ran" can never change what it computed.  Returns
    ``(stats, counters)`` for a completed shard, or ``(partial_stats,
    counters, reason)`` when the budget interrupted it (the partial
    coverage rides back instead of being lost).  Violations are
    *collected* into the statistics, never raised.
    """
    shard_counters: Dict[str, Any] = {}
    try:
        if reduction == "dpor":
            shard_stats = _explore_core(
                build, check, crash_plan_factory=crash_plan_factory,
                max_steps=max_steps, max_runs=max_runs, prefix=prefix,
                root_sleep=sleep, collect=True,
                counters=shard_counters, deadline=deadline,
                state_cache=state_cache)
        else:
            shard_stats = _explore_naive(build, check,
                                         crash_plan_factory, max_steps,
                                         max_runs, root=prefix,
                                         collect=True,
                                         counters=shard_counters,
                                         deadline=deadline)
    except ExplorationInterrupted as exc:
        return (exc.stats or ExplorationStats(), shard_counters,
                exc.reason)
    return shard_stats, shard_counters


# ---------------------------------------------------------------------------
# The coordinator.
# ---------------------------------------------------------------------------

def explore_parallel(build: Optional[Builder] = None,
                     check: Optional[Callable[[RunResult], None]] = None,
                     *,
                     crash_plan_factory=None,
                     max_steps: int = 24,
                     max_runs: int = 200_000,
                     jobs: Union[int, str] = 1,
                     reduction: str = "dpor",
                     prefix_factor: int = DEFAULT_PREFIX_FACTOR,
                     shrink: bool = True,
                     scenario=None,
                     fault_plan: Optional[Dict[int, str]] = None,
                     metrics: Optional[Any] = None,
                     deadline: Optional[float] = None,
                     state_cache: bool = False,
                     frontier: Optional[Any] = None,
                     pool: Optional[Callable[..., List[Any]]] = None
                     ) -> ExplorationStats:
    """Sharded exhaustive exploration across a worker pool.

    Same contract as :func:`repro.runtime.explore.explore`: ``check``
    failures raise (``CounterexampleFound`` with a ddmin-shrunk,
    replayable counterexample under DPOR; plain ``AssertionError`` under
    naive), exceeding ``max_runs`` total runs raises ``RuntimeError``.
    All statistics and the winning counterexample depend only on the
    sharding (``prefix_factor``), never on ``jobs`` or worker timing.

    ``scenario`` may be a :class:`repro.scenarios.ScenarioRef`; workers
    then rebuild ``build``/``check`` by name instead of relying on
    fork-inherited closures (and the coordinator fills in any missing
    ``build``/``check``/``crash_plan_factory`` from it).  ``fault_plan``
    injects worker faults by shard index (tests only).

    ``metrics`` is an optional
    :class:`repro.analysis.metrics.ExplorationMetrics` collector: the
    coordinator records per-phase wall-clock (frontier expansion, shard
    execution, merge, shrink), per-worker shard counts and busy time,
    and the engines' sleep-set/frontier counters.  All of it lives
    outside ``ExplorationStats``, whose jobs-independent bit-for-bit
    contract is unaffected by metrics collection.

    ``deadline`` (absolute ``time.monotonic()`` instant; valid across
    ``fork`` on Linux since CLOCK_MONOTONIC is system-wide) bounds the
    wall clock: the frontier expansion and every shard check it, and an
    exceeded budget -- like an exceeded ``max_runs`` -- surfaces as
    :class:`~repro.runtime.explore.ExplorationInterrupted` carrying the
    statistics merged from the frontier and every shard that reported
    back, so the caller can emit a partial record instead of losing the
    coverage already paid for.

    ``state_cache`` (DPOR only, default off) enables each shard's
    prefix-equivalence state cache.  Caches are strictly *per shard* --
    a worker never sees hits against a sibling shard's subtrees -- so
    shard statistics, and therefore the merged result, stay identical
    for ``jobs=1`` and ``jobs=N`` with the cache on exactly as with it
    off.

    ``frontier`` is an optional
    :class:`repro.runtime.frontier.FrontierStore`.  When given, the
    exploration is **durable**: a fresh store records the expansion
    result and shard list in its header, every completed shard is
    journaled (fsynced) as it settles, and an existing store is loaded
    instead of re-expanding -- only the shards its journal has not
    settled are re-executed, and the journaled completions are merged
    back in.  Because :meth:`ExplorationStats.merge` is commutative and
    shards are deterministic, a resumed run's final statistics are
    bit-for-bit identical to an uninterrupted run's.  The store's
    fingerprint is validated against this call's configuration
    (:class:`repro.runtime.frontier.FrontierMismatch` on divergence).

    ``pool`` substitutes the execution venue: any callable with
    :func:`run_pool`'s signature (``(payloads, runner, jobs, *,
    fault_plan, task_log, deadline, on_grant, on_settle) ->
    outcomes``).  The network shard service passes a
    :class:`repro.runtime.netshard.ShardServer` here, so frontier
    expansion, durable journaling, deterministic merging and ddmin
    shrinking are the same code whichever transport executed the
    shards.  The venue is deliberately absent from the checkpoint
    fingerprint, exactly like ``jobs``: a socket-served checkpoint
    resumes under a plain ``check --resume`` and vice versa.
    """
    if scenario is not None and (build is None or check is None):
        resolved = scenario.resolve()
        build = build or resolved.build
        check = check or resolved.check
        if crash_plan_factory is None:
            crash_plan_factory = resolved.crash_plan_factory
    if build is None or check is None:
        raise ValueError("explore_parallel needs build+check or a scenario")
    if reduction not in ("naive", "dpor"):
        raise ValueError(f"unknown reduction {reduction!r} "
                         f"(expected 'naive' or 'dpor')")
    jobs = resolve_jobs(jobs)
    use_sleep = reduction == "dpor"
    target = prefix_factor * max(_FRONTIER_BASE, os.cpu_count() or 1, jobs)
    # The frontier store needs the expansion counters even when no
    # metrics collector is attached at checkpoint time -- a later
    # resume may attach one.
    counters: Optional[Dict[str, Any]] = (
        {} if (metrics is not None or frontier is not None) else None)
    # Everything that fixes which state space is explored and how it is
    # sharded; a resume under any other value would merge statistics
    # from a different exploration (jobs and state_cache are
    # deliberately absent -- the sharding contract and the cache's
    # exactness make both irrelevant to the result).
    fingerprint = {
        "scenario": ([scenario.name, scenario.n, scenario.x]
                     if scenario is not None else None),
        "max_steps": max_steps,
        "max_runs": max_runs,
        "reduction": reduction,
        "prefix_factor": prefix_factor,
    }
    phase_start = perf_counter()
    prior_completed: Dict[int, Tuple[ExplorationStats, Dict[str, Any]]] = {}
    if frontier is not None and frontier.exists():
        frontier.load()
        frontier.validate(fingerprint)
        stats = frontier.expansion_stats
        shards = frontier.shards
        if counters is not None:
            counters.update(frontier.expansion_counters)
        prior_completed = dict(frontier.completed)
    else:
        stats, shards = _expand_frontier(build, check, crash_plan_factory,
                                         max_steps, max_runs, target,
                                         use_sleep, counters=counters,
                                         deadline=deadline)
        if frontier is not None:
            frontier.begin(fingerprint, stats, counters or {}, shards)
    if metrics is not None:
        metrics.record_phase("frontier_expansion",
                             perf_counter() - phase_start)
        metrics.shard_count = len(shards)

    # Worker-side shard runner.  Workers resolve the scenario once per
    # process (closures do not survive pickling; a ScenarioRef does) and
    # fall back to the fork-inherited closures otherwise.
    ctx_holder: Dict[str, Any] = {}

    def shard_context():
        if "build" not in ctx_holder:
            if scenario is not None:
                resolved = scenario.resolve()
                ctx_holder["build"] = resolved.build
                ctx_holder["check"] = resolved.check
                ctx_holder["cpf"] = resolved.crash_plan_factory
            else:
                ctx_holder["build"] = build
                ctx_holder["check"] = check
                ctx_holder["cpf"] = crash_plan_factory
        return ctx_holder["build"], ctx_holder["check"], ctx_holder["cpf"]

    def run_shard(payload):
        # Shards always report their counters -- a plain picklable dict
        # riding back beside the statistics -- because the worker cannot
        # know whether the coordinator is collecting metrics.  A budget
        # interruption inside the shard is marshalled as a third tuple
        # element (reason) rather than an error string, so the partial
        # statistics survive the worker pipe and the coordinator can
        # merge them before re-raising.
        prefix, sleep = payload
        b, c, cpf = shard_context()
        return execute_shard(b, c, cpf, prefix=prefix, sleep=sleep,
                             max_steps=max_steps, max_runs=max_runs,
                             reduction=reduction,
                             state_cache=state_cache, deadline=deadline)

    def fold_counters(shard_counters: Dict[str, Any]) -> None:
        if counters is None:
            return
        for key, delta in shard_counters.items():
            if key == "peak_frontier":
                counters[key] = max(counters.get(key, 0), delta)
            else:
                counters[key] = counters.get(key, 0) + delta

    # Journaled completions from the store's previous life merge first
    # (shard order); merge() is commutative, so the order relative to
    # this run's fresh outcomes cannot matter -- but merging them *now*
    # means an interrupt below still reports their coverage.
    for shard_idx in sorted(prior_completed):
        prior_stats, prior_counters = prior_completed[shard_idx]
        stats = stats.merge(prior_stats)
        fold_counters(prior_counters)
    pending = (frontier.pending_indices(len(shards))
               if frontier is not None else list(range(len(shards))))
    pool_payloads = [shards[i] for i in pending]

    on_grant = on_settle = None
    if frontier is not None:
        def on_grant(pool_idx: int, wid: int) -> None:
            frontier.record_grant(pending[pool_idx], wid)

        def on_settle(pool_idx: int, outcome) -> None:
            value, error = outcome
            # Only fully-explored shards are durable facts; errored or
            # budget-interrupted shards stay pending for the next life.
            if error is None and value is not None and len(value) == 2:
                frontier.record_completion(pending[pool_idx],
                                           value[0], value[1])

    task_log: Optional[List[Dict[str, Any]]] = \
        [] if metrics is not None else None
    phase_start = perf_counter()
    pool_fn = pool if pool is not None else run_pool
    try:
        outcomes = pool_fn(pool_payloads, run_shard, jobs,
                           fault_plan=fault_plan, task_log=task_log,
                           deadline=deadline, on_grant=on_grant,
                           on_settle=on_settle)
    except ExplorationInterrupted:
        # The pool's retry ladder ran out of wall clock; re-raise with
        # the coverage merged so far (expansion plus any journaled
        # completions).
        if frontier is not None:
            frontier.close()
        raise _timeout_interrupt(stats)
    if metrics is not None:
        metrics.record_phase("shard_execution",
                             perf_counter() - phase_start)
        metrics.record_worker_tasks(task_log)
    if frontier is not None:
        frontier.close()
    phase_start = perf_counter()
    interrupt_reason: Optional[str] = None
    for pool_idx, outcome in enumerate(outcomes):
        value, error = outcome
        shard_idx = pending[pool_idx]
        if error is not None:
            raise RuntimeError(
                f"parallel exploration failed on shard {shard_idx} "
                f"(prefix {list(shards[shard_idx][0])}): {error}")
        if len(value) == 3:
            # An interrupted shard: merge its partial statistics, then
            # surface the first (by shard order) interruption reason.
            shard_stats, shard_counters, reason = value
            if interrupt_reason is None:
                interrupt_reason = reason
        else:
            shard_stats, shard_counters = value
        stats = stats.merge(shard_stats)
        fold_counters(shard_counters)
    if metrics is not None:
        metrics.record_phase("merge", perf_counter() - phase_start)
        metrics.record_stats(stats)
        metrics.absorb_counters(counters)

    viol = stats.violation
    if viol is not None:
        # The winning (first-by-prefix-order) violation.  Shrinking and
        # raising happen in the coordinator so the artifact carries live
        # closures regardless of which worker found it.
        if reduction == "naive":
            raise AssertionError(viol.message)
        if shrink:
            phase_start = perf_counter()
            counterexample = shrink_schedule(
                build, check, list(viol.schedule),
                crash_plan_factory=crash_plan_factory,
                max_steps=max(max_steps, len(viol.schedule)))
            if metrics is not None:
                metrics.record_phase("shrink",
                                     perf_counter() - phase_start)
                metrics.ddmin_replays += counterexample.ddmin_attempts
        else:
            schedule = list(viol.schedule)
            result = replay_schedule(
                build, schedule, crash_plan_factory=crash_plan_factory,
                max_steps=max(max_steps, len(schedule)))
            counterexample = Counterexample(
                prefix=schedule, tail=[], original_schedule=schedule,
                error=AssertionError(viol.message), result=result,
                build=build, check=check,
                crash_plan_factory=crash_plan_factory,
                max_steps=max(max_steps, len(schedule)))
        raise CounterexampleFound(counterexample, stats)
    # A found violation outranks a budget interruption (above); with no
    # violation, a shard-side interruption surfaces with the statistics
    # merged from every shard that reported back.
    if interrupt_reason == "max_runs" or stats.total_runs > max_runs:
        raise _max_runs_interrupt(max_runs, stats)
    if interrupt_reason == "timeout":
        raise _timeout_interrupt(stats)
    return stats
