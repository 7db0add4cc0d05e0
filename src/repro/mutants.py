"""Mutation soundness: planted protocol bugs the pipeline must catch.

A verification stack is only as trustworthy as its ability to *fail*:
if the explorer, the linearizability checker, and the footprint auditor
all pass on a subtly broken protocol, a green run proves nothing.  This
module plants a registry of known-bad protocol mutants -- each a
minimal, realistic transcription error in one of the repo's agreement
or register protocols -- and asserts that at least one detection stage
catches every one of them:

* ``lint``     -- the static footprint analyzer
  (:mod:`repro.lint.footprints`) flags an under-declared footprint
  from source alone, without executing a single schedule;
* ``explore``  -- exhaustive schedule exploration
  (:func:`repro.runtime.explore.explore` with DPOR) fails the
  scenario's safety property on some interleaving, or finds that
  replaying a recorded schedule does not reproduce it
  (``ReplayDivergence``);
* ``check``    -- the Wing & Gong linearizability checker
  (:func:`repro.analysis.linearizability.check_linearizable`) rejects a
  history produced under seeded adversarial delivery;
* ``audit``    -- the dynamic footprint auditor
  (:mod:`repro.lint.audit`) catches an unsound footprint declaration;
* ``sweep``    -- the generative corollary sweep
  (:mod:`repro.generative`) cross-checks synthesized configurations
  against the solvability oracle and flags the disagreement;
* ``cache``    -- the state-cache differential (cache-on vs cache-off
  DPOR, see ``docs/performance.md``) detects an unsound fingerprint by
  the divergence of its deterministic exploration outcome;
* ``resume``   -- the checkpoint/resume differential (interrupted vs
  uninterrupted exploration, see ``docs/resumable_exploration.md``)
  detects an unsound frontier-store resume by the divergence of the
  resumed statistics from the single-run reference;
* ``network``  -- the socket-transport differential (serial vs
  socket-served exploration, see ``docs/distributed_exploration.md``)
  detects an unsound shard server -- one that trusts the transport
  more than the lease protocol allows -- by the divergence of the
  served statistics from the serial reference.

Each :class:`Mutant` pins the stage *expected* to catch it; the
``mutation`` pytest tier (``tests/mutation/``) asserts the pinned stage
per mutant, and ``python -m repro mutants`` exits 0 only when every
mutant is detected.  An undetected mutant means a hole in the matrix --
treat it like a failing test, not a curiosity.

The mutants are hand-planted rather than generated: each one encodes a
documented pitfall of its protocol (eager stabilization, lost
publishes, missing ABD read write-back, off-by-one port arity, ...),
so a regression in detection points at a specific lost capability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Tuple

#: Detection stages, in the order the harness consults them.
STAGES = ("lint", "explore", "check", "audit", "sweep", "cache",
          "resume", "network")


@dataclass(frozen=True)
class Mutant:
    """One planted protocol bug and its detection pipeline.

    ``detect()`` runs the relevant stage(s) and returns the name of the
    first stage that caught the bug, or ``None`` if the mutant slipped
    through -- which the harness treats as a soundness failure.
    """

    name: str
    description: str
    expected_stage: str
    detect: Callable[[], Optional[str]]

    def __post_init__(self) -> None:
        if self.expected_stage not in STAGES:
            raise ValueError(f"unknown stage {self.expected_stage!r}")


# ---------------------------------------------------------------------------
# Stage runners
# ---------------------------------------------------------------------------

def _explore_detects(build, check, max_steps: int,
                     crash_plan_factory=None,
                     max_runs: int = 200_000,
                     caught: Optional[type] = None) -> Optional[str]:
    """Run DPOR exploration; raising ``caught`` (by default
    ``CounterexampleFound``) means ``explore`` caught the mutant.  A
    clean sweep returns None (not caught here)."""
    from .runtime import CounterexampleFound, explore
    try:
        explore(build, check, crash_plan_factory=crash_plan_factory,
                max_steps=max_steps, max_runs=max_runs, reduction="dpor")
    except caught or CounterexampleFound:
        return "explore"
    return None


def _agreement_check(n: int) -> Callable[[Any], None]:
    """The standard agreement + validity + termination property."""
    proposals = {f"v{i}" for i in range(n)}

    def check(result) -> None:
        assert not result.deadlocked, \
            f"deadlocked: {result.summary()}"
        assert result.decided_pids == set(range(n)), \
            f"not everyone decided: {result.summary()}"
        assert len(result.decided_values) == 1, \
            f"agreement violated: {sorted(result.decided_values)}"
        assert result.decided_values <= proposals, \
            f"validity violated: {sorted(result.decided_values)}"

    return check


# ---------------------------------------------------------------------------
# safe-agreement mutants (paper Figure 1)
# ---------------------------------------------------------------------------

def _sa_build(n: int, propose: Callable[..., Generator]):
    """A safe-agreement system whose propose body is the mutant's."""
    from .agreement import SafeAgreementFactory
    from .memory import ObjectStore

    def build():
        factory = SafeAgreementFactory(n)
        store = ObjectStore()
        store.add_all(factory.shared_objects())

        def participant(i):
            inst = factory.instance("k")
            yield from propose(inst, i, f"v{i}")
            decided = yield from inst.decide(i)
            return decided

        return {i: participant(i) for i in range(n)}, store

    return build


def _sa_dropped_resolve() -> Optional[str]:
    """Propose never resolves its UNSTABLE entry (line 03 dropped), so
    every decide spins forever on the no-unstable predicate: the
    explorer reaches the exact deadlock and the termination property
    fails."""
    from .agreement.safe_agreement import UNSTABLE

    def propose(inst, i, value):
        yield inst.sm.write(inst.key, i, (value, UNSTABLE))
        yield inst.sm.snapshot(inst.key)
        # MUTANT: the level-0/2 overwrite (cancel or stabilize) is gone.

    return _explore_detects(_sa_build(2, propose), _agreement_check(2),
                            max_steps=20)


def _sa_eager_stabilize() -> Optional[str]:
    """Propose stabilizes immediately, skipping the write-(v,1) /
    snapshot / cancel dance: two solo runs can stabilize different
    values and decide differently."""
    from .agreement.safe_agreement import STABLE

    def propose(inst, i, value):
        # MUTANT: straight to stable -- no unstable phase, no snapshot.
        yield inst.sm.write(inst.key, i, (value, STABLE))

    return _explore_detects(_sa_build(2, propose), _agreement_check(2),
                            max_steps=20)


# ---------------------------------------------------------------------------
# adopt-commit mutants (Gafni 1998)
# ---------------------------------------------------------------------------

def _ac_build(mutate_pid: Optional[int], propose: Callable[..., Generator],
              n: int = 2):
    """An adopt-commit system where ``mutate_pid`` runs the mutant
    propose (None = everyone does)."""
    from .agreement.adopt_commit import AdoptCommit, adopt_commit_specs
    from .memory import build_store

    values = ["a" if i == 0 else "b" for i in range(n)]

    def build():
        store = build_store(adopt_commit_specs(n))

        def proposer(pid):
            ac = AdoptCommit("k", n)
            if mutate_pid is None or pid == mutate_pid:
                out = yield from propose(ac, pid, values[pid])
            else:
                out = yield from ac.propose(pid, values[pid])
            return out

        return {i: proposer(i) for i in range(n)}, store

    return build, values


def _ac_check(n: int, values: List[Any]) -> Callable[[Any], None]:
    from .agreement.adopt_commit import COMMIT

    def check(result) -> None:
        outs = list(result.decisions.values())
        assert result.decided_pids == set(range(n)), \
            f"adopt-commit is wait-free, yet: {result.summary()}"
        committed = {v for tag, v in outs if tag == COMMIT}
        assert len(committed) <= 1, f"coherence violated: {outs}"
        if committed:
            winner = committed.pop()
            assert all(v == winner for _, v in outs), \
                f"coherence violated: {outs}"
        assert {v for _, v in outs} <= set(values), \
            f"validity violated: {outs}"

    return check


def _ac_dropped_publish() -> Optional[str]:
    """p0 skips its phase-1 publish: it can then see a unanimous-looking
    snapshot containing only the *other* proposal and commit its own
    value while the other process already committed a different one."""
    from .agreement.adopt_commit import ADOPT, COMMIT
    from .memory.base import BOTTOM

    def propose(ac, pid, value):
        # MUTANT: the phase-1 ``a.write`` is dropped entirely.
        seen = yield ac.a.snapshot(ac.key)
        values = {repr(e): e for e in seen if e is not BOTTOM}
        if len(values) == 1:
            verdict = (COMMIT, value)
        else:
            verdict = (ADOPT, value)
        yield ac.b.write(ac.key, pid, verdict)
        verdicts = [e for e in (yield ac.b.snapshot(ac.key))
                    if e is not BOTTOM]
        committed = [v for tag, v in verdicts if tag == COMMIT]
        if committed and all(tag == COMMIT for tag, _ in verdicts):
            return (COMMIT, committed[0])
        if committed:
            return (ADOPT, committed[0])
        return (ADOPT, value)

    build, values = _ac_build(0, propose)
    return _explore_detects(build, _ac_check(2, values), max_steps=12)


def _ac_adopt_own_value() -> Optional[str]:
    """The some-committed branch adopts the process's *own* value
    instead of the committed one -- the exact rule that makes
    adopt-commit the anchor of indulgent consensus."""
    from .agreement.adopt_commit import ADOPT, COMMIT
    from .memory.base import BOTTOM

    def propose(ac, pid, value):
        yield ac.a.write(ac.key, pid, value)
        seen = yield ac.a.snapshot(ac.key)
        values = {repr(e): e for e in seen if e is not BOTTOM}
        if len(values) == 1:
            verdict = (COMMIT, value)
        else:
            verdict = (ADOPT, value)
        yield ac.b.write(ac.key, pid, verdict)
        verdicts = [e for e in (yield ac.b.snapshot(ac.key))
                    if e is not BOTTOM]
        committed = [v for tag, v in verdicts if tag == COMMIT]
        if committed and all(tag == COMMIT for tag, _ in verdicts):
            return (COMMIT, committed[0])
        if committed:
            return (ADOPT, value)  # MUTANT: keeps own value on adopt.
        return (ADOPT, value)

    build, values = _ac_build(None, propose)
    return _explore_detects(build, _ac_check(2, values), max_steps=12)


# ---------------------------------------------------------------------------
# x-safe-agreement mutant (paper Figures 5-6)
# ---------------------------------------------------------------------------

def _xsa_port_arity() -> Optional[str]:
    """x_compete scans x+1 test&set slots instead of x, so more than x
    owners can win; the owner set then fits no SET_LIST subset and the
    owners' consensus chains need not converge before publishing."""
    from .agreement import XSafeAgreementFactory
    from .memory import ObjectStore

    n, x = 2, 1

    def propose(inst, sim_id, value):
        owner = False
        # MUTANT: one slot too many -- at most x+1 owners, not x.
        for ell in range(inst.x + 1):
            winner = yield inst.tas.test_and_set((inst.key, ell))
            if winner:
                owner = True
                break
        if not owner:
            return
        res = value
        for ell, subset in enumerate(inst.subsets):
            if sim_id in subset:
                res = yield inst.xcons.propose(inst.key, ell, res)
        yield inst.reg.write(inst.key, res)

    def build():
        factory = XSafeAgreementFactory(n, x)
        store = ObjectStore()
        store.add_all(factory.shared_objects())

        def participant(i):
            inst = factory.instance("k")
            yield from propose(inst, i, f"v{i}")
            decided = yield from inst.decide(i)
            return decided

        return {i: participant(i) for i in range(n)}, store

    return _explore_detects(build, _agreement_check(n), max_steps=24)


# ---------------------------------------------------------------------------
# queue-based 2-consensus mutant (Herlihy 1991)
# ---------------------------------------------------------------------------

def _queue_tiebreak_own() -> Optional[str]:
    """The LOSER decides its own value instead of the winner's
    announcement -- the queue's decision power is simply ignored."""
    from .memory import build_store, make_spec
    from .objects import LOSER, WINNER
    from .runtime import ObjectProxy

    def build():
        store = build_store([
            make_spec("queue", "q", initial=(WINNER, LOSER)),
            make_spec("register_array", "ann", size=2),
        ])
        q, ann = ObjectProxy("q"), ObjectProxy("ann")

        def prog(pid):
            yield ann.write(pid, f"v{pid}")
            token = yield q.dequeue()
            if token == WINNER:
                return f"v{pid}"
            yield ann.read(1 - pid)
            return f"v{pid}"  # MUTANT: loser keeps its own value.

        return {i: prog(i) for i in range(2)}, store

    return _explore_detects(build, _agreement_check(2), max_steps=12)


# ---------------------------------------------------------------------------
# ABD mutant (Attiya, Bar-Noy & Dolev 1995)
# ---------------------------------------------------------------------------

#: Seeds the ABD mutant detector sweeps per fault plan.  Deterministic:
#: the first (plan, seed) pair exhibiting a new-old inversion is what
#: the detecting stage reports.
ABD_MUTANT_SEEDS = tuple(range(48))


def _abd_fault_plans():
    """The message-fault matrix the ABD mutant is swept under.

    Besides fault-free delivery, the writer's STORE traffic to each
    replica is dropped or delayed (one legal t=1 message fault at a
    time): a reader quorum then splits around the lagging replica,
    which is exactly the window the missing write-back leaves open.
    The healthy :class:`~repro.messaging.abd.ABDProcess` stays
    linearizable under every one of these plans (pinned by the
    mutation tier), so a rejection isolates the mutant."""
    from .messaging import DelayFault, DropFault, MessageFaultPlan
    plans: List[Any] = [None]
    for dest in (1, 2):
        plans.append(MessageFaultPlan(
            [DropFault(sender=0, dest=dest, occurrence=1)]))
        plans.append(MessageFaultPlan(
            [DelayFault(sender=0, dest=dest, occurrence=1,
                        not_before=30)]))
    return plans


def _abd_no_read_repair() -> Optional[str]:
    """A read completes at quorum *without* the write-back phase.  The
    emulated register is then merely regular, not atomic: two
    sequential reads can see the new value then the old one (new-old
    inversion), which the linearizability checker rejects on some
    (fault plan, seed) pairs of adversarial delivery."""
    from .analysis.linearizability import (RegisterSpec,
                                           check_linearizable)
    from .messaging import run_messaging
    from .messaging.abd import (QUERY_REPLY, ABDProcess, ReadOp,
                                WriteOp)

    class NoWriteBackABD(ABDProcess):
        def on_message(self, sender, payload):
            if payload[0] == QUERY_REPLY:
                _, tag, ts, value = payload
                if tag != self.pending_tag or self.phase != "read-query":
                    return
                self.replies.append((ts, value))
                if len(self.replies) >= self.quorum:
                    self.read_choice = max(self.replies,
                                           key=lambda r: r[0])
                    # MUTANT: no write-back -- the read returns at
                    # quorum without re-storing the chosen pair.
                    self._complete_op()
                return
            super().on_message(sender, payload)

    n, t, writer = 3, 1, 0
    scripts = {0: [WriteOp("a"), WriteOp("b")],
               1: [ReadOp(), ReadOp()],
               2: [ReadOp(), ReadOp()]}

    for plan in _abd_fault_plans():
        for seed in ABD_MUTANT_SEEDS:
            ticks = [0]

            def clock() -> int:
                ticks[0] += 1
                return ticks[0]

            machines = [NoWriteBackABD(pid, n, t, writer,
                                       scripts.get(pid, []), clock)
                        for pid in range(n)]
            run_messaging(machines, seed=seed, faults=plan)
            history = [record for machine in machines
                       for record in machine.history]
            if not check_linearizable(history, RegisterSpec()):
                return "check"
    return None


# ---------------------------------------------------------------------------
# footprint mutant (the auditor's own soundness)
# ---------------------------------------------------------------------------

def _footprint_underdeclared() -> Optional[str]:
    """A register variant whose ``total`` operation sums every cell but
    *declares* a single-cell read footprint.  Exploration and the
    protocol checks pass (the program is correct); only the footprint
    auditor's read-perturbation catches the unsound declaration that
    would let DPOR prune real interleavings."""
    from .lint.audit import FootprintViolation, audit_scenario
    from .memory import ObjectStore
    from .memory.registers import RegisterArray
    from .runtime import ObjectProxy
    from .runtime.ops import Footprint
    from .scenarios import CheckScenario

    class LyingRegisterArray(RegisterArray):
        READONLY = RegisterArray.READONLY | frozenset({"total"})

        # The under-declaration below is the planted bug itself; the
        # static pass flags it too, but this mutant pins the *dynamic*
        # auditor's ability to catch it at runtime.
        def op_total(self, pid: int) -> int:  # lint: ignore[F501]
            return sum(1 for cell in self.cells if cell == 1)

        def footprint(self, pid, method, args):
            if method == "total":
                # MUTANT: reads every cell, declares only cell 0.
                return Footprint.read(self.name, 0)
            return super().footprint(pid, method, args)

    reg = ObjectProxy("reg")

    def build():
        store = ObjectStore()
        store.add(LyingRegisterArray("reg", 2, initial=0))

        def prog(pid):
            yield reg.write(pid, 1)
            count = yield reg.total()
            return count

        return {i: prog(i) for i in range(2)}, store

    scenario = CheckScenario(
        name="footprint-underdeclared",
        description="register variant with an underdeclared read set",
        build=build, check=lambda result: None, max_steps=16)
    try:
        audit_scenario(scenario, max_steps=64)
    except FootprintViolation:
        return "audit"
    return None


# ---------------------------------------------------------------------------
# static footprint mutant (the lint pass's own soundness)
# ---------------------------------------------------------------------------

#: The planted source the ``lint`` stage must flag.  ``op_swap`` writes
#: the addressed cell *and* status cell 0, but the declaration drops
#: the second write: DPOR would wrongly commute two swaps on distinct
#: cells.  Kept as source text so detection is purely static -- the
#: class is never instantiated and no schedule is ever executed.
FOOTPRINT_DROP_WRITE_SOURCE = '''\
"""Planted mutant: a swap whose declaration drops its status write."""

from repro.memory.registers import RegisterArray
from repro.runtime.ops import Footprint


class DroppedWriteRegisterArray(RegisterArray):
    """Register array whose swap also updates shared status cell 0."""

    def op_swap(self, pid, index, value):
        self._check_index(index)
        old = self.cells[index]
        self.cells[index] = value
        self.cells[0] = pid
        return old

    def footprint(self, pid, method, args):
        if method == "swap" and args:
            # MUTANT: the write to status cell 0 is dropped.
            return Footprint.readwrite(self.name, args[0])
        return super().footprint(pid, method, args)
'''


def _footprint_drop_write() -> Optional[str]:
    """A swap operation writes a fixed status cell on top of the
    addressed one, but its footprint declares only the addressed cell.
    The program is correct and the declaration covers every *declared*
    conflict the scenario exhibits, so nothing dynamic need fail; the
    static analyzer alone proves the handler can write ``cells[0]``
    while the declaration never mentions it."""
    from .lint import lint_source
    findings = lint_source(FOOTPRINT_DROP_WRITE_SOURCE,
                           path="footprint_drop_write_mutant.py")
    if any(violation.code == "F501" for violation in findings):
        return "lint"
    return None


# ---------------------------------------------------------------------------
# fingerprint mutant (the state cache's own soundness)
# ---------------------------------------------------------------------------

def _cache_scenario():
    """A register scenario that is decided by shared state the mutant
    fingerprint ignores.  Two writers race on cell 0; once both have
    decided, the two write orders leave states that differ *only* in
    cell 0's audited value (same continuations, decisions, and step
    count).  A third process then reads the cell and decides what it
    saw, and the property rejects exactly one of the two read values --
    so folding the two states together skips the violating subtree."""
    from .memory import build_store, make_spec
    from .runtime import ObjectProxy, wait_until

    r = ObjectProxy("r")
    done = ObjectProxy("done")

    def build():
        store = build_store([make_spec("register_array", "r", size=1),
                             make_spec("register_array", "done", size=2)])

        def writer(pid, value):
            yield r.write(0, value)
            yield done.write(pid, 1)

        def reader():
            yield from wait_until(lambda: done.read(0),
                                  lambda v: v == 1)
            yield from wait_until(lambda: done.read(1),
                                  lambda v: v == 1)
            value = yield r.read(0)
            return value

        return {0: writer(0, 1), 1: writer(1, 2), 2: reader()}, store

    def check(result) -> None:
        assert result.decisions.get(2) != 1, "reader saw loser value"

    return build, check


def _cache_outcome(state_cache, fingerprinter=None):
    """Deterministic exploration outcome of the cache mutant scenario
    under one cache configuration."""
    from .runtime import CounterexampleFound
    from .runtime.dpor import explore_dpor

    build, check = _cache_scenario()
    try:
        stats = explore_dpor(build, check, max_steps=12, shrink=False,
                             state_cache=state_cache,
                             fingerprinter=fingerprinter)
    except CounterexampleFound as exc:
        return ("violation", exc.stats.total_runs)
    return ("passed", stats.total_runs, stats.complete_runs,
            stats.truncated_runs, stats.pruned_runs,
            stats.max_depth_seen)


def _fingerprint_ignore_field() -> Optional[str]:
    """The state fingerprint silently drops one shared field: the first
    audited entry of every object (cell 0 of the register above, once
    written).  States that differ only in that field then collide, the
    cache folds a subtree recorded under a *different* cell-0 value,
    and the deterministic exploration outcome diverges from cache-off
    -- which is exactly what the ``cache`` differential stage compares.
    No other stage consults fingerprints, so only it can catch this.
    """
    from .runtime import Fingerprinter

    class IgnoreFieldFingerprinter(Fingerprinter):
        """MUTANT: drops the first audited field of every object."""

        def object_fingerprint(self, obj):
            kind, items = super().object_fingerprint(obj)
            return (kind, items[1:])

    reference = _cache_outcome(state_cache=False)
    mutated = _cache_outcome(state_cache=True,
                             fingerprinter=IgnoreFieldFingerprinter())
    if mutated != reference:
        return "cache"
    return None


# ---------------------------------------------------------------------------
# oracle mutant (the generative sweep's own soundness)
# ---------------------------------------------------------------------------

#: The pinned batch the oracle mutant is swept against.  Seed 7's first
#: dozen configurations include resilience-lattice points with
#: ``t % x != 0`` (where ceiling and floor differ), which is exactly
#: where an off-by-one oracle contradicts the machines.  The ``sweep``
#: pytest tier pins the complementary fact: the *honest* floor oracle
#: agrees with every observation on this same batch.
SWEEP_MUTANT_SEED = 7
SWEEP_MUTANT_COUNT = 12


def _ceil_index(t: int, x: int) -> int:
    """The off-by-one resilience index ``⌈t/x⌉`` (the planted bug)."""
    return -((-t) // x)


def _oracle_ceil_index() -> Optional[str]:
    """The solvability oracle computes ``⌈t/x⌉`` instead of ``⌊t/x⌋``.

    Every downstream prediction shifts by one whenever x does not
    divide t -- e.g. k-set agreement with k = ⌊t/x⌋ + 1 is declared
    impossible although the construction demonstrably solves it.  The
    exploration/check/audit stages never consult the oracle, so only
    the generative cross-check can catch this: the sweep compares the
    mutated predictions against brute-force indices, actual lifted
    runs, and exhaustive exploration, and reports the disagreement.
    """
    from .generative import SolvabilityOracle, run_sweep
    result = run_sweep(SWEEP_MUTANT_SEED, SWEEP_MUTANT_COUNT,
                       oracle=SolvabilityOracle(index_fn=_ceil_index),
                       shrink=False)
    if result.disagreements:
        return "sweep"
    return None


# ---------------------------------------------------------------------------
# resume mutant (the frontier store's own soundness)
# ---------------------------------------------------------------------------

def _resume_drop_completed_shard() -> Optional[str]:
    """A resume whose pending set re-includes a shard the journal has
    already settled.  The coordinator merges prior journaled completions
    with every fresh outcome, so the re-executed shard's statistics are
    folded *twice* -- exactly the corruption an unsound ``--resume``
    produces -- and the resumed run no longer equals the uninterrupted
    reference.  Exploration, checking, and auditing never read the
    journal, so only the ``resume`` differential can catch this.
    """
    import os
    import tempfile

    from .runtime.frontier import FrontierStore
    from .runtime.parallel import explore_parallel
    from .scenarios import check_scenarios

    scenario = check_scenarios(n=3)["adopt-commit"]

    class DropCompletedShard(FrontierStore):
        """MUTANT: treats the first settled shard as still pending."""

        def pending_indices(self, total):
            pending = super().pending_indices(total)
            if self.completed:
                pending.append(min(self.completed))
                pending.sort()
            return pending

    reference = explore_parallel(scenario.build, scenario.check, jobs=1,
                                 max_steps=scenario.max_steps)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "frontier.jsonl")
        explore_parallel(scenario.build, scenario.check, jobs=1,
                         max_steps=scenario.max_steps,
                         frontier=FrontierStore(path))
        resumed = explore_parallel(scenario.build, scenario.check, jobs=1,
                                   max_steps=scenario.max_steps,
                                   frontier=DropCompletedShard(path))
    if resumed != reference:
        return "resume"
    return None


# ---------------------------------------------------------------------------
# netshard mutant (the shard server's own soundness)
# ---------------------------------------------------------------------------

def _netshard_accept_stale_result() -> Optional[str]:
    """The shard server applies a completion frame from an expired
    lease holder.

    Within one run the damage is invisible -- shards are deterministic,
    so a stale holder's stats equal the new holder's -- but the lease
    check is the server's *only* defence against frames the transport
    replays from a previous incarnation of the run: a delayed,
    duplicated completion from an earlier exploration (different
    configuration, same shard index, same port) carries statistics
    from a different state space.  The honest server rejects it
    because the sender no longer holds the lease; the mutant folds the
    alien statistics into the merge, and the served outcome diverges
    from the serial reference -- exactly the comparison the ``network``
    differential tier (and nothing else in the pipeline) performs.
    """
    from .runtime.explore import ExplorationStats
    from .runtime.frontier import stats_to_dict
    from .runtime.netshard import ShardServer
    from .runtime.parallel import explore_parallel
    from .scenarios import check_scenarios

    scenario = check_scenarios(n=3)["adopt-commit"]

    class AcceptStaleResult(ShardServer):
        """MUTANT: trusts any completion for a still-open shard."""

        def _accept_completion(self, shard, worker_id):
            return shard not in self._completed

    def run_with(server_cls):
        # Drive the protocol core directly (no sockets): one worker
        # joins, gets a grant, lets its lease lapse, and then -- as a
        # replaying network would -- delivers a completion carrying
        # statistics from some other exploration.  The coordinator
        # finishes the real work in-process either way.
        server = server_cls(config={})

        def scripted_pool(payloads, runner, jobs, fault_plan=None,
                          task_log=None, deadline=None, on_grant=None,
                          on_settle=None):
            server.begin(payloads, runner, on_grant=on_grant,
                         on_settle=on_settle, task_log=task_log,
                         deadline=deadline)
            welcome = server.handle_message(
                {"type": "hello", "worker": "replayed"}, now=0.0)
            wid = welcome["worker_id"]
            grant = server.handle_message(
                {"type": "request", "worker_id": wid}, now=0.0)
            shard = grant["shard"]
            server.tick(now=1e9)  # the holder's lease lapses
            alien = ExplorationStats(complete_runs=999,
                                     max_depth_seen=42)
            server.handle_message(
                {"type": "complete", "worker_id": wid, "shard": shard,
                 "stats": stats_to_dict(alien)},
                now=1e9)
            while not server.done:
                server.run_one_inprocess()
            return server.outcomes

        return explore_parallel(scenario.build, scenario.check, jobs=1,
                                max_steps=scenario.max_steps,
                                pool=scripted_pool)

    reference = explore_parallel(scenario.build, scenario.check, jobs=1,
                                 max_steps=scenario.max_steps)
    if run_with(ShardServer) != reference:
        return None  # the honest server must match; the harness is off
    if run_with(AcceptStaleResult) != reference:
        return "network"
    return None


# ---------------------------------------------------------------------------
# nondeterministic-build mutant (the replay premise itself)
# ---------------------------------------------------------------------------

def nondeterministic_scenario():
    """A ``(build, check)`` pair whose build is not a pure factory.

    One shared register slot: p0 writes it, p1 reads it and decides
    what it saw.  The build counts its calls, and p0 takes 1 step on
    odd builds and 3 on even ones, so a schedule recorded on one build
    names steps another build does not have.  The check holds on every
    run of either program: only a replay that verifies what it replays
    can tell this scenario from a sound one.
    """
    from itertools import count

    from .memory import build_store, make_spec
    from .runtime import ObjectProxy

    r = ObjectProxy("r")
    builds = count()

    def build():
        # MUTANT: the program depends on how many builds came before.
        steps = 1 if next(builds) % 2 else 3

        def writer():
            for _ in range(steps):
                yield r.write(0, 1)

        def reader():
            value = yield r.read(0)
            return value

        store = build_store([make_spec("register_array", "r", size=1)])
        return {0: writer(), 1: reader()}, store

    def check(result) -> None:
        assert result.decisions.get(1) in (None, 1), \
            f"reader saw a value nobody wrote: {result.summary()}"

    return build, check


def _nondeterministic_build() -> Optional[str]:
    """The scenario build returns a different program on every other
    call.  Every verdict of the checker rests on replay: re-syncing a
    rebuilt system after a backtrack must reach the recorded state.
    Here it does not, and DPOR exploration must say so by raising
    ``ReplayDivergence`` instead of passing a state space it never
    saw whole."""
    from .runtime import ReplayDivergence
    return _explore_detects(*nondeterministic_scenario(), max_steps=12,
                            caught=ReplayDivergence)


# ---------------------------------------------------------------------------
# Registry + harness
# ---------------------------------------------------------------------------

MUTANTS: Tuple[Mutant, ...] = (
    Mutant("sa-dropped-resolve",
           "safe-agreement propose never resolves its unstable entry",
           "explore", _sa_dropped_resolve),
    Mutant("sa-eager-stabilize",
           "safe-agreement propose stabilizes without the snapshot check",
           "explore", _sa_eager_stabilize),
    Mutant("ac-dropped-publish",
           "adopt-commit p0 skips its phase-1 publish",
           "explore", _ac_dropped_publish),
    Mutant("ac-adopt-own-value",
           "adopt-commit adopts its own value instead of the committed one",
           "explore", _ac_adopt_own_value),
    Mutant("xsa-port-arity",
           "x_compete scans x+1 test&set slots, electing too many owners",
           "explore", _xsa_port_arity),
    Mutant("queue-tiebreak-own",
           "queue-consensus loser decides its own value",
           "explore", _queue_tiebreak_own),
    Mutant("abd-no-read-repair",
           "ABD read completes at quorum without the write-back phase",
           "check", _abd_no_read_repair),
    Mutant("footprint-underdeclared",
           "operation reads every cell but declares a one-cell footprint",
           "audit", _footprint_underdeclared),
    Mutant("footprint-drop-write",
           "swap writes a status cell its declared footprint never mentions",
           "lint", _footprint_drop_write),
    Mutant("oracle-ceil-index",
           "solvability oracle computes ceil(t/x) instead of floor(t/x)",
           "sweep", _oracle_ceil_index),
    Mutant("fingerprint-ignore-field",
           "state fingerprint skips one shared field, merging distinct "
           "states",
           "cache", _fingerprint_ignore_field),
    Mutant("resume-drop-completed-shard",
           "frontier resume re-grants a shard the journal already "
           "settled, double-merging its statistics",
           "resume", _resume_drop_completed_shard),
    Mutant("netshard-accept-stale-result",
           "shard server applies a completion frame from an expired "
           "lease holder",
           "network", _netshard_accept_stale_result),
    Mutant("nondeterministic-build",
           "scenario build returns a different program on every other "
           "call",
           "explore", _nondeterministic_build),
)


def mutant_names() -> List[str]:
    """Registry order of mutant names (stable; used as CLI/test ids)."""
    return [mutant.name for mutant in MUTANTS]


def get_mutant(name: str) -> Mutant:
    """Look one mutant up by name; KeyError lists what exists."""
    for mutant in MUTANTS:
        if mutant.name == name:
            return mutant
    raise KeyError(f"unknown mutant {name!r} "
                   f"(expected one of {mutant_names()})")
