"""Dynamic footprint-soundness auditor.

The DPOR explorer (`repro.runtime.dpor`) prunes interleavings using the
read/write footprints that shared objects *declare*
(:meth:`~repro.memory.base.SharedObject.footprint`).  Declarations must
over-approximate what operations actually touch: an under-approximated
footprint makes DPOR treat two conflicting steps as independent and
silently skip real interleavings -- the worst possible failure mode for
an exhaustive checker, because it reports "proved" over a schedule space
it never visited.

:class:`AuditingStore` wraps an :class:`~repro.memory.store.ObjectStore`
and validates every executed operation against its declaration:

* **write soundness** -- the per-location state of *every* object
  (:meth:`~repro.memory.base.SharedObject.audit_state`) is diffed around
  the operation; any changed location must be covered by the declared
  write set.
* **read soundness** -- the operation is replayed against a deep copy of
  its target object in which every location *not* covered by the
  declared read set has been poisoned
  (:meth:`~repro.memory.base.SharedObject.audit_set`).  If the replay
  diverges from the real execution -- different result, an exception, or
  a state delta that is neither "location left untouched" nor "location
  rewritten to the real post-value" -- the operation observed state it
  never declared.

Violations raise :class:`FootprintViolation` with the object, the
operation, and the declared-vs-observed evidence ("fails loudly").
:func:`audit_scenario` runs a named check scenario under a battery of
adversaries with auditing on; the CLI front-end is
``python -m repro audit <scenario>``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..memory.base import SharedObject
from ..runtime.explore import ExplorationInterrupted, ShardFailed
from ..runtime.ops import Footprint, Invocation, _keys_overlap

#: Seeds for the default adversary battery (mirrors the test suite's).
DEFAULT_AUDIT_SEEDS = (0, 1, 2, 3, 7, 11, 42)


class FootprintViolation(RuntimeError):
    """An executed operation escaped its declared footprint."""

    def __init__(self, obj_name: str, pid: int, invocation: Invocation,
                 declared: Footprint, kind: str, evidence: str) -> None:
        self.obj_name = obj_name
        self.pid = pid
        self.invocation = invocation
        self.declared = declared
        self.kind = kind  # "write" or "read"
        self.evidence = evidence
        super().__init__(
            f"footprint {kind}-soundness violation: p{pid} executed "
            f"{invocation!r} on object {obj_name!r}\n"
            f"  declared: {declared!r}\n"
            f"  observed: {evidence}")

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # message) into our 6-argument ``__init__``; rebuild from the
        # real fields instead so violations survive worker pipes.
        return (FootprintViolation,
                (self.obj_name, self.pid, self.invocation,
                 self.declared, self.kind, self.evidence))


class _Poison:
    """Unique marker written into undeclared locations before a replay.

    Hashable and iterable (yielding itself) so it survives being wrapped
    in the container-shaped state fragments family objects report
    (e.g. ``frozenset(callers)``); identity is what matters.
    """

    __slots__ = ("location",)

    def __init__(self, location: Any) -> None:
        self.location = location

    def __iter__(self):
        yield self

    def __repr__(self) -> str:
        return f"<poison@{self.location!r}>"


def _covered(obj_name: str, key: Any, declared) -> bool:
    """Is ``(obj_name, key)`` covered by a declared location set?"""
    return any(obj == obj_name and _keys_overlap(key, dkey)
               for obj, dkey in declared)


class AuditingStore:
    """Object-store wrapper that audits every operation it dispatches.

    Drop-in for :class:`~repro.memory.store.ObjectStore` wherever the
    runtime reads from a store (scheduler dispatch, oracle binding,
    DPOR footprint queries).  ``perturb=False`` disables the replay-based
    read audit and keeps only the state-diff write audit (cheaper, and
    sufficient for objects without :meth:`audit_set` support).
    """

    def __init__(self, store, perturb: bool = True) -> None:
        self._store = store
        self.perturb = perturb
        self.audited_ops = 0
        self.skipped_ops = 0

    # -- delegation ----------------------------------------------------
    def add(self, obj):
        return self._store.add(obj)

    def add_all(self, objs) -> None:
        self._store.add_all(objs)

    def __getitem__(self, name: str):
        return self._store[name]

    def __contains__(self, name: str) -> bool:
        return name in self._store

    def __iter__(self):
        return iter(self._store)

    def __len__(self) -> int:
        return len(self._store)

    def get(self, name: str):
        return self._store.get(name)

    def is_readonly(self, inv: Invocation) -> bool:
        return self._store.is_readonly(inv)

    def footprint(self, pid: int, inv: Invocation):
        return self._store.footprint(pid, inv)

    @property
    def op_count(self) -> int:
        return self._store.op_count

    # -- audited dispatch ----------------------------------------------
    def apply(self, pid: int, inv: Invocation) -> Any:
        target = self._store[inv.obj]
        declared = self._store.footprint(pid, inv)
        if getattr(target, "oracle", False) or declared is None:
            # Oracles read the run's crash state, which lives outside
            # the shared-memory footprint model; an unknown (None)
            # footprint already conflicts with everything in DPOR.
            self.skipped_ops += 1
            return self._store.apply(pid, inv)
        pre = self._snapshot_all()
        replay_target = self._replay_copy(target)
        result = self._store.apply(pid, inv)
        post = self._snapshot_all()
        self._check_writes(pid, inv, declared, pre, post)
        if self.perturb and replay_target is not None:
            self._check_reads(pid, inv, declared, replay_target,
                              result, post.get(inv.obj, {}))
        self.audited_ops += 1
        return result

    # -- helpers -------------------------------------------------------
    def _snapshot_all(self) -> Dict[str, Dict[Any, Any]]:
        states: Dict[str, Dict[Any, Any]] = {}
        for obj in self._store:
            if getattr(obj, "oracle", False):
                continue
            try:
                states[obj.name] = copy.deepcopy(obj.audit_state())
            except Exception:
                # Un-copyable state cannot be diffed; leave the object
                # out rather than aborting the run.
                pass
        return states

    @staticmethod
    def _replay_copy(target: SharedObject) -> Optional[SharedObject]:
        try:
            return copy.deepcopy(target)
        except Exception:
            return None

    def _check_writes(self, pid, inv, declared, pre, post) -> None:
        escaped: List[str] = []
        for name in sorted(set(pre) | set(post)):
            before = pre.get(name, {})
            after = post.get(name, {})
            obj = self._store[name]
            for key in set(before) | set(after):
                # An absent location holds the object's semantic default
                # (⊥ for lazy families, MISSING_STATE -- equal to
                # nothing -- otherwise), so lazily materializing a
                # default-valued location is not a write.
                old = before.get(key, obj.audit_default(key))
                new = after.get(key, obj.audit_default(key))
                if _fragments_equal(old, new):
                    continue
                if not _covered(name, key, declared.writes):
                    escaped.append(
                        f"{name}[{key!r}] changed {old!r} -> {new!r}")
        if escaped:
            raise FootprintViolation(
                inv.obj, pid, inv, declared, "write",
                "operation wrote location(s) outside its declared "
                "write set: " + "; ".join(escaped))

    def _check_reads(self, pid, inv, declared, replay_target,
                     result, baseline_post) -> None:
        try:
            locations = replay_target.audit_state()
        except Exception:
            return
        undeclared = [key for key in locations
                      if not _covered(inv.obj, key, declared.reads)]
        poison = _Poison(inv.obj)
        poisoned = [key for key in undeclared
                    if replay_target.audit_set(key, poison)]
        if not poisoned:
            return
        poisoned_pre = copy_fragments(replay_target)
        try:
            replay_result = replay_target.apply(pid, inv.method, inv.args)
        except Exception as exc:
            raise FootprintViolation(
                inv.obj, pid, inv, declared, "read",
                f"operation raised {type(exc).__name__}: {exc} once "
                f"undeclared location(s) {sorted(map(repr, poisoned))} "
                f"were perturbed -- it reads state outside its declared "
                f"read set")
        if replay_result != result:
            raise FootprintViolation(
                inv.obj, pid, inv, declared, "read",
                f"result changed from {result!r} to {replay_result!r} "
                f"once undeclared location(s) "
                f"{sorted(map(repr, poisoned))} were perturbed")
        try:
            replay_post = replay_target.audit_state()
        except Exception:
            replay_post = None
        if replay_post is None:
            return
        obj = self._store[inv.obj]
        poisoned_set = set(poisoned)
        for key in set(replay_post) | set(baseline_post):
            actual = baseline_post.get(key, obj.audit_default(key))
            replayed = replay_post.get(key, obj.audit_default(key))
            if key in poisoned_set:
                # Legal outcomes: untouched (still the poisoned
                # fragment) or blindly rewritten to the real post-value.
                if (_fragments_equal(replayed, poisoned_pre.get(key))
                        or _fragments_equal(replayed, actual)):
                    continue
                raise FootprintViolation(
                    inv.obj, pid, inv, declared, "read",
                    f"location {key!r} ended as {replayed!r} (expected "
                    f"untouched poison or {actual!r}); the written "
                    f"value depends on state outside the declared "
                    f"read set")
            elif not _fragments_equal(replayed, actual):
                raise FootprintViolation(
                    inv.obj, pid, inv, declared, "read",
                    f"location {key!r} ended as {replayed!r} instead "
                    f"of {actual!r} once undeclared location(s) "
                    f"{sorted(map(repr, poisoned))} were perturbed")


def copy_fragments(target: SharedObject) -> Dict[Any, Any]:
    """Shallow capture of a poisoned pre-state (identity-preserving)."""
    try:
        return dict(target.audit_state())
    except Exception:
        return {}


def _fragments_equal(a: Any, b: Any) -> bool:
    try:
        return bool(a == b)
    except Exception:
        return a is b


# ---------------------------------------------------------------------------
# Scenario-level audit runner
# ---------------------------------------------------------------------------

@dataclass
class AuditReport:
    """Coverage of one scenario audit: runs executed, ops checked."""

    scenario: str
    runs: int = 0
    audited_ops: int = 0
    skipped_ops: int = 0
    adversaries: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        text = (f"{self.scenario}: {self.runs} runs, "
                f"{self.audited_ops} operations audited")
        if self.skipped_ops:
            text += f" ({self.skipped_ops} oracle ops skipped)"
        return text


def _audit_one(scenario, adversary, max_steps: int, perturb: bool):
    """One audited run; returns ``(audited_ops, skipped_ops, repr)``.

    The adversary is reported by ``repr`` rather than class name so a
    seeded adversary's seed lands in the report (and in the metrics
    record): a failing randomized audit is reproducible from the report
    alone.
    """
    from ..runtime import run_processes
    programs, store = scenario.build()
    audited = AuditingStore(store, perturb=perturb)
    crash_plan = (scenario.crash_plan_factory()
                  if scenario.crash_plan_factory else None)
    result = run_processes(programs, audited, adversary=adversary,
                           crash_plan=crash_plan, max_steps=max_steps)
    if result.out_of_steps:
        raise ExplorationInterrupted(
            "max_steps",
            f"audit of {scenario.name!r} exhausted max_steps="
            f"{max_steps} under {adversary!r}")
    return (audited.audited_ops, audited.skipped_ops, repr(adversary))


def audit_scenario(scenario, adversaries: Optional[Sequence] = None,
                   max_steps: int = 100_000,
                   perturb: bool = True,
                   jobs: Optional[int] = None) -> AuditReport:
    """Run ``scenario`` under auditing with a battery of adversaries.

    Raises :class:`FootprintViolation` on the first unsound declaration
    and :class:`~repro.runtime.explore.ExplorationInterrupted` (reason
    ``"max_steps"``) if a run exhausts ``max_steps``; returns an
    :class:`AuditReport` when every executed operation stayed inside its
    declared footprint.  With ``jobs``, the per-adversary runs execute
    on a worker pool (:func:`repro.runtime.parallel.run_pool`); failures
    are re-raised in adversary order, so the outcome does not depend on
    worker timing.
    """
    from ..runtime import RoundRobinAdversary, SeededRandomAdversary
    if adversaries is None:
        adversaries = [RoundRobinAdversary()] + [
            SeededRandomAdversary(seed) for seed in DEFAULT_AUDIT_SEEDS]
    report = AuditReport(scenario=scenario.name)

    if jobs is not None and jobs > 1:
        from ..runtime.parallel import run_pool

        def run_one(index):
            try:
                return _audit_one(scenario, adversaries[index],
                                  max_steps, perturb), None
            except (FootprintViolation, RuntimeError) as exc:
                # Ship the typed failure as a value: run_pool's generic
                # error channel is strings, and the caller re-raises.
                return None, exc

        outcomes = run_pool(list(range(len(adversaries))), run_one,
                            jobs=jobs)
        for index, (value, error) in enumerate(outcomes):
            if error is not None:
                raise ShardFailed(
                    f"audit worker failed on adversary {index}: {error}")
            ok, failure = value
            if failure is not None:
                raise failure
            audited_ops, skipped_ops, name = ok
            report.runs += 1
            report.audited_ops += audited_ops
            report.skipped_ops += skipped_ops
            report.adversaries.append(name)
        return report

    for adversary in adversaries:
        audited_ops, skipped_ops, name = _audit_one(
            scenario, adversary, max_steps, perturb)
        report.runs += 1
        report.audited_ops += audited_ops
        report.skipped_ops += skipped_ops
        report.adversaries.append(name)
    return report
