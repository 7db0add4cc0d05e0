"""Named exhaustive-checking scenarios for ``python -m repro check``.

Each scenario packages a small, fully-checkable configuration of one of
the paper's agreement objects -- a ``build()`` factory, the safety
property to assert on every complete run, an optional crash plan, and
exploration bounds -- so the CLI (and the test suite) can run bounded
model checking over ALL interleavings with one command.

The safety properties are the paper's:

* ``safe-agreement``   -- agreement + validity of Figure 1's
  safe-agreement (every process decides the same proposed value);
* ``adopt-commit``     -- coherence + validity (+ convergence on
  unanimous inputs) of the adopt-commit object;
* ``x-safe-agreement`` -- agreement + validity of Figure 6's
  x-safe-agreement under one mid-propose crash: with x = 2 a single
  crash must NOT block the survivors (the multiplicative phenomenon --
  killing the object would cost the adversary x crashes);
* ``queue-2cons``      -- agreement + validity of Herlihy's queue-based
  2-process consensus.

``broken-demo`` is deliberately buggy (a "consensus" from bare
registers, which Herlihy's hierarchy says cannot work): it exists to
demonstrate counterexample shrinking and the nonzero CLI exit path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from .agreement import SafeAgreementFactory, XSafeAgreementFactory
from .agreement.adopt_commit import COMMIT, AdoptCommit, adopt_commit_specs
from .memory import BOTTOM, ObjectStore, RegisterArray, build_store, make_spec
from .objects import LOSER, WINNER, consensus2_from_queue
from .runtime import CrashPlan, ObjectProxy, RunResult


@dataclass
class CheckScenario:
    """One named exhaustive-checking configuration."""

    name: str
    description: str
    build: Callable[[], Tuple[Dict[int, Generator], Any]]
    check: Callable[[RunResult], None]
    crash_plan_factory: Optional[Callable[[], CrashPlan]] = None
    max_steps: int = 24
    max_runs: int = 500_000
    #: Set on the deliberately-broken demo scenario.
    expect_violation: bool = False


# ---------------------------------------------------------------------------
# safe-agreement
# ---------------------------------------------------------------------------

def _safe_agreement(n: int) -> CheckScenario:
    def build():
        factory = SafeAgreementFactory(n)
        store = ObjectStore()
        store.add_all(factory.shared_objects())

        def participant(i):
            inst = factory.instance("k")
            yield from inst.propose(i, f"v{i}")
            decided = yield from inst.decide(i)
            return decided

        return {i: participant(i) for i in range(n)}, store

    proposals = {f"v{i}" for i in range(n)}

    def check(result: RunResult) -> None:
        assert not result.deadlocked, \
            f"crash-free safe-agreement deadlocked: {result.summary()}"
        assert result.decided_pids == set(range(n)), \
            f"not everyone decided: {result.summary()}"
        assert len(result.decided_values) == 1, \
            f"agreement violated: {sorted(result.decided_values)}"
        assert result.decided_values <= proposals, \
            f"validity violated: {sorted(result.decided_values)}"

    return CheckScenario(
        name="safe-agreement",
        description=(f"Figure 1 safe-agreement, {n} processes, no "
                     f"crashes: agreement + validity + termination"),
        build=build, check=check, max_steps=6 * n + 2)


# ---------------------------------------------------------------------------
# adopt-commit
# ---------------------------------------------------------------------------

def _adopt_commit(n: int) -> CheckScenario:
    values = ["a" if i == 0 else "b" for i in range(n)]

    def build():
        store = build_store(adopt_commit_specs(n))

        def proposer(pid):
            out = yield from AdoptCommit("k", n).propose(pid, values[pid])
            return out

        return {i: proposer(i) for i in range(n)}, store

    def check(result: RunResult) -> None:
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

    return CheckScenario(
        name="adopt-commit",
        description=(f"adopt-commit, {n} processes, divergent proposals: "
                     f"coherence + validity"),
        build=build, check=check, max_steps=4 * n + 2)


# ---------------------------------------------------------------------------
# x-safe-agreement
# ---------------------------------------------------------------------------

def _x_safe_agreement(n: int, x: int) -> CheckScenario:
    def build():
        factory = XSafeAgreementFactory(n, x)
        store = ObjectStore()
        store.add_all(factory.shared_objects())

        def participant(i):
            inst = factory.instance("k")
            yield from inst.propose(i, f"v{i}")
            decided = yield from inst.decide(i)
            return decided

        return {i: participant(i) for i in range(n)}, store

    proposals = {f"v{i}" for i in range(n)}
    survivors = set(range(1, n))

    def check(result: RunResult) -> None:
        # p0 crashes mid-propose; with x = 2 that is fewer than x crashes
        # inside propose, so every correct process must still decide.
        assert not result.deadlocked, \
            (f"one crash (< x={x}) blocked x-safe-agreement: "
             f"{result.summary()}")
        assert result.decided_pids == survivors, \
            f"survivors did not all decide: {result.summary()}"
        assert len(result.decided_values) == 1, \
            f"agreement violated: {sorted(result.decided_values)}"
        assert result.decided_values <= proposals, \
            f"validity violated: {sorted(result.decided_values)}"

    return CheckScenario(
        name="x-safe-agreement",
        description=(f"Figure 6 x-safe-agreement, {n} processes, x={x}, "
                     f"p0 crashes mid-propose: survivors still agree"),
        build=build, check=check,
        crash_plan_factory=lambda: CrashPlan.at_own_step({0: 2}),
        max_steps=40)


# ---------------------------------------------------------------------------
# queue-based 2-consensus
# ---------------------------------------------------------------------------

def _queue_2cons() -> CheckScenario:
    def build():
        store = build_store([
            make_spec("queue", "q", initial=(WINNER, LOSER)),
            make_spec("register_array", "ann", size=2),
        ])
        q, ann = ObjectProxy("q"), ObjectProxy("ann")

        def prog(pid):
            decided = yield from consensus2_from_queue(
                q, ann, pid, 1 - pid, f"v{pid}")
            return decided

        return {i: prog(i) for i in range(2)}, store

    def check(result: RunResult) -> None:
        assert result.decided_pids == {0, 1}, result.summary()
        assert len(result.decided_values) == 1, \
            f"agreement violated: {sorted(result.decided_values)}"
        assert result.decided_values <= {"v0", "v1"}, \
            f"validity violated: {sorted(result.decided_values)}"

    return CheckScenario(
        name="queue-2cons",
        description=("Herlihy queue-based 2-process consensus: "
                     "agreement + validity"),
        build=build, check=check, max_steps=12)


# ---------------------------------------------------------------------------
# broken-demo: registers cannot solve consensus (Herlihy 1991) -- the
# explorer finds the disagreeing schedule and shrinks it.
# ---------------------------------------------------------------------------

def _broken_demo() -> CheckScenario:
    reg = ObjectProxy("reg")

    def build():
        store = ObjectStore()
        store.add(RegisterArray("reg", 2))

        def prog(pid):
            yield reg.write(pid, f"v{pid}")
            mine = yield reg.read(pid)
            other = yield reg.read(1 - pid)
            # Bogus tie-break: "first writer wins" is not observable from
            # registers, so both processes can believe they were first.
            return mine if other is BOTTOM else min(mine, other, key=str)

        return {i: prog(i) for i in range(2)}, store

    def check(result: RunResult) -> None:
        assert len(result.decided_values) == 1, \
            f"agreement violated: {sorted(result.decided_values)}"

    return CheckScenario(
        name="broken-demo",
        description=("DELIBERATELY BUGGY register-only 'consensus': "
                     "demonstrates counterexample shrinking"),
        build=build, check=check, max_steps=10,
        expect_violation=True)


def check_scenarios(n: int = 3, x: int = 2) -> Dict[str, CheckScenario]:
    """The scenario registry, parameterized by process count.

    ``n`` sizes safe-agreement and adopt-commit; x-safe-agreement always
    runs ``n`` processes with consensus-number-``x`` objects; queue-2cons
    and broken-demo are inherently 2-process.
    """
    return {
        scenario.name: scenario
        for scenario in (
            _safe_agreement(n),
            _adopt_commit(n),
            _x_safe_agreement(n, x),
            _queue_2cons(),
            _broken_demo(),
        )
    }


#: Scenario names suitable for ``check all`` (the sound ones).
SOUND_SCENARIOS: List[str] = [
    "safe-agreement", "adopt-commit", "x-safe-agreement", "queue-2cons"]


def _parse_generated_name(name: str) -> Tuple[int, int]:
    """Split ``generated:SEED:INDEX`` into its integer pair."""
    try:
        _, seed_text, index_text = name.split(":")
        return int(seed_text), int(index_text)
    except ValueError:
        raise KeyError(
            f"malformed generated scenario name {name!r} "
            f"(expected 'generated:SEED:INDEX')") from None


def build_scenario(name: str, n: int = 3, x: int = 2) -> CheckScenario:
    """Rebuild one registry scenario by name (for worker processes).

    Scenario ``build``/``check`` callables close over local state and do
    not pickle; a ``(name, n, x)`` triple does.  Names in the
    ``generated:SEED:INDEX`` namespace resolve through the generative
    sweep's grammar (:func:`repro.generative.generated_scenario`) --
    the synthesized configuration is a pure function of the two
    integers, so workers rebuild it exactly; the ``n``/``x`` sizing
    arguments are ignored for that namespace (the tape encodes its own
    sizes).  Raises ``KeyError`` for unknown names, listing what
    exists.
    """
    if name.startswith("generated:"):
        from .generative import generated_scenario
        seed, index = _parse_generated_name(name)
        return generated_scenario(seed, index)
    registry = check_scenarios(n=n, x=x)
    if name not in registry:
        raise KeyError(f"unknown scenario {name!r} "
                       f"(expected one of {sorted(registry)}, or "
                       f"'generated:SEED:INDEX')")
    return registry[name]


@dataclass(frozen=True)
class ScenarioRef:
    """A picklable by-name reference to a registry scenario.

    Closures do not cross a socket; a name does.  Socket shard workers
    (:class:`repro.runtime.netshard.ShardWorker`) call :meth:`resolve`
    once to rebuild the identical scenario locally, and
    :func:`repro.runtime.parallel.explore_parallel` fills in a missing
    ``build``/``check`` from it and names the run in the checkpoint
    fingerprint.
    """

    name: str
    n: int = 3
    x: int = 2

    def resolve(self) -> CheckScenario:
        return build_scenario(self.name, n=self.n, x=self.x)
