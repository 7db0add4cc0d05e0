"""Operation descriptors exchanged between process code and the scheduler.

Process code in this library is written as Python generators.  Every shared
memory access is expressed by *yielding* an operation descriptor; the
scheduler executes the operation atomically and sends the result back into
the generator.  One yield == one atomic step, which gives exactly the
asynchronous atomic-step semantics of the ASM(n, t, x) model of the paper
(Imbs & Raynal 2010, Section 2.3) without relying on Python threads.

Two kinds of descriptors exist:

* :class:`Invocation` -- an atomic operation on a shared object (write,
  snapshot, propose, ...).  Executed by the top-level scheduler.
* :class:`SpinOp` -- a *read-only* invocation plus a predicate.  The process
  is busy-waiting: the scheduler re-applies the invocation each time the
  process is scheduled and only resumes the generator once the predicate
  holds.  Because spin operations are read-only, a configuration in which
  every live process is spinning with a false predicate is a permanent
  deadlock, which the scheduler detects and reports (this is how blocked
  simulated processes become *observable* in the blocking-lemma benchmarks).

:class:`LocalOp` is the base class for simulator-local control operations
(e.g. the mutex1/mutex2 acquisitions of the BG simulation).  Those are
resolved inside a simulator's thread trampoline and must never reach the
top-level scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Tuple


@dataclass(frozen=True, slots=True)
class Invocation:
    """One atomic operation on a named shared object."""

    obj: str
    method: str
    args: Tuple[Any, ...] = ()

    def __repr__(self) -> str:
        rendered = ", ".join(repr(a) for a in self.args)
        return f"{self.obj}.{self.method}({rendered})"


# ---------------------------------------------------------------------------
# Read/write footprints (the independence relation of the DPOR explorer).
# ---------------------------------------------------------------------------

class _WholeObject:
    """Wildcard location: the entire state of an object.

    Used by operations whose footprint is not confined to one addressable
    location (snapshots read every entry; a queue dequeue touches the whole
    queue).  A wildcard overlaps every location of the same object.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "*"

    def __reduce__(self):
        return (_WholeObject, ())


#: Wildcard location covering an object's whole state.
WHOLE = _WholeObject()

#: A location is ``(object_name, key)`` where ``key`` is a hashable
#: address inside the object (a cell index, a family key, a
#: ``(family_key, index)`` pair, ...) or :data:`WHOLE`.
Location = Tuple[str, Any]


def _keys_overlap(k1: Any, k2: Any) -> bool:
    """Do two intra-object location keys address overlapping state?

    :data:`WHOLE` overlaps everything.  Tuple keys are compared
    element-wise so a wildcard *component* works too: the snapshot-family
    location ``(key, WHOLE)`` overlaps ``(key, 3)`` but not
    ``(other_key, 3)``.  Keys of differing tuple lengths are treated as
    overlapping (conservative: unknown addressing scheme).
    """
    if k1 is WHOLE or k2 is WHOLE:
        return True
    if isinstance(k1, tuple) and isinstance(k2, tuple):
        if len(k1) != len(k2):
            return True
        return all(_keys_overlap(a, b) for a, b in zip(k1, k2))
    if isinstance(k1, tuple) or isinstance(k2, tuple):
        return True
    return k1 == k2


@dataclass(frozen=True, slots=True)
class Footprint:
    """The shared-memory read and write sets of one atomic step.

    Every schedulable operation maps to a footprint (the object's
    :meth:`~repro.memory.base.SharedObject.footprint` hook computes it);
    two steps of *different* processes are **independent** -- executing
    them in either order yields the same state and the same results --
    exactly when their footprints do not :func:`conflict <conflicts>`.
    This is the independence relation the DPOR explorer
    (`repro.runtime.dpor`) prunes schedules with, so over-approximating a
    footprint is always safe and under-approximating one is never safe.
    """

    reads: FrozenSet[Location] = frozenset()
    writes: FrozenSet[Location] = frozenset()

    # -- constructors --------------------------------------------------
    @classmethod
    def read(cls, obj: str, key: Any = WHOLE) -> "Footprint":
        return cls(reads=frozenset({(obj, key)}))

    @classmethod
    def write(cls, obj: str, key: Any = WHOLE) -> "Footprint":
        return cls(writes=frozenset({(obj, key)}))

    @classmethod
    def readwrite(cls, obj: str, key: Any = WHOLE) -> "Footprint":
        loc = frozenset({(obj, key)})
        return cls(reads=loc, writes=loc)

    def merge(self, other: "Footprint") -> "Footprint":
        return Footprint(reads=self.reads | other.reads,
                         writes=self.writes | other.writes)

    # -- queries -------------------------------------------------------
    @property
    def is_readonly(self) -> bool:
        return not self.writes

    def __repr__(self) -> str:
        def render(locs):
            return "{" + ", ".join(
                f"{o}[{k!r}]" for o, k in sorted(
                    locs, key=lambda loc: (loc[0], repr(loc[1])))) + "}"
        return f"Footprint(r={render(self.reads)}, w={render(self.writes)})"


#: Footprint of a step touching no shared state (e.g. a crash event).
EMPTY_FOOTPRINT = Footprint()


def _locations_overlap(xs: FrozenSet[Location],
                       ys: FrozenSet[Location]) -> bool:
    for obj1, key1 in xs:
        for obj2, key2 in ys:
            if obj1 == obj2 and _keys_overlap(key1, key2):
                return True
    return False


def conflicts(a: Footprint, b: Footprint) -> bool:
    """Do two footprints conflict (write/write or read/write overlap)?

    Non-conflicting footprints commute: the two steps are independent.
    ``None`` stands for an unknown footprint and conflicts with
    everything (maximally conservative).
    """
    if a is None or b is None:
        return True
    return (_locations_overlap(a.writes, b.writes)
            or _locations_overlap(a.writes, b.reads)
            or _locations_overlap(a.reads, b.writes))


@dataclass(frozen=True, slots=True)
class SpinOp:
    """A busy-wait step: re-apply ``invocation`` until ``predicate`` holds.

    ``period`` is the number of *consecutive* failed spin steps after which
    the process may be considered stuck by the deadlock detector.  A plain
    process spins on a single condition (``period == 1``).  A BG simulator
    cycles over several internal threads, each possibly spinning on a
    different condition, and therefore reports ``period = number of live
    threads``: only a full cycle of failed spins proves the simulator can
    make no progress.
    """

    invocation: Invocation
    predicate: Callable[[Any], bool]
    period: int = 1

    def __repr__(self) -> str:
        return f"spin({self.invocation!r}, period={self.period})"


class LocalOp:
    """Base class for control operations local to a simulator.

    The top-level scheduler refuses to execute these; they exist so that a
    simulator's thread trampoline can resolve thread-local concerns (mutex
    acquisition, bookkeeping) without consuming a shared-memory step, exactly
    as the paper notes that mutex1/mutex2 are "purely local to each
    simulator" (Section 3.2.3).
    """


class _SpinFailed:
    """Sentinel sent into a generator whose spin predicate was false."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<SPIN_FAILED>"


#: Sent into the generator after a failed spin step.  The process re-yields
#: a (possibly different) SpinOp; this is what lets a BG simulator cycle
#: over several internally-spinning threads instead of being pinned to one
#: condition.  Plain process code should use :func:`wait_until` rather than
#: handling the sentinel by hand.
SPIN_FAILED = _SpinFailed()


def spin(invocation: Invocation,
         predicate: Callable[[Any], bool],
         period: int = 1) -> SpinOp:
    """Convenience constructor for :class:`SpinOp`."""
    return SpinOp(invocation, predicate, period)


def wait_until(make_invocation: Callable[[], Invocation],
               predicate: Callable[[Any], bool],
               period: int = 1):
    """Busy-wait until a read-only invocation satisfies ``predicate``.

    Usage: ``snap = yield from wait_until(lambda: mem.snapshot(), pred)``.
    Each failed check is one atomic (read-only) step; the scheduler's
    deadlock detector will retire the process if the predicate can provably
    never hold.
    """
    while True:
        result = yield SpinOp(make_invocation(), predicate, period)
        if result is not SPIN_FAILED:
            return result


class ObjectProxy:
    """Builds :class:`Invocation` descriptors with attribute syntax.

    ``mem = ObjectProxy('mem'); mem.write(3, 'v')`` produces
    ``Invocation('mem', 'write', (3, 'v'))``.  Proxies hold no state
    beyond the builders they have handed out: they are a purely
    syntactic convenience for process code.

    There is one proxy per name (``ObjectProxy('mem') is
    ObjectProxy('mem')``), and a builder, once made, is kept as an
    attribute of it.  Protocol objects make their proxies afresh for
    every run, and every step of process code looks a builder up: an
    attribute miss, which calls :meth:`__getattr__`, cost more than the
    builder's own call.
    """

    _interned: Dict[str, "ObjectProxy"] = {}

    def __new__(cls, name: str) -> "ObjectProxy":
        proxy = cls._interned.get(name)
        if proxy is None:
            proxy = cls._interned[name] = super().__new__(cls)
            proxy._name = name
        return proxy

    @property
    def name(self) -> str:
        return self._name

    def __getattr__(self, method: str) -> Callable[..., Invocation]:
        if method.startswith("_"):
            raise AttributeError(method)
        name = self._name

        def build(*args: Any) -> Invocation:
            return Invocation(name, method, args)

        build.__name__ = f"{name}.{method}"
        setattr(self, method, build)
        return build

    def __reduce__(self):
        # By name: the kept builders are closures, which do not pickle.
        return (ObjectProxy, (self._name,))

    def __repr__(self) -> str:
        return f"ObjectProxy({self._name!r})"


def indexed_proxy(prefix: str, index: Any) -> ObjectProxy:
    """Proxy for an element of an array of objects, e.g. ``x_cons[3]``.

    Array objects are stored flat in the object store under names such as
    ``"x_cons[3]"``; this helper keeps the naming scheme in one place.
    """
    return ObjectProxy(f"{prefix}[{index}]")
