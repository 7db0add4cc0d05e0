"""Shared-object protocol for the atomic-step runtime.

Every base object the scheduler can execute operations on derives from
:class:`SharedObject`.  A base object's methods run atomically (the scheduler
serializes them), so implementations are plain sequential Python -- the model
guarantees linearizability, mirroring how the paper assumes atomic snapshot
objects and atomic consensus-number-x objects as primitives.

Objects declare:

* ``consensus_number`` -- their Herlihy consensus number, used by the
  ASM(n, t, x) model validator (`repro.core.model`) to check that a store
  only contains objects the model permits.
* ``ports`` -- the statically-defined set of processes allowed to access the
  object, or ``None`` for unrestricted access (read/write memory).  The
  paper requires consensus-number-x objects to be accessible by at most x
  statically defined processes (Section 2.3).
* ``READONLY`` -- method names that cannot change state; only these may be
  used in busy-wait :class:`~repro.runtime.ops.SpinOp` steps.
* ``footprint(pid, method, args)`` -- the read/write
  :class:`~repro.runtime.ops.Footprint` of one operation, the independence
  relation driving the DPOR explorer (`repro.runtime.dpor`).  The base
  implementation is conservative (whole-object); objects with addressable
  sub-state (register arrays, snapshots, families) refine it per location.
"""

from __future__ import annotations

import sys
from abc import ABC
from typing import Any, Dict, FrozenSet, Optional, Tuple

from ..runtime.ops import Footprint


class _Bottom:
    """The default value ⊥ of the paper's shared-memory entries."""

    _instance: Optional["_Bottom"] = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):
        return (_Bottom, ())


#: Singleton "undefined" value, rendered as ⊥.
BOTTOM = _Bottom()


class _MissingState:
    """Sentinel for 'this location has no semantic default value'.

    Returned by the base :meth:`SharedObject.audit_default`; lazily
    populated objects (families) override the hook with their real
    default (⊥-equivalents) so that materializing an absent instance is
    not mistaken for a state change by the footprint auditor.
    """

    _instance: Optional["_MissingState"] = None

    def __new__(cls) -> "_MissingState":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<absent>"

    def __reduce__(self):
        return (_MissingState, ())


#: Singleton "location does not exist" value used by the footprint auditor.
MISSING_STATE = _MissingState()


class PortViolation(RuntimeError):
    """A process accessed an object outside its static port set."""


class ProtocolViolation(RuntimeError):
    """An object's sequential usage contract was broken (e.g. a one-shot
    operation invoked twice by the same process)."""


#: ``method`` -> its interned handler name ``"op_" + method``: formatting
#: the name on every call, and looking up a fresh string, cost
#: :meth:`SharedObject.apply` more than the dict lookup.
_HANDLER_NAMES: Dict[str, str] = {}


class SharedObject(ABC):
    """Base class for atomic shared objects."""

    #: Herlihy consensus number of this object type; subclasses override.
    consensus_number: float = 1
    #: Read-only methods, usable in spin steps.
    READONLY: FrozenSet[str] = frozenset()

    def __init__(self, name: str,
                 ports: Optional[FrozenSet[int]] = None) -> None:
        self.name = name
        self.ports = frozenset(ports) if ports is not None else None

    # ------------------------------------------------------------------
    def apply(self, pid: int, method: str, args: Tuple[Any, ...]) -> Any:
        """Execute ``method(*args)`` atomically on behalf of ``pid``."""
        if self.ports is not None:
            self.check_port(pid, method)
        name = _HANDLER_NAMES.get(method)
        if name is None:
            name = _HANDLER_NAMES[method] = sys.intern(f"op_{method}")
        handler = getattr(self, name, None)
        if handler is None:
            raise ProtocolViolation(
                f"object {self.name!r} ({type(self).__name__}) has no "
                f"operation {method!r}")
        return handler(pid, *args)

    def check_port(self, pid: int, method: str) -> None:
        """Raise PortViolation if pid is outside the static port set."""
        if self.ports is not None and pid not in self.ports:
            raise PortViolation(
                f"p{pid} accessed {self.name!r}, whose static port set "
                f"is {sorted(self.ports)}")

    def is_readonly(self, method: str) -> bool:
        """May this method be used in busy-wait (spin) steps?"""
        return method in self.READONLY

    def footprint(self, pid: int, method: str,
                  args: Tuple[Any, ...]) -> Footprint:
        """Read/write footprint of ``method(*args)`` invoked by ``pid``.

        The default is maximally conservative: read-only methods read the
        whole object, everything else reads *and* writes it (a mutating
        method such as compare&swap typically also observes prior state).
        Subclasses refine this to per-location footprints; refinements
        must only ever *shrink* the footprint of what the operation truly
        touches, never drop an accessed location.
        """
        if self.is_readonly(method):
            return Footprint.read(self.name)
        return Footprint.readwrite(self.name)

    # -- footprint-audit hooks -----------------------------------------
    #: Attributes that are observability instrumentation (step counters,
    #: static configuration), not shared protocol state.  The default
    #: :meth:`audit_state` omits them so that e.g. a snapshot bumping its
    #: snapshot_count is not reported as a write by a read-only method.
    AUDIT_EXCLUDE: FrozenSet[str] = frozenset({"name", "ports"})

    def audit_state(self) -> dict:
        """Map of intra-object location key -> current state fragment.

        The footprint auditor (`repro.lint.audit`) diffs this map around
        every executed operation and checks the changed keys against the
        operation's *declared* :meth:`footprint`.  Keys must use the same
        addressing scheme as the footprints the object declares (cell
        indices, family ``(key, index)`` tuples, ... or :data:`WHOLE`);
        values must be deepcopy-able and comparable with ``==``.  The
        default exposes the whole instance dictionary (minus
        :data:`AUDIT_EXCLUDE`) under the :data:`WHOLE` key, matching the
        conservative default footprint; objects with refined per-location
        footprints override this with the matching per-location view.
        """
        from ..runtime.ops import WHOLE
        return {WHOLE: {k: v for k, v in vars(self).items()
                        if k not in self.AUDIT_EXCLUDE}}

    def audit_set(self, key: Any, value: Any) -> bool:
        """Overwrite the state at location ``key`` with ``value``.

        Used by the auditor's read-soundness pass to poison locations an
        operation did *not* declare as read before replaying it on a
        copy.  Returns False when the object cannot address ``key``
        (the auditor then skips perturbing that location).
        """
        return False

    def audit_default(self, key: Any) -> Any:
        """Semantic value of a location absent from :meth:`audit_state`.

        Lazily-populated objects return their ⊥-equivalent here so the
        auditor treats 'instance not yet materialized' and 'instance
        holding only defaults' as the same state.
        """
        return MISSING_STATE

    # -- state-fingerprint hook ----------------------------------------
    #: Footprints must be pure functions of ``(pid, method, args)`` for
    #: a fixed object configuration; the DPOR engine memoizes them per
    #: exploration on that assumption.  An object whose footprint
    #: depends on mutable state must set this to False to opt out.
    FOOTPRINT_PURE: bool = True

    def fingerprint_state(self) -> dict:
        """Location -> value map hashed into the DPOR state fingerprint.

        Defaults to :meth:`audit_state` -- the audited view *is* the
        semantically observable state, so the state cache
        (:mod:`repro.runtime.fingerprint`) reuses it.  Override only
        when an object carries run-relevant state the audit view elides;
        entries equal to :meth:`audit_default` are normalised away, so
        lazily materialising a default never changes the fingerprint.
        """
        return self.audit_state()

    def __repr__(self) -> str:
        ports = "all" if self.ports is None else sorted(self.ports)
        return (f"{type(self).__name__}({self.name!r}, ports={ports}, "
                f"cn={self.consensus_number})")
