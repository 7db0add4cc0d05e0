"""Shard leases: time-bounded grants with heartbeat renewal.

The lease pool (:class:`repro.runtime.parallel.LeasePool`) hands each
frontier shard to exactly one worker at a time.  A worker that dies is
observed immediately (EOF on its private result pipe), but a worker
that merely *wedges* -- SIGSTOPped, swapped out forever, stuck in a
kernel call -- produces no EOF and would hold its shard hostage for
the rest of the run.  Leases close that gap: every grant carries an expiry instant,
workers renew it with periodic heartbeats while they execute, and the
coordinator re-grants any shard whose lease lapses.  Re-granting is
sound for the same reason SIGKILL recovery always was: shards are
deterministic, so executing one twice yields the same outcome, and the
coordinator keeps only the result of the shard's current holder.

This is the shape a *distributed* work queue needs (grant + heartbeat
+ expiry + re-grant), kept free of any process, pipe or socket
machinery: the fork pool and the TCP shard service
(:mod:`repro.runtime.netshard`) both reach it through ``LeasePool``,
and only the transport that carries heartbeats differs.

Clocks are ``time.monotonic`` throughout (never wall time, which can
step backwards under NTP).  All methods take an optional explicit
``now`` so tests can drive expiry without sleeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import monotonic
from typing import Dict, List, Optional

#: Seconds a grant stays valid without a heartbeat.  Module-level so
#: tests can shrink it; must comfortably exceed the heartbeat interval
#: (a healthy worker renews many times per lease).
DEFAULT_LEASE_TIMEOUT = 10.0

#: Seconds between worker heartbeats.  Kept well under the lease
#: timeout so a single delayed heartbeat never expires a healthy lease.
DEFAULT_HEARTBEAT_INTERVAL = 1.0


@dataclass
class Lease:
    """One live grant: which worker holds which shard until when."""

    shard: int
    worker: int
    granted_at: float
    expires_at: float
    renewals: int = 0


class LeaseTable:
    """The coordinator's ledger of outstanding shard leases.

    ``grant`` registers a shard with a worker, ``renew`` extends it on
    a heartbeat, ``release`` retires it (completion or worker death),
    and ``expired`` lists the shards whose leases lapsed -- the
    coordinator re-grants those.  One lease per shard at a time: a
    shard re-granted after expiry simply gets a fresh lease, and a
    stale heartbeat from the previous holder (identified by worker id)
    no longer renews it.
    """

    def __init__(self, timeout: float = DEFAULT_LEASE_TIMEOUT) -> None:
        self.timeout = timeout
        self._leases: Dict[int, Lease] = {}

    def __len__(self) -> int:
        return len(self._leases)

    def grant(self, shard: int, worker: int,
              now: Optional[float] = None) -> Lease:
        """Open (or replace) the lease on ``shard`` for ``worker``."""
        if now is None:
            now = monotonic()
        lease = Lease(shard=shard, worker=worker, granted_at=now,
                      expires_at=now + self.timeout)
        self._leases[shard] = lease
        return lease

    def renew(self, shard: int, worker: int,
              now: Optional[float] = None) -> bool:
        """Extend ``shard``'s lease on a heartbeat from ``worker``.

        Returns False (no-op) when the lease is gone or has been
        re-granted to a different worker -- the stale holder's
        heartbeats must not keep a revoked lease alive.
        """
        if now is None:
            now = monotonic()
        lease = self._leases.get(shard)
        if lease is None or lease.worker != worker:
            return False
        lease.expires_at = now + self.timeout
        lease.renewals += 1
        return True

    def release(self, shard: int) -> Optional[Lease]:
        """Retire ``shard``'s lease (completed, or holder known dead)."""
        return self._leases.pop(shard, None)

    def holder(self, shard: int) -> Optional[int]:
        """The worker currently holding ``shard``, if any."""
        lease = self._leases.get(shard)
        return lease.worker if lease is not None else None

    def held_by(self, worker: int) -> Optional[int]:
        """The shard ``worker`` holds, if any (a worker holds at most one)."""
        for lease in self._leases.values():
            if lease.worker == worker:
                return lease.shard
        return None

    def expired(self, now: Optional[float] = None) -> List[Lease]:
        """Leases past their expiry, in shard order (deterministic)."""
        if now is None:
            now = monotonic()
        return sorted((lease for lease in self._leases.values()
                       if now >= lease.expires_at),
                      key=lambda lease: lease.shard)
