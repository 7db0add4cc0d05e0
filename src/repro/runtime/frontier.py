"""On-disk frontier store: the durable work queue behind ``--resume``.

:func:`repro.runtime.parallel.explore_parallel` splits a schedule tree
at a frontier of picklable ``(prefix, sleep-set)`` shards.  This module
persists that frontier so an exploration killed at *any* point -- power
loss included -- can continue instead of restarting: the store is a
single JSON-lines file holding

* a **header** line fixing the run (config fingerprint, the expansion
  phase's statistics, the full shard list, and any
  completions folded in by compaction), written atomically *and
  durably* via :func:`repro.analysis.metrics.atomic_write_text`;
* an append-only **journal** of shard grants and completions, each
  line fsynced before the coordinator acts on it, so the journal never
  claims less than what reached the disk.

Soundness rests on two facts.  Shards are deterministic -- re-running
one yields bit-for-bit the same ``ExplorationStats`` -- so a completion
lost to a torn tail merely costs a re-execution, never a wrong answer.
And :meth:`ExplorationStats.merge` is commutative and associative, so
folding journaled completions (from a previous life of the run) with
freshly computed ones, in any order, equals the uninterrupted merge.

A resumed store validates its header fingerprint against the resuming
run's configuration, mirroring the seed validation of ``sweep
--resume``: continuing an exploration under different parameters would
silently merge statistics from two different state spaces.

See ``docs/resumable_exploration.md`` for the file format and the
recovery walk-through.
"""

from __future__ import annotations

import json
import os
import signal
from dataclasses import fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .explore import ExplorationStats, ShardViolation

# The durable-write primitives live in repro.analysis.metrics, which
# the runtime package must not import at module level (analysis imports
# the runtime; see the note in metrics.py).  Deferred to call time,
# when both packages are fully initialized.


def _durability():
    from ..analysis.metrics import (METRICS_SCHEMA_VERSION,
                                    atomic_write_text, fsync_directory)
    return METRICS_SCHEMA_VERSION, atomic_write_text, fsync_directory

#: Bump on any change to the header/journal line shapes.  v2 carries
#: the sleep-set, frontier and cache counts inside each stats record
#: (v1 kept them in separate entries); a v1 store is refused at load.
FRONTIER_SCHEMA_VERSION = 2

#: The integer fields of an encoded :class:`ExplorationStats`: every
#: field but the violation.  A new field changes the store and wire
#: formats, so it bumps ``FRONTIER_SCHEMA_VERSION`` and
#: ``wire.WIRE_VERSION``.
_STATS_COUNTS = tuple(f.name for f in fields(ExplorationStats)
                      if f.name != "violation")

#: Completions between compactions.  Compaction folds the journal into
#: a fresh header (atomic rewrite), bounding both file size and resume
#: replay cost; between compactions the journal grows by one small line
#: per grant/completion.
COMPACT_INTERVAL = 64

#: Test hook (see tests/properties/test_resume_differential.py): when
#: this environment variable is set to an integer k, the store SIGKILLs
#: its own process after the header write (k == 0) or after the k-th
#: journaled completion (k > 0) -- simulating a coordinator crash at a
#: chosen point with zero cooperation from the code under test.
KILL_AFTER_ENV = "REPRO_FRONTIER_KILL_AFTER"


class FrontierMismatch(RuntimeError):
    """A resume was attempted against a store from a different run.

    Carries the offending keys so the CLI can print exactly which
    parameters differ (the same contract as the ``sweep --resume`` seed
    check).
    """

    def __init__(self, mismatched: Dict[str, Tuple[Any, Any]]) -> None:
        self.mismatched = dict(mismatched)
        details = ", ".join(
            f"{key}: stored {stored!r} != requested {requested!r}"
            for key, (stored, requested) in sorted(mismatched.items()))
        super().__init__(f"frontier store fingerprint mismatch ({details})")


def stats_to_dict(stats: ExplorationStats) -> Dict[str, Any]:
    """JSON-encode an :class:`ExplorationStats` (violation included)."""
    data: Dict[str, Any] = {key: getattr(stats, key)
                            for key in _STATS_COUNTS}
    violation = stats.violation
    data["violation"] = None if violation is None else {
        "order_key": list(violation.order_key),
        "schedule": list(violation.schedule),
        "message": violation.message,
        "error_type": violation.error_type,
    }
    return data


def _count(value: Any, what: str) -> int:
    # ``bool`` is an ``int`` subclass; a count is never a truth value.
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} must be a non-negative int, "
                         f"got {value!r}")
    return value


def _pids(value: Any, what: str) -> Tuple[int, ...]:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return tuple(_count(pid, what) for pid in value)


def stats_from_dict(data: Any) -> ExplorationStats:
    """Inverse of :func:`stats_to_dict`; round-trips to equal stats.

    The decoder of every stats record that crosses a trust boundary (a
    frontier store line, a socket completion frame), so it checks as
    well as converts: a missing field, a count that is not a
    non-negative ``int`` (``bool`` included) or a mistyped violation
    raises :class:`ValueError`.  Sequence fields come back as tuples so
    a decoded :class:`ShardViolation` compares equal to the original
    dataclass (lists would break the bit-for-bit resume differential).
    """
    if not isinstance(data, dict) or "violation" not in data:
        raise ValueError(f"not a stats record: {data!r}")
    counts = {key: _count(data.get(key), key) for key in _STATS_COUNTS}
    raw = data["violation"]
    violation = None
    if raw is not None:
        if not isinstance(raw, dict):
            raise ValueError(f"violation must be an object, got {raw!r}")
        message, error_type = raw.get("message"), raw.get("error_type")
        if not isinstance(message, str) or not isinstance(error_type, str):
            raise ValueError(f"violation message and error_type must be "
                             f"strings, got {message!r}, {error_type!r}")
        violation = ShardViolation(
            order_key=_pids(raw.get("order_key"), "violation order_key"),
            schedule=_pids(raw.get("schedule"), "violation schedule"),
            message=message, error_type=error_type)
    return ExplorationStats(violation=violation, **counts)


def _encode_shards(shards: Sequence[Tuple[Sequence[int], Sequence[int]]]
                   ) -> List[List[List[int]]]:
    return [[list(prefix), list(sleep)] for prefix, sleep in shards]


def _decode_shards(raw: Sequence[Sequence[Sequence[int]]]
                   ) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    return [(tuple(prefix), tuple(sleep)) for prefix, sleep in raw]


class FrontierStore:
    """Durable grant/completion journal for one sharded exploration.

    Lifecycle::

        store = FrontierStore(path)
        if store.exists():
            store.load()                      # replay header + journal
            store.validate(fingerprint)       # same run?
        else:
            store.begin(fingerprint, stats, shards)
        for idx in store.pending_indices(len(store.shards)):
            ...                               # execute shard idx
            store.record_completion(idx, shard_stats)
        store.close()

    Every completion append is fsynced before :meth:`record_completion`
    returns, so the on-disk journal is always at or behind the
    coordinator's in-memory truth -- a crash can lose the *latest*
    completions (they re-execute on resume) but can never invent one.
    A torn final line (crash mid-append) is detected by the JSON parse
    and discarded on load.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.fingerprint: Optional[Dict[str, Any]] = None
        self.expansion_stats: Optional[ExplorationStats] = None
        self.shards: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
        #: shard index -> stats for every journaled completion,
        #: deduplicated (first completion wins, as in the pool's
        #: ``settle``; duplicates are byte-identical anyway).
        self.completed: Dict[int, ExplorationStats] = {}
        self._append_handle = None
        self._since_compaction = 0
        raw_kill = os.environ.get(KILL_AFTER_ENV)
        self._kill_after: Optional[int] = (int(raw_kill)
                                           if raw_kill is not None else None)
        self._completions_journaled = 0

    # -- lifecycle ------------------------------------------------------

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def begin(self, fingerprint: Dict[str, Any],
              expansion_stats: ExplorationStats,
              shards: Sequence[Tuple[Sequence[int], Sequence[int]]]) -> None:
        """Start a fresh store: durable header, empty journal."""
        self.fingerprint = dict(fingerprint)
        self.expansion_stats = expansion_stats
        self.shards = _decode_shards(_encode_shards(shards))
        self.completed = {}
        self._write_header()
        self._maybe_kill(after_header=True)
        self._open_journal()

    def load(self) -> None:
        """Replay the store from disk: header, then surviving journal.

        Journal ``grant`` lines are informational (a grant without a
        completion means the shard is pending again); only ``complete``
        lines change what resume re-executes.  Parsing stops at the
        first torn line -- everything after a mid-append crash point is
        unreadable by construction (appends are sequential).  A line
        that parses but names no shard or holds malformed statistics is
        no torn tail: it raises ``ValueError`` (the store is
        unreadable).
        """
        with open(self.path, "r") as handle:
            lines = handle.read().splitlines()
        if not lines:
            raise ValueError(f"frontier store {self.path} is empty")
        header = json.loads(lines[0])
        if header.get("kind") != "frontier_header":
            raise ValueError(
                f"frontier store {self.path} has no header "
                f"(found kind={header.get('kind')!r})")
        if header.get("frontier_schema") != FRONTIER_SCHEMA_VERSION:
            raise ValueError(
                f"frontier store {self.path} has schema "
                f"{header.get('frontier_schema')!r}, expected "
                f"{FRONTIER_SCHEMA_VERSION}")
        self.fingerprint = header["fingerprint"]
        self.expansion_stats = stats_from_dict(header["expansion"])
        self.shards = _decode_shards(header["shards"])
        self.completed = {
            int(idx): stats_from_dict(entry["stats"])
            for idx, entry in header.get("completed", {}).items()}
        for line in lines[1:]:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail: crash mid-append, discard the rest
            if record.get("kind") != "complete":
                continue
            shard = record.get("shard")
            if type(shard) is not int or not 0 <= shard < len(self.shards):
                raise ValueError(f"frontier store {self.path} journals a "
                                 f"completion of no shard: {line}")
            stats = stats_from_dict(record.get("stats"))
            self.completed.setdefault(shard, stats)
        self._since_compaction = sum(
            1 for line in lines[1:] if line.strip())

    def validate(self, fingerprint: Dict[str, Any]) -> None:
        """Reject a resume whose configuration differs from the header.

        Compares key-by-key (both directions) so the error names every
        differing parameter, not just the first.
        """
        stored = self.fingerprint or {}
        mismatched = {
            key: (stored.get(key), fingerprint.get(key))
            for key in set(stored) | set(fingerprint)
            if stored.get(key) != fingerprint.get(key)}
        if mismatched:
            raise FrontierMismatch(mismatched)

    def close(self) -> None:
        if self._append_handle is not None:
            self._append_handle.close()
            self._append_handle = None

    # -- work-queue interface -------------------------------------------

    def pending_indices(self, total: int) -> List[int]:
        """Shard indices not yet journaled complete, in shard order.

        A method (not an expression at the call site) so the planted
        ``resume-drop-completed-shard`` mutant can override it -- the
        bug it models is precisely "resume re-grants a shard the
        journal already settled".
        """
        return [idx for idx in range(total) if idx not in self.completed]

    def record_grant(self, shard: int, worker: int) -> None:
        """Journal a lease grant (observability; not replayed on load)."""
        self._append({"kind": "grant", "shard": shard, "worker": worker})

    def record_completion(self, shard: int,
                          stats: ExplorationStats) -> None:
        """Durably journal one shard's result; idempotent per shard."""
        if shard in self.completed:
            return  # late duplicate from a re-granted lease
        self.completed[shard] = stats
        self._append({"kind": "complete", "shard": shard,
                      "stats": stats_to_dict(stats)})
        self._completions_journaled += 1
        self._maybe_kill(after_header=False)
        if self._since_compaction >= COMPACT_INTERVAL:
            self.compact()

    def merged_completed_stats(self) -> ExplorationStats:
        """Fold all journaled completions, in shard order."""
        merged = ExplorationStats()
        for idx in sorted(self.completed):
            merged = merged.merge(self.completed[idx])
        return merged

    def compact(self) -> None:
        """Fold the journal into a fresh header (atomic rewrite).

        The rewritten file is equivalent to the old header + journal;
        the append handle is reopened on the new inode (``os.replace``
        leaves the old handle pointing at the unlinked file).
        """
        self.close()
        self._write_header()
        self._open_journal()

    # -- internals ------------------------------------------------------

    def _write_header(self) -> None:
        assert self.expansion_stats is not None
        schema_version, atomic_write_text, _ = _durability()
        header = {
            "kind": "frontier_header",
            "schema_version": schema_version,
            "frontier_schema": FRONTIER_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "expansion": stats_to_dict(self.expansion_stats),
            "shards": _encode_shards(self.shards),
            "completed": {
                str(idx): {"stats": stats_to_dict(stats)}
                for idx, stats in sorted(self.completed.items())},
        }
        atomic_write_text(self.path, json.dumps(header) + "\n", durable=True)
        self._since_compaction = 0

    def _open_journal(self) -> None:
        self._append_handle = open(self.path, "a")

    def _append(self, record: Dict[str, Any]) -> None:
        if self._append_handle is None:
            self._open_journal()
        self._append_handle.write(json.dumps(record) + "\n")
        self._append_handle.flush()
        os.fsync(self._append_handle.fileno())
        self._since_compaction += 1

    def _maybe_kill(self, after_header: bool) -> None:
        if self._kill_after is None:
            return
        if after_header:
            should_die = self._kill_after == 0
        else:
            should_die = 0 < self._kill_after <= self._completions_journaled
        if should_die:
            # Make sure the directory entry for a just-begun store is
            # itself durable before dying, then die exactly as a host
            # crash would: no cleanup, no atexit, no teardown.
            _, _, fsync_directory = _durability()
            fsync_directory(os.path.dirname(os.path.abspath(self.path)))
            os.kill(os.getpid(), signal.SIGKILL)
