"""Multi-machine shard service: the lease protocol over TCP sockets.

The lease protocol has one implementation,
:class:`~repro.runtime.parallel.LeasePool`, and two transports: the
fork pool and this module.  Here a coordinator-side :class:`ShardServer`
(a ``LeasePool``) and a remote-machine :class:`ShardWorker` speak
hello/request/heartbeat/complete over the checksummed frames of
:mod:`repro.runtime.wire`, with **robustness as the headline**, in the
spirit of the source paper's BG discipline (a slow or crashed
simulator must never block the simulation) and of the
Imbs-Raynal-Stainer reduction (treat the transport as an adversary,
not a trusted friend):

* every frame read/write carries a deadline (:mod:`wire <.wire>`);
* workers connect and retry RPCs under capped exponential backoff with
  *deterministic* jitter (:func:`backoff_delay` -- reproducible, yet
  de-synchronized across workers);
* a worker that loses its connection reconnects, **re-identifies**
  itself by name (the server keeps its worker id, so live leases
  survive the blip), and *abandons* a shard whose lease was re-granted
  meanwhile -- the stale-holder rejection of ``LeaseTable`` reused
  verbatim;
* the server copies each RPC's ``seq`` into its reply and a worker
  discards any other reply, so a duplicated frame cannot pose as the
  answer to a later request;
* the coordinator degrades by the core's rules: a lapsed lease is
  re-granted up to ``_REGRANT_MAX`` times, and when every remote
  worker has vanished or is presumed lost, pending shards run
  in-process, so remote-machine loss costs throughput, never coverage;
* completions are accepted only from the shard's *current* lease
  holder -- a replayed or stale completion frame (a re-ordering
  network can deliver one from a previous incarnation of the run) is
  rejected, a discipline pinned by the ``netshard-accept-stale-result``
  planted mutant;
* :class:`ChaosProxy` injects transport faults (drop, delay,
  duplicate, truncate, reorder, mid-stream disconnect) between real
  sockets, so the ``network`` differential tier tests the transport
  the same way ``MessageFaultPlan`` tests the algorithms.

The server plugs into :func:`repro.runtime.parallel.explore_parallel`
as a drop-in ``pool``: frontier expansion, durable checkpointing
(``serve --checkpoint``), deterministic merging and ddmin shrinking
are all the *same code* the fork pool uses, so serial, fork-pool and
socket-backed explorations are bit-for-bit identical by construction
-- and the tier asserts it anyway.  CLI surface: ``python -m repro
serve`` / ``python -m repro worker`` (see
``docs/distributed_exploration.md``).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import selectors
import socket
import threading
from time import monotonic
from time import sleep as _real_sleep
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import wire
from .explore import ExplorationInterrupted
from .frontier import stats_from_dict, stats_to_dict
from .lease import DEFAULT_HEARTBEAT_INTERVAL, DEFAULT_LEASE_TIMEOUT
from .parallel import (_POLL_INTERVAL, _REGRANT_MAX, LeasePool,
                       execute_shard)

#: Seconds the coordinator waits for a first worker before it starts
#: executing shards in-process itself (solo mode).  Once any worker has
#: connected, solo mode instead kicks in the moment no connected worker
#: is left that is not presumed lost.
DEFAULT_SOLO_AFTER = 5.0

#: Client connect/RPC backoff ladder (seconds): base doubles per
#: attempt up to the cap, then deterministic jitter is applied.
CONNECT_BACKOFF_BASE = 0.05
CONNECT_BACKOFF_CAP = 2.0

#: Reconnect-and-retry attempts a worker gives one RPC before deciding
#: the server is gone.  Module-level so tests can shrink it.
RPC_ATTEMPTS = 6

#: Seconds the server holds a ``request`` it cannot grant yet before
#: answering ``idle``, unless the request states its own ``wait``.  A
#: held request is answered at once when a shard frees up or the run
#: ends; the worker re-requests as soon as it gets ``idle``, so idle
#: pacing is the server's.
_IDLE_WAIT = 0.2

#: Upper bound (seconds) on the server's linger after the last shard
#: settles: it keeps serving until every live connection has been sent
#: ``done``, so workers exit at once instead of walking their backoff.
_LINGER = 1.0

_WORKER_SEQ = itertools.count()


class WorkerUnavailable(RuntimeError):
    """A worker exhausted its connect attempts without ever connecting."""


class ServerGone(RuntimeError):
    """A worker's server stopped answering after it had been connected.

    A clean run ends with ``done`` instead, so this means abnormal loss:
    the coordinator was killed, or its ``done`` never arrived.
    """


def backoff_delay(key: str, attempt: int,
                  base: float = CONNECT_BACKOFF_BASE,
                  cap: float = CONNECT_BACKOFF_CAP) -> float:
    """Capped exponential backoff with deterministic jitter.

    ``base * 2**attempt`` capped at ``cap``, scaled into ``[0.5, 1.0)``
    of itself by a jitter derived from ``sha256(key, attempt)`` -- no
    wall clock, no global RNG.  Distinct workers (distinct ``key``)
    therefore spread their retries instead of stampeding in lockstep,
    while any given worker's schedule is exactly reproducible.
    """
    # Clamp the exponent: past ~2**64 the doubling is academically above
    # any cap and literally above float range.
    raw = min(base * (2.0 ** min(attempt, 64)), cap)
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
    unit = int.from_bytes(digest[:8], "big") / 2 ** 64
    return raw * (0.5 + 0.5 * unit)


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------

class _Session:
    """Server-side identity of one logical worker (survives reconnects).

    Keyed by the worker's self-chosen name: a worker that loses its TCP
    connection and dials back in re-identifies with the same name and
    gets the same ``worker_id`` -- which is what lets its live leases
    survive the blip (``LeaseTable`` knows holders by id, not socket).
    """

    __slots__ = ("name", "worker_id", "conn", "frames_in", "frames_out",
                 "reconnects", "shards", "asked")

    def __init__(self, name: str, worker_id: int) -> None:
        self.name = name
        self.worker_id = worker_id
        self.conn: Optional[socket.socket] = None
        self.frames_in = 0
        self.frames_out = 0
        self.reconnects = 0
        self.shards = 0
        #: Whether the worker ever sent a ``request``.
        self.asked = False


class _ConnState:
    """Per-TCP-connection receive buffer, bound session, held request."""

    __slots__ = ("conn", "buffer", "session", "last_progress", "held",
                 "held_until", "done_sent")

    def __init__(self, conn: socket.socket) -> None:
        self.conn = conn
        self.buffer = bytearray()
        self.session: Optional[_Session] = None
        self.last_progress = monotonic()
        #: A ``request`` the core answered ``idle``, not yet replied to.
        self.held: Optional[Dict[str, Any]] = None
        self.held_until = 0.0
        self.done_sent = False


def _paired(reply: Dict[str, Any], request: Dict[str, Any]
            ) -> Dict[str, Any]:
    """``reply`` tagged with ``request``'s ``seq`` when it carries one."""
    if "seq" not in request:
        return reply
    return dict(reply, seq=request["seq"])


class ShardServer(LeasePool):
    """Coordinator-side TCP shard service; a drop-in ``pool``.

    Construct it with transport/lease knobs, then pass the instance as
    ``explore_parallel(..., pool=server)``: calling the server with the
    standard pool signature binds a listening socket, serves frontier
    shards to any :class:`ShardWorker` that connects, and returns one
    outcome per payload exactly as :func:`~repro.runtime.parallel.
    run_pool` would, from the same :class:`~repro.runtime.parallel.
    LeasePool` code.  This class adds the wire vocabulary
    (:meth:`handle_message`, transport-free, driven directly by the
    unit tests and the ``netshard-accept-stale-result`` mutant),
    sessions keyed by worker name, and the socket loop.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 config: Optional[Dict[str, Any]] = None,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 regrant_max: int = _REGRANT_MAX,
                 solo_after: float = DEFAULT_SOLO_AFTER,
                 announce: Optional[Callable[[str, int], None]] = None
                 ) -> None:
        super().__init__(lease_timeout=lease_timeout,
                         regrant_max=regrant_max, solo_after=solo_after)
        self.host = host
        self.port = port
        #: Run configuration shipped to workers in the ``welcome`` frame
        #: (scenario name/sizing and engine knobs; see ``cmd_serve``).
        self.config = dict(config or {})
        self._announce = announce
        #: Transport observability (metrics v4) around the core's.
        self.tallies = {
            "frames_in": 0, "frames_out": 0, "connections": 0,
            "reconnects": 0, "frame_errors": 0, **self.tallies,
            "workers": [],
        }
        self._sessions_by_name: Dict[str, _Session] = {}
        self._sessions_by_id: Dict[int, _Session] = {}
        self._next_worker_id = 0

    def _now(self) -> float:
        return monotonic()  # the socket loop's clock, for the core too

    # -- wire vocabulary (transport-free) --------------------------------

    def handle_message(self, body: Dict[str, Any],
                       now: Optional[float] = None) -> Dict[str, Any]:
        """Apply one protocol message; returns the reply body.

        Pure protocol logic -- no sockets -- so unit tests and the
        planted mutant drive it directly with explicit ``now`` values.
        Unknown or malformed messages get an ``error`` reply rather
        than an exception: a hostile frame must not take the server
        down.
        """
        if now is None:
            now = self._now()
        kind = body.get("type")
        if kind == "hello":
            return self._handle_hello(body)
        session = self._sessions_by_id.get(body.get("worker_id"))
        if session is None:
            return {"type": "error",
                    "reason": "unknown worker_id (hello first)"}
        if kind == "request":
            session.asked = True
            shard = self.request(session.worker_id, now)
            if shard is not None:
                prefix, sleep = self._payloads[shard]
                return {"type": "grant", "shard": shard,
                        "prefix": list(prefix), "sleep": sorted(sleep)}
            return {"type": "done"} if self.done else {"type": "idle"}
        if kind == "heartbeat":
            shard = body.get("shard")
            renewed = (isinstance(shard, int)
                       and self.heartbeat(session.worker_id, shard, now))
            return {"type": "ok", "renewed": bool(renewed)}
        if kind == "complete":
            return self._handle_complete(session, body)
        return {"type": "error", "reason": f"unknown frame type {kind!r}"}

    def _handle_hello(self, body: Dict[str, Any]) -> Dict[str, Any]:
        name = body.get("worker")
        if not isinstance(name, str) or not name:
            return {"type": "error", "reason": "hello without a worker name"}
        session = self._sessions_by_name.get(name)
        if session is None:
            session = _Session(name, self._next_worker_id)
            self._next_worker_id += 1
            self._sessions_by_name[name] = session
            self._sessions_by_id[session.worker_id] = session
            self.tallies["connections"] += 1
        else:
            session.reconnects += 1
            self.tallies["reconnects"] += 1
        return {"type": "welcome", "worker_id": session.worker_id,
                "config": self.config}

    def _handle_complete(self, session: _Session,
                         body: Dict[str, Any]) -> Dict[str, Any]:
        shard = body.get("shard")
        if not isinstance(shard, int) or not 0 <= shard < \
                len(self._payloads):
            return {"type": "error", "reason": f"bad shard index {shard!r}"}
        if body.get("error") is not None:
            self.complete(session.worker_id, shard, (None, body["error"]))
            return {"type": "ok", "accepted": False}
        try:
            stats = stats_from_dict(body.get("stats"))
        except ValueError as exc:
            return {"type": "error",
                    "reason": f"undecodable completion stats: {exc}"}
        reason = body.get("interrupted")
        if reason not in (None, "max_runs", "timeout"):
            return {"type": "error",
                    "reason": f"bad interrupt reason {reason!r}"}
        accepted = self.complete(session.worker_id, shard,
                                 ((stats, reason), None))
        if accepted:
            session.shards += 1
        return {"type": "ok", "accepted": accepted}

    # -- socket loop ----------------------------------------------------

    def __call__(self, payloads: Sequence[Any],
                 runner: Callable[[Any], Any],
                 jobs: int = 1,
                 fault_plan: Optional[Dict[int, str]] = None,
                 task_log: Optional[List[Dict[str, Any]]] = None,
                 deadline: Optional[float] = None,
                 on_grant: Optional[Callable[[int, int], None]] = None,
                 on_settle: Optional[Callable[[int, Any], None]] = None
                 ) -> List[Tuple[Any, Optional[str]]]:
        """Serve the payloads over TCP until every one settles.

        The :func:`~repro.runtime.parallel.run_pool` contract: one
        ``(value, error)`` outcome per payload, in payload order.
        ``jobs`` and ``fault_plan`` are accepted for signature
        compatibility and ignored (worker count is whoever connects;
        fault injection is :class:`ChaosProxy`'s job).
        """
        self.begin(payloads, runner, on_grant=on_grant,
                   on_settle=on_settle, task_log=task_log,
                   deadline=deadline)
        if not self._payloads:
            return []
        selector = selectors.DefaultSelector()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        conns: Dict[int, _ConnState] = {}
        try:
            listener.bind((self.host, self.port))
            listener.listen(64)
            listener.setblocking(False)
            bound_host, bound_port = listener.getsockname()[:2]
            self.port = bound_port
            selector.register(listener, selectors.EVENT_READ, None)
            if self._announce is not None:
                self._announce(bound_host, bound_port)
            ran_inprocess = False
            while not self.done:
                if deadline is not None and monotonic() >= deadline:
                    raise ExplorationInterrupted(
                        "timeout", "wall-clock budget exhausted while "
                        "serving shards")
                # After an in-process shard, poll with no delay: a solo
                # coordinator drains its queue at full speed instead of
                # sleeping _POLL_INTERVAL between shards, while a
                # connecting worker is still noticed every iteration.
                wait = 0.0 if ran_inprocess else _POLL_INTERVAL
                ran_inprocess = self._step(wait, listener, selector, conns)
            # Linger: every held request is answered ``done`` by the
            # step; keep serving until each live connection has been
            # told, so workers exit now rather than by backoff.
            until = monotonic() + _LINGER
            if deadline is not None:
                until = min(until, deadline)
            while monotonic() < until and not all(
                    state.done_sent or self._never_asks(state)
                    for state in conns.values()):
                self._step(_POLL_INTERVAL, listener, selector, conns)
        finally:
            for state in list(conns.values()):
                self._drop_conn(state, selector, conns)
            try:
                selector.unregister(listener)
            except (KeyError, ValueError):  # pragma: no cover
                pass
            listener.close()
            selector.close()
            self._collect_worker_tallies()
        return self.outcomes

    def _never_asks(self, state: _ConnState) -> bool:
        """Is ``state`` a connection the linger need not wait for: its
        session never asked for work and the pool presumes it lost
        (silent a lease period)?  A lapsed lease holder has asked; it
        may come back from its shard, so the linger waits for it."""
        session = state.session
        return (session is not None and not session.asked
                and session.worker_id in self._lost)

    def _step(self, wait: float, listener: socket.socket, selector,
              conns) -> bool:
        """One pass of the serving loop (main loop and linger alike).

        Services ready sockets, sweeps leases and stalled peers, runs a
        shard in-process if the liveness rule says so, then re-asks the
        core for every held request.  Returns True when a shard ran
        here.
        """
        for key, _ in selector.select(timeout=wait):
            if key.fileobj is listener:
                self._accept(listener, selector, conns)
            else:
                self._service(key.fileobj, selector, conns)
        self.tick()
        self._sweep_stalled(selector, conns)
        ran_inprocess = self.maybe_run_inprocess()
        for state in list(conns.values()):
            if state.held is not None:
                self._answer_held(state, selector, conns)
        return ran_inprocess

    def _answer_held(self, state: _ConnState, selector, conns,
                     force: bool = False) -> bool:
        """Re-ask the core for a held request and reply if it is time.

        ``grant`` and ``done`` go out at once; ``idle`` only once the
        hold has run out, or when ``force`` (another frame arrived
        behind it, and replies must keep their order).  Returns False
        when the connection dropped.
        """
        assert state.held is not None
        reply = self.handle_message(state.held)
        if reply.get("type") == "idle" and not force and \
                monotonic() < state.held_until:
            return True
        held, state.held = state.held, None
        if self._reply(state, _paired(reply, held)):
            return True
        self._drop_conn(state, selector, conns)
        return False

    def _accept(self, listener: socket.socket, selector, conns) -> None:
        try:
            conn, _addr = listener.accept()
        except OSError:  # pragma: no cover - raced shutdown
            return
        conn.setblocking(True)
        conn.settimeout(wire.DEFAULT_FRAME_TIMEOUT)
        state = _ConnState(conn)
        conns[conn.fileno()] = state
        selector.register(conn, selectors.EVENT_READ, state)

    def _service(self, conn: socket.socket, selector, conns) -> None:
        state = conns.get(conn.fileno())
        if state is None:  # pragma: no cover - raced close
            return
        try:
            data = conn.recv(65536)
        except (OSError, ValueError):
            self._drop_conn(state, selector, conns)
            return
        if not data:
            self._drop_conn(state, selector, conns)
            return
        state.buffer.extend(data)
        state.last_progress = monotonic()
        while True:
            try:
                decoded = wire.try_decode(bytes(state.buffer))
            except wire.WireError:
                # Corrupt, oversize or alien bytes: the stream can no
                # longer be trusted to frame-align.  Tell the peer
                # (best effort) and cut the connection; a live worker
                # reconnects and re-identifies.
                self.tallies["frame_errors"] += 1
                self._reply(state, {"type": "error",
                                    "reason": "malformed frame"})
                self._drop_conn(state, selector, conns)
                return
            if decoded is None:
                return
            body, consumed = decoded
            del state.buffer[:consumed]
            self.tallies["frames_in"] += 1
            if state.held is not None and not self._answer_held(
                    state, selector, conns, force=True):
                return
            reply = self.handle_message(body)
            if body.get("type") == "hello" and reply.get("type") == \
                    "welcome":
                session = self._sessions_by_id[reply["worker_id"]]
                if session.conn is not None and session.conn is not \
                        state.conn:
                    # The old connection is superseded (reconnect);
                    # drop our interest in it.
                    old = conns.get(session.conn.fileno())
                    if old is not None:
                        self._drop_conn(old, selector, conns)
                session.conn = state.conn
                state.session = session
                self.attach(session.worker_id)
            if state.session is not None:
                state.session.frames_in += 1
            if body.get("type") == "request" and reply.get("type") == \
                    "idle":
                # Hold it: the step answers as soon as a shard frees up
                # or the run ends, and with ``idle`` once the request's
                # own ``wait`` (default _IDLE_WAIT) has passed.
                wait = body.get("wait")
                if not isinstance(wait, (int, float)) or wait < 0:
                    wait = _IDLE_WAIT
                state.held = body
                state.held_until = monotonic() + wait
                continue
            if not self._reply(state, _paired(reply, body)):
                self._drop_conn(state, selector, conns)
                return

    def _reply(self, state: _ConnState, body: Dict[str, Any]) -> bool:
        try:
            wire.send_frame(state.conn, body,
                            deadline=monotonic() + wire.DEFAULT_FRAME_TIMEOUT)
        except (wire.WireError, OSError):
            return False
        self.tallies["frames_out"] += 1
        if state.session is not None:
            state.session.frames_out += 1
        if body.get("type") == "done":
            state.done_sent = True
        return True

    def _drop_conn(self, state: _ConnState, selector, conns) -> None:
        conns.pop(state.conn.fileno(), None)
        try:
            selector.unregister(state.conn)
        except (KeyError, ValueError):
            pass
        if state.session is not None and state.session.conn is \
                state.conn:
            # The session survives (leases intact until expiry); only
            # the transport endpoint is gone.
            state.session.conn = None
            self.detach(state.session.worker_id)
        try:
            state.conn.close()
        except OSError:  # pragma: no cover
            pass

    def _sweep_stalled(self, selector, conns) -> None:
        # A peer that sent a frame *prefix* and stopped would otherwise
        # hold its buffer open forever: per-frame read deadlines apply
        # to half-open connections too.
        now = monotonic()
        for state in list(conns.values()):
            if state.buffer and now - state.last_progress > \
                    wire.DEFAULT_FRAME_TIMEOUT:
                self.tallies["frame_errors"] += 1
                self._drop_conn(state, selector, conns)

    def _collect_worker_tallies(self) -> None:
        self.tallies["workers"] = [
            {"name": s.name, "worker_id": s.worker_id,
             "frames_in": s.frames_in, "frames_out": s.frames_out,
             "reconnects": s.reconnects, "shards": s.shards}
            for _, s in sorted(self._sessions_by_id.items())]


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------

class ShardWorker:
    """Remote-machine shard executor: dial a :class:`ShardServer`.

    Connects with deterministic-jitter backoff, identifies itself by a
    stable name, then loops request -> execute -> complete until the
    server says ``done`` (or vanishes after we were connected: the
    backoff ladder runs out and :class:`ServerGone` ends the loop).  An
    ``idle`` reply is re-requested at once -- the server holds a request
    it cannot grant yet for up to half our ``rpc_timeout``, so it paces
    idling.  While a shard executes, a heartbeat thread renews its
    lease; a heartbeat answered with ``renewed: false`` means the lease
    was re-granted elsewhere and the worker *abandons* the shard -- its
    result would be rejected as stale anyway.  Any transport failure
    mid-RPC reconnects (the server re-recognizes the name and keeps the
    worker id) and retries up to :data:`RPC_ATTEMPTS` times.

    Scenario code is rebuilt locally from the server's ``welcome``
    config via :class:`repro.scenarios.ScenarioRef` -- workers on
    other machines need the repo, never pickled closures.
    """

    def __init__(self, host: str, port: int, *,
                 name: Optional[str] = None,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 rpc_timeout: float = 10.0,
                 connect_attempts: int = 10,
                 rpc_attempts: int = RPC_ATTEMPTS,
                 sleep: Callable[[float], None] = _real_sleep) -> None:
        self.host = host
        self.port = port
        self.name = name or (f"{socket.gethostname()}-{os.getpid()}-"
                             f"{next(_WORKER_SEQ)}")
        self.heartbeat_interval = heartbeat_interval
        self.rpc_timeout = rpc_timeout
        self.connect_attempts = connect_attempts
        self.rpc_attempts = rpc_attempts
        self._sleep = sleep
        self._lock = threading.RLock()
        self._rpc_seq = itertools.count()
        self._sock: Optional[socket.socket] = None
        self._worker_id: Optional[int] = None
        self._config: Optional[Dict[str, Any]] = None
        self._resolved = None
        self.ever_connected = False
        self.shards_completed = 0
        #: Why :meth:`run` returned: ``"done"`` (clean end of run),
        #: ``"server gone"`` (backoff ladder exhausted) or an unexpected
        #: reply; None while running.
        self.stopped: Optional[str] = None
        #: Client-side transport tallies (mirrors the server's).
        self.tallies: Dict[str, int] = {
            "frames_out": 0, "frames_in": 0, "retries": 0,
            "reconnects": 0, "abandoned": 0,
        }

    # -- connection management ------------------------------------------

    def _close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None

    def _connect(self) -> None:
        """(Re)connect and re-identify, with capped jittered backoff."""
        self._close()
        last_error: Optional[Exception] = None
        for attempt in range(self.connect_attempts):
            if attempt:
                self._sleep(backoff_delay(self.name, attempt - 1))
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.rpc_timeout)
            except OSError as exc:
                last_error = exc
                continue
            try:
                reply = self._exchange(sock, {"type": "hello",
                                              "worker": self.name})
            except (wire.WireError, OSError) as exc:
                last_error = exc
                sock.close()
                continue
            if reply.get("type") != "welcome":
                last_error = ServerGone(
                    f"unexpected hello reply {reply!r}")
                sock.close()
                continue
            if self.ever_connected:
                self.tallies["reconnects"] += 1
            self.ever_connected = True
            self._sock = sock
            self._worker_id = reply["worker_id"]
            self._config = reply.get("config") or {}
            return
        if self.ever_connected:
            raise ServerGone(f"server unreachable after "
                             f"{self.connect_attempts} attempts: "
                             f"{last_error}")
        raise WorkerUnavailable(
            f"could not reach shard server at {self.host}:{self.port} "
            f"after {self.connect_attempts} attempts: {last_error}")

    def _exchange(self, sock: socket.socket,
                  body: Dict[str, Any]) -> Dict[str, Any]:
        """Send ``body`` under a fresh ``seq``; return the reply that
        carries it, discarding any other (a duplicated frame)."""
        seq = next(self._rpc_seq)
        deadline = monotonic() + self.rpc_timeout
        wire.send_frame(sock, dict(body, seq=seq), deadline=deadline)
        self.tallies["frames_out"] += 1
        while True:
            reply = wire.recv_frame(sock, deadline=deadline)
            self.tallies["frames_in"] += 1
            if reply.get("seq") == seq:
                return reply

    def _rpc(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response exchange, reconnect-and-retry on loss."""
        last_error: Optional[Exception] = None
        for attempt in range(self.rpc_attempts):
            with self._lock:
                try:
                    if self._sock is None:
                        self._connect()
                    assert self._sock is not None
                    reply = self._exchange(
                        self._sock, dict(body, worker_id=self._worker_id))
                except (wire.WireError, OSError) as exc:
                    last_error = exc
                    self._close()
                    self.tallies["retries"] += 1
                    continue
            if reply.get("type") == "error":
                # The server rejected the frame itself (desync or
                # malformed): reconnecting re-identifies and resets
                # the stream.
                last_error = wire.WireError(reply.get("reason"))
                with self._lock:
                    self._close()
                self.tallies["retries"] += 1
                continue
            return reply
        raise ServerGone(f"rpc {body.get('type')!r} failed after "
                         f"{self.rpc_attempts} attempts: {last_error}")

    # -- scenario plumbing ----------------------------------------------

    def _scenario(self):
        if self._resolved is None:
            from ..scenarios import ScenarioRef
            config = self._config or {}
            ref = ScenarioRef(config["scenario"],
                              n=config.get("n", 3), x=config.get("x", 2))
            self._resolved = ref.resolve()
        return self._resolved

    def _execute(self, grant: Dict[str, Any]) -> None:
        shard = grant["shard"]
        config = self._config or {}
        stop = threading.Event()
        abandoned = threading.Event()

        def beat() -> None:
            while not stop.wait(self.heartbeat_interval):
                try:
                    reply = self._rpc({"type": "heartbeat",
                                       "shard": shard})
                except (ServerGone, wire.WireError):
                    abandoned.set()
                    return
                if not reply.get("renewed"):
                    abandoned.set()
                    return

        pulse = threading.Thread(target=beat, daemon=True)
        pulse.start()
        error: Optional[str] = None
        value: Any = None
        try:
            sc = self._scenario()
            value = execute_shard(
                sc.build, sc.check, sc.crash_plan_factory,
                prefix=tuple(grant["prefix"]),
                sleep=frozenset(grant["sleep"]),
                max_steps=config.get("max_steps", 24),
                max_runs=config.get("max_runs", 200_000),
                reduction=config.get("reduction", "dpor"),
                state_cache=config.get("state_cache", False))
        except Exception as exc:  # noqa: BLE001 - reported to the server
            error = f"{type(exc).__name__}: {exc}"
        finally:
            stop.set()
            pulse.join()
        if abandoned.is_set():
            # The lease moved on while we executed; the server would
            # reject this completion as stale, so do not bother it.
            self.tallies["abandoned"] += 1
            return
        if error is not None:
            self._rpc({"type": "complete", "shard": shard,
                       "error": error})
            return
        stats, reason = value
        reply = self._rpc({"type": "complete", "shard": shard,
                           "stats": stats_to_dict(stats),
                           "interrupted": reason})
        if reply.get("accepted"):
            self.shards_completed += 1

    def run(self) -> int:
        """Serve until the coordinator finishes; returns shards done.

        Raises :class:`WorkerUnavailable` only when the server was
        *never* reachable; a server that disappears after we joined
        ends the run too.  :attr:`stopped` records which way it ended.
        """
        with self._lock:
            self._connect()
        try:
            while True:
                # The server may hold the request up to ``wait`` before
                # ``idle``: half our deadline leaves room for the reply.
                reply = self._rpc({"type": "request",
                                   "wait": self.rpc_timeout / 2})
                kind = reply.get("type")
                if kind == "grant":
                    self._execute(reply)
                elif kind != "idle":
                    # ``done``, or vocabulary of a future server: stop.
                    # ``idle`` re-requests at once; the server paces it.
                    self.stopped = "done" if kind == "done" else \
                        f"unexpected {kind!r} reply"
                    break
        except ServerGone:
            # Run over without a ``done`` (or coordinator died).
            self.stopped = "server gone"
        finally:
            self._close()
        return self.shards_completed


# ---------------------------------------------------------------------------
# Chaos proxy
# ---------------------------------------------------------------------------

class ChaosProxy:
    """A fault-injecting TCP relay for netshard traffic.

    Sits between workers and the server and mangles the *frame* stream
    (it splits raw bytes on wire headers without decoding payloads):
    per frame and per direction it may drop it, delay it, duplicate
    it, truncate it mid-frame (then cut the connection, as a crashing
    peer would), hold it back one frame (reorder), or disconnect both
    sides cold.  All decisions come from a seeded RNG, so a chaotic
    run is exactly reproducible -- this is ``MessageFaultPlan`` for
    the transport layer, and the ``network`` differential tier runs
    the full exploration through it and still demands bit-for-bit
    deterministic results.
    """

    def __init__(self, upstream_host: str, upstream_port: int, *,
                 listen_host: str = "127.0.0.1", listen_port: int = 0,
                 seed: int = 0, drop: float = 0.0,
                 duplicate: float = 0.0, delay: float = 0.0,
                 delay_seconds: float = 0.02, truncate: float = 0.0,
                 reorder: float = 0.0, disconnect: float = 0.0) -> None:
        self.upstream = (upstream_host, upstream_port)
        self.listen_host = listen_host
        self.listen_port = listen_port
        self.seed = seed
        self.rates = {"drop": drop, "duplicate": duplicate,
                      "delay": delay, "truncate": truncate,
                      "reorder": reorder, "disconnect": disconnect}
        self.delay_seconds = delay_seconds
        #: Count of injected faults by kind (tests assert chaos fired).
        self.injected: Dict[str, int] = {kind: 0 for kind in self.rates}
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._conn_seq = itertools.count()

    def start(self) -> Tuple[str, int]:
        """Bind, start relaying in background threads; returns address."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.listen_host, self.listen_port))
        listener.listen(16)
        listener.settimeout(0.1)
        self._listener = listener
        self.listen_port = listener.getsockname()[1]
        acceptor = threading.Thread(target=self._accept_loop, daemon=True)
        acceptor.start()
        self._threads.append(acceptor)
        return self.listen_host, self.listen_port

    def stop(self) -> None:
        """Stop accepting and tear the relay threads down."""
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                client, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                upstream = socket.create_connection(self.upstream,
                                                    timeout=5.0)
            except OSError:
                client.close()
                continue
            conn_id = next(self._conn_seq)
            for label, src, dst in (("c2s", client, upstream),
                                    ("s2c", upstream, client)):
                pump = threading.Thread(
                    target=self._pump,
                    args=(src, dst, f"{conn_id}:{label}"),
                    daemon=True)
                pump.start()
                self._threads.append(pump)

    def _pump(self, src: socket.socket, dst: socket.socket,
              stream_key: str) -> None:
        import random
        rng = random.Random(f"{self.seed}:{stream_key}")
        buffer = b""
        held: List[bytes] = []
        src.settimeout(0.2)
        try:
            while not self._stopping.is_set():
                try:
                    data = src.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not data:
                    break
                buffer += data
                frames, buffer = wire.split_frames(buffer)
                for frame in frames:
                    fault = self._roll(rng)
                    if fault == "drop":
                        continue
                    if fault == "duplicate":
                        dst.sendall(frame)
                        dst.sendall(frame)
                    elif fault == "delay":
                        _real_sleep(self.delay_seconds)
                        dst.sendall(frame)
                    elif fault == "truncate":
                        dst.sendall(frame[:max(1, len(frame) // 2)])
                        raise _Cut()
                    elif fault == "disconnect":
                        raise _Cut()
                    elif fault == "reorder":
                        held.append(frame)
                        continue
                    else:
                        dst.sendall(frame)
                    while held:
                        dst.sendall(held.pop(0))
        except (_Cut, OSError):
            pass
        finally:
            for sock in (src, dst):
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass

    def _roll(self, rng) -> Optional[str]:
        point = rng.random()
        cumulative = 0.0
        for kind, rate in self.rates.items():
            cumulative += rate
            if point < cumulative:
                self.injected[kind] += 1
                return kind
        return None


class _Cut(Exception):
    """Internal: a chaos fault severed this relay direction."""
