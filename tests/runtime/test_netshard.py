"""Protocol-core unit tests for the multi-machine shard service.

These drive :class:`~repro.runtime.netshard.ShardServer`'s transport-free
protocol core (``begin`` / ``handle_message`` / ``tick`` /
``run_one_inprocess``) directly with explicit ``now`` values -- no
sockets, no sleeping -- plus the deterministic backoff schedule and the
ISSUE 10 satellite pinning every timing path to ``time.monotonic``.
The live-socket behaviour is covered by the ``network`` differential
tier in ``tests/properties/test_network_differential.py``.
"""

import pytest

from repro.runtime import lease as lease_mod
from repro.runtime.explore import ExplorationStats
from repro.runtime.frontier import stats_from_dict, stats_to_dict
from repro.runtime.lease import LeaseTable
from repro.runtime.netshard import (CONNECT_BACKOFF_CAP, ShardServer,
                                    ShardWorker, backoff_delay)

#: Tiny synthetic shard table: (prefix, sleep-set) pairs as the frontier
#: produces them.  The runner is a stand-in for execute_shard.
PAYLOADS = [((0,), frozenset()), ((1,), frozenset({0})),
            ((2,), frozenset({0, 1}))]


def _runner(payload):
    prefix, _sleep = payload
    return (ExplorationStats(complete_runs=1 + prefix[0]), None)


def _server(**kwargs):
    server = ShardServer(config={"scenario": "adopt-commit"}, **kwargs)
    server.begin(PAYLOADS, _runner)
    return server


def _stats_body(shard, worker_id, runs=5):
    return {"type": "complete", "worker_id": worker_id, "shard": shard,
            "stats": stats_to_dict(ExplorationStats(complete_runs=runs,
                                                    sleep_checks=3))}


def _granted(server):
    """A fresh worker holding a lease: (worker id, shard index)."""
    wid = server.handle_message({"type": "hello", "worker": "w"},
                                now=0.0)["worker_id"]
    grant = server.handle_message({"type": "request", "worker_id": wid},
                                  now=0.0)
    return wid, grant["shard"]


class TestHello:
    def test_hello_assigns_worker_id_and_ships_config(self):
        server = _server()
        reply = server.handle_message({"type": "hello", "worker": "w0"},
                                      now=0.0)
        assert reply["type"] == "welcome"
        assert reply["config"] == {"scenario": "adopt-commit"}
        assert isinstance(reply["worker_id"], int)

    def test_rehello_keeps_worker_id(self):
        """Reconnecting under the same name must preserve identity --
        that is what lets live leases survive a connection blip."""
        server = _server()
        first = server.handle_message({"type": "hello", "worker": "w0"},
                                      now=0.0)
        again = server.handle_message({"type": "hello", "worker": "w0"},
                                      now=1.0)
        assert again["worker_id"] == first["worker_id"]
        assert server.tallies["reconnects"] == 1
        assert server.tallies["connections"] == 1

    def test_distinct_names_get_distinct_ids(self):
        server = _server()
        a = server.handle_message({"type": "hello", "worker": "a"}, now=0.0)
        b = server.handle_message({"type": "hello", "worker": "b"}, now=0.0)
        assert a["worker_id"] != b["worker_id"]

    def test_hello_without_name_is_an_error(self):
        server = _server()
        assert server.handle_message({"type": "hello"},
                                     now=0.0)["type"] == "error"

    def test_unknown_worker_id_is_an_error(self):
        server = _server()
        reply = server.handle_message({"type": "request", "worker_id": 99},
                                      now=0.0)
        assert reply["type"] == "error"

    def test_unknown_frame_type_is_an_error_not_a_crash(self):
        server = _server()
        wid = server.handle_message({"type": "hello", "worker": "w"},
                                    now=0.0)["worker_id"]
        reply = server.handle_message({"type": "steal", "worker_id": wid},
                                      now=0.0)
        assert reply["type"] == "error"


class TestGrantAndComplete:
    def test_grant_carries_prefix_and_sorted_sleep(self):
        server = _server()
        wid = server.handle_message({"type": "hello", "worker": "w"},
                                    now=0.0)["worker_id"]
        grant = server.handle_message({"type": "request", "worker_id": wid},
                                      now=0.0)
        assert grant["type"] == "grant"
        assert grant["shard"] == 0
        assert grant["prefix"] == [0]
        assert grant["sleep"] == []

    def test_request_is_idempotent_while_lease_lives(self):
        """A worker whose grant reply was lost re-requests and gets the
        same shard back instead of leaking a second lease."""
        server = _server()
        wid = server.handle_message({"type": "hello", "worker": "w"},
                                    now=0.0)["worker_id"]
        g1 = server.handle_message({"type": "request", "worker_id": wid},
                                   now=0.0)
        g2 = server.handle_message({"type": "request", "worker_id": wid},
                                   now=1.0)
        assert g2 == g1

    def test_completion_from_holder_is_accepted(self):
        server = _server()
        wid = server.handle_message({"type": "hello", "worker": "w"},
                                    now=0.0)["worker_id"]
        grant = server.handle_message({"type": "request", "worker_id": wid},
                                      now=0.0)
        reply = server.handle_message(_stats_body(grant["shard"], wid),
                                      now=1.0)
        assert reply == {"type": "ok", "accepted": True}
        assert server.outcomes[grant["shard"]] is not None
        assert server.tallies["remote_shards"] == 1

    def test_duplicate_completion_is_rejected(self):
        server = _server()
        wid = server.handle_message({"type": "hello", "worker": "w"},
                                    now=0.0)["worker_id"]
        grant = server.handle_message({"type": "request", "worker_id": wid},
                                      now=0.0)
        server.handle_message(_stats_body(grant["shard"], wid), now=1.0)
        dup = server.handle_message(_stats_body(grant["shard"], wid, 999),
                                    now=2.0)
        assert dup == {"type": "ok", "accepted": False}
        # First result stands: 5 complete runs, not the replayed 999.
        (stats, _reason), _err = server.outcomes[grant["shard"]]
        assert stats.complete_runs == 5

    def test_stale_completion_after_expiry_is_rejected(self):
        """The lease lapsed and the shard moved on: the former holder's
        result -- possibly replayed from a previous incarnation of the
        run -- must not be applied (the planted-mutant discipline)."""
        server = _server(lease_timeout=10.0)
        wid = server.handle_message({"type": "hello", "worker": "w"},
                                    now=0.0)["worker_id"]
        grant = server.handle_message({"type": "request", "worker_id": wid},
                                      now=0.0)
        server.tick(now=100.0)  # expire the lease
        reply = server.handle_message(_stats_body(grant["shard"], wid, 999),
                                      now=100.0)
        assert reply == {"type": "ok", "accepted": False}
        assert server.outcomes[grant["shard"]] is None
        assert server.tallies["stale_rejections"] == 1

    def test_heartbeat_renews_only_for_the_holder(self):
        server = _server(lease_timeout=10.0)
        wid = server.handle_message({"type": "hello", "worker": "w"},
                                    now=0.0)["worker_id"]
        other = server.handle_message({"type": "hello", "worker": "o"},
                                      now=0.0)["worker_id"]
        grant = server.handle_message({"type": "request", "worker_id": wid},
                                      now=0.0)
        ok = server.handle_message(
            {"type": "heartbeat", "worker_id": wid,
             "shard": grant["shard"]}, now=5.0)
        stale = server.handle_message(
            {"type": "heartbeat", "worker_id": other,
             "shard": grant["shard"]}, now=5.0)
        assert ok == {"type": "ok", "renewed": True}
        assert stale == {"type": "ok", "renewed": False}

    def test_worker_reported_error_routes_to_inprocess_fallback(self):
        server = _server()
        wid = server.handle_message({"type": "hello", "worker": "w"},
                                    now=0.0)["worker_id"]
        grant = server.handle_message({"type": "request", "worker_id": wid},
                                      now=0.0)
        reply = server.handle_message(
            {"type": "complete", "worker_id": wid, "shard": grant["shard"],
             "error": "MemoryError: worker box too small"}, now=1.0)
        assert reply == {"type": "ok", "accepted": False}
        # The coordinator re-runs it itself and the real outcome lands.
        assert server.run_one_inprocess()
        assert server.outcomes[grant["shard"]] is not None
        assert server.tallies["inprocess_shards"] == 1

    def test_completion_settles_stats_and_no_interrupt(self):
        server = _server()
        wid, shard = _granted(server)
        server.handle_message(_stats_body(shard, wid), now=1.0)
        (stats, reason), error = server.outcomes[shard]
        assert (stats.complete_runs, stats.sleep_checks) == (5, 3)
        assert reason is None and error is None

    def test_budget_stop_settles_with_its_reason(self):
        """A worker whose shard hit ``max_runs`` says so; the shard
        settles exactly as a fork-pool worker's would, partial
        statistics plus reason, so it is never journaled complete."""
        server = _server()
        wid, shard = _granted(server)
        body = dict(_stats_body(shard, wid), interrupted="max_runs")
        assert server.handle_message(body, now=1.0) == \
            {"type": "ok", "accepted": True}
        assert server.outcomes[shard] == \
            ((stats_from_dict(body["stats"]), "max_runs"), None)

    @pytest.mark.parametrize("reason", ["budget", 3, ""])
    def test_unknown_interrupt_reason_is_an_error(self, reason):
        server = _server()
        wid, shard = _granted(server)
        body = dict(_stats_body(shard, wid), interrupted=reason)
        assert server.handle_message(body, now=1.0)["type"] == "error"
        assert server.outcomes[shard] is None

    @pytest.mark.parametrize("value", ["3", True, -1, 2.0, None])
    def test_mistyped_count_is_an_error_and_settles_nothing(self, value):
        """A completion whose counts are not non-negative ints is
        rejected where it is decoded; the coordinator never merges it,
        and the holder's lease stays live for an honest retry."""
        server = _server()
        wid, shard = _granted(server)
        body = _stats_body(shard, wid)
        body["stats"]["complete_runs"] = value
        reply = server.handle_message(body, now=1.0)
        assert reply["type"] == "error"
        assert "complete_runs" in reply["reason"]
        assert server.outcomes[shard] is None
        assert server.handle_message(_stats_body(shard, wid),
                                     now=2.0)["accepted"]

    def test_completion_without_stats_is_an_error(self):
        server = _server()
        wid, shard = _granted(server)
        body = _stats_body(shard, wid)
        del body["stats"]
        assert server.handle_message(body, now=1.0)["type"] == "error"
        assert server.outcomes[shard] is None

    def test_bad_shard_index_is_an_error(self):
        server = _server()
        wid = server.handle_message({"type": "hello", "worker": "w"},
                                    now=0.0)["worker_id"]
        assert server.handle_message(_stats_body(17, wid),
                                     now=0.0)["type"] == "error"


class TestRegrantLadder:
    def test_expired_lease_is_regranted(self):
        server = _server(lease_timeout=10.0)
        wid = server.handle_message({"type": "hello", "worker": "w"},
                                    now=0.0)["worker_id"]
        grant = server.handle_message({"type": "request", "worker_id": wid},
                                      now=0.0)
        server.tick(now=100.0)
        regrant = server.handle_message(
            {"type": "request", "worker_id": wid}, now=100.0)
        # The lapsed shard comes back at the head of the queue.
        assert regrant["shard"] == grant["shard"]
        assert server.tallies["regrants"] == 1

    def test_regrant_budget_exhaustion_goes_inprocess_only(self):
        """After regrant_max lapses the shard is the coordinator's
        alone -- the fork pool's _REGRANT_MAX ladder, verbatim."""
        server = _server(lease_timeout=10.0, regrant_max=2)
        wid = server.handle_message({"type": "hello", "worker": "w"},
                                    now=0.0)["worker_id"]
        now = 0.0
        for _ in range(3):  # grant, lapse; regrants 1, 2, 3 > max
            grant = server.handle_message(
                {"type": "request", "worker_id": wid}, now=now)
            assert grant["shard"] == 0
            now += 100.0
            server.tick(now=now)
        # Shard 0 is no longer grantable remotely...
        next_grant = server.handle_message(
            {"type": "request", "worker_id": wid}, now=now)
        assert next_grant["shard"] != 0
        # ...but the coordinator still runs it: throughput lost, never
        # coverage.
        assert server.run_one_inprocess()
        assert server.outcomes[0] is not None

    def test_run_to_completion_inprocess(self):
        server = _server()
        while server.run_one_inprocess():
            pass
        assert server.done
        assert all(err is None for _value, err in server.outcomes)
        assert server.tallies["inprocess_shards"] == len(PAYLOADS)

    def test_done_reply_once_everything_settled(self):
        server = _server()
        wid = server.handle_message({"type": "hello", "worker": "w"},
                                    now=0.0)["worker_id"]
        while server.run_one_inprocess():
            pass
        reply = server.handle_message({"type": "request", "worker_id": wid},
                                      now=0.0)
        assert reply == {"type": "done"}


class TestRetryLadder:
    def test_worker_reported_error_walks_the_retry_ladder(self,
                                                          monkeypatch):
        """A socket-reported error gets the fork pool's in-process
        ladder: a runner that fails its first attempt still settles."""
        from repro.runtime import parallel
        monkeypatch.setattr(parallel, "_RETRY_BACKOFF_BASE", 0.0)
        calls = []

        def fails_once(payload):
            calls.append(payload)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return _runner(payload)

        server = ShardServer(config={"scenario": "adopt-commit"})
        server.begin(PAYLOADS, fails_once)
        wid = server.handle_message({"type": "hello", "worker": "w"},
                                    now=0.0)["worker_id"]
        grant = server.handle_message({"type": "request", "worker_id": wid},
                                      now=0.0)
        server.handle_message(
            {"type": "complete", "worker_id": wid, "shard": grant["shard"],
             "error": "MemoryError: worker box too small"}, now=1.0)
        assert server.run_one_inprocess()
        value, error = server.outcomes[grant["shard"]]
        assert error is None, error
        assert value[0].complete_runs == 1
        assert len(calls) == 2


class TestBackoff:
    def test_deterministic(self):
        assert backoff_delay("w", 3) == backoff_delay("w", 3)

    def test_distinct_keys_desynchronize(self):
        assert backoff_delay("worker-a", 2) != backoff_delay("worker-b", 2)

    def test_exponential_up_to_cap(self):
        base = 0.05
        for attempt in range(12):
            delay = backoff_delay("w", attempt, base, CONNECT_BACKOFF_CAP)
            raw = min(base * 2 ** attempt, CONNECT_BACKOFF_CAP)
            assert raw * 0.5 <= delay < raw

    def test_cap_holds_forever(self):
        assert backoff_delay("w", 10_000) < CONNECT_BACKOFF_CAP


class TestMonotonicClockPin:
    """ISSUE 10 satellite: no timing path may read the wall clock.

    Wall time (``time.time``) can step backwards under NTP; a lease or
    backoff schedule driven by it would mis-expire.  These tests
    monkeypatch the clock sources and pin that only ``time.monotonic``
    matters.
    """

    def test_wall_clock_jump_does_not_expire_leases(self, monkeypatch):
        """A 1000-second wall-clock step must be invisible to leases."""
        import time
        monkeypatch.setattr(time, "time", lambda: 2_000_000_000.0)
        table = LeaseTable(timeout=10.0)
        table.grant(0, worker=1)
        assert table.expired() == []  # real monotonic barely advanced
        assert table.holder(0) == 1

    def test_lease_expiry_is_driven_by_monotonic(self, monkeypatch):
        """Advancing the patched monotonic source alone expires leases."""
        fake = [100.0]
        monkeypatch.setattr(lease_mod, "monotonic", lambda: fake[0])
        table = LeaseTable(timeout=10.0)
        table.grant(0, worker=1)
        assert table.expired() == []
        fake[0] += 10.0
        assert [lease.shard for lease in table.expired()] == [0]
        # A renewal (heartbeat) under the fake clock pushes expiry out.
        assert table.renew(0, worker=1)
        fake[0] += 9.0
        assert table.expired() == []

    def test_backoff_delay_reads_no_clock(self, monkeypatch):
        """The backoff schedule is a pure function of (key, attempt)."""
        import time
        before = backoff_delay("w", 4)
        monkeypatch.setattr(time, "time", lambda: 0.0)
        monkeypatch.setattr(time, "monotonic", lambda: 123456.0)
        assert backoff_delay("w", 4) == before

    def test_server_protocol_clock_is_injectable_monotonic(self,
                                                           monkeypatch):
        """handle_message/tick default their ``now`` to monotonic, not
        wall time: patch both and watch which one matters."""
        from repro.runtime import netshard as netshard_mod
        import time
        fake = [500.0]
        monkeypatch.setattr(netshard_mod, "monotonic", lambda: fake[0])
        monkeypatch.setattr(time, "time", lambda: 9e9)  # wild wall clock
        server = _server(lease_timeout=10.0)
        wid = server.handle_message({"type": "hello", "worker": "w"})
        grant = server.handle_message({"type": "request",
                                       "worker_id": wid["worker_id"]})
        server.tick()  # wall clock says eons passed; monotonic says 0s
        assert server.tallies["regrants"] == 0
        fake[0] += 100.0
        server.tick()
        assert server.tallies["regrants"] == 1
        assert grant["type"] == "grant"

    def test_worker_sleep_is_injectable(self):
        """The worker's backoff sleeps through an injected callable --
        tests (and this one) never block on real time."""
        naps = []
        worker = ShardWorker("127.0.0.1", 1, name="pin",
                             connect_attempts=3, sleep=naps.append)
        with pytest.raises(Exception):
            worker._connect()  # nothing listens on port 1
        assert naps == [backoff_delay("pin", 0), backoff_delay("pin", 1)]
