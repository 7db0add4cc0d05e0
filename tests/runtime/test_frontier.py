"""Unit tests for the on-disk frontier store and the lease table.

The resume *differential* (kill -9 mid-run, resume, compare bit-for-bit
-- ``tests/properties/test_resume_differential.py``) is the end-to-end
evidence; these tests pin the store's mechanics in isolation: header
round-trip, journal replay, torn-tail discard, compaction equivalence,
fingerprint validation, the stats decoder's type checks, and the lease
grant/renew/expire protocol.
"""

import json
import os

import pytest

from repro.runtime import ExplorationStats, FrontierMismatch, FrontierStore
from repro.runtime.explore import ShardViolation
from repro.runtime.frontier import (COMPACT_INTERVAL,
                                    FRONTIER_SCHEMA_VERSION,
                                    stats_from_dict, stats_to_dict)
from repro.runtime.lease import Lease, LeaseTable

FINGERPRINT = {"scenario": ["demo", 2, 1], "max_steps": 12,
               "max_runs": 1000, "reduction": "dpor",
               "prefix_factor": 4}

SHARDS = [((0,), ()), ((1,), (0,)), ((0, 1), (1,))]


def make_stats(complete=3, violation=False):
    v = None
    if violation:
        v = ShardViolation(order_key=(1, 0), schedule=(1, 0, 1),
                           message="agreement violated",
                           error_type="AssertionError")
    return ExplorationStats(complete_runs=complete, truncated_runs=1,
                            max_depth_seen=5, pruned_runs=2, violation=v,
                            sleep_checks=11, sleep_hits=4, peak_frontier=3,
                            cache_hits=2, cache_skipped_runs=6)


def begin_store(path):
    store = FrontierStore(str(path))
    store.begin(FINGERPRINT, make_stats(0), SHARDS)
    return store


def same_record(a, b):
    """Every field equal, the ones equality ignores included."""
    return stats_to_dict(a) == stats_to_dict(b)


class TestStatsCodec:
    def test_round_trip_without_violation(self):
        stats = make_stats()
        decoded = stats_from_dict(stats_to_dict(stats))
        assert decoded == stats
        assert same_record(decoded, stats)

    def test_round_trip_with_violation_is_bit_for_bit(self):
        # Tuples, not lists: a decoded ShardViolation must compare equal
        # to the live dataclass or the resume differential breaks.
        stats = make_stats(violation=True)
        decoded = stats_from_dict(json.loads(json.dumps(
            stats_to_dict(stats))))
        assert decoded == stats
        assert same_record(decoded, stats)
        assert decoded.violation.order_key == (1, 0)

    def test_merge_of_decoded_equals_merge_of_live(self):
        a, b = make_stats(3), make_stats(5, violation=True)
        live = a.merge(b)
        decoded = stats_from_dict(stats_to_dict(a)).merge(
            stats_from_dict(stats_to_dict(b)))
        assert decoded == live
        assert same_record(decoded, live)

    @pytest.mark.parametrize("key", ["complete_runs", "sleep_hits",
                                     "peak_frontier", "cache_hits"])
    @pytest.mark.parametrize("value", ["3", True, -1, 1.5, None, [3]])
    def test_mistyped_count_is_rejected(self, key, value):
        data = dict(stats_to_dict(make_stats()), **{key: value})
        with pytest.raises(ValueError, match=key):
            stats_from_dict(data)

    def test_missing_count_is_rejected(self):
        data = stats_to_dict(make_stats())
        del data["sleep_checks"]
        with pytest.raises(ValueError, match="sleep_checks"):
            stats_from_dict(data)

    @pytest.mark.parametrize("field,value", [
        ("order_key", "10"), ("order_key", [1, "0"]),
        ("schedule", None), ("schedule", [1, False]),
        ("message", 5), ("error_type", None)])
    def test_mistyped_violation_is_rejected(self, field, value):
        data = stats_to_dict(make_stats(violation=True))
        data["violation"][field] = value
        with pytest.raises(ValueError):
            stats_from_dict(data)

    @pytest.mark.parametrize("data", [None, [], "stats",
                                      {"violation": None}])
    def test_non_record_is_rejected(self, data):
        with pytest.raises(ValueError):
            stats_from_dict(data)


class TestStoreLifecycle:
    def test_header_round_trips(self, tmp_path):
        path = tmp_path / "frontier.jsonl"
        store = begin_store(path)
        store.close()
        assert store.exists()

        loaded = FrontierStore(str(path))
        loaded.load()
        assert loaded.fingerprint == FINGERPRINT
        assert same_record(loaded.expansion_stats, make_stats(0))
        assert loaded.shards == SHARDS
        assert loaded.completed == {}
        assert loaded.pending_indices(len(SHARDS)) == [0, 1, 2]

    def test_journaled_completions_survive_reload(self, tmp_path):
        store = begin_store(tmp_path / "frontier.jsonl")
        store.record_grant(1, worker=0)
        store.record_completion(1, make_stats(7))
        store.close()

        loaded = FrontierStore(store.path)
        loaded.load()
        assert set(loaded.completed) == {1}
        assert same_record(loaded.completed[1], make_stats(7))
        assert loaded.pending_indices(len(SHARDS)) == [0, 2]

    def test_completion_is_idempotent_per_shard(self, tmp_path):
        store = begin_store(tmp_path / "frontier.jsonl")
        store.record_completion(0, make_stats(7))
        before = os.path.getsize(store.path)
        store.record_completion(0, make_stats(7))
        store.close()
        assert os.path.getsize(store.path) == before

    def test_grants_without_completion_stay_pending(self, tmp_path):
        # A crash between grant and completion must re-execute the
        # shard: grant lines are observability, never progress.
        store = begin_store(tmp_path / "frontier.jsonl")
        for idx in range(len(SHARDS)):
            store.record_grant(idx, worker=idx % 2)
        store.close()
        loaded = FrontierStore(store.path)
        loaded.load()
        assert loaded.pending_indices(len(SHARDS)) == [0, 1, 2]

    def test_torn_tail_is_discarded(self, tmp_path):
        store = begin_store(tmp_path / "frontier.jsonl")
        store.record_completion(0, make_stats(7))
        store.close()
        with open(store.path, "a") as handle:
            handle.write('{"kind": "complete", "shard": 2, "sta')

        loaded = FrontierStore(store.path)
        loaded.load()
        assert set(loaded.completed) == {0}
        assert loaded.pending_indices(len(SHARDS)) == [1, 2]

    def test_compaction_folds_journal_into_header(self, tmp_path):
        store = begin_store(tmp_path / "frontier.jsonl")
        store.record_completion(0, make_stats(7))
        store.record_completion(2, make_stats(9))
        store.compact()
        store.close()

        with open(store.path) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 1  # header only; journal folded in

        loaded = FrontierStore(store.path)
        loaded.load()
        assert set(loaded.completed) == {0, 2}
        assert same_record(loaded.completed[0], make_stats(7))
        assert loaded.pending_indices(len(SHARDS)) == [1]

    def test_compaction_triggers_automatically(self, tmp_path):
        many = [((i,), ()) for i in range(COMPACT_INTERVAL + 8)]
        store = FrontierStore(str(tmp_path / "frontier.jsonl"))
        store.begin(FINGERPRINT, make_stats(0), many)
        for idx in range(COMPACT_INTERVAL + 2):
            store.record_completion(idx, make_stats(1))
        store.close()
        with open(store.path) as handle:
            lines = handle.read().splitlines()
        # At least one compaction ran: far fewer lines than completions.
        assert len(lines) < COMPACT_INTERVAL
        loaded = FrontierStore(store.path)
        loaded.load()
        assert len(loaded.completed) == COMPACT_INTERVAL + 2

    def test_merged_completed_stats_folds_in_shard_order(self, tmp_path):
        store = begin_store(tmp_path / "frontier.jsonl")
        store.record_completion(2, make_stats(9))
        store.record_completion(0, make_stats(7, violation=True))
        merged = store.merged_completed_stats()
        store.close()
        assert merged == make_stats(7, violation=True).merge(make_stats(9))


class TestValidation:
    def test_matching_fingerprint_passes(self, tmp_path):
        store = begin_store(tmp_path / "frontier.jsonl")
        store.validate(dict(FINGERPRINT))
        store.close()

    def test_mismatch_names_every_differing_key(self, tmp_path):
        store = begin_store(tmp_path / "frontier.jsonl")
        changed = dict(FINGERPRINT, max_steps=99, reduction="naive")
        with pytest.raises(FrontierMismatch) as excinfo:
            store.validate(changed)
        store.close()
        assert set(excinfo.value.mismatched) == {"max_steps", "reduction"}
        assert excinfo.value.mismatched["max_steps"] == (12, 99)
        assert "max_steps" in str(excinfo.value)
        assert "reduction" in str(excinfo.value)

    def test_empty_store_is_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        store = FrontierStore(str(path))
        with pytest.raises(ValueError, match="empty"):
            store.load()

    def test_foreign_header_is_rejected(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps({"kind": "exploration"}) + "\n")
        store = FrontierStore(str(path))
        with pytest.raises(ValueError, match="no header"):
            store.load()

    def test_future_schema_is_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps(
            {"kind": "frontier_header",
             "frontier_schema": FRONTIER_SCHEMA_VERSION + 1}) + "\n")
        store = FrontierStore(str(path))
        with pytest.raises(ValueError, match="schema"):
            store.load()

    @pytest.mark.parametrize("line,match", [
        ({"shard": 0, "complete_runs": "7"}, "complete_runs"),
        ({"shard": None}, "no shard"),
        ({"shard": len(SHARDS)}, "no shard"),
        ({"shard": True}, "no shard")])
    def test_malformed_journal_line_makes_the_store_unreadable(
            self, tmp_path, line, match):
        # A parseable line is no torn tail: a completion of no shard, or
        # with malformed statistics, must not be merged, nor skipped as
        # if the shard were pending.
        store = begin_store(tmp_path / "frontier.jsonl")
        store.close()
        stats = dict(stats_to_dict(make_stats(7)))
        stats.update((k, v) for k, v in line.items() if k != "shard")
        with open(store.path, "a") as handle:
            handle.write(json.dumps({"kind": "complete",
                                     "shard": line["shard"],
                                     "stats": stats}) + "\n")
        with pytest.raises(ValueError, match=match):
            FrontierStore(store.path).load()


class TestLeaseTable:
    def test_grant_and_holder(self):
        table = LeaseTable(timeout=10.0)
        lease = table.grant(3, worker=1, now=100.0)
        assert isinstance(lease, Lease)
        assert lease.expires_at == 110.0
        assert table.holder(3) == 1
        assert table.holder(4) is None
        assert len(table) == 1

    def test_renew_extends_and_counts(self):
        table = LeaseTable(timeout=10.0)
        table.grant(3, worker=1, now=100.0)
        assert table.renew(3, worker=1, now=105.0)
        lease = table._leases[3]
        assert lease.expires_at == 115.0
        assert lease.renewals == 1

    def test_stale_holder_cannot_renew_a_regranted_lease(self):
        table = LeaseTable(timeout=10.0)
        table.grant(3, worker=1, now=100.0)
        table.grant(3, worker=2, now=111.0)  # re-grant after expiry
        assert not table.renew(3, worker=1, now=112.0)
        assert table.renew(3, worker=2, now=112.0)
        assert table.holder(3) == 2

    def test_renew_after_release_is_a_noop(self):
        table = LeaseTable(timeout=10.0)
        table.grant(3, worker=1, now=100.0)
        released = table.release(3)
        assert released is not None and released.shard == 3
        assert not table.renew(3, worker=1, now=101.0)
        assert len(table) == 0

    def test_expired_lists_lapsed_leases_in_shard_order(self):
        table = LeaseTable(timeout=10.0)
        table.grant(5, worker=0, now=100.0)
        table.grant(2, worker=1, now=100.0)
        table.grant(7, worker=2, now=109.0)
        lapsed = table.expired(now=110.0)
        assert [lease.shard for lease in lapsed] == [2, 5]

    def test_heartbeat_keeps_a_lease_alive(self):
        table = LeaseTable(timeout=10.0)
        table.grant(1, worker=0, now=100.0)
        for tick in range(1, 30):
            assert table.renew(1, worker=0, now=100.0 + tick)
        assert table.expired(now=130.0) == []
