"""The observability layer: schema stability, determinism, atomicity.

Three guarantees, marked ``metrics`` (a tier parallel to ``exhaustive``
/ ``lint`` / ``parallel``):

* **Golden schema** -- the exact key set of every emitted record is
  pinned, so accidental field drift breaks a test, not a downstream
  diff consumer;
* **Statistics isolation** -- collecting metrics adds *zero* entries to
  ``ExplorationStats`` and leaves the explored statistics bit-for-bit
  identical to an uninstrumented run;
* **Atomic emission** -- an interrupted writer leaves the previous file
  intact and no temp droppings.
"""

import dataclasses
import json
import os

import pytest

from repro.analysis.metrics import (METRICS_SCHEMA_VERSION, PHASES,
                                    TIMING_KEYS, ExplorationMetrics,
                                    RunMetrics, atomic_write_text,
                                    deterministic_view,
                                    render_metrics_table, write_jsonl)
from repro.runtime import ExplorationStats, explore
from repro.scenarios import check_scenarios

#: The golden exploration-record schema, version 4 (v3 plus the ``net``
#: transport-tally block added for the socket shard service).  Adding,
#: removing, or renaming a key is a schema change: bump
#: METRICS_SCHEMA_VERSION and update this fixture (and
#: docs/observability.md) deliberately.
EXPLORATION_KEYS_V4 = [
    "schema_version", "kind", "scenario", "engine", "outcome",
    "partial", "interrupt_reason",
    "complete_runs", "truncated_runs", "total_runs", "pruned_runs",
    "prune_ratio", "max_depth_seen", "shard_count",
    "peak_frontier_size", "sleep_set_hits", "sleep_set_checks",
    "sleep_set_hit_rate", "cache_hits", "cache_skipped_runs",
    "ddmin_replays", "violation",
    "jobs", "phases", "wall_seconds", "runs_per_sec", "workers", "net",
]

#: Deterministic subset: everything minus the timing/worker/transport
#: keys (the cache counters count as topology-dependent: the cache is
#: per shard; the ``net`` tallies are pure transport observability).
DETERMINISTIC_KEYS_V4 = [key for key in EXPLORATION_KEYS_V4
                         if key not in TIMING_KEYS]


@pytest.mark.metrics
class TestGoldenSchema:
    def test_schema_version_is_four(self):
        assert METRICS_SCHEMA_VERSION == 4

    def test_exploration_record_key_set_is_pinned(self):
        record = ExplorationMetrics(scenario="s").finalize().to_dict()
        assert list(record) == EXPLORATION_KEYS_V4
        assert record["schema_version"] == METRICS_SCHEMA_VERSION
        assert record["kind"] == "exploration"

    def test_exploration_record_is_json_serializable(self):
        sc = check_scenarios(n=2)["safe-agreement"]
        metrics = ExplorationMetrics(scenario=sc.name, jobs=2)
        explore(sc.build, sc.check,
                crash_plan_factory=sc.crash_plan_factory,
                max_steps=sc.max_steps, reduction="dpor", jobs=2,
                metrics=metrics)
        record = json.loads(json.dumps(metrics.finalize().to_dict()))
        assert list(record) == EXPLORATION_KEYS_V4
        assert record["total_runs"] == (record["complete_runs"]
                                        + record["truncated_runs"])
        assert record["phases"].keys() == set(PHASES)

    def test_record_interrupted_marks_partial(self):
        metrics = ExplorationMetrics(scenario="s")
        stats = ExplorationStats(complete_runs=7, truncated_runs=1,
                                 max_depth_seen=9)
        metrics.record_interrupted("timeout", stats)
        record = metrics.finalize().to_dict()
        assert record["outcome"] == "interrupted"
        assert record["partial"] is True
        assert record["interrupt_reason"] == "timeout"
        assert record["complete_runs"] == 7
        assert record["total_runs"] == 8

    def test_run_metrics_key_set_is_pinned(self):
        record = RunMetrics(kind="audit", name="x",
                            data={"runs": 8}).to_dict()
        assert list(record) == ["schema_version", "kind", "name", "data"]
        assert record["schema_version"] == METRICS_SCHEMA_VERSION

    def test_deterministic_view_strips_exactly_timing_and_workers(self):
        record = ExplorationMetrics(scenario="s").finalize().to_dict()
        view = deterministic_view(record)
        assert list(view) == DETERMINISTIC_KEYS_V4
        # Nested timing keys are stripped too (audit data records).
        nested = {"data": {"wall_seconds": 1.0, "runs": 8,
                           "inner": [{"busy_seconds": 2.0, "ok": 1}]}}
        assert deterministic_view(nested) == {
            "data": {"runs": 8, "inner": [{"ok": 1}]}}


@pytest.mark.metrics
class TestStatisticsIsolation:
    """Metrics collection must not perturb exploration statistics."""

    def test_exploration_stats_fields_are_pinned(self):
        # The timing/worker fields live in ExplorationMetrics, never
        # here: this is the jobs=1 == jobs=N bit-for-bit contract.  The
        # counts are the exploration's own (the cache's two are left out
        # of equality, see tests/runtime/test_explore_stats.py).
        assert {f.name for f in dataclasses.fields(ExplorationStats)} \
            == {"complete_runs", "truncated_runs", "max_depth_seen",
                "pruned_runs", "violation", "sleep_checks", "sleep_hits",
                "peak_frontier", "cache_hits", "cache_skipped_runs"}

    @pytest.mark.parametrize("reduction", ["naive", "dpor"])
    @pytest.mark.parametrize("jobs", [None, 1, 2])
    def test_stats_identical_with_and_without_metrics(self, reduction,
                                                      jobs):
        sc = check_scenarios(n=2)["safe-agreement"]
        bare = explore(sc.build, sc.check, max_steps=sc.max_steps,
                       reduction=reduction, jobs=jobs)
        metrics = ExplorationMetrics(scenario=sc.name, engine=reduction,
                                     jobs=jobs or 1)
        observed = explore(sc.build, sc.check, max_steps=sc.max_steps,
                           reduction=reduction, jobs=jobs,
                           metrics=metrics)
        assert bare == observed
        assert metrics.complete_runs == observed.complete_runs
        assert metrics.total_runs == observed.total_runs

    def test_serial_dpor_metrics_capture_sleep_and_phases(self):
        sc = check_scenarios(n=2)["safe-agreement"]
        metrics = ExplorationMetrics(scenario=sc.name)
        explore(sc.build, sc.check, max_steps=sc.max_steps,
                reduction="dpor", metrics=metrics)
        assert metrics.sleep_set_checks > 0
        assert 0.0 <= metrics.sleep_set_hit_rate <= 1.0
        assert metrics.finalize().wall_seconds > 0
        assert metrics.phases["shard_execution"] > 0

    def test_violation_records_ddmin_replays(self):
        from repro.runtime import CounterexampleFound
        sc = check_scenarios()["broken-demo"]
        metrics = ExplorationMetrics(scenario=sc.name)
        with pytest.raises(CounterexampleFound) as excinfo:
            explore(sc.build, sc.check, max_steps=sc.max_steps,
                    reduction="dpor", metrics=metrics)
        assert metrics.ddmin_replays > 0
        assert metrics.ddmin_replays == \
            excinfo.value.counterexample.ddmin_attempts
        assert metrics.phases["shrink"] > 0


@pytest.mark.metrics
class TestAtomicEmission:
    def test_atomic_write_replaces_whole_file(self, tmp_path):
        target = tmp_path / "report.txt"
        atomic_write_text(str(target), "first\n")
        atomic_write_text(str(target), "second\n")
        assert target.read_text() == "second\n"
        assert os.listdir(tmp_path) == ["report.txt"]

    def test_interrupted_write_preserves_previous(self, tmp_path,
                                                  monkeypatch):
        import repro.analysis.metrics as metrics_mod
        target = tmp_path / "report.txt"
        atomic_write_text(str(target), "safe\n")

        def boom(src, dst):
            raise OSError("disk detached mid-replace")

        monkeypatch.setattr(metrics_mod.os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(str(target), "torn\n")
        monkeypatch.undo()
        assert target.read_text() == "safe\n"
        assert os.listdir(tmp_path) == ["report.txt"]

    def test_write_jsonl_round_trip(self, tmp_path):
        target = tmp_path / "runs.jsonl"
        records = [{"a": 1}, {"b": [2, 3]}]
        write_jsonl(str(target), records)
        lines = target.read_text().splitlines()
        assert [json.loads(line) for line in lines] == records


@pytest.mark.metrics
class TestDurability:
    """Crash-durability of atomic writes, pinned at the syscall level.

    Atomicity (temp file + rename) only protects against a crashed
    *writer*; durability against a host crash additionally needs the
    temp file fsynced before the rename and the directory fsynced after
    it.  These tests spy on ``os.fsync``/``os.replace`` inside the
    metrics module and pin the exact sequence, so the fix can never
    silently regress to rename-only.
    """

    @staticmethod
    def _spy_events(monkeypatch, tmp_path):
        import stat

        import repro.analysis.metrics as metrics_mod
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            events.append(("fsync", "dir" if is_dir else "file"))
            return real_fsync(fd)

        def spy_replace(src, dst):
            events.append(("replace",))
            return real_replace(src, dst)

        monkeypatch.setattr(metrics_mod.os, "fsync", spy_fsync)
        monkeypatch.setattr(metrics_mod.os, "replace", spy_replace)
        return events

    def test_durable_write_fsyncs_file_then_renames_then_dir(
            self, tmp_path, monkeypatch):
        events = self._spy_events(monkeypatch, tmp_path)
        atomic_write_text(str(tmp_path / "ckpt.json"), "state\n")
        assert events == [("fsync", "file"), ("replace",),
                          ("fsync", "dir")]

    def test_durable_is_the_default(self, tmp_path, monkeypatch):
        events = self._spy_events(monkeypatch, tmp_path)
        write_jsonl(str(tmp_path / "runs.jsonl"), [{"a": 1}])
        assert ("fsync", "file") in events
        assert ("fsync", "dir") in events

    def test_opt_out_skips_every_fsync_but_stays_atomic(
            self, tmp_path, monkeypatch):
        events = self._spy_events(monkeypatch, tmp_path)
        target = tmp_path / "bench.txt"
        atomic_write_text(str(target), "fast\n", durable=False)
        assert events == [("replace",)]
        assert target.read_text() == "fast\n"
        assert os.listdir(tmp_path) == ["bench.txt"]


@pytest.mark.metrics
class TestRendering:
    def test_table_has_one_row_per_record_plus_header(self):
        exploration = ExplorationMetrics(scenario="sa").finalize()
        audit = RunMetrics(kind="audit", name="sa",
                           data={"wall_seconds": 0.5})
        lines = render_metrics_table([exploration.to_dict(),
                                      audit.to_dict()])
        assert len(lines) == 3
        assert "scenario" in lines[0]
        assert lines[1].startswith("sa")
