"""Self-tests of the benchmark's reporting rules and span arithmetic.

Run with ``python3 -m pytest perfbench/tests -q`` from the repo root.
"""

import pytest

import bench
from measure import FailureTally, highest_supported, percentile
from spans import TimingFingerprinter, Tracer, self_times, summarize, \
    union_length


class TestPercentileRule:
    def test_p99_needs_a_thousand_samples(self):
        assert percentile(list(range(1, 1001)), 99) == (990, 1000, 10)
        assert percentile(list(range(999)), 99) is None

    def test_median_needs_twenty_samples(self):
        assert percentile(list(range(19)), 50) is None
        value, n, beyond = percentile(list(range(20)), 50)
        assert (value, n, beyond) == (9, 20, 10)

    def test_falls_back_to_the_highest_supported_percentile(self):
        p, value, n, beyond = highest_supported(list(range(500)), 99)
        assert (p, n, beyond) == (98, 500, 10)
        assert highest_supported(list(range(5)), 50) is None

    def test_reported_lines_state_the_sample_count(self):
        def passes(count):
            obs = bench.Observation("r", None, 0.001, ())
            return [(1.0, [(i, obs) for i in range(count)])]
        p50, p99 = bench.percentile_lines(passes(1000))
        assert "(n=1000, 500 beyond" in p50
        assert p99.startswith("check_p99_ms") and "n=1000, 10 beyond" in p99
        for line in bench.percentile_lines(passes(5)):
            assert "not reported (n=5" in line


class TestSelfTime:
    def test_union_of_overlapping_intervals(self):
        assert union_length([(1, 4), (3, 6), (8, 10)]) == 7
        assert union_length([]) == 0

    def test_overlapping_children_are_subtracted_once(self):
        spans = [["root", 0.0, 10.0, -1, None],
                 ["a", 1.0, 4.0, 0, None],
                 ["b", 3.0, 6.0, 0, None],
                 ["c", 8.0, 12.0, 0, None],   # pokes out of its parent
                 ["d", 2.0, 3.0, 1, None]]    # grandchild of root
        root, a, b, c, d = self_times(spans)
        assert root == pytest.approx(10 - 5 - 2)
        assert a == pytest.approx(3 - 1)
        assert (b, c, d) == (pytest.approx(3), pytest.approx(4),
                             pytest.approx(1))

    def test_self_times_of_a_tree_sum_to_the_root(self):
        tracer = Tracer()
        outer = tracer.begin("bench.pass")
        inner = tracer.begin("dpor.explore")
        tracer.wrap("fingerprint.assemble", lambda: None)()
        tracer.end(inner)
        tracer.end(outer)
        root = tracer.spans[0]
        assert sum(self_times(tracer.spans)) == pytest.approx(
            root[2] - root[1])
        assert [s[3] for s in tracer.spans] == [-1, 0, 1]

    def test_calls_count_entries_into_a_layer(self):
        spans = [["dpor.explore", 0.0, 10.0, -1, None],
                 ["fingerprint.object_parts", 1.0, 3.0, 0, None],
                 ["fingerprint.object_fingerprint", 1.5, 2.0, 1, None],
                 ["fingerprint.assemble", 4.0, 5.0, 0, None]]
        by_name, by_layer = summarize(spans)
        assert by_layer["fingerprint"]["calls"] == 2
        assert by_layer["fingerprint"]["self_s"] == pytest.approx(3.0)
        assert by_name["fingerprint.object_parts"]["total_s"] == 2.0


class TestTimingFingerprinter:
    def test_keeps_the_incremental_cache_path(self):
        from repro.runtime.dpor import _StateCache
        from repro.runtime.fingerprint import Fingerprinter
        assert TimingFingerprinter.fingerprint is Fingerprinter.fingerprint
        assert not _StateCache(TimingFingerprinter(Tracer()))._full_override


class _StubWorkload:
    """Checks that return a chosen record, or raise."""

    name = "deep-cached"

    def __init__(self, records):
        self.records = records
        self.keys = list(records)

    def run_check(self, key, tracer):
        record = self.records[key]
        if isinstance(record, Exception):
            raise record
        return bench.Observation(record, record["total_runs"], 0.01, ())


class TestFailedFrac:
    def test_counts_wrong_verdicts_wrong_runs_and_raised_checks(self):
        good = {"outcome": "passed", "total_runs": 3}
        pins = {"serial": {key: dict(good) for key in "abcd"}}
        workload = _StubWorkload({
            "a": dict(good),
            "b": {"outcome": "violation", "total_runs": 3},
            "c": {"outcome": "passed", "total_runs": 4},
            "d": RuntimeError("worker exited 1"),
        })
        tally = FailureTally()
        _, results = bench.run_pass(workload, workload.keys, pins, tally,
                                     None, 0)
        assert (tally.attempted, tally.failed) == (4, 3)
        assert tally.failed_frac == 0.75
        assert [key for key, _ in results] == ["a", "b", "c"]
        assert any("raised RuntimeError" in r for r in tally.reasons)

    def test_a_clean_pass_has_no_failures(self):
        tally = FailureTally()
        tally.compare("a", {"x": 1}, {"x": 1})
        assert (tally.attempted, tally.failed, tally.failed_frac) == \
            (1, 0, 0.0)


class TestEndToEnd:
    def test_time_metrics_are_totals_over_the_run(self):
        def one_pass(wall, seconds):
            obs = bench.Observation("r", 10, seconds, ())
            return (wall, [(i, obs) for i in range(4)])
        # The third pass ran through a slow stretch of the machine: it
        # weighs by its length.
        metrics = bench.end_to_end([one_pass(2.0, 0.5), one_pass(2.0, 0.5),
                                    one_pass(3.0, 0.75)])
        assert metrics["wall_s"] == (pytest.approx(7 / 3), "s")
        assert metrics["checks_per_s"] == (pytest.approx(12 / 7), "1/s")
        assert metrics["schedules_per_s"] == (pytest.approx(120 / 7),
                                              "1/s")
