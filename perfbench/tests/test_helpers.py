"""Tests of the benchmark's own helpers (not part of the package's test suite).

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import os
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import pacer  # noqa: E402
import spans  # noqa: E402
from check import Tally, digest, matches_digest, mismatched_keys  # noqa: E402
from stats import beyond, percentile, tail_percentile  # noqa: E402
from workloads import stratified  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_leaves_26_beyond_p99_of_the_scan(self):
        samples = list(range(1, 2679))
        self.assertEqual(percentile(samples, 99), 2652)
        self.assertEqual(beyond(2678, 99), 26)
        self.assertEqual(percentile(samples, 50), 1339)

    def test_exact_ranks_are_not_nudged_by_float_error(self):
        self.assertEqual(percentile(list(range(1, 101)), 99), 99)
        self.assertEqual(percentile(list(range(1, 101)), 90), 90)

    def test_tail_percentile_needs_ten_beyond(self):
        q, value, n_beyond = tail_percentile(range(1, 101))
        self.assertEqual((q, value, n_beyond), (90.0, 90, 10))
        self.assertEqual(tail_percentile(range(1, 1001))[0], 99.0)
        self.assertEqual(tail_percentile(range(1, 10001))[0], 99.9)
        self.assertEqual(tail_percentile(range(1, 21))[0], 50.0)
        self.assertIsNone(tail_percentile(range(1, 20)))


def _span(name, start, end, parent, busy=None):
    span = spans.Span(name, start, parent)
    span.end = end
    span.busy = busy
    return span


class SelfTimeTest(unittest.TestCase):
    def test_children_union_and_generator_busy_are_subtracted(self):
        tree = [
            _span("verify.check_case", 0.0, 10.0, -1),
            _span("divgraph.longest_chain", 1.0, 3.0, 0),
            _span("primes.PrimalityTable.count", 2.0, 5.0, 0),  # overlaps the previous child
            _span("classes.psi_members", 5.0, 9.0, 0, busy=1.5),  # consumer ran between yields
            _span("partitions.fixed_point_free_partitions", 6.0, 6.5, 3, busy=0.5),
            _span("divgraph.longest_chain", 1.5, 2.0, 1),
        ]
        own = spans.self_times(tree)
        self.assertAlmostEqual(own[0], 10.0 - 4.0 - 1.5)
        self.assertAlmostEqual(own[1], 2.0 - 0.5)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertAlmostEqual(own[3], 1.5 - 0.5)
        self.assertAlmostEqual(own[4], 0.5)
        by_module = spans.module_self_times(tree)
        self.assertAlmostEqual(by_module["divgraph"], 2.0)

    def test_generator_span_charges_only_time_inside_next(self):
        rec = spans.Recorder("test")
        outer = rec.open("verify.check_case")
        consumed = list(rec.iterate("classes.psi_members", iter(range(5))))
        rec.close(outer)
        self.assertEqual(consumed, list(range(5)))
        self.assertEqual(rec.counters["classes.psi_members.yielded"], 5)
        generator = rec.spans[1]
        self.assertEqual(generator.parent, outer)
        self.assertLessEqual(generator.busy, generator.end - generator.start)
        self.assertEqual(rec.stack, [])

    def test_install_wraps_aliases_and_uninstall_restores(self):
        from class_spectrum import cli, divgraph, verify

        original = divgraph.longest_chain
        rec = spans.install("test")
        try:
            self.assertIs(verify.longest_chain, divgraph.longest_chain)
            self.assertIsNot(divgraph.longest_chain, original)
            self.assertEqual(divgraph.height([2, 4, 3, 8]).height, 3)
            self.assertEqual(cli.dump_json({"a": 1}), '{"a":1}')
        finally:
            rec.uninstall()
        self.assertIs(divgraph.longest_chain, original)
        self.assertIs(verify.longest_chain, original)
        self.assertEqual(spans.calls(rec.spans, "divgraph.longest_chain"), 1)
        self.assertEqual(rec.counters["divgraph.longest_chain.pairs_bound"], 6)
        self.assertEqual(rec.counters["cli.serialize.bytes"], 7)


class ReferenceTest(unittest.TestCase):
    KEYS = ["n", "kind", "verdict", "witness_chain"]
    CERT = {"n": 23, "kind": "sym", "verdict": "PASS", "witness_chain": ["1", "253"], "elapsed": 0.01}

    def test_extra_key_still_matches(self):
        expected = digest({k: self.CERT[k] for k in self.KEYS})
        with_extra = dict(self.CERT, margin=7, elapsed=0.5)
        self.assertTrue(matches_digest(with_extra, self.KEYS, expected))

    def test_changed_or_missing_key_does_not_match(self):
        expected = digest({k: self.CERT[k] for k in self.KEYS})
        self.assertFalse(matches_digest(dict(self.CERT, verdict="FAIL"), self.KEYS, expected))
        missing = {k: v for k, v in self.CERT.items() if k != "witness_chain"}
        self.assertFalse(matches_digest(missing, self.KEYS, expected))

    def test_mismatched_keys_ignores_keys_absent_from_the_reference(self):
        expected = {"m": 4, "reference_bound": 3}
        self.assertEqual(mismatched_keys({"m": 4, "reference_bound": 3, "new": 1}, expected), [])
        self.assertEqual(mismatched_keys({"m": 4, "reference_bound": 2}, expected), ["reference_bound"])
        self.assertEqual(mismatched_keys({"m": 4}, expected), ["reference_bound"])


class TallyTest(unittest.TestCase):
    def test_fail_ratio_counts_failures_over_attempts(self):
        tally = Tally()
        self.assertEqual(tally.fail_ratio, 0.0)
        for ok in (True, False, True, True):
            tally.record(ok, "op")
        self.assertEqual((tally.attempted, tally.failed), (4, 1))
        self.assertEqual(tally.fail_ratio, 0.25)
        tally.merge(6, 1, ["other op"])
        self.assertEqual(tally.fail_ratio, 0.2)
        self.assertEqual(tally.problems, ["op", "other op"])


class RecorderCostTest(unittest.TestCase):
    def test_cost_counts_every_span_and_generator_item(self):
        rec = spans.Recorder("test")
        outer = rec.open("verify.check_case")
        list(rec.iterate("classes.psi_members", iter(range(5))))
        rec.close(outer)
        self.assertAlmostEqual(spans.recorder_cost(rec, per_call=1.0, per_item=0.1), 2 * 1.0 + 5 * 0.1)

    def test_wrapper_costs_are_small_and_not_negative(self):
        per_call, per_item = spans.wrapper_costs(repeats=3, n=2000)
        self.assertGreaterEqual(per_call, 0.0)
        self.assertGreaterEqual(per_item, 0.0)
        self.assertLess(per_call, 1e-3)

    def test_overhead_ratio_is_against_the_untraced_time(self):
        rec = spans.Recorder("test")
        out = spans.per_layer(rec, [], wall=11.0, jobs=1, recorder_s=1.0)
        self.assertAlmostEqual(out["trace.overhead_ratio"], 0.1)


class PacerTest(unittest.TestCase):
    LOG = {"clock": [1.0, 2.0, 3.0, 4.0, 5.0], "cost": [0.001, 0.002, 0.003, 0.004, 0.005]}

    def test_note_cost_averages_the_notes_inside_the_window(self):
        self.assertAlmostEqual(pacer.note_cost(self.LOG, 2.0, 4.5), 0.003)

    def test_too_few_notes_in_a_window_is_an_error(self):
        with self.assertRaises(ValueError):
            pacer.note_cost(self.LOG, 3.5, 10.0)

    def test_slowdown_is_against_the_nominal_note_and_averages_cpus(self):
        fast = {"clock": [1.0, 2.0, 3.0], "cost": [pacer.NOMINAL_NOTE_S / 2] * 3}
        slow = {"clock": [1.0, 2.0, 3.0], "cost": [pacer.NOMINAL_NOTE_S * 2] * 3}
        self.assertAlmostEqual(pacer.slowdown({0: slow}, [0], 0.0, 3.0), 2.0)
        self.assertAlmostEqual(pacer.slowdown({0: fast, 1: slow}, [0, 1], 0.0, 3.0), 1.25)

    def test_pacer_process_starts_and_writes_its_notes_when_stopped(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            pacers = pacer.Pacers(sorted(os.sched_getaffinity(0))[:1], Path(tmp))
            logs = pacers.stop()
        (log,) = logs.values()
        self.assertGreaterEqual(len(log["clock"]), 1)
        self.assertEqual(len(log["clock"]), len(log["cost"]))
        self.assertTrue(all(cost > 0 for cost in log["cost"]))


class BenchmarkFileTest(unittest.TestCase):
    def test_per_layer_names_match_benchmark_json(self):
        import json

        bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(spans.PER_LAYER))


class InputTest(unittest.TestCase):
    def test_stratified_draws_one_degree_per_slice(self):
        import random

        draws = stratified(random.Random(3), 23, 1_000_000, 40)
        width = (1_000_000 - 23 + 1) / 40
        self.assertEqual(len(draws), 40)
        for i, x in enumerate(draws):
            self.assertTrue(23 + int(i * width) <= x < 23 + int((i + 1) * width))
        self.assertEqual(draws, stratified(random.Random(3), 23, 1_000_000, 40))


if __name__ == "__main__":
    unittest.main()
