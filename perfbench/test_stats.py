"""Tests for the benchmark's own statistics.

Run from the repository root: python3 -m unittest perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(stats.percentile([5], 99), 5)
        self.assertEqual(stats.percentile(list(range(101)), 99), 99)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 98.0)
        self.assertEqual(stats.tail_percentile(500), 98.0)
        self.assertEqual(stats.tail_percentile(499), 95.0)

    def test_tail_keeps_ten_samples_beyond(self):
        for n in range(20, 5000, 7):
            p = stats.tail_percentile(n)
            self.assertGreaterEqual(stats.samples_beyond(n, p), 10, n)
            higher = [q for q in stats.TAIL_LADDER if q > p]
            for q in higher:
                self.assertLess(stats.samples_beyond(n, q), 10, (n, q))

    def test_too_few_samples_give_no_tail(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.latency([1.0] * 5, 50.0)["tail"])

    def test_tail_is_capped(self):
        self.assertEqual(stats.tail_percentile(10**6), 99.0)
        self.assertEqual(stats.tail_percentile(10**6, cap=95.0), 95.0)

    def test_latency_summary(self):
        s = stats.latency([float(i) for i in range(1, 1001)], 99.0)
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["tail_pct"], 99.0)
        self.assertAlmostEqual(s["p50"], 500.5)
        self.assertAlmostEqual(s["tail"], 990.01)

    def test_latency_tail_is_fixed_whatever_the_count(self):
        # More samples must not move the tail to a higher percentile.
        for n in (1000, 2000, 50000):
            self.assertEqual(stats.latency([1.0] * n, 95.0)["tail_pct"], 95.0)
        s = stats.latency([float(i) for i in range(1, 1001)], 95.0)
        self.assertAlmostEqual(s["tail"], 950.05)

    def test_latency_withholds_a_tail_with_too_few_beyond(self):
        self.assertIsNone(stats.latency([1.0] * 999, 99.0)["tail"])
        self.assertEqual(stats.latency([1.0] * 1000, 99.0)["tail"], 1.0)
        self.assertIsNone(stats.latency([1.0] * 199, 95.0)["tail"])
        self.assertIsNone(stats.latency([], 95.0)["p50"])


class Failures(unittest.TestCase):
    def test_non_ok_replies_count(self):
        ops = [("0", "ok"), ("1", "error: x"), ("2", "timeout"), ("3", "ok")]
        self.assertEqual(stats.failures(ops, []), (4, 2))

    def test_oracle_mismatch_condemns_every_op_of_its_key(self):
        ops = [("a", "ok"), ("b", "ok"), ("a", "ok"), ("c", "ok")]
        self.assertEqual(stats.failures(ops, [("a", "exec-equivalent", "")]), (4, 2))

    def test_failed_op_with_mismatch_counts_once(self):
        ops = [("a", "error"), ("b", "ok")]
        mism = [("a", "serve-vs-inprocess", ""), ("a", "analytic-exact", "")]
        self.assertEqual(stats.failures(ops, mism), (2, 1))

    def test_orphan_mismatch_is_its_own_failure(self):
        ops = [("a", "ok")]
        self.assertEqual(stats.failures(ops, [("-", "determinism", "")]), (2, 1))

    def test_all_ok(self):
        self.assertEqual(stats.failures([("a", "ok")] * 3, []), (3, 0))


def span(i, parent, start, end, name="x"):
    return {"id": i, "parent": parent, "start": start, "end": end, "name": name}


class SelfTime(unittest.TestCase):
    def test_leaf_self_is_duration(self):
        self.assertEqual(stats.self_times([span(0, -1, 10, 25)]), {0: 15})

    def test_children_are_subtracted(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 60)]
        own = stats.self_times(spans)
        self.assertEqual(own, {0: 70, 1: 20, 2: 10})

    def test_nested_grandchildren_only_charge_their_parent(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 0, 50), span(2, 1, 10, 40)]
        self.assertEqual(stats.self_times(spans), {0: 50, 1: 20, 2: 30})

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 50), span(2, 0, 30, 70)]
        self.assertEqual(stats.self_times(spans)[0], 40)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, -1, 20, 60), span(1, 0, 10, 30)]
        self.assertEqual(stats.self_times(spans)[0], 30)

    def test_self_times_sum_to_root_duration(self):
        spans = [
            span(0, -1, 0, 1000, "item"),
            span(1, 0, 100, 300, "lang.parse"),
            span(2, 0, 300, 700, "core.compound"),
            span(3, 2, 400, 500, "dep.analysis"),
        ]
        own = stats.self_times(spans)
        self.assertEqual(sum(own.values()), 1000)
        agg = stats.by_name(spans)
        self.assertEqual(agg["core.compound"]["self"], 300)
        self.assertEqual(agg["core.compound"]["total"], 400)
        self.assertEqual(agg["item"]["count"], 1)


if __name__ == "__main__":
    unittest.main()
