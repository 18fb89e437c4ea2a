"""Tests for the benchmark's statistics: python3 perfbench/test_stats.py"""

import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 1001))
        self.assertEqual(stats.percentile(samples, 50), 500)
        self.assertEqual(stats.percentile(samples, 99), 990)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile(list(range(1000, 0, -1)), 99), 990)

    def test_ten_samples_beyond_is_enough(self):
        # p99 of 1000 leaves exactly 10 beyond.
        stats.percentile(list(range(1000)), 99)

    def test_nine_samples_beyond_is_refused(self):
        with self.assertRaises(ValueError):
            stats.percentile(list(range(999)), 99)

    def test_small_sample_median_is_refused(self):
        with self.assertRaises(ValueError):
            stats.percentile(list(range(19)), 50)
        self.assertEqual(stats.percentile(list(range(1, 21)), 50), 10)

    def test_rejects_out_of_range_p(self):
        for p in (0, 100, -1):
            with self.assertRaises(ValueError):
                stats.percentile(list(range(1000)), p)


class DecileRatioTest(unittest.TestCase):
    def test_flat_is_one(self):
        self.assertAlmostEqual(stats.decile_ratio([5] * 100), 1.0)

    def test_linear_growth(self):
        # First tenth of 1..100 averages 5.5, the last 95.5.
        self.assertAlmostEqual(stats.decile_ratio(list(range(1, 101))), 95.5 / 5.5)

    def test_leftover_ops_stay_in_the_middle(self):
        # 25 ops: tenths of 2, so the first 2 and the last 2.
        self.assertAlmostEqual(stats.decile_ratio([1, 1] + [7] * 21 + [3, 3]), 3.0)

    def test_needs_ten_ops(self):
        with self.assertRaises(ValueError):
            stats.decile_ratio([1] * 9)


class ErrorRatioTest(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(stats.error_ratio(0, 50), 0.0)
        self.assertEqual(stats.error_ratio(5, 50), 0.1)

    def test_invalid(self):
        with self.assertRaises(ValueError):
            stats.error_ratio(0, 0)
        with self.assertRaises(ValueError):
            stats.error_ratio(6, 5)
        with self.assertRaises(ValueError):
            stats.error_ratio(-1, 5)


class FastestQuarterTest(unittest.TestCase):
    def test_keeps_the_fastest_quarter(self):
        times = [5, 1, 7, 3, 8, 2, 6, 4]
        self.assertEqual(stats.fastest_quarter(times, lambda t: t), [1, 2])

    def test_keeps_at_least_one(self):
        self.assertEqual(stats.fastest_quarter([3, 2, 9], lambda t: t), [2])


class SpreadTest(unittest.TestCase):
    def test_relative_spread(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        # statistics.quantiles (exclusive): q1 = 2.75, q3 = 8.25, median 5.5.
        self.assertAlmostEqual(stats.relative_spread(values), 5.5 / 5.5)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [
            (1, 0, "bench.op", 0, 100),
            (2, 1, "monitor.share", 10, 40),
            (3, 1, "monitor.revoke", 50, 90),
        ]
        self.assertEqual(stats.self_times(spans), {"bench": 30, "monitor": 70})

    def test_overlapping_children_count_once(self):
        spans = [
            (1, 0, "bench.burst", 0, 100),
            (2, 1, "fleet.submit", 10, 60),
            (3, 1, "fleet.drain", 40, 120),  # runs past its parent
        ]
        self.assertEqual(stats.self_times(spans)["bench"], 10)


if __name__ == "__main__":
    unittest.main()
