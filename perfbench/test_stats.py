"""Self-test of the benchmark's statistics on synthetic input.

Run: python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_and_even_counts(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(stats.median([7.25]), 7.25)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.median([5, 9, 1, 7, 3]),
                         stats.median([1, 3, 5, 7, 9]))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])


class TailPercentileTest(unittest.TestCase):
    def test_too_few_samples_for_any_tail(self):
        # 19 samples: the median's rank is 10, leaving 9 beyond it.
        self.assertIsNone(stats.tail_percentile(list(range(19))))

    def test_median_qualifies_at_twenty(self):
        # 20 samples: rank 10 leaves exactly 10 beyond.
        self.assertEqual(stats.tail_percentile(list(range(1, 21))),
                         (50.0, 10))

    def test_p90_needs_a_hundred(self):
        # 99 samples: p90's rank is 90 (9 beyond) so p75 is reported.
        p, _ = stats.tail_percentile(list(range(99)))
        self.assertEqual(p, 75.0)
        self.assertEqual(stats.tail_percentile(list(range(1, 101))),
                         (90.0, 90))

    def test_p99_needs_a_thousand(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.tail_percentile(values), (99.0, 990))
        values = list(range(1, 10001))
        self.assertEqual(stats.tail_percentile(values), (99.9, 9990))

    def test_tail_follows_the_slow_samples(self):
        values = [1.0] * 90 + [5.0] * 10 + [9.0] * 10
        self.assertEqual(stats.tail_percentile(values), (90.0, 5.0))


class SummarizeTest(unittest.TestCase):
    def test_count_median_and_tail(self):
        s = stats.summarize([float(v) for v in range(1, 41)])
        self.assertEqual(s["n"], 40)
        self.assertEqual(s["median"], 20.5)
        self.assertEqual((s["tail_p"], s["tail"]), (75.0, 30.0))

    def test_small_sample_has_no_tail(self):
        s = stats.summarize([2.0, 1.0, 3.0])
        self.assertEqual(s, {"n": 3, "median": 2.0})


class FailRatioTest(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(stats.fail_ratio(0, 120), 0.0)
        self.assertEqual(stats.fail_ratio(6, 24), 0.25)
        self.assertEqual(stats.fail_ratio(5, 5), 1.0)

    def test_rejects_impossible_counts(self):
        for failed, attempted in ((1, 0), (-1, 4), (5, 4)):
            with self.assertRaises(ValueError):
                stats.fail_ratio(failed, attempted)


if __name__ == "__main__":
    unittest.main()
