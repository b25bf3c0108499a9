"""Tests of the stack benchmark's own arithmetic.

    python3 -m unittest discover -s stackbench -p 'test_*.py'
"""

import hashlib
import math
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class QuantileTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_match_exclusive_method(self):
        # statistics.quantiles' default (exclusive) method on 1..10:
        # q1 at position 2.75 -> 2.75, q3 at position 8.25 -> 8.25.
        q1, q3 = stats.quartiles([float(x) for x in range(10, 0, -1)])
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q3, 8.25)

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([7.0]), (7.0, 7.0))

    def test_nearest_rank(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.nearest_rank(xs, 0.5), 3.0)
        self.assertEqual(stats.nearest_rank(xs, 0.99), 5.0)
        self.assertEqual(stats.nearest_rank(xs, 0.2), 1.0)
        self.assertEqual(stats.nearest_rank([], 0.5), 0.0)


class AmdahlTest(unittest.TestCase):
    @staticmethod
    def speedup(serial, threads):
        return 1.0 / (serial + (1.0 - serial) / threads)

    def test_recovers_exact_serial_fraction(self):
        for serial in (0.0, 0.1, 0.37, 1.0):
            points = [(n, self.speedup(serial, n)) for n in (1, 2, 4, 8)]
            self.assertAlmostEqual(
                stats.amdahl_serial_fraction(points), serial, places=12)

    def test_single_point_closed_form(self):
        # S = 2 at N = 4: 1/2 = s + (1 - s)/4  ->  s = 1/3.
        self.assertAlmostEqual(stats.amdahl_serial_fraction([(4, 2.0)]),
                               1.0 / 3.0)

    def test_least_squares_between_noisy_points(self):
        # a = 1 - 1/N, b = 1/S - 1/N; s = sum(ab) / sum(aa).
        points = [(2, 1.5), (4, 2.0)]
        a = [0.5, 0.75]
        b = [1 / 1.5 - 0.5, 0.5 - 0.25]
        expected = (a[0] * b[0] + a[1] * b[1]) / (a[0] ** 2 + a[1] ** 2)
        self.assertAlmostEqual(stats.amdahl_serial_fraction(points), expected)

    def test_needs_a_parallel_point(self):
        with self.assertRaises(ValueError):
            stats.amdahl_serial_fraction([(1, 1.0)])


class CoverageTest(unittest.TestCase):
    def test_sums_count_times_per_call_over_host_time(self):
        terms = [(100, 0.01), (1000, 1e-4), (0, 5.0)]
        # (1.0 + 0.1) s explained out of 0.5 s x 4 threads.
        self.assertAlmostEqual(stats.coverage(terms, 0.5, 4), 1.1 / 2.0)

    def test_no_terms_explain_nothing(self):
        self.assertEqual(stats.coverage([], 2.0, 1), 0.0)


class DigestTest(unittest.TestCase):
    FIELDS = [("total_time_s", "0x1.4p+2"), ("final_reward", "-0x1.8p+0")]

    def test_hex_strings_and_floats_agree(self):
        as_floats = [("total_time_s", 5.0), ("final_reward", -1.5)]
        self.assertEqual(stats.digest(self.FIELDS), stats.digest(as_floats))

    def test_spelling_of_the_hex_does_not_matter(self):
        # C's %a and Python's float.hex spell the same bits differently.
        respelled = [("total_time_s", "0x1.4000000000000p+2"),
                     ("final_reward", "-0x1.8000000000000p+0")]
        self.assertEqual(stats.digest(self.FIELDS), stats.digest(respelled))

    def test_one_ulp_changes_the_digest(self):
        bumped = [("total_time_s", math.nextafter(5.0, 6.0)),
                  ("final_reward", -1.5)]
        self.assertNotEqual(stats.digest(self.FIELDS), stats.digest(bumped))

    def test_names_and_order_matter(self):
        renamed = [("total_cost_usd", "0x1.4p+2"), ("final_reward", "-0x1.8p+0")]
        self.assertNotEqual(stats.digest(self.FIELDS), stats.digest(renamed))
        self.assertNotEqual(stats.digest(self.FIELDS),
                            stats.digest(list(reversed(self.FIELDS))))

    def test_pinned_format(self):
        # One "name=<float.hex()>" line per field; pinned.json depends on it.
        expected = hashlib.sha256(
            b"a=0x1.0000000000000p+0\nb=-0x0.0p+0\n").hexdigest()
        self.assertEqual(stats.digest([("a", "0x1p+0"), ("b", -0.0)]),
                         expected)


if __name__ == "__main__":
    unittest.main()
