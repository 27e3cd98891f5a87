#!/usr/bin/env python3
"""Tests of steady.py's spread helper.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import steady  # noqa: E402


class SummariseTest(unittest.TestCase):
    def test_quartiles_and_spread(self):
        s = steady.summarise([10, 1, 9, 2, 8, 3, 7, 4, 6, 5])
        self.assertEqual(s["median"], 5.5)
        self.assertEqual(s["q1"], 2.75)
        self.assertEqual(s["q3"], 8.25)
        self.assertAlmostEqual(s["spread"], 1.0)

    def test_single_value_has_no_spread(self):
        s = steady.summarise([3.0])
        self.assertEqual(s["median"], 3.0)
        self.assertNotIn("spread", s)

    def test_seed_ranges(self):
        self.assertEqual(steady.seeds_of("1-3,7"), [1, 2, 3, 7])


if __name__ == "__main__":
    unittest.main()
