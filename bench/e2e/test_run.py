"""Unit tests of run.py's statistics and output checks (run by dune runtest)."""

import statistics
import sys
import unittest

sys.dont_write_bytecode = True
import run  # noqa: E402


class Summarize(unittest.TestCase):
    def test_known_quartiles(self):
        s = run.summarize([10, 1, 9, 2, 8, 3, 7, 4, 6, 5])
        self.assertEqual(s, {"median": 5.5, "q1": 2.75, "q3": 8.25, "n": 10})

    def test_matches_statistics_quantiles(self):
        xs = [0.31, 0.29, 0.35, 0.30, 0.33, 0.28, 0.40]
        q = statistics.quantiles(xs, n=4)
        s = run.summarize(xs)
        self.assertEqual((s["q1"], s["median"], s["q3"]), (q[0], q[1], q[2]))

    def test_one_and_no_sample(self):
        self.assertEqual(run.summarize([2.0]), {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1})
        self.assertIsNone(run.summarize([]))


class Outputs(unittest.TestCase):
    OUT = (b"run 0: m.q=0101\n"
           b"runtime error (run 1, cycle 3) [Z101] m.q: two drivers\n"
           b"run 1: m.q=UUUU\n")

    def test_sim_summary_counts_runs_and_errors(self):
        s = run.sim_summary(self.OUT)
        self.assertEqual((s["runs"], s["errors"]), (2, 1))
        self.assertNotEqual(s["digest"], run.sim_summary(self.OUT.replace(b"0101", b"0100"))["digest"])

    def test_sim_summary_rejects_missing_runs(self):
        self.assertIsNone(run.sim_summary(b"run 1: m.q=0\n"))

    def test_verify_summary(self):
        lint = b"1 multi-driven net: 0 safe, 1 conflict, 0 needs-runtime-check; 1 finding (2 case splits)\n"
        self.assertEqual(run.verify_summary(["lint", "x.zeus"], 1, lint), {"exit": 1, "conflicts": 1})
        prove = b"depth 8: 1 register; 0/0 needs-runtime-check upgraded to safe-sequential; 0 findings, 2 witnesses (0 case splits)\n"
        self.assertEqual(run.verify_summary(["prove", "x.zeus"], 0, prove), {"exit": 0, "witnesses": 2})


if __name__ == "__main__":
    unittest.main()
