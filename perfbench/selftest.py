"""Tests of the benchmark's own tracer and output checker.

    python3 perfbench/selftest.py

Kept out of the repository's test suite: they test the benchmark, not the
library.
"""

from __future__ import annotations

import sys
import threading
import time
import types
import unittest

from tracer import Tracer
from workloads import REFERENCE_DIR, check_output, read_rows


def _sleep(seconds: float) -> None:
    time.sleep(seconds)


def _spin(seconds: float) -> None:
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


class TracerTest(unittest.TestCase):
    def test_nested_self_time(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", _sleep)

        def outer_body():
            _spin(0.05)
            inner(0.10)

        outer = tracer.wrap("outer", outer_body)
        outer()
        spans = tracer.spans()
        self.assertAlmostEqual(spans["inner"]["self_s"], 0.10, delta=0.03)
        self.assertLess(spans["inner"]["cpu_s"], 0.02)
        self.assertAlmostEqual(spans["outer"]["self_s"], 0.05, delta=0.03)
        self.assertAlmostEqual(spans["outer"]["cpu_s"], 0.05, delta=0.03)
        self.assertAlmostEqual(spans["outer"]["wall_s"], 0.15, delta=0.04)

    def test_two_threads_keep_their_own_stacks_and_counts(self):
        tracer = Tracer()
        leaf = tracer.wrap("leaf", lambda: None)
        inner = tracer.wrap("inner", _sleep)

        def outer_body():
            for _ in range(20_000):
                leaf()
            _sleep(0.2)

        outer = tracer.wrap("outer", outer_body)
        threads = [threading.Thread(target=outer),
                   threading.Thread(target=inner, args=(0.2,))]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        self.assertFalse(any(t.is_alive() for t in threads))
        spans = tracer.spans()
        self.assertEqual(spans["leaf"]["calls"], 20_000)
        # the other thread's concurrent span is not outer's child
        self.assertGreater(spans["outer"]["self_s"], 0.19)
        self.assertAlmostEqual(spans["inner"]["self_s"], 0.2, delta=0.05)

    def test_calls_inside_a_leaf_are_counted_not_timed(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", _sleep)
        outer = tracer.wrap("outer", lambda: [inner(0.02) for _ in range(3)],
                            leaf=True)
        outer()
        inner(0.02)
        spans = tracer.spans()
        self.assertEqual(spans["inner"]["calls"], 4)
        self.assertAlmostEqual(spans["inner"]["self_s"], 0.02, delta=0.015)
        self.assertAlmostEqual(spans["outer"]["self_s"], 0.06, delta=0.03)

    def test_patch_reaches_reexports_and_uninstall_restores(self):
        pkg = types.ModuleType("tracer_fixture")
        sub = types.ModuleType("tracer_fixture.sub")

        def work():
            return 42

        sub.work = work
        pkg.work = work        # a re-export, as ``from .sub import work``
        pkg.sub_alias = sub
        sys.modules.update({"tracer_fixture": pkg, "tracer_fixture.sub": sub})
        try:
            tracer = Tracer()
            tracer.patch(work, tracer.wrap("sub.work", work), "tracer_fixture")
            self.assertEqual(pkg.work(), 42)
            self.assertEqual(sub.work(), 42)
            self.assertEqual(tracer.spans()["sub.work"]["calls"], 2)
            tracer.uninstall()
            self.assertIs(pkg.work, work)
            self.assertIs(sub.work, work)
        finally:
            del sys.modules["tracer_fixture"], sys.modules["tracer_fixture.sub"]

    def test_on_call_counts_and_rewrites_arguments(self):
        tracer = Tracer()

        def hook(tr, args, kwargs):
            tr.count("seen", len(args))
            return (args[0] * 2,), kwargs

        double = tracer.wrap("f", lambda x: x, on_call=hook)
        self.assertEqual(double(3), 6)
        self.assertEqual(tracer.counts()["seen"], 1)


def _perturbed(rows, index, column, delta):
    rows = [dict(r) for r in rows]
    rows[index][column] = repr(float(rows[index][column]) + delta)
    return rows


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.sweep = read_rows(REFERENCE_DIR / "sweep-strong.csv")
        self.verify = read_rows(REFERENCE_DIR / "verify-weak.csv")

    def test_reference_passes(self):
        check = check_output("sweep", self.sweep, self.sweep, 0, True)
        self.assertEqual((check.attempted, check.failed), (len(self.sweep), 0))

    def test_perturbed_row_is_caught(self):
        rows = _perturbed(self.sweep, 4, "aber", 3e-6)
        check = check_output("sweep", rows, self.sweep, 0, True)
        self.assertEqual(check.failed, 1)
        self.assertIn("aber", check.problems[0])

    def test_change_within_library_accuracy_passes(self):
        rows = _perturbed(self.sweep, 4, "outage", 5e-7)
        self.assertEqual(check_output("sweep", rows, self.sweep, 0, True).failed, 0)

    def test_missing_extra_and_relabelled_rows_fail(self):
        rows = [dict(r) for r in self.sweep[1:]]
        rows[0]["method"] = "numeric"
        rows.append(dict(self.sweep[0], protocol="csi2"))
        check = check_output("sweep", rows, self.sweep, 0, True)
        self.assertEqual((check.attempted, check.failed),
                         (len(self.sweep) + 1, 3))

    def test_failed_exit_fails_every_row(self):
        check = check_output("sweep", None, self.sweep, 3, False)
        self.assertEqual(check.failed, len(self.sweep))

    def test_verify_interval_miss_is_counted_not_failed(self):
        rows = [dict(r) for r in self.verify]
        row = rows[0]
        se = float(row["mc_std_err"])
        row["mc"] = repr(float(row["analytic"]) + 3.0 * se)
        row["mc_ci_low"] = repr(float(row["mc"]) - 1.96 * se)
        row["mc_ci_high"] = repr(float(row["mc"]) + 1.96 * se)
        check = check_output("verify", rows, self.verify, 4, True)
        self.assertEqual((check.failed, check.ci_misses >= 1), (0, True))

    def test_verify_monte_carlo_far_off_fails(self):
        rows = [dict(r) for r in self.verify]
        row = rows[1]
        row["mc"] = repr(float(row["analytic"]) + 6.0 * float(row["mc_std_err"]))
        self.assertEqual(check_output("verify", rows, self.verify, 4, True).failed, 1)

    def test_verify_quadrature_gap_fails(self):
        rows = _perturbed(self.verify, 2, "quadrature", 2e-6)
        self.assertEqual(check_output("verify", rows, self.verify, 0, True).failed, 1)


if __name__ == "__main__":
    unittest.main()
