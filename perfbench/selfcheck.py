"""Self-tests of the benchmark itself (standard library only):

    python3 perfbench/selfcheck.py

They check the tracer's self-time arithmetic, that every case's reference
check accepts the real output and rejects it with one coefficient
changed, that traced outputs are compared with untraced ones, that
BENCHMARK.json names exactly the metrics the runs print, the guess
window sizing and the calibration clock's arithmetic.  About ten
seconds.
"""
import json
import os
import unittest
from fractions import Fraction

import calibration
import references as ref
import run
import tracing
import workloads

gf = run.import_exactgf()


def cases(workload, seed=7):
    return workloads.WORKLOADS[workload](gf, seed)


def perturb(data):
    """The same output with its first number increased by one, looking
    at a Toeplitz case's transfer result first and skipping its exit
    status and byte count."""
    done = []

    def walk(x):
        if done:
            return x
        if isinstance(x, dict):
            return {k: (x[k] if k in ("rc", "stderr", "stdout_bytes") else walk(x[k]))
                    for k in sorted(x, key=lambda k: k != "transfer")}
        if isinstance(x, (list, tuple)):
            return type(x)(walk(v) for v in x)
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            done.append(True)
            return x + 1
        return x

    out = walk(data)
    assert done, f"nothing to perturb in {data!r}"
    return out


def span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, "case")


class TracerArithmetic(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        spans = [
            span("spanning.gf_grid", 0.0, 10.0, -1),
            span("graphs.term", 1.0, 5.0, 0),
            span("core.det_bareiss", 2.0, 4.5, 1),
            span("cfinite.guess", 6.0, 9.0, 0),
            span("core.solve_linear", 6.5, 7.0, 3),
            span("core.solve_linear", 7.0, 8.0, 3),
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 1.5, 2.5, 1.5, 0.5, 1.0])
        m = tracing.layer_metrics(spans, 0)
        self.assertEqual(m["spanning.self_s"], 3.0)
        self.assertEqual(m["graphs.self_s"], 1.5)
        self.assertEqual(m["graphs.s"], 4.0)
        self.assertEqual(m["graphs.terms_per_s"], 0.25)
        self.assertEqual(m["cfinite.self_s"], 1.5)
        self.assertEqual(m["core.solve_linear.calls"], 2)
        self.assertEqual(m["core.solve_linear.s"], 1.5)

    def test_wrappers_nest_and_are_removed(self):
        original = gf.graphs.det_bareiss
        tracer = tracing.Tracer()
        tracer.install(gf)
        try:
            self.assertEqual(tracer.missing, [])
            gf.spanning.gf_grid(2)
        finally:
            tracer.remove()
        self.assertIs(gf.graphs.det_bareiss, original)
        spans = tracer.spans
        self.assertEqual(spans[0].name, "spanning.gf_grid")
        self.assertEqual([s.parent for s in spans].count(-1), 1)
        for s in spans[1:]:
            parent = spans[s.parent]
            self.assertLessEqual(parent.start, s.start)
            self.assertLessEqual(s.end, parent.end)
        names = {s.name for s in spans}
        self.assertTrue({"spanning._fit_pipeline", "graphs.term", "core.det_bareiss",
                         "cfinite.guess", "cfinite.guess_rec1"} <= names)


class ReferenceChecks(unittest.TestCase):
    def test_real_outputs_pass_and_perturbed_ones_fail(self):
        for workload in workloads.WORKLOADS:
            for case in cases(workload):
                with self.subTest(case=case.name):
                    data = case.plain(case.call())
                    self.assertEqual(case.check(data), [])
                    self.assertNotEqual(case.check(perturb(data)), [])

    def test_toeplitz_failure_exit_is_reported(self):
        case = cases("toeplitz-transfer")[0]
        data = dict(case.plain(case.call()), rc=1)
        self.assertNotEqual(case.check(data), [])

    def test_independent_oracles(self):
        self.assertEqual([ref.grid_tree_count(2, n) for n in range(1, 5)], [1, 4, 15, 56])
        rows = [[2, 3, 0], [4, 2, 3], [5, 4, 2]]
        self.assertEqual(ref.det(rows), 2 * (4 - 12) - 3 * (8 - 15))
        self.assertEqual(ref.permanent(rows), 2 * (4 + 12) + 3 * (8 + 15))
        self.assertEqual(ref.permanent([[1] * 4] * 4), 24)


class Runs(unittest.TestCase):
    def test_traced_outputs_equal_untraced(self):
        small = [c for c in cases("toeplitz-transfer") if " 3/3 " in c.name]
        runner = run.Runner(cases("grid-ver")[:2] + small)
        metrics, extra = run.per_layer(runner, gf, 0)
        self.assertEqual(runner.failures, [])
        self.assertEqual(runner.attempted, 2 * len(runner.cases))
        self.assertEqual(len(runner.first), len(runner.cases))
        self.assertGreater(metrics["cli.stdout_bytes"], 0)
        self.assertGreater(metrics["graphs.terms"], 0)
        self.assertEqual(extra["untraced_points"], [])

    def test_changed_output_and_exception_count_as_failures(self):
        calls = []

        def changing():
            calls.append(1)
            return len(calls)

        def broken():
            raise ValueError("boom")

        runner = run.Runner([
            workloads.Case("changing", changing, lambda x: x, lambda x: []),
            workloads.Case("broken", broken, lambda x: x, lambda x: []),
        ])
        runner.run_pass()
        runner.run_pass()
        self.assertEqual((runner.attempted, runner.failed), (4, 3))

    def test_benchmark_json_matches_printed_metrics(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        names = list(tracing.layer_metrics([], 0)) + ["trace.overhead_s"]
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {n: run.layer_unit(n) for n in names})


class Calibration(unittest.TestCase):
    def test_call_time_is_scaled_by_the_surrounding_kernel_runs(self):
        kernel_times = iter([0.010, 0.014, 0.012])
        original = calibration.kernel_seconds
        calibration.kernel_seconds = lambda: next(kernel_times)
        try:
            clock = calibration.Clock()
            clock.start()
            wall, ref_s = clock.stop()
            self.assertAlmostEqual(ref_s, wall * calibration.REFERENCE_S / 0.012)
            clock.start()  # the kernel run after one call is the one before the next
            wall, ref_s = clock.stop()
            self.assertAlmostEqual(ref_s, wall * calibration.REFERENCE_S / 0.013)
        finally:
            calibration.kernel_seconds = original


class GuessWindow(unittest.TestCase):
    def test_state_count_sizes_the_window(self):
        row, col = [2, 1, 1, 1], [2, 3, 3, 3]
        states = len(gf.toeplitz.children_scheme(row, col, "det"))
        self.assertEqual(workloads.guess_window_end(states), 70)
        # the library's default window 10..50 is too short for this order-20 family
        with self.assertRaises(gf.errors.NoFitWithinBudget):
            gf.toeplitz.gf_family_guess(row, col, "det")
        rf = gf.toeplitz.gf_family_guess(row, col, "det", 10, workloads.guess_window_end(states))
        self.assertEqual(rf.den.degree, 20)


if __name__ == "__main__":
    unittest.main()
