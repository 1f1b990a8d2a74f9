"""Tests of the benchmark's own checks, tracer and quick mode.

Each check must accept the program's real output and reject a
deliberately corrupted copy of it.  Run from the root of a checkout:

    python3 bench/selftest.py
"""

import copy
import dataclasses
import json
import os
import shutil
import sys
import tempfile
import unittest

import run  # sets the BLAS thread count before numpy loads

run.import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qreglp import enumerate_vertices, oracle, ot  # noqa: E402
from qreglp.polytope import PolytopeSpec  # noqa: E402


class ExperimentChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.n_values = [4, 6]
        cls.rows = ot.figure3_experiment(cls.n_values)
        cls.paths = {n: ot.trace_ot_path(ot.quad_cost_instance(n)) for n in cls.n_values}

    def test_real_output_passes(self):
        self.assertEqual(checks.experiment_rows(self.rows, self.n_values), [])
        for n, path in self.paths.items():
            self.assertEqual(checks.quad_cost_trace(n, path.eta_star, path.x_star), [])

    def test_eta_star_off_by_1e6_relative(self):
        path = self.paths[6]
        problems = checks.quad_cost_trace(6, path.eta_star * (1 + 1e-6), path.x_star)
        self.assertEqual(len(problems), 1)
        self.assertIn("2n^3", problems[0])

    def test_x_star_off_identity(self):
        x = self.paths[4].x_star.copy()
        x[:2] += [1e-6, -1e-6]
        self.assertEqual(len(checks.quad_cost_trace(4, self.paths[4].eta_star, x)), 1)

    def test_ratio_below_one(self):
        row = self.rows[0]
        bad = dataclasses.replace(row, slope=row.bound / 0.999, ratio=0.999)
        problems = checks.experiment_rows([bad] + self.rows[1:], self.n_values)
        self.assertEqual(len(problems), 1)
        self.assertIn("< 1", problems[0])

    def test_missing_or_skipped_row(self):
        self.assertTrue(checks.experiment_rows(self.rows[:1], self.n_values))
        skipped = dataclasses.replace(self.rows[0], slope=None, ratio=None, skipped=True)
        self.assertTrue(checks.experiment_rows([skipped] + self.rows[1:], self.n_values))


class OracleChecks(unittest.TestCase):
    def test_real_record_passes(self):
        rec = oracle.cross_check_instance(oracle.random_polytope_instance(2), seed=2)
        self.assertEqual(checks.cross_check_record("p2", rec), [])

    def test_rel_disagreement_1e6(self):
        rec = oracle.cross_check_instance(oracle.random_polytope_instance(2), seed=2)
        bad = dataclasses.replace(rec, rel_disagreement=1e-6)
        problems = checks.cross_check_record("p2", bad)
        self.assertEqual(len(problems), 1)
        self.assertIn("rel_disagreement", problems[0])

    def test_each_field_is_checked(self):
        rec = oracle.cross_check_instance(oracle.random_polytope_instance(2), seed=2)
        for field in ("path_discrepancy", "x_star_gap"):
            self.assertTrue(checks.cross_check_record("p2", dataclasses.replace(rec, **{field: 1e-6})))
        self.assertTrue(checks.cross_check_record("p2", dataclasses.replace(rec, eta_path=np.nan)))

    def test_kept_failures_still_fail(self):
        battery = workloads.OracleBattery(0, "", quick=True)
        failures = []
        run.run_round(battery.ops()[-len(workloads.KEPT_FAILURES):], [], failures, [])
        kinds = sorted(err.split(":")[0] for _, err in failures)
        self.assertEqual(kinds, ["MaxIterationsExceeded", "NumericalBreakdown"])


class AnalyzeChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.OUT_DIR.mkdir(exist_ok=True)
        cls.workdir = tempfile.mkdtemp(dir=run.OUT_DIR)
        cls.wl = workloads.AnalyzeVertex(5, cls.workdir, quick=True)
        path, cls.G, cls.h, cls.anchor, cls.c = cls.wl.instances[0]
        results = []
        run.run_round(cls.wl.ops(), results, [], [])
        cls.results = results
        with open(path[: -len(".json")] + "-report.json") as fh:
            cls.report = json.load(fh)
        cls.reference = checks.qhull_vertices(cls.G, cls.h, cls.anchor)
        spec = PolytopeSpec(dim=cls.c.size, G=cls.G, h=cls.h)
        cls.program = enumerate_vertices(spec).vertices

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def test_real_output_passes(self):
        self.assertEqual(self.wl.check(self.results), [])

    def test_one_vertex_dropped(self):
        self.assertEqual(checks.same_vertex_sets("a", self.program, self.reference), [])
        problems = checks.same_vertex_sets("a", self.program[1:], self.reference)
        self.assertEqual(len(problems), 1)
        moved = self.program.copy()
        moved[0, 0] += 1e-5
        self.assertTrue(checks.same_vertex_sets("a", moved, self.reference))

    def test_flags_and_optimality(self):
        args = (self.G, self.h, self.c, self.reference)
        self.assertEqual(checks.analyze_report("a", self.report, *args), [])
        for flag in ("agreement", "bounds_ok"):
            bad = dict(self.report, **{flag: False})
            self.assertTrue(checks.analyze_report("a", bad, *args))
        bad = dict(self.report, eta_star_path=self.report["eta_star_path"] * (1 + 1e-5))
        self.assertTrue(checks.analyze_report("a", bad, *args))
        # A feasible x* halfway to the interior anchor is not LP-optimal.
        eta = self.report["eta_star_path"]
        x_star = np.asarray(self.report["aux_cost"]) - 0.5 * eta * self.c
        bad = copy.deepcopy(self.report)
        bad["aux_cost"] = (0.5 * (x_star + self.anchor) + 0.5 * eta * self.c).tolist()
        problems = checks.analyze_report("a", bad, *args)
        self.assertTrue(any("misses the LP cost minimum" in p for p in problems), problems)


class TracerTests(unittest.TestCase):
    def test_counts_repeat_and_functions_restored(self):
        battery = workloads.OracleBattery(3, "", quick=True)
        ops = battery.ops()
        originals = (ot.trace_path, oracle.solve_qlp)
        rounds = []
        with tracing.Tracer() as tracer:
            self.assertIsNot(ot.trace_path, originals[0])
            for _ in range(2):
                run.run_round(ops, [], [], [])
                rounds.append(tracing.layer_metrics(tracer.spans))
                tracer.clear()
        self.assertEqual((ot.trace_path, oracle.solve_qlp), originals)
        for key in tracing.COUNTS:
            self.assertEqual(rounds[0][key], rounds[1][key], key)
        self.assertGreater(rounds[0]["projection.calls"], 0)
        self.assertGreater(rounds[0]["homotopy.segments"], 0)
        self.assertGreater(rounds[0]["polytope.candidate_bases"], 0)

    def test_self_time_excludes_children(self):
        spans = [tracing.Span("cli.main", "cli", -1, 0.0, 10.0),
                 tracing.Span("analysis.analyze", "analysis", 0, 1.0, 9.0),
                 tracing.Span("homotopy.trace_path", "homotopy", 1, 2.0, 5.0, info={"segments": 3})]
        m = tracing.layer_metrics(spans)
        self.assertEqual(m["cli.self_s"], 2.0)
        self.assertEqual(m["analysis.self_s"], 5.0)
        self.assertEqual(m["homotopy.self_s"], 3.0)
        self.assertEqual(m["homotopy.segments"], 3)


class QuickMode(unittest.TestCase):
    def test_quick_runs_every_workload(self):
        with open(os.devnull, "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                code = run.quick()
            finally:
                sys.stdout = stdout
        self.assertEqual(code, 0)


if __name__ == "__main__":
    unittest.main()
