"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The randomized battery (criteria 5 through 7) is computed once and
shared; its cost is charged to criterion 5's time budget.
"""

import time

import numpy as np
import pytest

from qreglp import enumerate_vertices, solve_qlp, trace_path
from qreglp.analysis import (
    e_curve,
    eta_star_formula,
    gap_bound,
    orthogonality_condition,
    slope_report,
    small_eta_report,
)
from qreglp.errors import AllVerticesOptimal
from qreglp.oracle import (
    eta_star_bruteforce,
    lp_solve_bruteforce,
    min_norm_over_M,
    path_verify,
    random_cost_matrix,
    random_polytope_instance,
)
from qreglp import ot

N_POLYTOPES = 50
N_TRANSPORT = 25
_battery_cache = {}


def _announce(k, ok, detail):
    print(f"\nACCEPTANCE CRITERION {k}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_unit_interval_sharp(interval_inst):
    t0 = time.monotonic()
    try:
        path = trace_path(interval_inst)
        assert len(path.breakpoints) == 2
        assert abs(path.breakpoints[0] - 0.0) <= 1e-10
        assert abs(path.breakpoints[1] - 2.0) <= 1e-10

        x_star = 1.0
        etas = np.linspace(2.0 / 64.0, 2.0, 64)
        for eta in etas:
            x = float(solve_qlp(interval_inst, float(eta)).x[0])
            assert abs(x - eta / 2.0) <= 1e-10
            e_val = -x - (-x_star)
            decay = (x_star**2 - x**2 - (x_star - x) ** 2) / eta
            assert abs(e_val - decay) <= 1e-10
        for eta in (2.0, 3.0, 10.0):
            assert abs(float(solve_qlp(interval_inst, eta).x[0]) - 1.0) <= 1e-10

        rep = slope_report(path, interval_inst.c)
        for val in (rep.slope, rep.bound_angle, rep.bound_norm):
            assert abs(val - 0.5) <= 1e-10
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    except Exception:
        _announce(1, False, "unit interval sharp example")
        raise
    _announce(1, True, f"unit interval sharp example, {time.monotonic() - t0:.2f}s")


def test_criterion_2_neg_identity_family():
    t0 = time.monotonic()
    try:
        for n in (2, 3, 4, 5, 8):
            inst = ot.build(cost=-np.eye(n))
            eta = ot.ot_eta_star(inst)
            assert abs(eta - 2.0 * n) <= 1e-9 * (2.0 * n)

            path = ot.trace_ot_path(inst)
            assert path.n_segments == 1
            pi0 = np.full(n * n, 1.0 / n)
            eye = np.eye(n).ravel()
            for s in np.linspace(0.0, 1.0, 16):
                e = s * 2.0 * n
                closed = (2 * n - e) / (2 * n) * pi0 + e / (2 * n) * eye
                assert np.max(np.abs(path.interpolate(float(e)) - closed)) <= 1e-8

            rep = slope_report(path, inst.qlp().c)
            assert abs(rep.slope - (n - 1) / (2.0 * n * n)) <= 1e-9
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    except Exception:
        _announce(2, False, "negated identity cost family")
        raise
    _announce(2, True, f"negated identity cost family, {time.monotonic() - t0:.2f}s")


def test_criterion_3_quadratic_cost_family():
    t0 = time.monotonic()
    try:
        for n in (2, 3, 4, 6):
            inst = ot.quad_cost_instance(n)
            sb = ot.separated_bounds(inst, np.arange(n))
            assert sb.symmetric
            assert sb.exact == 2.0 * n**3  # float-exact rationals

            path = ot.trace_ot_path(inst)
            assert abs(path.eta_star - 2.0 * n**3) <= 1e-6 * (2.0 * n**3)

            rep = slope_report(path, inst.qlp().c)
            assert 0.0 < rep.slope <= (n - 1) / n**6 + 1e-12
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
    except Exception:
        _announce(3, False, "one-dimensional quadratic cost family")
        raise
    _announce(3, True, f"one-dimensional quadratic cost family, {time.monotonic() - t0:.2f}s")


def test_criterion_4_experiment_csv(tmp_path):
    t0 = time.monotonic()
    try:
        # Desk-scale reproduction only: the published experiment spans
        # sizes up to 480, which is deliberately out of scope here; the
        # gate is bound domination and positivity, not curve matching.
        from qreglp.cli import main

        out = tmp_path / "fig3.csv"
        assert main(["ot", "experiment", "--n-list", "2,4,8,16", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,L_N,bound,ratio"
        assert len(lines) == 5
        for line in lines[1:]:
            _, ln, _, ratio = line.split(",")
            assert float(ln) > 0.0
            assert float(ratio) >= 1.0
    except Exception:
        _announce(4, False, "slope experiment CSV")
        raise
    _announce(4, True, f"slope experiment CSV, {time.monotonic() - t0:.2f}s")


def _battery():
    if _battery_cache:
        return _battery_cache["records"]
    records = []
    for i in range(N_POLYTOPES):
        inst = random_polytope_instance(i)
        records.append(("polytope", i, inst))
    for i in range(N_TRANSPORT):
        rng = np.random.default_rng(10_000 + i)
        n = int(rng.integers(2, 6))
        C = random_cost_matrix(10_000 + i, n)
        records.append(("transport", i, ot.build(cost=C)))
    out = []
    for kind, i, obj in records:
        inst = obj.qlp() if kind == "transport" else obj
        path = trace_path(inst)
        vs = enumerate_vertices(inst.polytope)
        out.append({"kind": kind, "index": i, "obj": obj, "inst": inst, "path": path, "vs": vs})
    _battery_cache["records"] = out
    return out


def test_criterion_5_oracle_equivalence():
    t0 = time.monotonic()
    try:
        worst_rel = 0.0
        worst_path = 0.0
        for rec in _battery():
            inst, path, vs = rec["inst"], rec["path"], rec["vs"]
            marked = vs.mark_optimal(inst.c)
            eta_f, _ = eta_star_formula(marked, inst.c, path.x_star)
            _, opt_idx = lp_solve_bruteforce(vs, inst.c)
            x_star_oracle = min_norm_over_M(vs.vertices[opt_idx])
            try:
                eta_b = eta_star_bruteforce(vs, inst.c, x_star_oracle)
            except AllVerticesOptimal:
                eta_b = 0.0
            vals = (eta_f, eta_b, path.eta_star)
            rel = max(abs(a - b) for a in vals for b in vals) / (1.0 + max(vals))
            assert rel <= 1e-7, f"{rec['kind']}[{rec['index']}] disagreement {rel:.2e}"
            worst_rel = max(worst_rel, rel)

            pv = path_verify(inst, path, samples=40, seed=rec["index"])
            assert pv.max_discrepancy <= 1e-7, (
                f"{rec['kind']}[{rec['index']}] path discrepancy {pv.max_discrepancy:.2e}"
            )
            worst_path = max(worst_path, pv.max_discrepancy)
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5min"
    except Exception:
        _announce(5, False, "oracle equivalence battery")
        raise
    _announce(
        5,
        True,
        f"oracle equivalence on {N_POLYTOPES}+{N_TRANSPORT} instances, "
        f"worst rel {worst_rel:.2e}, worst path dev {worst_path:.2e}, "
        f"{time.monotonic() - t0:.1f}s",
    )


def test_criterion_6_bound_suite():
    t0 = time.monotonic()
    try:
        for rec in _battery():
            inst, path, vs = rec["inst"], rec["path"], rec["vs"]
            marked = vs.mark_optimal(inst.c)
            eta_star = path.eta_star

            if not marked.optimal_mask.all():
                eta_f, _ = eta_star_formula(marked, inst.c, path.x_star)
                assert eta_f <= gap_bound(marked, inst.c) + 1e-9
            else:
                assert eta_star <= 1e-9

            if path.n_segments:
                rep = slope_report(path, inst.c)
                assert rep.slope <= rep.bound_angle + 1e-9
                assert rep.bound_angle <= rep.bound_norm + 1e-9

            if eta_star > 0:
                half = orthogonality_condition(path.x_zero, marked)
                if rec["kind"] == "transport":
                    assert half
                rows = small_eta_report(path, inst.c, [eta_star / 10.0, eta_star / 100.0], half)
                for row in rows:
                    assert row.passed, (
                        f"{rec['kind']}[{rec['index']}] rate bound fails at eta={row.eta}"
                    )

            curve = e_curve(path, inst.c, grid=512)
            assert np.all(np.diff(curve[:, 1]) <= 1e-9)

            probe = 2.0 * eta_star if eta_star > 0 else 1.0
            x = solve_qlp(inst, probe).x
            assert np.max(np.abs(x - path.x_star)) <= 1e-8

            value, _ = lp_solve_bruteforce(vs, inst.c)
            assert abs(float(inst.c @ path.x_star) - value) <= 1e-8
    except Exception:
        _announce(6, False, "bound suite")
        raise
    _announce(6, True, f"bound suite, zero violations, {time.monotonic() - t0:.1f}s")


def test_criterion_7_cost_shift_invariance():
    t0 = time.monotonic()
    try:
        for rec in _battery():
            if rec["kind"] != "transport":
                continue
            base = rec["obj"]
            shifted = ot.build(cost=base.cost + np.mean(base.cost))
            p_shift = trace_path(shifted.qlp())
            p_base = rec["path"]
            assert p_base.n_segments == p_shift.n_segments
            assert np.max(np.abs(p_base.endpoints - p_shift.endpoints)) <= 1e-8
    except Exception:
        _announce(7, False, "cost shift invariance")
        raise
    _announce(7, True, f"cost shift invariance, {time.monotonic() - t0:.1f}s")
