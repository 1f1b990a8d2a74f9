import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qreglp
from qreglp import (
    AllVerticesOptimal,
    AssumptionViolated,
    BudgetExceeded,
    NaNInCost,
    NonSquareCost,
    NumericalBreakdown,
    VertexSet,
    solve_qlp,
)
from qreglp.analysis import slope_report
from qreglp.homotopy import SolutionPath, trace_path
from qreglp.oracle import (
    eta_star_bruteforce,
    lp_solve_bruteforce,
    min_norm_over_M,
    random_cost_matrix,
)
from qreglp import ot


def test_build_quad_points():
    inst = ot.quad_cost_instance(3)
    expect = np.array([[abs(i - j) ** 2 / 9.0 for j in range(3)] for i in range(3)])
    assert np.allclose(inst.cost, expect, atol=1e-15)
    assert inst.kind == "sqeuclidean"


def test_build_scaled_cost():
    inst = ot.build(cost=-np.eye(2))
    assert np.allclose(inst.scaled_cost, -np.eye(2) / 2.0)


def test_build_trivial_one_point():
    inst = ot.build(cost=[[5.0]])
    assert inst.n == 1
    assert ot.ot_eta_star(inst) == 0.0
    path = ot.trace_ot_path(inst)
    assert path.eta_star == 0.0
    assert np.allclose(path.x_star, [1.0])


def test_build_errors():
    with pytest.raises(NonSquareCost):
        ot.build(cost=np.ones((2, 3)))
    with pytest.raises(NaNInCost):
        ot.build(cost=np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NonSquareCost):
        ot.build(points=(np.arange(3), np.arange(4)))


def test_polytope_embedding_rank():
    spec = ot.birkhoff_polytope(4)
    assert spec.n_eq == 7  # 2n - 1 after dropping the redundant row
    assert np.linalg.matrix_rank(spec.A) == 7


@pytest.mark.parametrize("n", [2, 3, 5])
def test_ot_eta_star_neg_id(n):
    assert ot.ot_eta_star(ot.build(cost=-np.eye(n))) == pytest.approx(2.0 * n, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ot_eta_star_quad(n):
    inst = ot.quad_cost_instance(n)
    assert ot.ot_eta_star(inst) == pytest.approx(2.0 * n**3, rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ot_eta_star_matches_oracle(n):
    # The oracle decides the optimal permutations by its own tie rule on
    # the scaled cost and loops over the rest; integer costs in {0, 1, 2}
    # tie many permutations, and sometimes all of them.
    P = ot.permutation_matrices(n).reshape(-1, n * n)
    all_optimal = 0
    for s in range(24):
        ties = np.random.default_rng(s).integers(0, 3, (n, n))
        for C in (random_cost_matrix(s, n), ties):
            got = ot.ot_eta_star(ot.build(cost=C))
            c = np.asarray(C, dtype=float).ravel() / n
            x_star = min_norm_over_M(P[lp_solve_bruteforce(VertexSet(P), c)[1]])
            try:
                want = eta_star_bruteforce(VertexSet(P), c, x_star)
            except AllVerticesOptimal:
                all_optimal += 1
                assert got == 0.0
                continue
            assert abs(got - want) <= 1e-10 * want
    if n == 2:
        assert all_optimal


def test_ot_eta_star_budget():
    with pytest.raises(BudgetExceeded):
        ot.permutation_matrices(9)


def test_ot_eta_star_separated_fallback_beyond_budget():
    # 12! permutations are far beyond enumeration, but the symmetric
    # separated structure still yields the exact threshold.
    inst = ot.quad_cost_instance(12)
    assert ot.ot_eta_star(inst) == pytest.approx(2.0 * 12**3, rel=1e-12)


def test_ot_eta_star_budget_without_structure():
    rng = np.random.default_rng(0)
    C = rng.uniform(1.0, 2.0, size=(9, 9))
    with pytest.raises(BudgetExceeded):
        ot.ot_eta_star(ot.build(cost=C))


def test_trace_ot_path_budget():
    inst = ot.build(cost=np.zeros((33, 33)) + 1.0 - np.eye(33))
    with pytest.raises(BudgetExceeded):
        ot.trace_ot_path(inst)


def test_separated_bounds_quad():
    for n in (2, 3, 4):
        inst = ot.quad_cost_instance(n)
        sb = ot.separated_bounds(inst, np.arange(n))
        assert sb.symmetric
        assert sb.exact == pytest.approx(2.0 * n**3, rel=1e-12)
        assert sb.lower == pytest.approx(sb.upper, rel=1e-12)


def test_separated_bounds_one_minus_delta():
    n = 4
    inst = ot.build(cost=1.0 - np.eye(n))
    sb = ot.separated_bounds(inst, np.arange(n))
    assert sb.kappa == pytest.approx(1.0)
    assert sb.exact == pytest.approx(2.0 * n, rel=1e-12)
    assert ot.ot_eta_star(inst) == pytest.approx(2.0 * n, rel=1e-9)


def test_separated_bounds_asymmetric_brackets_path():
    # kappa' strictly above 2 kappa: bounds split, and the traced
    # threshold must land between them.
    C = np.array(
        [
            [0.0, 1.0, 2.0],
            [5.0, 0.0, 3.0],
            [2.0, 3.0, 0.0],
        ]
    )
    inst = ot.build(cost=C)
    sb = ot.separated_bounds(inst, np.arange(3))
    assert not sb.symmetric
    assert sb.lower < sb.upper
    eta_path = ot.trace_ot_path(inst).eta_star
    assert sb.lower - 1e-9 <= eta_path <= sb.upper + 1e-9


def test_separated_bounds_permuted_matching():
    # Zero diagonal moved to an off-diagonal matching.
    base = ot.quad_cost_instance(3).cost
    sigma = np.array([1, 2, 0])
    C = base[:, np.argsort(sigma)]  # C[i, sigma[i]] = base[i, i] = 0
    inst = ot.build(cost=C)
    sb = ot.separated_bounds(inst, sigma)
    assert sb.exact == pytest.approx(54.0, rel=1e-12)


def _off_matching_cost(n, k):
    """``k ((i - j)^2 + 1)`` off the diagonal, zero on it."""
    i = np.arange(n)
    return k * (np.subtract.outer(i, i) ** 2 + 1.0) * (1.0 - np.eye(n))


@pytest.mark.parametrize("k", [1e-9, 1.0, 1e9])
def test_separated_bounds_at_the_cost_scale(k):
    # A matching cost of 1e-4 of the smallest off-matching entry is not zero at any scale.
    # Judged at 1e-12 (1 + max |C|) it read as zero at k = 1e-9, and the n = 9 route of
    # ot_eta_star returned 9e9.
    C = _off_matching_cost(9, k)
    C[0, 0] = 1e-4 * C[0, 1]
    with pytest.raises(BudgetExceeded):
        ot.ot_eta_star(ot.build(cost=C))
    # An asymmetry of 1e-4 relative is one at every scale; it read as symmetric at 1e-9.
    C = _off_matching_cost(4, k)
    C[0, 1] *= 1.0 + 1e-4
    assert not ot.separated_bounds(ot.build(cost=C), np.arange(4)).symmetric
    assert ot.separated_bounds(ot.build(cost=_off_matching_cost(4, k)), np.arange(4)).symmetric


def test_separated_bounds_violations():
    inst = ot.build(cost=np.eye(3))  # nonzero diagonal
    with pytest.raises(AssumptionViolated):
        ot.separated_bounds(inst, np.arange(3))
    inst2 = ot.build(cost=np.zeros((2, 2)))  # zero off-matching costs
    with pytest.raises(AssumptionViolated):
        ot.separated_bounds(inst2, np.arange(2))
    with pytest.raises(AssumptionViolated):
        ot.separated_bounds(ot.quad_cost_instance(3), np.array([0, 0, 1]))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_slope_bound_neg_id(n):
    inst = ot.build(cost=-np.eye(n))
    assert ot.ot_slope_bound(inst) == pytest.approx((n - 1) / (2.0 * n * n), rel=1e-12)


def test_slope_bound_constant_cost():
    assert ot.ot_slope_bound(ot.build(cost=np.full((3, 3), 7.0))) == pytest.approx(0.0, abs=1e-12)


def test_slope_bound_dominates_measured_slope():
    for seed in (0, 1, 2, 3):
        n = 3 + seed % 2
        inst = ot.build(cost=random_cost_matrix(seed, n))
        qlp = inst.qlp()
        path = trace_path(qlp)
        if path.n_segments == 0:
            continue
        rep = slope_report(path, qlp.c)
        assert rep.slope <= ot.ot_slope_bound(inst) + 1e-9


def test_slope_equality_neg_id():
    n = 3
    inst = ot.build(cost=-np.eye(n))
    qlp = inst.qlp()
    rep = slope_report(trace_path(qlp), qlp.c)
    assert rep.slope == pytest.approx(ot.ot_slope_bound(inst), abs=1e-9)


def test_cost_shift_invariance():
    rng = np.random.default_rng(8)
    n = 3
    C = rng.uniform(size=(n, n))
    inst = ot.build(cost=C)
    shifted = ot.build(cost=C + np.mean(C))
    p1 = trace_path(inst.qlp())
    p2 = trace_path(shifted.qlp())
    assert p1.n_segments == p2.n_segments
    assert np.max(np.abs(p1.endpoints - p2.endpoints)) <= 1e-8
    assert np.allclose(p1.breakpoints, p2.breakpoints, atol=1e-7)


def test_closed_form_path_neg_id():
    n = 4
    inst = ot.build(cost=-np.eye(n))
    path = ot.trace_ot_path(inst)
    assert path.n_segments == 1
    assert np.allclose(path.breakpoints, [0.0, 2.0 * n], atol=1e-10)
    pi0 = np.full(n * n, 1.0 / n)
    eye = np.eye(n).ravel()
    for eta in np.linspace(0.0, 2.0 * n, 16):
        closed = (2 * n - eta) / (2 * n) * pi0 + eta / (2 * n) * eye
        assert np.max(np.abs(path.interpolate(float(eta)) - closed)) <= 1e-8


def test_formula_matches_path_on_random_costs():
    for seed in range(6):
        n = 2 + seed % 5  # up to 6
        # Integer costs in {0, 1, 2} tie many entries and permutations.
        ties = np.random.default_rng(100 + seed).integers(0, 3, size=(n, n)).astype(float)
        for cost in (random_cost_matrix(100 + seed, n), ties):
            inst = ot.build(cost=cost)
            eta_formula = ot.ot_eta_star(inst)
            eta_path = ot.trace_ot_path(inst).eta_star
            assert abs(eta_formula - eta_path) <= 1e-7 * (1.0 + eta_path)


def test_figure3_rows():
    rows = ot.figure3_experiment([2, 3, 4])
    for row in rows:
        assert not row.skipped
        assert row.slope > 0.0
        assert row.ratio >= 1.0
        assert row.bound == pytest.approx((row.n - 1) / row.n**6, rel=1e-15)


def test_figure3_linearity_check_fires(monkeypatch):
    # The grid solves start from the last segment's left breakpoint; they
    # must still reach the true path, not the interpolant of a wrong x*.
    def bent_path(qlp):
        path = trace_path(qlp)
        ends = path.endpoints.copy()
        ends[-1] = 0.999 * ends[-1] + 0.001 / math.isqrt(ends.shape[1])
        return SolutionPath(path.breakpoints, ends, path.segment_active_sets)

    monkeypatch.setattr(ot, "trace_path", bent_path)
    with pytest.raises(NumericalBreakdown, match="last segment not affine"):
        ot.figure3_experiment([4])


def test_figure3_budget_skip():
    rows = ot.figure3_experiment([2, 40])
    assert not rows[0].skipped and rows[1].skipped
    assert rows[1].csv_values()[1] == "skipped"


def test_from_json_dict_variants():
    inst = ot.from_json_dict({"cost": [[0.0, 1.0], [1.0, 0.0]]})
    assert inst.n == 2
    inst2 = ot.from_json_dict({"x": [0.0, 1.0], "y": [0.0, 1.0], "kind": "sqeuclidean"})
    assert np.allclose(inst2.cost, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        ot.from_json_dict({})


def test_attached_vertices_budget():
    inst = ot.build(cost=-np.eye(3))
    assert inst.polytope.vertices.shape == (math.factorial(3), 9)
    big = ot.build(cost=-np.eye(7))
    assert big.polytope.vertices is None


_TRACE_DIGEST = """
import hashlib
from qreglp.homotopy import trace_path
from qreglp.oracle import random_cost_matrix
from qreglp.ot import build, quad_cost_instance
insts = [quad_cost_instance(8)] + [build(cost=random_cost_matrix(s, n))
                                   for s, n in ((1045, 5), (10003, 3), (10003, 5))]
for inst in insts:
    path = trace_path(inst.qlp())
    print(hashlib.sha256(path.breakpoints.tobytes() + path.endpoints.tobytes()).hexdigest())
"""


def test_traces_do_not_depend_on_the_blas_thread_count():
    # Breakpoints and endpoints are bit-identical under one and two OpenBLAS threads, each run
    # in a fresh process since the thread count is read when numpy loads.
    src = str(Path(qreglp.__file__).parent.parent)
    digests = []
    for threads in ("1", "2"):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", _TRACE_DIGEST], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        digests.append(run.stdout.split())
    assert len(digests[0]) == 4 and digests[0] == digests[1]
