import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from qreglp import (
    NumericalBreakdown,
    PolytopeSpec,
    QlpInstance,
    ShapeMismatch,
    enumerate_vertices,
    project,
    solve_qlp,
    trace_path,
)
from qreglp import polytope, projection
from qreglp.oracle import random_cost_matrix, random_polytope_instance
from qreglp.ot import birkhoff_polytope, quad_cost_instance
from qreglp.ot import build as ot_build
from qreglp.polytope import _column_rule
from qreglp.projection import (
    KKT_TOL,
    RANK_TOL,
    ZERO_TOL,
    Certificate,
    _check_certificate,
    _FreeSystem,
    _unit_columns,
    min_distance_active_set,
    project_sweep,
)


def test_project_interior(interval):
    res = project(interval, np.array([0.5]))
    assert res.x == pytest.approx(0.5, abs=1e-12)
    assert res.active_set.size == 0


def test_project_clamp(interval):
    res = project(interval, np.array([-3.0]))
    assert res.x == pytest.approx(0.0, abs=1e-12)
    assert 1 in res.active_set  # row -x <= 0


def test_project_birkhoff_origin():
    for n in (2, 3, 4):
        spec = birkhoff_polytope(n)
        res = project(spec, np.zeros(n * n))
        assert np.allclose(res.x, 1.0 / n, atol=1e-12)


def test_solve_qlp_interval(interval_inst):
    assert solve_qlp(interval_inst, 1.0).x == pytest.approx(0.5, abs=1e-12)
    assert solve_qlp(interval_inst, 5.0).x == pytest.approx(1.0, abs=1e-12)


def test_solve_qlp_birkhoff_midpoint():
    n = 3
    spec = birkhoff_polytope(n)
    inst = QlpInstance(spec, (-np.eye(n) / n).ravel())
    pi = solve_qlp(inst, 3.0).x.reshape(n, n)
    assert np.allclose(np.diag(pi), 2.0 / 3.0, atol=1e-10)
    off = pi[~np.eye(n, dtype=bool)]
    assert np.allclose(off, 1.0 / 6.0, atol=1e-10)


def test_objective_identity():
    rng = np.random.default_rng(0)
    spec = PolytopeSpec.box(np.zeros(4), np.ones(4))
    c = rng.normal(size=4)
    inst = QlpInstance(spec, c)
    for _ in range(50):
        x = rng.uniform(size=4)
        eta = float(rng.uniform(0.1, 10.0))
        lhs = inst.objective(x, eta)
        rhs = np.sum((x + eta * c / 2.0) ** 2) / eta - eta * np.dot(c, c) / 4.0
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_solution_beats_vertices():
    rng = np.random.default_rng(5)
    spec = birkhoff_polytope(3, attach_vertices=True)
    c = rng.normal(size=9)
    inst = QlpInstance(spec, c)
    for eta in (0.5, 2.0, 11.0):
        res = solve_qlp(inst, eta)
        best_vertex = min(inst.objective(v, eta) for v in spec.vertices)
        assert inst.objective(res.x, eta) <= best_vertex + 1e-9


def test_warm_start_uniqueness():
    spec = birkhoff_polytope(3, attach_vertices=True)
    inst = QlpInstance(spec, (-np.eye(3) / 3).ravel())
    z = inst.target(4.0)
    cold = project(spec, z)
    for v in spec.vertices[:4]:
        warm = project(spec, z, start=v)
        assert np.max(np.abs(warm.x - cold.x)) <= 1e-8


@given(
    st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    st.lists(st.floats(-5, 5), min_size=3, max_size=3),
)
def test_projection_lipschitz(z1, z2):
    spec = PolytopeSpec.simplex(3)
    x1 = project(spec, np.array(z1)).x
    x2 = project(spec, np.array(z2)).x
    assert np.linalg.norm(x1 - x2) <= np.linalg.norm(np.array(z1) - np.array(z2)) + 1e-8


def test_kkt_certificate_data():
    rng = np.random.default_rng(9)
    spec = birkhoff_polytope(3)
    z = rng.normal(size=9)
    res = project(spec, z)
    assert np.all(res.multipliers >= -1e-10)
    assert res.kkt_residual <= 1e-8
    # Stationarity rebuilt from the reported pieces.
    grad = z - res.x - spec.A.T @ res.eq_multipliers
    grad -= spec.G[res.active_set].T @ res.multipliers
    assert np.max(np.abs(grad)) <= 1e-8


def test_project_raises_on_a_failed_certificate(monkeypatch):
    # A kernel point moved by 1e-6 leaves the face and the normal cone: project must
    # raise rather than return it.
    real = projection.min_distance_active_set

    def moved(*args, **kwargs):
        x, *rest = real(*args, **kwargs)
        return (x + 1e-6, *rest)

    monkeypatch.setattr(projection, "min_distance_active_set", moved)
    with pytest.raises(NumericalBreakdown, match="projection fails its certificate"):
        project(birkhoff_polytope(3), np.random.default_rng(9).normal(size=9))


def test_project_origin_with_an_equality_row_through_it():
    # 0 lies in P and the projection leaves rounding of 1e-16 in x: judged at |x| alone that
    # rounding would fail against itself; the polytope's size sets the floor.
    spec = PolytopeSpec(dim=3, A=[[1.0, 2.0, -3.0]], b=[0.0],
                        G=np.vstack([np.eye(3), -np.eye(3)]), h=np.ones(6))
    for z in (np.zeros(3), np.full(3, 0.3)):
        np.testing.assert_allclose(project(spec, z).x, z, atol=1e-15)


@pytest.mark.parametrize("seed", [8, 82, 178])
def test_far_target_lands_on_the_true_face(seed):
    # At eta = 1e9 the target is 1e9 away: ties judged to TIE_TOL of the whole step would let
    # a row enter the working set 1e-1 off the face, and x would come back up to 2e-1 wrong.
    inst = random_polytope_instance(seed)
    x_star = trace_path(inst).x_star
    np.testing.assert_allclose(solve_qlp(inst, 1e9).x, x_star, rtol=0, atol=1e-9)


def test_decay_bound_interval_equality(interval_inst):
    # On the sharp example the decay bound holds with equality.
    x_star = np.array([1.0])
    for eta in np.linspace(0.1, 4.0, 24):
        x = solve_qlp(interval_inst, float(eta)).x
        e = float(interval_inst.c @ (x - x_star))
        bound = (x_star @ x_star - x @ x - (x_star - x) @ (x_star - x)) / eta
        assert e == pytest.approx(float(bound), abs=1e-9)


def test_decay_bound_random_instance():
    rng = np.random.default_rng(21)
    spec = PolytopeSpec.box(np.zeros(3), np.ones(3))
    c = rng.normal(size=3)
    inst = QlpInstance(spec, c)
    vs = enumerate_vertices(spec)
    vals = vs.vertices @ c
    x_star_vertex = vs.vertices[int(np.argmin(vals))]
    for eta in np.linspace(0.05, 8.0, 30):
        x = solve_qlp(inst, float(eta)).x
        e = float(c @ (x - x_star_vertex))
        bound = (
            x_star_vertex @ x_star_vertex - x @ x - (x_star_vertex - x) @ (x_star_vertex - x)
        ) / eta
        assert e <= bound + 1e-9


def test_suboptimality_nonincreasing(interval_inst):
    vals = []
    for eta in np.linspace(0.05, 5.0, 40):
        x = solve_qlp(interval_inst, float(eta)).x
        vals.append(float(interval_inst.c @ x))
    assert np.all(np.diff(vals) <= 1e-12)


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_warm_start_accepted_at_scale(seed, monkeypatch):
    # A start the solver itself returned holds every row by the row rule at any scale, so a
    # warm solve on a polytope scaled by 1e10 never falls back to a cold start.
    inst = random_polytope_instance(seed)
    spec = inst.polytope
    scaled = replace(spec, h=1e10 * spec.h, b=1e10 * spec.b,
                     feasible_point=1e10 * spec.feasible_point)
    inst = QlpInstance(scaled, inst.c)
    prev, ref = solve_qlp(inst, 1e10), solve_qlp(inst, 2e10)

    def cold(spec):
        raise AssertionError("the warm start was refused")

    monkeypatch.setattr(projection, "_find_feasible_point", cold)
    warm = solve_qlp(inst, 2e10, start=prev.x, working_set=prev.working_set)
    assert np.max(np.abs(warm.x - ref.x)) <= 1e-9 * np.linalg.norm(ref.x)


def test_low_level_solver_on_cone():
    # The engine must also handle unbounded feasible cones.
    G = -np.eye(2)
    x, W, mu, lam, *_ = min_distance_active_set(
        np.zeros((0, 2)), G, np.zeros(2), np.array([1.0, -2.0]), np.zeros(2)
    )
    assert np.allclose(x, [1.0, 0.0], atol=1e-12)
    assert list(W) == [1] and lam[0] == pytest.approx(2.0, abs=1e-12)


def test_held_row_stays_an_equality():
    # A held row is never dropped: x stays on it, and its multiplier may be negative.
    G = np.vstack([np.eye(2), -np.eye(2)])
    h = np.array([1.0, 1.0, 0.0, 0.0])
    z, x0 = np.array([0.2, 0.5]), np.array([1.0, 0.5])
    free = min_distance_active_set(np.zeros((0, 2)), G, h, z, x0)[0]
    np.testing.assert_allclose(free, z, rtol=0.0, atol=1e-15)
    x, W, _, lam, *_ = min_distance_active_set(np.zeros((0, 2)), G, h, z, x0, held=[0])
    np.testing.assert_allclose(x, [1.0, 0.5], rtol=0.0, atol=1e-15)
    assert list(W) == [0] and lam[0] == pytest.approx(-0.8, abs=1e-15)
    np.testing.assert_allclose(z - x, G[W].T @ lam, rtol=0.0, atol=1e-15)


def test_result_json_keys(interval):
    res = project(interval, np.array([0.3]))
    data = res.to_json_dict()
    assert set(data) == {"x", "active_set", "residual"}


def _row_loop(base, M, order):
    """Reference rank rule: the rows of ``M``, visited in ``order``, whose residual off the
    orthonormal rows ``base`` and the rows kept before them (two Gram-Schmidt passes) exceeds
    ``RANK_TOL |row|``.  Returns the kept rows in visiting order and ``base`` extended by one
    orthonormal row per kept row."""
    d = M.shape[1]
    basis, kept = [*base], []
    for j in order:
        if len(basis) == d:
            break
        Qb = np.reshape(basis, (len(basis), d))
        res = M[j] - Qb.T @ (Qb @ M[j])
        res -= Qb.T @ (Qb @ res)
        nr = np.linalg.norm(res)
        if nr > RANK_TOL * np.linalg.norm(M[j]):
            basis.append(res / nr)
            kept.append(int(j))
    return kept, np.reshape(basis, (len(basis), d))


def _seed(A, G, order, eq=None):
    """The kernel's working-set seed when it visits the rows ``order`` of ``G``: every row
    of ``G[order]`` is tight at ``x0 = 0`` with ``h = 0``, so the kernel visits them in
    that order, and with ``z = x0`` it exits at once on the seed, the working set it
    returns."""
    order = [int(j) for j in order]
    d = G.shape[1]
    W = min_distance_active_set(A, G[order], np.zeros(len(order)), np.zeros(d), np.zeros(d),
                                eq=eq)[1]
    return [order[i] for i in W]


def test_kernel_seed_contract():
    G = np.array([
        [1.0, 0.0, 0.0],  # 0
        [2.0, 0.0, 0.0],  # 1: parallel to 0
        [0.0, 1.0, 0.0],  # 2
        [0.0, 1.0, 0.0],  # 3: duplicate of 2
        [0.0, 0.0, 1.0],  # 4: in the span of A below
        [1.0, 1.0, 1.0],  # 5
    ])
    A = np.array([[0.0, 0.0, 3.0]])
    assert _seed(A, G, []) == []
    assert _seed(A, G, [3, 1, 0, 2, 4, 5]) == [3, 1]
    # Without equality rows: the earlier of two dependent rows wins.
    none = np.zeros((0, 3))
    assert _seed(none, G, [0, 1, 2, 3, 4, 5]) == [0, 2, 4]
    assert _seed(none, G, [1, 0]) == [1]
    assert _seed(none, G, [5, 0, 2, 4]) == [5, 0, 2]
    assert _seed(A, G, [5, 4]) == [5]
    # A dependent general row of tiny entries is dropped: row norms are taken at their own scale.
    for s in (1.0, 1e-200):
        T = s * np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 0.0, 0.0]])
        assert _column_rule(none, T, [0, 1, 2, 3], _unit_columns(T)) == [0, 1, 3]
        assert _seed(none, T, [0, 1, 2, 3]) == [0, 1, 3]
    # On Birkhoff(3), once coordinates 1, 2 and 3 are fixed, edge 6 (row 2,
    # column 0) is a bridge of the free support graph, so fixing it too
    # depends on the equality rows alone.
    spec = birkhoff_polytope(3)
    assert _seed(spec.A, spec.G, [1, 2, 3, 6], spec.eq_reduction) == [1, 2, 3]
    assert _seed(spec.A, spec.G, [6, 1, 2, 3], spec.eq_reduction) == [6, 1, 2]
    # Orders of unit rows with repeats: the seed is the row loop's choice.
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5, 6):
        spec = birkhoff_polytope(n)
        _, base_q = _row_loop(np.zeros((0, spec.dim)), spec.A, range(spec.n_eq))
        G2 = np.vstack([spec.G, -2.0 * spec.G[:3]])  # repeats of unit rows
        for _ in range(20):
            order = rng.permutation(G2.shape[0])[: rng.integers(1, G2.shape[0] + 1)]
            ref = _row_loop(base_q, G2, order)[0]
            assert _seed(spec.A, G2, order, spec.eq_reduction) == ref
    # Near the rank tolerance: a column of A scaled towards zero, or nearly
    # a copy of another.  Every row is kept only when the full-rank test
    # accepts them, and those rows are independent; otherwise the column rule
    # seeds the working set, with rows that the full-rank test accepts: all it
    # keeps when the test accepts them, else a prefix of them in visiting order.
    accepted = ruled = shortened = 0
    for _ in range(400):
        d = int(rng.integers(2, 6))
        A = rng.normal(size=(int(rng.integers(1, d)), d))
        eps = 10.0 ** rng.uniform(-12, -8)
        if rng.random() < 0.5:
            A[:, rng.integers(d)] *= eps
        else:
            A[:, -1] = A[:, 0] + eps * rng.normal(size=A.shape[0])
        eq = _row_loop(np.zeros((0, d)), A, range(A.shape[0]))[0]
        A_red = A[eq]
        G3 = -np.eye(d) * rng.choice([1.0, 2.0, 1e-3], size=d)[:, None]
        order = list(rng.permutation(d)[: rng.integers(1, d - len(eq) + 1)])
        kept = _seed(A, G3, order, eq)
        if _FreeSystem(A_red, G3, sorted(order), _unit_columns(G3)).full_rank:
            assert kept == order
            rows = np.vstack([A_red, G3[kept]])
            rows /= np.linalg.norm(rows, axis=1)[:, None]
            sv = np.linalg.svd(rows, compute_uv=False)
            assert sv.min() > 1e-11 * sv.max()
            accepted += 1
        else:
            col = _unit_columns(G3)
            rule = _column_rule(A_red, G3, order, col)
            assert _FreeSystem(A_red, G3, sorted(kept), col).full_rank
            if _FreeSystem(A_red, G3, sorted(rule), col).full_rank:
                assert kept == rule
            else:
                assert kept == rule[:len(kept)]
                shortened += 1
            ruled += 1
    assert accepted > 0 and ruled > shortened > 0


def _forest_rule(n, col, order):
    """The column rule on Birkhoff(n), exact: cell ``i n + j`` is the edge ``(i, j)`` of the
    bipartite support graph.  Union-find grows a spanning forest over the unvisited cells first,
    then over the visited ones in reverse order of first visit; the kept rows are the first
    visits of the visited cells outside the forest, in visiting order."""
    parent = list(range(2 * n))

    def root(a):
        while parent[a] != a:
            a = parent[a]
        return a

    first = {}
    for j in order:
        first.setdefault(int(col[j]), int(j))
    forest = set()
    for cell in [c for c in range(n * n) if c not in first] + list(first)[::-1]:
        a, b = root(cell // n), root(n + cell % n)
        if a != b:
            parent[a] = b
            forest.add(cell)
    return [row for cell, row in first.items() if cell not in forest]


def test_column_rule_is_the_spanning_forest_rule_on_birkhoff():
    # The reference on the two Birkhoff(3) cases of test_kernel_seed_contract.
    spec = birkhoff_polytope(3)
    col = _unit_columns(spec.G)
    assert _forest_rule(3, col, [1, 2, 3, 6]) == [1, 2, 3]
    assert _forest_rule(3, col, [6, 1, 2, 3]) == [6, 1, 2]
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        spec = birkhoff_polytope(n)
        d = n * n
        # Repeats of unit rows, with either sign and other lengths.
        copies = [spec.G[rng.integers(d, size=n)] * s for s in (-2.0, 0.5)]
        G2 = np.vstack([spec.G, *copies])
        col = _unit_columns(G2)
        for _ in range(30):
            order = rng.permutation(G2.shape[0])[: rng.integers(1, G2.shape[0] + 1)]
            ref = _forest_rule(n, col, order)
            assert _seed(spec.A, G2, order, spec.eq_reduction) == ref
            assert _column_rule(spec.A[spec.eq_reduction], G2, order, col) == ref


def _dense_active_set(A, G, h, z, x0, w0=None):
    """Reference kernel: one plain QR of ``[A_red; G[W]]`` per iteration."""
    d, k = z.size, G.shape[0]
    x = x0.astype(float).copy()
    eq_idx, base_q = _row_loop(np.zeros((0, d)), A, range(A.shape[0]))
    A_red = A[eq_idx]
    tight = np.flatnonzero(h - G @ x <= 1e-9)
    order = tight if w0 is None else list(dict.fromkeys([*w0, *tight]))
    W = sorted(_row_loop(base_q, G, order)[0])
    zscale = 1.0 + np.linalg.norm(z)
    for _ in range(max(50 * (A.shape[0] + k), 100)):
        B = np.vstack([A_red, G[W]])
        Q, R = np.linalg.qr(B.T)
        v = z - x
        dvec = v - Q @ (Q.T @ v)
        nd = np.linalg.norm(dvec)
        if nd <= 1e-12 * zscale:
            lam = np.linalg.solve(R, Q.T @ v)[len(eq_idx):]
            if np.all(lam >= -1e-10):
                return x, W
            W.pop(int(np.flatnonzero(lam < -1e-10).min()))
            continue
        idx = np.setdiff1d(np.arange(k), W)
        Gd = G[idx] @ dvec
        pos = Gd > 1e-13 * (1.0 + np.linalg.norm(G[idx], axis=1) * nd)
        t = np.maximum(h[idx] - G[idx] @ x, 0.0)[pos] / Gd[pos]
        alpha = min(1.0, t.min(initial=np.inf))
        x = x + alpha * dvec
        if alpha < 1.0:
            W = sorted(W + [int(idx[pos][t <= alpha + 1e-12 * (1.0 + alpha)].min())])
    raise AssertionError("reference kernel did not converge")


def _kernel_cases():
    rng = np.random.default_rng(2024)
    for n in (2, 3, 4, 5):
        spec = birkhoff_polytope(n)
        c = random_cost_matrix(300 + n, n).ravel()
        cold = np.full(n * n, 1.0 / n)
        vertex = np.eye(n).ravel()
        for eta in (0.5, 5.0, 50.0):
            z = -0.5 * eta * c
            yield spec, z, cold, None
            yield spec, z, vertex, list(np.flatnonzero(vertex == 0.0))
    for seed in range(8):
        inst = random_polytope_instance(seed)
        for eta in (0.3, 3.0, 30.0):
            yield inst.polytope, inst.target(eta), inst.polytope.feasible_point, None
    for d in (3, 5):
        simplex = PolytopeSpec.simplex(d)
        box = PolytopeSpec.box(np.zeros(d), np.ones(d))
        for _ in range(3):
            z = 2.0 * rng.normal(size=d)
            yield simplex, z, simplex.feasible_point, None
            yield box, z, box.feasible_point, None


def test_kernel_matches_dense_reference():
    for spec, z, x0, w0 in _kernel_cases():
        x, W, mu, lam, *_ = min_distance_active_set(
            spec.A, spec.G, spec.h, z, x0, w0=w0, eq=spec.eq_reduction
        )
        x_ref, _ = _dense_active_set(spec.A, spec.G, spec.h, z, x0, w0)
        assert np.max(np.abs(x - x_ref)) <= 1e-10
        grad = z - x - spec.A.T @ mu - spec.G[W].T @ lam
        assert np.max(np.abs(grad)) <= KKT_TOL * (1.0 + np.linalg.norm(z))
        rows = np.vstack([spec.A[spec.eq_reduction], spec.G[W]])
        assert np.linalg.matrix_rank(rows) == rows.shape[0]


def test_free_system_full_rank():
    # Birkhoff(2): three independent equality rows on four coordinates.
    spec = birkhoff_polytope(2)
    A_red = spec.A[spec.eq_reduction]
    col = _unit_columns(spec.G)
    assert _FreeSystem(A_red, spec.G, [0], col).full_rank
    # Two fixed coordinates leave two free ones for three rows.
    assert not _FreeSystem(A_red, spec.G, [0, 1], col).full_rank
    # A coordinate fixed twice.
    G = np.vstack([spec.G, 2.0 * spec.G[:1]])
    assert not _FreeSystem(A_red, G, [0, 4], _unit_columns(G)).full_rank
    # A general row in the span of the equality rows.
    G = np.vstack([spec.G, spec.A[0] - spec.A[2]])
    assert not _FreeSystem(A_red, G, [4], _unit_columns(G)).full_rank
    assert _FreeSystem(np.zeros((0, 4)), G, [4], _unit_columns(G)).full_rank


def test_kernel_seeds_dependent_tight_rows_by_the_column_rule(monkeypatch):
    # The cone {x >= 0, A x = 0} at x0 = 0 with one column of A scaled
    # towards zero: all 36 bound rows are tight, and with the 5 rows of A
    # they are 41 rows in 36 dimensions, so the kernel's full-rank test
    # rejects them in every draw and the column rule seeds the working set.
    calls = [0]

    def counted_column_rule(*args):
        calls[0] += 1
        return _column_rule(*args)

    monkeypatch.setattr(projection, "_column_rule", counted_column_rule)
    rng = np.random.default_rng(0)
    d, m = 36, 5
    G, h, x0 = -np.eye(d), np.zeros(d), np.zeros(d)
    for _ in range(70):
        A = rng.normal(size=(m, d))
        A[:, rng.integers(d)] *= 10.0 ** rng.uniform(-10, -8)
        z = rng.normal(size=d)
        eq = _row_loop(np.zeros((0, d)), A, range(m))[0]
        x, W, mu, lam, *_ = min_distance_active_set(A, G, h, z, x0, eq=eq)
        x_ref, _ = _dense_active_set(A, G, h, z, x0)
        assert np.max(np.abs(x - x_ref)) <= 1e-10
        grad = z - x - A.T @ mu - G[W].T @ lam
        assert np.max(np.abs(grad)) <= KKT_TOL * (1.0 + np.linalg.norm(z))
    assert calls[0] == 70


def _comprehension_order(G, h, z, x0, held, w0):
    """The kernel's seed visiting order, built by a list comprehension over ``held`` and
    ``w0``: the reference for the order the kernel builds with masks."""
    scale = float(np.sqrt(z @ z) + np.sqrt(x0 @ x0))
    order = polytope._tight_rows(h - G @ x0, h, polytope._norms(G), scale)
    tight = set(order.tolist())
    first = [int(j) for j in [*held, *w0] if int(j) in tight]
    return list(dict.fromkeys(first + order.tolist()))


def _seed_order_cases():
    # The unit square with the redundant cut x1 + x2 <= 2: rows 0, 1 and 4 are tight at (1, 1)
    # and dependent; row 2 of w0 is not tight.
    G = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    yield np.zeros((0, 2)), G, np.array([1.0, 1.0, 0.0, 0.0, 2.0]), np.array([2.0, 3.0]), \
        np.ones(2), [1, 1], [0, 2, 2, 4, 4]
    # Birkhoff(11) at the identity: 110 tight bound rows; the diagonal rows of w0 are not tight.
    spec = birkhoff_polytope(11)
    z = np.random.default_rng(3).normal(size=121)
    off = np.flatnonzero(np.eye(11).ravel() == 0.0)
    yield spec.A, spec.G, spec.h, z, np.eye(11).ravel(), sorted([*off[:6], *off[2:4]]), \
        sorted([0, 0, 12, *off[40:70], *off[60:64], 120])
    # The critical cone of Birkhoff(11) at its apex, as the tracer's cone solve poses it: all
    # 121 bound rows are tight.
    yield spec.A, spec.G, np.zeros(121), z, np.zeros(121), sorted([*off[10:30], *off[15:20]]), \
        sorted([5, 5, *range(50, 90), 100, 100])


def test_kernel_seed_visits_held_then_w0_then_the_other_tight_rows(monkeypatch):
    # Callers pass held and w0 in ascending order (np.flatnonzero, a working set), repeats
    # allowed; on such lists the masks give the comprehension's order, which the column rule
    # receives when the tight rows are dependent.
    seen = []

    def recorded(A_red, G, order, col):
        seen.append(np.asarray(order).tolist())
        return _column_rule(A_red, G, order, col)

    monkeypatch.setattr(projection, "_column_rule", recorded)
    for A, G, h, z, x0, held, w0 in _seed_order_cases():
        seen.clear()
        reference = _comprehension_order(G, h, z, x0, held, w0)
        assert reference != sorted(reference)
        min_distance_active_set(A, G, h, z, x0, w0=w0, held=held)
        assert seen and seen[0] == reference
    assert len(reference) == 121


def test_warm_start_redundant_row():
    # Duplicate a row that is tight at the identity vertex of Birkhoff(3);
    # the tight rows there also depend on the (rank-deficient) equalities.
    spec = birkhoff_polytope(3)
    A = spec.A
    G = np.vstack([spec.G, spec.G[1:2]])
    h = np.append(spec.h, spec.h[1])
    x0 = np.eye(3).ravel()
    z = np.random.default_rng(3).normal(size=9)
    x_cold, *_ = min_distance_active_set(A, G, h, z, x0)
    tight = np.flatnonzero(h - G @ x0 <= 1e-9)
    w0 = [G.shape[0] - 1] + list(tight)
    x_warm, W, *_ = min_distance_active_set(A, G, h, z, x0, w0=w0)
    assert np.max(np.abs(x_warm - x_cold)) <= 1e-12
    rank_a = np.linalg.matrix_rank(A)
    assert np.linalg.matrix_rank(np.vstack([A, G[W]])) == rank_a + len(W)


@pytest.mark.parametrize("k", [-6, 6])
def test_active_set_scale_covariance(k):
    # proj_{sP}(s z) = s proj_P(z), and the rows tight there are the same.
    s = 10.0**k
    for seed in range(20):
        inst = random_polytope_instance(seed)
        spec = inst.polytope
        scaled = PolytopeSpec(
            dim=spec.dim, A=spec.A, b=s * spec.b, G=spec.G, h=s * spec.h,
            feasible_point=s * spec.feasible_point,
        )
        for eta in (1.0, 10.0):
            z = inst.target(eta)
            expect = project(spec, z).active_set
            np.testing.assert_array_equal(project(scaled, s * z).active_set, expect)


def test_active_set_tolerance_grows_with_target():
    # The cut x1 + x2 <= 2 + 1e-4 misses the corner (1, 1) by 1e-4.  At eta = 1e9 the
    # target is 7e8 away, the tight-row tolerance ZERO_TOL (|h| + |g| (|x| + |z|)) is
    # about 1e-3, and the cut is reported tight with multiplier zero; at eta = 10 it is not.
    G = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    spec = PolytopeSpec(dim=2, G=G, h=np.array([1.0, 1.0, 0.0, 0.0, 2.0 + 1e-4]))
    inst = QlpInstance(spec, np.array([-1.0, -1.0]))
    near = solve_qlp(inst, 10.0)
    np.testing.assert_array_equal(near.active_set, [0, 1])
    far = solve_qlp(inst, 1e9)
    np.testing.assert_array_equal(far.x, [1.0, 1.0])
    np.testing.assert_array_equal(far.active_set, [0, 1, 4])
    assert far.multipliers[2] == 0.0
    np.testing.assert_array_equal(far.working_set, [0, 1])


def _assert_same_result(res, ref):
    """The answers' fields agree bit for bit; ``warm_state``, which is not compared, is skipped."""
    for f in fields(res):
        if f.compare:
            np.testing.assert_array_equal(getattr(res, f.name), getattr(ref, f.name),
                                          err_msg=f.name)


def test_warm_chain_never_changes_an_answer(monkeypatch):
    # path_verify's sweep: increasing etas, each solve warm from the last answer.  Every answer
    # equals, bit for bit, the solve that starts from the last answer's point and working set,
    # which carries no kernel state; the chain factors fewer than half the working sets.
    built = [0]

    class Counted(_FreeSystem):
        def __init__(self, *args):
            built[0] += 1
            super().__init__(*args)

    monkeypatch.setattr(projection, "_FreeSystem", Counted)
    chain_built = fresh_built = 0
    for inst, etas in _warm_chains():
        prev = None
        for eta in etas:
            built[0] = 0
            res = solve_qlp(inst, eta, warm=prev)
            chain_built, built[0] = chain_built + built[0], 0
            start = {} if prev is None else {"start": prev.x, "working_set": prev.working_set}
            fresh = solve_qlp(inst, eta, **start)
            fresh_built += built[0]
            _assert_same_result(res, fresh)
            prev = res
    assert chain_built < 0.5 * fresh_built


def test_warm_state_is_per_spec():
    # The unit square and a parallelogram share the rows' indices: the corner of each nearest
    # (2, 2) has working set (0, 1).  Each answer keeps its own spec's factorization; an
    # answer on the other spec is judged like a start point.
    square = PolytopeSpec.box(np.zeros(2), np.ones(2))
    slanted = replace(square, G=np.array([[1.0, 0.5], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
    z = np.array([2.0, 2.0])
    firsts = {}
    for spec, corner in ((square, [1.0, 1.0]), (slanted, [0.5, 1.0])):
        first = firsts[spec.G[0, 1]] = project(spec, z)
        res = project(spec, z, warm=first)
        owner, system = res.warm_state
        assert owner is spec and system.W.tolist() == [0, 1] and system.G is spec.G
        _assert_same_result(res, project(spec, z, start=first.x, working_set=first.working_set))
        np.testing.assert_allclose(res.x, corner, rtol=0.0, atol=1e-15)
    for spec, other in ((square, firsts[0.5]), (slanted, firsts[0.0])):
        _assert_same_result(project(spec, z, warm=other),
                            project(spec, z, start=other.x, working_set=other.working_set))


def test_warm_replaces_start_and_working_set():
    square = PolytopeSpec.box(np.zeros(2), np.ones(2))
    prev = project(square, np.array([2.0, 2.0]))
    for extra in ({"start": prev.x}, {"working_set": prev.working_set}):
        with pytest.raises(ValueError):
            project(square, np.array([2.0, 0.5]), warm=prev, **extra)


def _warm_chains():
    """``path_verify``'s sweeps over random polytopes and transport instances: per case, a
    fresh copy of the instance and its increasing etas, solved in order, the first cold and
    each later one warm from the last answer."""
    cases = [random_polytope_instance(seed) for seed in range(20)]
    for i in range(5):
        n = int(np.random.default_rng(10000 + i).integers(2, 6))
        cases.append(ot_build(cost=random_cost_matrix(10000 + i, n)).qlp())
    chains = []
    for k, inst in enumerate(cases):
        hi = 1.2 * trace_path(inst).eta_star or 1.0
        etas = np.sort(np.random.default_rng(k).uniform(0.0, hi, 30))
        chains.append((QlpInstance(replace(inst.polytope), inst.c), etas.tolist()))
    return chains


def test_unblocked_full_step_goes_straight_to_the_exit(monkeypatch):
    # After an unblocked full step, x minimizes |x - z| on the working set's face: the kernel
    # takes the multipliers without projecting again.  Each exit pass finds the zero step a
    # projection would find (the kernel's own test), so it is the pass that ended the loop
    # when the kernel projected there, and ``iterations`` counts the passes it counted.
    chains = _warm_chains()
    scale, calls, last = [0.0], {"project": 0, "full": 0}, ["zero"]

    class Counted(_FreeSystem):
        def project(self, v):
            step = super().project(v)
            if last[0] != "extends":
                calls["project"] += 1
                last[0] = "zero" if np.linalg.norm(step) <= ZERO_TOL * scale[0] else "step"
            return step

        def extends(self, g, g_norm):
            before, last[0] = last[0], "extends"
            try:
                return super().extends(g, g_norm)
            finally:
                last[0] = before

        def multipliers(self, v):
            assert np.linalg.norm(_FreeSystem.project(self, v)) <= ZERO_TOL * scale[0]
            calls["full"] += last[0] == "step"
            last[0] = "zero"
            return super().multipliers(v)

    kernel = projection.min_distance_active_set

    def scaled_kernel(A, G, h, z, x0, **kwargs):
        scale[0] = float(np.sqrt(z @ z) + np.sqrt(x0 @ x0))
        return kernel(A, G, h, z, x0, **kwargs)

    monkeypatch.setattr(projection, "_FreeSystem", Counted)
    monkeypatch.setattr(projection, "min_distance_active_set", scaled_kernel)
    one_step = 0
    for inst, etas in chains:
        prev = None
        for eta in etas:
            calls["project"] = calls["full"] = 0
            prev = solve_qlp(inst, eta, warm=prev)
            assert prev.iterations == calls["project"] + calls["full"]
            if calls["full"] and prev.iterations == 2:  # one full step, then the exit pass
                assert calls["project"] == 1
                one_step += 1
    assert one_step > 300


def _reference_multipliers(system, v):
    """The multipliers by ``scipy.linalg.solve_triangular``, entry by entry as before."""
    m_red = system.A_red.shape[0]
    y_gen = (solve_triangular(system.R, system.Q.T @ v[system.free], check_finite=False)
             if system.R.size else np.zeros(0))
    resid = v - system.B.T @ y_gen
    y = np.empty(m_red + system.W.size)
    y[:m_red] = y_gen[:m_red]
    y[m_red + np.flatnonzero(~system.unit)] = y_gen[m_red:]
    coef = system.G[system.W[system.unit], system.fixed]
    y[m_red + np.flatnonzero(system.unit)] = resid[system.fixed] / coef
    return y


def test_multipliers_match_solve_triangular():
    # Random independent working sets of unit and general rows, of unit rows alone, and empty,
    # with and without equality rows: LAPACK's dtrtrs gives the bits solve_triangular gives.
    rng = np.random.default_rng(5)
    kinds = {"mixed": 0, "unit": 0, "empty": 0}
    for _ in range(600):
        d = int(rng.integers(2, 9))
        A = rng.normal(size=(int(rng.integers(0, d)), d))
        G = np.vstack([np.eye(d) * rng.choice([1.0, -2.0, 0.5], size=d)[:, None],
                       rng.normal(size=(d, d))])
        col = _unit_columns(G)
        A_red = A[_row_loop(np.zeros((0, d)), A, range(A.shape[0]))[0]]
        kind = rng.choice(list(kinds))
        pool = {"mixed": 2 * d, "unit": d, "empty": 0}[kind]
        size = int(rng.integers(0, d - A_red.shape[0] + 1)) if pool else 0
        W = sorted(rng.permutation(pool)[:size].tolist())
        system = _FreeSystem(A_red, G, W, col)
        if not system.full_rank:
            continue
        kinds[kind] += 1
        for scale in (1.0, 1e-9, 1e9):
            v = scale * rng.normal(size=d)
            np.testing.assert_array_equal(system.multipliers(v), _reference_multipliers(system, v))
    assert min(kinds.values()) > 50


def test_singular_multipliers_raise():
    # Two parallel rows, both factored (no unit column): R has an exact zero on its diagonal.
    G = np.array([[1.0, 0.0], [2.0, 0.0]])
    system = _FreeSystem(np.zeros((0, 2)), G, [0, 1], np.full(2, -1))
    assert system.R[1, 1] == 0.0
    with pytest.raises(np.linalg.LinAlgError):
        system.multipliers(np.ones(2))


@pytest.fixture
def row_rules(monkeypatch):
    """Counter of the row rule's runs (``PolytopeSpec.contains`` and every certificate)."""
    calls = [0]
    row_rule = polytope._row_rule

    def counted(*args, **kwargs):
        calls[0] += 1
        return row_rule(*args, **kwargs)

    monkeypatch.setattr(polytope, "_row_rule", counted)
    return calls


def test_warm_chain_judges_each_start_once(row_rules):
    # Each warm start of the sweep is the last answer, whose certificate has just held it to the
    # row rule: the solve runs the rule once, for its own certificate.
    warm_solves = 0
    for inst, etas in _warm_chains():
        prev = None
        for eta in etas:
            row_rules[0] = 0
            warm, prev = prev, solve_qlp(inst, eta, warm=prev)
            if warm is not None:
                assert row_rules[0] == 1
                warm_solves += 1
    assert warm_solves == 25 * 29


def test_start_point_is_always_judged(row_rules, monkeypatch):
    # Only an answer passed as ``warm`` on its own spec skips the row rule; a ``start`` array,
    # the last answer's point included, or an answer from a copy of the spec, is judged, and
    # the answers are the same.
    inst = random_polytope_instance(3)
    spec, z = inst.polytope, inst.target(2.0)
    prev = project(spec, inst.target(1.0))
    moved = prev.x.copy()
    moved[0] = np.nextafter(moved[0], np.inf)
    copied = project(replace(spec), inst.target(1.0))
    as_start = {"start": prev.x, "working_set": prev.working_set}
    for kwargs, runs, ref in (({"start": prev.x}, 2, {"start": prev.x}),
                              ({"start": moved}, 2, {"start": moved}),
                              ({"warm": prev}, 1, as_start), ({"warm": copied}, 2, as_start)):
        row_rules[0] = 0
        res = project(spec, z, **kwargs)
        assert row_rules[0] == runs
        _assert_same_result(res, project(replace(spec), z, **ref))
    # A start that breaks a row starts cold.
    cold = [0]
    find = projection._find_feasible_point

    def counted_find(spec):
        cold[0] += 1
        return find(spec)

    monkeypatch.setattr(projection, "_find_feasible_point", counted_find)
    outside = project(spec, z).x + 10.0
    assert not spec.contains(outside)
    cold[0] = 0
    res = project(spec, z, start=outside)
    assert cold[0] == 1
    _assert_same_result(res, project(replace(spec), z))


def test_warm_chain_leaves_the_spec_as_it_was(row_rules):
    # The warm state travels in the answers: after a warm chain the spec holds only its pure
    # cached properties and pickles to the length it had before the chain.  An answer from a
    # copy of the spec, or from another spec, is judged like a start point: the solve runs
    # the row rule as often as the solve from that start does, that is for the start as well,
    # and gives the same answer.
    pure = {"eq_reduction", "unit_columns", "row_norms", "eq_row_norms", "size"}
    for inst, etas in _warm_chains():
        spec = inst.polytope
        for name in pure:  # the cached properties are filled before the length is taken
            getattr(spec, name)
        before, prev = len(pickle.dumps(spec)), None
        for eta in etas:
            prev = solve_qlp(inst, eta, warm=prev)
        assert set(vars(spec)) - {f.name for f in fields(spec)} == pure
        assert len(pickle.dumps(spec)) == before
        z = inst.target(etas[-1])
        for other in (replace(spec), replace(spec, h=2.0 * spec.h)):
            foreign = project(other, z)
            runs = []
            for kwargs in ({"warm": foreign},
                           {"start": foreign.x, "working_set": foreign.working_set}):
                row_rules[0] = 0
                runs.append(project(spec, z, **kwargs))
                runs.append(row_rules[0])
            _assert_same_result(runs[0], runs[2])
            assert runs[1] == runs[3] >= 2


def _sweep_targets(inst, seed, samples=40):
    """``path_verify``'s targets: ``samples`` etas drawn on ``(0, 1.2 eta*]``, sorted."""
    eta_star = trace_path(inst).eta_star
    etas = np.random.default_rng(seed).uniform(0.0, 1.2 * eta_star if eta_star > 0 else 1.0,
                                               size=samples)
    etas = np.sort(etas[etas > 0])
    return etas, np.array([inst.target(eta) for eta in etas.tolist()])


def _sweep_cases(oracle_battery):
    """``(inst, seed)`` of the sweep comparisons: the ``oracle-battery`` rounds of seeds 0 and
    5, random polytopes, transport instances and the quadratic-cost family."""
    yield from oracle_battery(0)
    yield from oracle_battery(5)[:48]  # the transport and scaled instances are seed 0's
    yield from ((random_polytope_instance(s), s) for s in range(100))
    for s in range(25):
        for n in range(2, 6):
            yield ot_build(cost=random_cost_matrix(10_000 + s, n)).qlp(), s
    yield from ((quad_cost_instance(n).qlp(), n) for n in range(2, 9))


def _kernel_answers(spec, Z, sweep):
    """Per row of ``Z``, the last kernel answer of the sweep at or before it, made again by
    ``project(spec, z, warm=prev)``; each must be the sweep's own answer at its row."""
    prev = None
    for k, z in enumerate(Z):
        if sweep.kernel[k]:
            prev = project(spec, z, warm=prev)
            np.testing.assert_array_equal(sweep.x[k], prev.x)
        yield prev


def test_project_sweep_matches_the_warm_chain(oracle_battery):
    # The face steps agree with one warm kernel solve per target to 1e-12 of |x| + size.
    worst, kernel, samples = 0.0, 0, 0
    for inst, seed in _sweep_cases(oracle_battery):
        etas, Z = _sweep_targets(inst, seed)
        sweep = project_sweep(inst.polytope, Z)
        prev = None
        for eta, x in zip(etas.tolist(), sweep.x):
            prev = solve_qlp(inst, eta, warm=prev)
            gap = np.abs(x - prev.x).max() / (np.linalg.norm(prev.x) + inst.polytope.size)
            worst = max(worst, gap)
        kernel, samples = kernel + sweep.kernel.sum(), samples + len(Z)
    assert worst <= 1e-12
    assert kernel <= samples / 4


def test_project_sweep_certifies_every_face_step_and_refers_the_rest_to_the_kernel():
    # A face step passes the one-point certificate check on the working set of its kernel
    # answer; the first target off that face gets exactly the warm kernel solve from that
    # answer.  Targets are refused both for a row that blocks the step and for a multiplier
    # that turns negative.
    causes = set()
    for s in range(30):
        inst = random_polytope_instance(s)
        spec = inst.polytope
        _, Z = _sweep_targets(inst, s)
        sweep = project_sweep(spec, Z)
        assert sweep.kernel[0] and sweep.x.shape == Z.shape
        face = None  # the kernel answer on whose face the next target is stepped
        for k, answer in enumerate(_kernel_answers(spec, Z, sweep)):
            if face is not None:
                system, W = face.warm_state[1], face.working_set
                m_red = system.A_red.shape[0]
                x = face.x + system.project(Z[k] - face.x) if sweep.kernel[k] else sweep.x[k]
                r = Z[k] - x
                y = system.multipliers(r)
                mu = np.zeros(spec.n_eq)
                mu[spec.eq_reduction] = y[:m_red]
                cert = Certificate(W, mu, y[m_red:])
                if not sweep.kernel[k]:
                    _check_certificate(spec, x, r, cert, "face step")
                    continue
                size = np.linalg.norm(x) + spec.size
                if np.any(spec.G @ x - spec.h > 1e-9 * (np.abs(spec.h) + spec.row_norms * size)):
                    causes.add("row")
                if np.any(cert.lam * spec.row_norms[W] < -1e-9 * (size + np.linalg.norm(r))):
                    causes.add("multiplier")
            face = answer
    assert causes == {"row", "multiplier"}


def test_project_sweep_of_no_target_and_of_one(square):
    none = project_sweep(square, np.zeros((0, 2)))
    assert none.x.shape == (0, 2) and none.kernel.shape == (0,)
    z = np.array([2.0, -0.5])
    one = project_sweep(square, [z])
    np.testing.assert_array_equal(one.x, [project(square, z).x])
    assert one.kernel.tolist() == [True]
    for bad in (z, np.zeros((2, 3))):
        with pytest.raises(ShapeMismatch):
            project_sweep(square, bad)
