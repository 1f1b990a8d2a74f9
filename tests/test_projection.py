import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qreglp import (
    PolytopeSpec,
    ProjectionResult,
    QlpInstance,
    certify,
    enumerate_vertices,
    project,
    solve_qlp,
)
from qreglp import projection
from qreglp.oracle import random_cost_matrix, random_polytope_instance
from qreglp.ot import birkhoff_polytope
from qreglp.polytope import _extend_basis
from qreglp.projection import (
    _BATCH_MIN_ROWS,
    KKT_TOL,
    _extend_independent,
    _extend_unit_rows,
    _FreeSystem,
    _unit_columns,
    min_distance_active_set,
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


def test_certify_pass(interval):
    vs = enumerate_vertices(interval)
    res = project(interval, np.array([-0.5]))
    rep = certify(interval, res, np.array([-0.5]), vs)
    assert rep.passed and rep.max_violation <= 0.0 + 1e-12


def test_certify_detects_wrong_point(interval):
    vs = enumerate_vertices(interval)
    fake = ProjectionResult(
        x=np.array([0.1]),
        active_set=np.zeros(0, dtype=int),
        multipliers=np.zeros(0),
        residual=0.0,
    )
    rep = certify(interval, fake, np.array([-0.5]), vs)
    assert not rep.passed
    assert rep.max_violation == pytest.approx(0.06, abs=1e-12)


def test_certify_interior_exact(interval):
    vs = enumerate_vertices(interval)
    z = np.array([0.25])
    res = project(interval, z)
    rep = certify(interval, res, z, vs)
    assert rep.passed and abs(rep.max_violation) <= 1e-12


def test_low_level_solver_on_cone():
    # The engine must also handle unbounded feasible cones.
    G = -np.eye(2)
    x, W, mu, lam, _ = min_distance_active_set(
        np.zeros((0, 2)), G, np.zeros(2), np.array([1.0, -2.0]), np.zeros(2)
    )
    assert np.allclose(x, [1.0, 0.0], atol=1e-12)
    assert list(W) == [1] and lam[0] == pytest.approx(2.0, abs=1e-12)


def test_result_json_keys(interval):
    res = project(interval, np.array([0.3]))
    data = res.to_json_dict()
    assert set(data) == {"x", "active_set", "residual"}


def test_extend_independent_contract():
    G = np.array([
        [1.0, 0.0, 0.0],  # 0
        [2.0, 0.0, 0.0],  # 1: parallel to 0
        [0.0, 1.0, 0.0],  # 2
        [0.0, 1.0, 0.0],  # 3: duplicate of 2
        [0.0, 0.0, 1.0],  # 4: in the span of base_q below
        [1.0, 1.0, 1.0],  # 5
    ])
    base_q = np.array([[0.0, 0.0, 1.0]])  # orthonormal basis of the row (0, 0, 3)
    assert _extend_independent(base_q, G, []) == []
    kept = _extend_independent(base_q, G, np.array([3, 1, 0, 2, 4, 5]))
    assert kept == [3, 1]
    assert isinstance(kept, list) and all(type(j) is int for j in kept)
    # Without equality rows: the earlier of two dependent rows wins.
    none = np.zeros((0, 3))
    assert _extend_independent(none, G, [0, 1, 2, 3, 4, 5]) == [0, 2, 4]
    assert _extend_independent(none, G, [1, 0]) == [1]
    assert _extend_independent(none, G, [5, 0, 2, 4]) == [5, 0, 2]
    assert _extend_independent(base_q, G, [5, 4]) == [5]
    # Long orders of unit rows are kept in one batch, which agrees with the
    # row-by-row test away from the rank tolerance; it is called directly on
    # the short orders below.
    # On Birkhoff(3), once coordinates 1, 2 and 3 are fixed, edge 6 (row 2,
    # column 0) is a bridge of the free support graph, so fixing it too
    # depends on the equality rows alone.
    spec = birkhoff_polytope(3)
    _, base_q = spec.eq_reduction
    G = spec.G
    assert _extend_independent(base_q, G, [1, 2, 3, 6]) == [1, 2, 3]
    assert _extend_independent(base_q, G, [6, 1, 2, 3]) == [6, 1, 2]
    assert _batch(base_q, G, [1, 2, 3, 6]) == [1, 2, 3]
    assert _batch(base_q, G, [6, 1, 2, 3]) == [6, 1, 2]
    rng = np.random.default_rng(11)
    long_orders = 0
    for n in (2, 3, 4, 5, 6):
        spec = birkhoff_polytope(n)
        _, base_q = spec.eq_reduction
        G2 = np.vstack([spec.G, -2.0 * spec.G[:3]])  # repeats of unit rows
        for _ in range(20):
            order = rng.permutation(G2.shape[0])[: rng.integers(1, G2.shape[0] + 1)]
            ref = _extend_basis(base_q, G2, list(order))[0]
            assert _extend_independent(base_q, G2, order) == ref
            assert _batch(base_q, G2, order) == ref
            long_orders += len(order) >= _BATCH_MIN_ROWS
    assert long_orders > 0
    # Near the rank tolerance: a column of A scaled towards zero, or nearly
    # a copy of another.  The batch may then differ from the loop, but a
    # choice the kernel's full-rank test certifies is independent.
    certified_other = rejected = 0
    for _ in range(400):
        d = int(rng.integers(2, 6))
        A = rng.normal(size=(int(rng.integers(1, d)), d))
        eps = 10.0 ** rng.uniform(-12, -8)
        if rng.random() < 0.5:
            A[:, rng.integers(d)] *= eps
        else:
            A[:, -1] = A[:, 0] + eps * rng.normal(size=A.shape[0])
        eq_idx, base_q = _extend_basis(np.zeros((0, d)), A, range(A.shape[0]))
        A_red = A[eq_idx]
        G3 = -np.eye(d) * rng.choice([1.0, 2.0, 1e-3], size=d)[:, None]
        order = list(rng.permutation(d))
        kept = sorted(_batch(base_q, G3, order))
        if _FreeSystem(A_red, G3, kept, _unit_columns(G3)).full_rank:
            rows = np.vstack([A_red, G3[kept]])
            rows /= np.linalg.norm(rows, axis=1)[:, None]
            sv = np.linalg.svd(rows, compute_uv=False)
            assert sv.min() > 1e-11 * sv.max()
            certified_other += kept != sorted(_extend_basis(base_q, G3, order)[0])
        else:
            rejected += 1
    assert certified_other > 0 and rejected > 0


def _batch(base_q, G, order):
    """The batch seed on an order of unit rows, whatever its length."""
    order = [int(j) for j in order]
    return _extend_unit_rows(base_q, G, order, _unit_columns(G[order]))


def _dense_active_set(A, G, h, z, x0, w0=None):
    """Reference kernel: one plain QR of ``[A_red; G[W]]`` per iteration."""
    d, k = z.size, G.shape[0]
    x = x0.astype(float).copy()
    eq_idx, base_q = _extend_basis(np.zeros((0, d)), A, range(A.shape[0]))
    A_red = A[eq_idx]
    tight = np.flatnonzero(h - G @ x <= 1e-9)
    order = tight if w0 is None else list(dict.fromkeys([*w0, *tight]))
    W = sorted(_extend_basis(base_q, G, list(order))[0])
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
        x, W, mu, lam, _ = min_distance_active_set(
            spec.A, spec.G, spec.h, z, x0, w0=w0, eq=spec.eq_reduction
        )
        x_ref, _ = _dense_active_set(spec.A, spec.G, spec.h, z, x0, w0)
        assert np.max(np.abs(x - x_ref)) <= 1e-10
        grad = z - x - spec.A.T @ mu - spec.G[W].T @ lam
        assert np.max(np.abs(grad)) <= KKT_TOL * (1.0 + np.linalg.norm(z))
        rows = np.vstack([spec.A[spec.eq_reduction[0]], spec.G[W]])
        assert np.linalg.matrix_rank(rows) == rows.shape[0]


def test_free_system_full_rank():
    # Birkhoff(2): three independent equality rows on four coordinates.
    spec = birkhoff_polytope(2)
    A_red = spec.A[spec.eq_reduction[0]]
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


def test_kernel_reseeds_rejected_batch(monkeypatch):
    # The cone {x >= 0, A x = 0} at x0 = 0 with one column of A scaled
    # towards zero: all 36 bound rows are tight, so the batch seeds the
    # working set, and near the rank tolerance the kernel's full-rank test
    # rejects it in 3 of these 70 draws and seeds row by row instead.
    reseeds = [0]

    def counted_extend_basis(*args):
        reseeds[0] += 1
        return _extend_basis(*args)

    monkeypatch.setattr(projection, "_extend_basis", counted_extend_basis)
    rng = np.random.default_rng(0)
    d, m = 36, 5
    G, h, x0 = -np.eye(d), np.zeros(d), np.zeros(d)
    for _ in range(70):
        A = rng.normal(size=(m, d))
        A[:, rng.integers(d)] *= 10.0 ** rng.uniform(-10, -8)
        z = rng.normal(size=d)
        eq = _extend_basis(np.zeros((0, d)), A, range(m))
        x, W, mu, lam, _ = min_distance_active_set(A, G, h, z, x0, eq=eq)
        x_ref, _ = _dense_active_set(A, G, h, z, x0)
        assert np.max(np.abs(x - x_ref)) <= 1e-10
        grad = z - x - A.T @ mu - G[W].T @ lam
        assert np.max(np.abs(grad)) <= KKT_TOL * (1.0 + np.linalg.norm(z))
    assert reseeds[0] > 0


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
