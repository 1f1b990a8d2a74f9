import numpy as np
import pytest

from qreglp import (
    BlockingConstraint,
    MaxSegmentsExceeded,
    PolytopeSpec,
    QlpInstance,
    Stationary,
    direction,
    next_breakpoint,
    path_state,
    project,
    solve_qlp,
    trace_path,
)
from qreglp import homotopy
from qreglp.oracle import random_cost_matrix, random_polytope_instance
from qreglp.ot import birkhoff_polytope, quad_cost_instance


def neg_id_instance(n):
    return QlpInstance(birkhoff_polytope(n), (-np.eye(n) / n).ravel())


def closed_form_neg_id(n, eta):
    pi0 = np.full(n * n, 1.0 / n)
    eye = np.eye(n).ravel()
    eta = min(eta, 2.0 * n)
    return (2 * n - eta) / (2 * n) * pi0 + eta / (2 * n) * eye


def test_interval_path(interval_inst):
    path = trace_path(interval_inst)
    assert np.allclose(path.breakpoints, [0.0, 2.0], atol=1e-12)
    assert path.x_zero == pytest.approx(0.0, abs=1e-12)
    assert path.x_star == pytest.approx(1.0, abs=1e-12)
    assert path.eta_star == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_neg_id_single_segment(n):
    path = trace_path(neg_id_instance(n))
    assert path.n_segments == 1
    assert path.eta_star == pytest.approx(2.0 * n, rel=1e-12)
    for eta in np.linspace(0.0, 2.5 * n, 16):
        assert np.max(np.abs(path.interpolate(float(eta)) - closed_form_neg_id(n, eta))) <= 1e-8


def test_quad_cost_threshold():
    inst = quad_cost_instance(3).qlp()
    path = trace_path(inst)
    assert path.eta_star == pytest.approx(54.0, rel=1e-9)


def test_direction_interval_interior(interval_inst):
    d = direction([], interval_inst)
    assert d == pytest.approx(0.5, abs=1e-14)


def test_direction_interval_pinned(interval_inst):
    # Row 0 is x <= 1; pinning it leaves a zero-dimensional face.
    d = direction([0], interval_inst)
    assert abs(float(d[0])) <= 1e-14


def test_direction_birkhoff_interior():
    inst = neg_id_instance(2)
    d = direction([], inst).reshape(2, 2)
    expect = np.array([[0.125, -0.125], [-0.125, 0.125]])
    assert np.allclose(d, expect, atol=1e-14)


def test_next_breakpoint_interval_blocking(interval_inst):
    state = path_state(interval_inst, 0.0)
    eta, event = next_breakpoint(state)
    assert isinstance(event, BlockingConstraint)
    assert eta == pytest.approx(2.0, abs=1e-12)
    assert list(event.rows) == [0]  # x <= 1 becomes tight


def test_next_breakpoint_interval_stationary(interval_inst):
    state = path_state(interval_inst, 2.0)
    eta, event = next_breakpoint(state)
    assert isinstance(event, Stationary)
    assert eta == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_next_breakpoint_birkhoff_simultaneous(n):
    inst = neg_id_instance(n)
    state = path_state(inst, 0.0)
    eta, event = next_breakpoint(state)
    assert isinstance(event, BlockingConstraint)
    assert eta == pytest.approx(2.0 * n, rel=1e-12)
    assert len(event.rows) == n * n - n  # every off-diagonal at once


def test_path_continuity_and_midpoints():
    rng = np.random.default_rng(17)
    for trial in range(5):
        d = int(rng.integers(2, 5))
        spec = PolytopeSpec.box(np.zeros(d), np.ones(d))
        inst = QlpInstance(spec, rng.normal(size=d))
        path = trace_path(inst)
        assert np.all(np.diff(path.breakpoints) > 0)
        for i in range(path.n_segments):
            mid = 0.5 * (path.breakpoints[i] + path.breakpoints[i + 1])
            x_mid = solve_qlp(inst, float(mid)).x
            assert np.max(np.abs(x_mid - path.interpolate(float(mid)))) <= 1e-7


def test_stationarity_beyond_threshold():
    inst = quad_cost_instance(3).qlp()
    path = trace_path(inst)
    for factor in (1.01, 2.0, 10.0):
        x = solve_qlp(inst, factor * path.eta_star).x
        assert np.max(np.abs(x - path.x_star)) <= 1e-8


def test_x_star_is_min_norm_over_optimal_face():
    rng = np.random.default_rng(31)
    for _ in range(4):
        d = int(rng.integers(2, 5))
        spec = PolytopeSpec.box(np.zeros(d), np.ones(d))
        inst = QlpInstance(spec, rng.normal(size=d))
        path = trace_path(inst)
        from qreglp import enumerate_vertices

        vs = enumerate_vertices(spec).mark_optimal(inst.c)
        opt = vs.optimal_vertices
        # norm minimality over optimal vertices, plus the projection
        # inequality of the origin onto the optimal face
        assert np.linalg.norm(path.x_star) <= np.min(np.linalg.norm(opt, axis=1)) + 1e-9
        gaps = (opt - path.x_star) @ path.x_star
        assert gaps.min() >= -1e-9


def test_x_zero_is_origin_projection():
    inst = quad_cost_instance(3).qlp()
    path = trace_path(inst)
    x0 = project(inst.polytope, np.zeros(inst.polytope.dim)).x
    assert np.max(np.abs(path.x_zero - x0)) <= 1e-10
    assert np.allclose(path.x_zero, 1.0 / 3.0, atol=1e-12)


def test_breakpoint_count_row_reorder():
    rng = np.random.default_rng(23)
    spec = PolytopeSpec.box(np.zeros(3), np.ones(3))
    c = rng.normal(size=3)
    path1 = trace_path(QlpInstance(spec, c))
    perm = rng.permutation(spec.n_ineq)
    spec2 = PolytopeSpec(dim=3, G=spec.G[perm], h=spec.h[perm])
    path2 = trace_path(QlpInstance(spec2, c))
    assert path1.n_segments == path2.n_segments
    assert np.allclose(path1.breakpoints, path2.breakpoints, atol=1e-9)


def test_intermediate_constant_segment_resumes():
    # The target ray sweeps across a vertex's normal cone and exits on
    # the far side: the path parks at the vertex on [2, 4], then moves on.
    G = np.array([[1.0, 0.0], [1.0, 1.0], [-2.0, -1.0]])
    h = np.array([-1.0, 0.0, 2.0])
    spec = PolytopeSpec(dim=2, G=G, h=h)
    inst = QlpInstance(spec, np.array([0.0, -1.0]))
    path = trace_path(inst)
    assert np.allclose(path.breakpoints, [0.0, 2.0, 4.0, 8.0], atol=1e-9)
    assert np.allclose(path.endpoints[1], path.endpoints[2], atol=1e-10)
    assert np.allclose(path.x_star, [-2.0, 2.0], atol=1e-9)


def test_zero_cost_path(interval):
    inst = QlpInstance(interval, np.zeros(1))
    path = trace_path(inst)
    assert path.eta_star == 0.0
    assert path.n_segments == 0
    assert path.x_star == pytest.approx(0.0, abs=1e-12)


def test_already_stationary_at_zero():
    # Shifted interval [1, 2] with positive cost: the origin projection
    # is already the minimum-norm LP solution.
    spec = PolytopeSpec.interval(1.0, 2.0)
    inst = QlpInstance(spec, np.array([1.0]))
    path = trace_path(inst)
    assert path.eta_star == 0.0
    assert path.x_star == pytest.approx(1.0, abs=1e-12)


def test_max_segments_guard():
    inst = quad_cost_instance(3).qlp()
    with pytest.raises(MaxSegmentsExceeded):
        trace_path(inst, max_segments=1)


def test_path_json_and_csv(interval_inst):
    path = trace_path(interval_inst)
    data = path.to_json_dict()
    assert set(data) == {"breakpoints", "endpoints", "eta_star"}
    rows = list(path.csv_rows())
    assert rows[0][0] == 0 and rows[0][1] == 0.0
    assert rows[-1][1] == pytest.approx(2.0)


def _dense_exit_time(spec, seg_rows, r0, rdot, cap):
    """Reference for the full-rank branch: one plain QR of ``[A; G_J]^T``.

    Returns ``("full", s_exit, rows)``, or ``("dependent", None, None)`` when
    the rows are dependent and the exit is left to the bisection.
    """
    A = spec.A if spec.n_eq else np.zeros((0, spec.dim))
    B = np.vstack([A, spec.G[seg_rows]])
    if B.shape[0] > B.shape[1]:
        return "dependent", None, None
    Q, R = np.linalg.qr(B.T)
    diag = np.abs(np.diag(R))
    if not (diag.size and diag.min() > 1e-9 * max(diag.max(), 1.0)):
        return "dependent", None, None
    lam0 = np.linalg.solve(R, Q.T @ r0)[A.shape[0]:]
    lamdot = np.linalg.solve(R, Q.T @ rdot)[A.shape[0]:]
    falling = lamdot < -1e-13 * (1.0 + np.abs(lamdot).max(initial=0.0))
    if not np.any(falling):
        return "full", cap, []
    s = -np.maximum(lam0[falling], 0.0) / lamdot[falling]
    smin = float(s.min())
    if cap is not None and smin >= cap:
        return "full", cap, []
    floor = 1e-13 * (1.0 + np.linalg.norm(r0) + np.linalg.norm(rdot))
    hit = seg_rows[falling][s <= smin + 1e-10 * (1.0 + smin)]
    return "full", max(smin, floor), sorted(int(j) for j in hit)


def _exit_time_cases():
    for n in range(4, 9):
        yield quad_cost_instance(n).qlp()
    for n in range(2, 6):
        yield QlpInstance(birkhoff_polytope(n), random_cost_matrix(500 + n, n).ravel())
    for seed in range(8):
        yield random_polytope_instance(seed)
    # Every bound row twice: a face's unit rows then fix one coordinate twice.
    box = PolytopeSpec.box(np.zeros(3), np.ones(3))
    G, h = np.vstack([box.G, 2.0 * box.G]), np.append(box.h, 2.0 * box.h)
    yield QlpInstance(PolytopeSpec(dim=3, G=G, h=h), np.array([1.0, -2.0, 0.5]))


def test_dual_exit_time_matches_dense_reference(monkeypatch):
    # Every _dual_exit_time call made while tracing with a nonempty face,
    # against the reference; the bisection runs only on the dependent branch.
    exit_time, membership = homotopy._dual_exit_time, homotopy._cone_membership
    member_calls = [0]
    branches = {"full": 0, "dependent": 0}

    def counted_membership(*args):
        member_calls[0] += 1
        return membership(*args)

    def checked_exit_time(spec, seg_rows, r0, rdot, cap):
        before = member_calls[0]
        s_exit, rows = exit_time(spec, seg_rows, r0, rdot, cap)
        if seg_rows.size == 0:
            return s_exit, rows
        branch = "dependent" if member_calls[0] > before else "full"
        ref_branch, s_ref, rows_ref = _dense_exit_time(spec, seg_rows, r0, rdot, cap)
        assert branch == ref_branch
        branches[branch] += 1
        if branch == "full":
            assert s_exit == s_ref or abs(s_exit - s_ref) <= 1e-12 * abs(s_ref)
            assert [int(j) for j in rows] == rows_ref
        return s_exit, rows

    monkeypatch.setattr(homotopy, "_cone_membership", counted_membership)
    monkeypatch.setattr(homotopy, "_dual_exit_time", checked_exit_time)
    for inst in _exit_time_cases():
        trace_path(inst)
    assert branches["full"] > 50 and branches["dependent"] > 0
