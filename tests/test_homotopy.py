import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import nnls

from qreglp import (
    BlockingConstraint,
    MaxSegmentsExceeded,
    NumericalBreakdown,
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
from qreglp.ot import build as ot_build


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


def _assert_cost_scale_covariant(inst, a):
    # x(eta; a c) = x(a eta; c), so the path of a c has breakpoints eta_i / a.
    path = trace_path(inst)
    scaled = trace_path(QlpInstance(inst.polytope, a * inst.c))
    assert scaled.n_segments == path.n_segments
    np.testing.assert_allclose(a * scaled.breakpoints, path.breakpoints, rtol=1e-9, atol=0.0)
    return scaled


@given(seed=st.integers(0, 2**31 - 1), k=st.integers(-6, 6))
@example(seed=4, k=6)
@example(seed=43, k=6)
@example(seed=130, k=6)
@example(seed=193, k=6)
@example(seed=203, k=-6)
def test_cost_scale_covariance(seed, k):
    _assert_cost_scale_covariant(random_polytope_instance(seed), 10.0**k)


def test_cost_scale_covariance_birkhoff():
    scaled = _assert_cost_scale_covariant(quad_cost_instance(4).qlp(), 1e6)
    assert scaled.eta_star == pytest.approx(2 * 4**3 / 1e6, rel=1e-9)


def _assert_polytope_scale_covariant(seed, k):
    # proj_{sP}(z) = s proj_P(z / s), so over s P the breakpoints are
    # s eta_i and x* is s x*.
    inst = random_polytope_instance(seed)
    spec, s = inst.polytope, 10.0**k
    scaled_spec = PolytopeSpec(
        dim=spec.dim, A=spec.A, b=s * spec.b, G=spec.G, h=s * spec.h,
        feasible_point=s * spec.feasible_point,
    )
    path = trace_path(inst)
    scaled = trace_path(QlpInstance(scaled_spec, inst.c))
    assert scaled.n_segments == path.n_segments
    np.testing.assert_allclose(scaled.breakpoints, s * path.breakpoints, rtol=1e-9, atol=0.0)
    x_tol = 1e-9 * s * max(1.0, np.max(np.abs(path.x_star)))
    np.testing.assert_allclose(scaled.x_star, s * path.x_star, rtol=0.0, atol=x_tol)


@given(seed=st.integers(0, 2**31 - 1), k=st.integers(-5, 6))
@example(seed=4, k=6)
@example(seed=19, k=6)
@example(seed=5178361, k=2)  # a rounding rate once let a dependent row into the cone solve
def test_polytope_scale_covariance(seed, k):
    _assert_polytope_scale_covariant(seed, k)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="x* drifts by 4.9e-4 relative at scale 1e-6 while the breakpoints stay exact; "
    "likely the absolute FEAS_TOL of tight_rows and _polish_min_norm",
)
def test_polytope_scale_covariance_tiny():
    _assert_polytope_scale_covariant(165, -6)


def _with_redundant_rows(inst, seed):
    # Up to two inequality rows appended again at a random positive scale,
    # then every inequality row permuted: the same polytope.
    spec = inst.polytope
    rng = np.random.default_rng(seed)
    dup = rng.choice(spec.n_ineq, min(2, spec.n_ineq), replace=False)
    scale = rng.uniform(0.5, 3.0, dup.size)
    G = np.vstack([spec.G, scale[:, None] * spec.G[dup]])
    h = np.append(spec.h, scale * spec.h[dup])
    perm = rng.permutation(G.shape[0])
    redundant = PolytopeSpec(
        dim=spec.dim, A=spec.A, b=spec.b, G=G[perm], h=h[perm], feasible_point=spec.feasible_point
    )
    return QlpInstance(redundant, inst.c)


@given(seed=st.integers(0, 2**31 - 1))
@example(seed=596)
@example(seed=622)
def test_redundant_rows_and_permutation_invariance(seed):
    inst = random_polytope_instance(seed)
    path = trace_path(inst)
    redundant = trace_path(_with_redundant_rows(inst, seed))
    assert redundant.n_segments == path.n_segments
    np.testing.assert_allclose(redundant.breakpoints, path.breakpoints, rtol=1e-9, atol=0.0)
    x_tol = 1e-9 * max(1.0, np.max(np.abs(path.x_star)))
    np.testing.assert_allclose(redundant.x_star, path.x_star, rtol=0.0, atol=x_tol)


@pytest.fixture
def lp_calls(monkeypatch):
    """Counter of the dependent-face linear programs solved while tracing."""
    calls = [0]
    linprog = homotopy.linprog

    def counted_linprog(*args, **kwargs):
        calls[0] += 1
        return linprog(*args, **kwargs)

    monkeypatch.setattr(homotopy, "linprog", counted_linprog)
    return calls


def test_duplicated_bound_row_quad_cost(lp_calls):
    # The bound on entry (0, 1) twice: every face holding it has dependent
    # rows, and the exit from such a face comes from the linear program.
    n = 5
    inst = quad_cost_instance(n).qlp()
    spec = inst.polytope
    G, h = np.vstack([spec.G, 2.0 * spec.G[1]]), np.append(spec.h, 2.0 * spec.h[1])
    doubled = PolytopeSpec(dim=spec.dim, A=spec.A, b=spec.b, G=G, h=h)
    path = trace_path(QlpInstance(doubled, inst.c))
    assert lp_calls[0] > 0
    assert path.eta_star == pytest.approx(2 * n**3, rel=1e-9)


def _with_all_marginals(n):
    # quad_cost_instance(n) with all 2n marginal rows, one implied by the others.
    inst = quad_cost_instance(n).qlp()
    spec = inst.polytope
    last_column = np.zeros(spec.dim)
    last_column[n - 1 :: n] = 1.0
    full = PolytopeSpec(
        dim=spec.dim, A=np.vstack([spec.A, last_column]), b=np.append(spec.b, 1.0),
        G=spec.G, h=spec.h, feasible_point=spec.feasible_point,
    )
    return QlpInstance(full, inst.c)


def test_redundant_marginal_row_quad_cost(lp_calls):
    # The implied marginal row must change nothing, linear programs included.
    n = 8
    path = trace_path(quad_cost_instance(n).qlp())
    lp_reduced = lp_calls[0]
    redundant = trace_path(_with_all_marginals(n))
    assert lp_calls[0] - lp_reduced == lp_reduced
    np.testing.assert_array_equal(redundant.breakpoints, path.breakpoints)


def test_missed_kink_raises(interval_inst, monkeypatch):
    # The true event is at eta = 2; reporting it late puts the landing solve
    # off the predicted ray, which must fail loudly rather than bend the path.
    true_next = homotopy.next_breakpoint

    def late_next(state):
        eta, event = true_next(state)
        return (1.5 * eta, event) if isinstance(event, BlockingConstraint) else (eta, event)

    monkeypatch.setattr(homotopy, "next_breakpoint", late_next)
    with pytest.raises(NumericalBreakdown, match="landing"):
        trace_path(interval_inst)


def test_path_json_and_csv(interval_inst):
    path = trace_path(interval_inst)
    data = path.to_json_dict()
    assert set(data) == {"breakpoints", "endpoints", "eta_star"}
    rows = list(path.csv_rows())
    assert rows[0][0] == 0 and rows[0][1] == 0.0
    assert rows[-1][1] == pytest.approx(2.0)


def _dense_exit_time(spec, seg_rows, r0, rdot, cap):
    """Reference for the full-rank branch: one plain QR of ``[A_red; G_J]^T``.

    Returns ``("full", s_exit, rows)``, or ``("dependent", None, None)`` when
    the rows are dependent and the exit is left to the linear program.
    """
    A = spec.A[spec.eq_reduction[0]]
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
    yield _with_all_marginals(6)
    # Redundant rows whose dependent faces are left before the cap.
    for seed in (596, 622):
        yield _with_redundant_rows(random_polytope_instance(seed), seed)


def _cone_residual(spec, seg_rows, v):
    """Distance from ``v`` to span(A rows) + cone(G_J rows), by ``nnls``."""
    aq = spec.eq_reduction[1]
    gj = spec.G[seg_rows]
    if aq.shape[0]:
        gj = gj - (gj @ aq.T) @ aq
        v = v - aq.T @ (aq @ v)
    return nnls(gj.T, v)[1]


def _check_dependent_exit(spec, seg_rows, r0, rdot, cap, s_exit):
    # The LP's exit against cone membership: r0 + s rdot lies in the cone
    # just below the exit and, unless the cap stopped it, outside just above.
    # Returns which of the two was checked.
    tol = 1e-9 * (1.0 + np.linalg.norm(r0) + np.linalg.norm(rdot))
    if s_exit is None:
        assert cap is None
        assert _cone_residual(spec, seg_rows, r0) <= tol
        assert _cone_residual(spec, seg_rows, rdot) <= tol
        return "dependent"
    assert 0.0 <= s_exit and (cap is None or s_exit <= cap)
    below = max(s_exit - 1e-9 * (1.0 + s_exit), 0.0)
    assert _cone_residual(spec, seg_rows, r0 + below * rdot) <= tol
    if cap is None or s_exit < cap:
        above = s_exit + 1e-6 * (1.0 + s_exit)
        assert _cone_residual(spec, seg_rows, r0 + above * rdot) > tol
        return "dependent exit"
    return "dependent"


def test_dual_exit_time_matches_dense_reference(monkeypatch, lp_calls):
    # Every _dual_exit_time call made while tracing with a nonempty face,
    # against the reference; the linear program runs only on the dependent
    # branch, and its exit is checked against cone membership.
    exit_time = homotopy._dual_exit_time
    branches = {"full": 0, "dependent": 0, "dependent exit": 0}

    def checked_exit_time(spec, seg_rows, r0, rdot, cap):
        before = lp_calls[0]
        s_exit, rows, *mult = exit_time(spec, seg_rows, r0, rdot, cap)
        if seg_rows.size == 0:
            return s_exit, rows, *mult
        branch = "dependent" if lp_calls[0] > before else "full"
        ref_branch, s_ref, rows_ref = _dense_exit_time(spec, seg_rows, r0, rdot, cap)
        assert branch == ref_branch
        if branch == "full":
            assert s_exit == s_ref or abs(s_exit - s_ref) <= 1e-12 * abs(s_ref)
            assert [int(j) for j in rows] == rows_ref
        else:
            assert len(rows) == 0
            branch = _check_dependent_exit(spec, seg_rows, r0, rdot, cap, s_exit)
        branches[branch] += 1
        return s_exit, rows, *mult

    monkeypatch.setattr(homotopy, "_dual_exit_time", checked_exit_time)
    for inst in _exit_time_cases():
        trace_path(inst)
    assert branches["full"] > 50 and branches["dependent"] > 0 and branches["dependent exit"] > 0


def test_trace_projects_once(monkeypatch, lp_calls):
    # The cold start is the only projection: every piece is certified from
    # the event analysis's multipliers, and a dependent face runs no linear
    # program beyond its exit.
    calls = [0]
    project_ = homotopy.project

    def counted_project(*args, **kwargs):
        calls[0] += 1
        return project_(*args, **kwargs)

    monkeypatch.setattr(homotopy, "project", counted_project)
    # The transport instance has faces with dependent rows, left by the LP.
    cases = [quad_cost_instance(8).qlp(), ot_build(cost=random_cost_matrix(10003, 3)).qlp()]
    cases += [random_polytope_instance(seed) for seed in range(20)]
    for i, inst in enumerate(cases):
        calls[0], lp_calls[0] = 0, 0
        path = trace_path(inst)
        assert calls[0] == 1
        assert len(path.certificates) == path.n_segments
        assert lp_calls[0] <= path.n_segments + 1
        if i == 1:
            assert lp_calls[0] > 0


@pytest.mark.parametrize("case", ["quad6", 1, 4, 5])
def test_perturbed_direction_raises(monkeypatch, case):
    # A direction off by 1e-6 leaves the face or the normal cone's span;
    # the end certificates must catch it.
    inst = quad_cost_instance(6).qlp() if case == "quad6" else random_polytope_instance(case)
    trace_path(inst)
    right_derivative = homotopy._right_derivative

    def perturbed(*args):
        d, r, ws = right_derivative(*args)
        if np.any(d):
            d = d + 1e-6 * np.random.default_rng(0).normal(size=d.size) / np.sqrt(d.size)
        return d, r, ws

    monkeypatch.setattr(homotopy, "_right_derivative", perturbed)
    with pytest.raises(NumericalBreakdown, match="certificate"):
        trace_path(inst)


@pytest.mark.parametrize("seed", [6, 9, 23])
def test_late_dropping_multiplier_raises(monkeypatch, seed):
    # Past a multiplier's zero crossing its certificate goes negative, and the
    # landing of that very piece fails on it.
    true_next = homotopy.next_breakpoint
    drops = [0]

    def late_next(state):
        eta, event = true_next(state)
        if isinstance(event, homotopy.DroppingMultiplier):
            drops[0] += 1
            return state.eta + 1.2 * (eta - state.eta), event
        return eta, event

    monkeypatch.setattr(homotopy, "next_breakpoint", late_next)
    with pytest.raises(NumericalBreakdown, match="certificate .*smallest multiplier -"):
        trace_path(random_polytope_instance(seed))
    assert drops[0] == 1


def _reference_trace(inst):
    """Breakpoints of the tracer that re-solves each piece at its landing and
    midpoint, from the predicted point, instead of certifying its two ends."""
    spec = inst.polytope
    cost_norm = float(np.linalg.norm(inst.c)) or 1.0
    unit = QlpInstance(spec, inst.c / cost_norm)
    eta, x, warm = 0.0, project(spec, np.zeros(spec.dim)).x, None
    etas = [0.0]
    while True:
        state = homotopy._make_state(unit, eta, x, warm)
        eta_next, event = homotopy.next_breakpoint(state)
        if isinstance(event, Stationary):
            return np.asarray(etas) / cost_norm
        rows = [int(j) for j in state.tight] + [int(j) for j in event.rows]
        for t in (0.5, 1.0):
            pred = x + t * (eta_next - eta) * state.direction_vec
            z = unit.target(eta + t * (eta_next - eta))
            solved = project(spec, z, start=pred, working_set=rows).x
            assert np.max(np.abs(solved - pred)) <= 1e-8 * (1.0 + np.linalg.norm(pred))
        etas.append(eta_next)
        eta, x, warm = eta_next, solved, state.cone_ws


def _reference_cases():
    for seed in range(40):
        yield random_polytope_instance(seed)
    for seed in range(10000, 10010):
        for n in (2, 3, 4):
            yield ot_build(cost=random_cost_matrix(seed, n)).qlp()


def test_matches_resolving_reference():
    for inst in _reference_cases():
        path = trace_path(inst)
        np.testing.assert_allclose(path.breakpoints, _reference_trace(inst), rtol=1e-10, atol=0.0)
