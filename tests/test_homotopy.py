import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, nnls

from qreglp import (
    BlockingConstraint,
    MaxSegmentsExceeded,
    NumericalBreakdown,
    PolytopeSpec,
    QlpInstance,
    Stationary,
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
from qreglp._tolerances import ZERO_TOL
from qreglp.projection import Certificate, _FreeSystem, _ratio_test


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


@pytest.mark.parametrize("n", [3, 28, 31, 32])
def test_quad_cost_threshold(n):
    # eta* = 2 n^3 up to the advertised budget n = 32, with no rounding-sized piece.
    path = trace_path(quad_cost_instance(n).qlp())
    assert path.eta_star == pytest.approx(2.0 * n**3, rel=1e-13)
    np.testing.assert_allclose(path.x_star.reshape(n, n), np.eye(n), rtol=0.0, atol=1e-13)
    assert path.n_segments == {3: 2, 28: 181, 31: 224, 32: 239}[n]
    assert np.all(np.diff(path.breakpoints) >= 1e-9 * path.breakpoints[1:])


@pytest.mark.parametrize("n", [16, 24])
def test_quad_cost_permuted(n):
    # Coordinates, equality rows and inequality rows permuted: the same path, permuted.
    inst = quad_cost_instance(n).qlp()
    spec, rng = inst.polytope, np.random.default_rng(n)
    col, eq, ineq = (rng.permutation(m) for m in (spec.dim, spec.n_eq, spec.n_ineq))
    permuted = PolytopeSpec(dim=spec.dim, A=spec.A[eq][:, col], b=spec.b[eq],
                            G=spec.G[ineq][:, col], h=spec.h[ineq])
    path = trace_path(QlpInstance(permuted, inst.c[col]))
    assert path.n_segments == {16: 56, 24: 131}[n]
    assert path.eta_star == pytest.approx(2.0 * n**3, rel=1e-13)
    np.testing.assert_allclose(path.x_star, np.eye(n).ravel()[col], rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("seed, n", [(1045, 5), (10003, 3), (10003, 5)])
def test_transport_eta_star_exact(seed, n):
    # Each ends on a slowly moving piece.  With one optimal permutation P*, eta* is the vertex
    # formula max 2 <P*, P* - P> / <c, P - P*> over the permutations, here in exact arithmetic.
    inst = ot_build(cost=random_cost_matrix(seed, n)).qlp()
    C = [[Fraction(float(v)) for v in row] for row in inst.c.reshape(n, n)]
    cost = {p: sum(C[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n))}
    best = min(cost.values())
    (opt,) = [p for p, v in cost.items() if v == best]
    exact = max(Fraction(2 * sum(a != b for a, b in zip(p, opt))) / (v - best)
                for p, v in cost.items() if p != opt)
    assert abs(Fraction(trace_path(inst).eta_star) - exact) <= Fraction(1e-11) * exact


def test_direction_interval_interior(interval_inst):
    # At eta = 0 the path leaves the vertex x = 0 into the interval.
    d = path_state(interval_inst, 0.0).direction_vec
    assert d == pytest.approx(0.5, abs=1e-14)


def test_direction_interval_pinned(interval_inst):
    # At eta = 2 the path reaches x = 1, where row 0 (x <= 1) pins it.
    d = path_state(interval_inst, 2.0).direction_vec
    assert abs(float(d[0])) <= 1e-14


def test_direction_birkhoff_interior():
    inst = neg_id_instance(2)
    d = path_state(inst, 0.0).direction_vec.reshape(2, 2)
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


@pytest.mark.parametrize("s", [1e155, 1e200, 1e300])
def test_cost_norm_past_the_square_root_of_the_largest_double(s):
    # |c|^2 overflows a double for s >= 1e155; the path is still that of c / s scaled by 1 / s.
    square = PolytopeSpec.box(np.zeros(2), np.ones(2))
    path = trace_path(QlpInstance(square, -s * np.array([1.0, 0.5])))
    np.testing.assert_allclose(s * path.breakpoints, [0.0, 2.0, 4.0], rtol=1e-15, atol=0.0)
    np.testing.assert_array_equal(path.x_star, [1.0, 1.0])


def test_cost_norm_past_the_largest_double_raises():
    square = PolytopeSpec.box(np.zeros(2), np.ones(2))
    with pytest.raises(NumericalBreakdown, match="overflows"):
        trace_path(QlpInstance(square, np.array([1.7e308, 1.7e308])))


def _scaled_polytope(inst, s):
    """``inst`` over ``s P``: ``h``, ``b``, the vertices and the feasible point scaled."""
    spec = inst.polytope
    scaled_spec = PolytopeSpec(
        dim=spec.dim, A=spec.A, b=s * spec.b, G=spec.G, h=s * spec.h,
        vertices=None if spec.vertices is None else s * spec.vertices,
        feasible_point=s * spec.feasible_point,
    )
    return QlpInstance(scaled_spec, inst.c)


def _assert_polytope_scale_covariant(seed, k):
    # proj_{sP}(z) = s proj_P(z / s), so over s P the breakpoints are
    # s eta_i and x* is s x*.
    inst, s = random_polytope_instance(seed), 10.0**k
    path = trace_path(inst)
    scaled = trace_path(_scaled_polytope(inst, s))
    assert scaled.n_segments == path.n_segments
    np.testing.assert_allclose(scaled.breakpoints, s * path.breakpoints, rtol=1e-9, atol=0.0)
    x_tol = 1e-9 * s * max(1.0, np.max(np.abs(path.x_star)))
    np.testing.assert_allclose(scaled.x_star, s * path.x_star, rtol=0.0, atol=x_tol)


@given(seed=st.integers(0, 2**31 - 1), k=st.integers(-12, 12))
@example(seed=4, k=6)
@example(seed=19, k=6)
@example(seed=137, k=7)
@example(seed=165, k=7)
@example(seed=5178361, k=2)  # a rounding rate once let a dependent row into the cone solve
@example(seed=1, k=8)  # from 1e8 an absolute KKT floor failed the cold projection
@example(seed=1, k=10)
@example(seed=1, k=12)
@example(seed=232, k=-8)  # below 1e-8, absolute floors in the kernel failed the cold projection
@example(seed=193, k=-9)
@example(seed=4, k=-10)
@example(seed=118, k=-10)
@example(seed=144, k=-10)
def test_polytope_scale_covariance(seed, k):
    _assert_polytope_scale_covariant(seed, k)


def test_polytope_scale_covariance_tiny():
    # At scale 1e-6 an absolute slack test of 1e-9 is 1e-3 of the polytope:
    # the tight rows must be decided at the data's scale.
    _assert_polytope_scale_covariant(165, -6)


def test_polytope_scale_covariance_below_1e_8_matches():
    # At 1e-8 an absolute floor in the end certificates exceeded the polytope, and x*
    # came back 24 % off; then the kernel's absolute floors failed the cold projection.
    _assert_polytope_scale_covariant(232, -8)


@pytest.mark.parametrize("seed, s", [(10008, 1e-6), (10008, 1e-9), (10003, 1e6), (10003, 1e9)])
def test_birkhoff_scale_covariance(seed, s):
    # HiGHS's absolute tolerances in the dependent-face program failed at 1e6 and 1e9, and
    # the kernel's absolute floors failed the landing certificates at 1e-6 and 1e-9.
    inst = ot_build(cost=random_cost_matrix(seed, 5)).qlp()
    path = trace_path(inst)
    scaled = trace_path(_scaled_polytope(inst, s))
    assert scaled.n_segments == path.n_segments
    np.testing.assert_allclose(scaled.breakpoints, s * path.breakpoints, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(scaled.x_star, s * path.x_star, rtol=0.0,
                               atol=1e-12 * s * np.abs(path.x_star).max())


def _scaled_row(inst, row, s):
    """``inst`` with inequality row ``row`` and its ``h`` times ``s``: the same polytope."""
    G, h = inst.polytope.G.copy(), inst.polytope.h.copy()
    G[row], h[row] = s * G[row], s * h[row]
    return QlpInstance(replace(inst.polytope, G=G, h=h), inst.c)


def _assert_same_path(path, ref):
    assert path.n_segments == ref.n_segments
    np.testing.assert_allclose(path.breakpoints, ref.breakpoints, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(path.x_star, ref.x_star, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("k", [-13, -11, -9, 8])
def test_row_scale_invariance_square(k):
    # The unit square cut by s (x1 + x2) <= 1.5 s: rank tests that floored a row's norm at one
    # made the dependent-face program infeasible at s = 1e-9 and stalled the tracer below.
    square = PolytopeSpec(dim=2, G=np.vstack([np.eye(2), -np.eye(2), [[1.0, 1.0]]]),
                          h=[1.0, 1.0, 0.0, 0.0, 1.5])
    inst = QlpInstance(square, np.array([-1.0, -0.9]))
    _assert_same_path(trace_path(_scaled_row(inst, 4, 10.0**k)), trace_path(inst))


def test_zero_row_changes_nothing(dependent_faces, lp_calls):
    # A zero row 0 x <= 0 is tight everywhere and makes every face dependent; the exit
    # program leaves its multiplier unweighed.
    square = PolytopeSpec(dim=2, G=np.vstack([np.eye(2), -np.eye(2), [[1.0, 1.0]]]),
                          h=[1.0, 1.0, 0.0, 0.0, 1.5])
    with_zero = replace(square, G=np.vstack([square.G, np.zeros((1, 2))]), h=[*square.h, 0.0])
    c = np.array([-1.0, -0.9])
    _assert_same_path(trace_path(QlpInstance(with_zero, c)), trace_path(QlpInstance(square, c)))
    assert dependent_faces[0] > 0
    # On the face {cut, zero row}, the pair's multiplier 1 - s on the cut crosses at s = 1,
    # before the cap 3: the program decides, with the zero row's multiplier left as it is.
    lp_calls[0] = 0
    rows, ray = np.array([4, 5]), np.array([1.0, 1.0])
    pair = (Certificate(rows[:1], np.zeros(0), np.ones(1)),
            Certificate(rows[:1], np.zeros(0), -np.ones(1)))
    s_exit, drop, y0, ydot = homotopy._dual_exit_time(with_zero, rows, ray, -ray, 3.0, 0.0, pair)
    assert lp_calls[0] == 1
    assert s_exit == pytest.approx(1.0, rel=1e-12) and drop.size == 0
    assert np.all(np.isfinite(y0)) and not np.any(ydot)


def test_pair_refuses_a_multiplier_off_the_face():
    # The pair is a multiplier of the face's rows only when neither certificate holds weight
    # elsewhere; a zero multiplier off the face is dropped, any other sends the exit to the
    # linear program.
    square = PolytopeSpec.box(np.zeros(2), np.ones(2))
    rows, cone = np.array([0, 1]), Certificate(np.array([0]), np.zeros(0), np.ones(1))
    for lam2, settled in ((0.0, True), (1e-300, False)):
        start = Certificate(np.array([0, 2]), np.zeros(0), np.array([1.0, lam2]))
        ray = homotopy._pair_ray(square, rows, (start, cone))
        assert (ray is not None) == settled
        if settled:
            np.testing.assert_array_equal(ray[0], [1.0, 0.0])
            np.testing.assert_array_equal(ray[1], [1.0, 0.0])


def test_failed_exit_program_raises(monkeypatch):
    # A dependent face without a certificate pair goes to the exit program; any status but
    # optimal (0) or unbounded (3) is a typed error, never an exit time.
    square = PolytopeSpec(dim=2, G=np.vstack([np.eye(2), -np.eye(2), [[1.0, 1.0]], [[0.0, 0.0]]]),
                          h=[1.0, 1.0, 0.0, 0.0, 1.5, 0.0])
    monkeypatch.setattr(homotopy, "linprog",
                        lambda *args, **kwargs: OptimizeResult(status=2, message="infeasible"))
    ray = np.array([1.0, 1.0])
    with pytest.raises(NumericalBreakdown, match="normal-cone exit LP failed: infeasible"):
        homotopy._dual_exit_time(square, np.array([4, 5]), ray, -ray, 3.0, 0.0)


def test_unblocked_moving_ray_raises(interval_inst):
    # A piece that moves (d != 0) on a bounded polytope must meet a row off its face; with
    # every row on the face none is left to block it.
    state = path_state(interval_inst, 0.0)
    assert np.any(state.direction_vec)
    every_row = replace(state, segment_rows=np.arange(interval_inst.polytope.n_ineq))
    with pytest.raises(NumericalBreakdown, match="moving ray never blocked"):
        next_breakpoint(every_row)


@pytest.mark.parametrize("k", [-13, -10, -8])
def test_row_scale_invariance(k):
    # Each rank test weighs a row at its own norm and each multiplier as lam_i |g_i|, so
    # scaling the last row moves no decision.
    for seed in range(30):
        inst = random_polytope_instance(seed)
        _assert_same_path(trace_path(_scaled_row(inst, -1, 10.0**k)), trace_path(inst))


def test_next_breakpoint_ties_at_the_polytope_scale():
    # Ties to TIE_TOL (1 + t) are as wide as the whole path at scale 1e-10: row 2 tied with 5.
    inst = random_polytope_instance(0)
    for s in (1.0, 1e-10):
        _, event = next_breakpoint(path_state(_scaled_polytope(inst, s), 0.0))
        assert isinstance(event, BlockingConstraint)
        assert [int(j) for j in event.rows] == [5]


def _with_redundant_rows(inst, seed, rescale=False):
    # Up to two inequality rows appended again at a random positive scale,
    # then, with ``rescale``, every inequality row and its h multiplied by
    # 10^U(-2, 2), then every inequality row permuted: the same polytope.
    spec = inst.polytope
    rng = np.random.default_rng(seed)
    dup = rng.choice(spec.n_ineq, min(2, spec.n_ineq), replace=False)
    scale = rng.uniform(0.5, 3.0, dup.size)
    G = np.vstack([spec.G, scale[:, None] * spec.G[dup]])
    h = np.append(spec.h, scale * spec.h[dup])
    if rescale:
        row_scale = 10.0 ** rng.uniform(-2.0, 2.0, G.shape[0])
        G, h = row_scale[:, None] * G, row_scale * h
    perm = rng.permutation(G.shape[0])
    redundant = PolytopeSpec(
        dim=spec.dim, A=spec.A, b=spec.b, G=G[perm], h=h[perm], feasible_point=spec.feasible_point
    )
    return QlpInstance(redundant, inst.c)


@given(seed=st.integers(0, 2**31 - 1), rescale=st.booleans())
@example(seed=596, rescale=False)
@example(seed=622, rescale=False)
def test_redundant_rows_and_permutation_invariance(seed, rescale):
    inst = random_polytope_instance(seed)
    path = trace_path(inst)
    redundant = trace_path(_with_redundant_rows(inst, seed, rescale))
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


def _full_rank(spec, seg_rows):
    A_red = spec.A[spec.eq_reduction]
    return _FreeSystem(A_red, spec.G, seg_rows, spec.unit_columns).full_rank


@pytest.fixture
def dependent_faces(monkeypatch):
    """Counter of the exits from a face with dependent rows, which the certificate pair
    settles or, when the pair crosses before the cap, the linear program."""
    calls = [0]
    exit_time = homotopy._dual_exit_time

    def counted_exit_time(spec, seg_rows, *args):
        calls[0] += not _full_rank(spec, seg_rows)
        return exit_time(spec, seg_rows, *args)

    monkeypatch.setattr(homotopy, "_dual_exit_time", counted_exit_time)
    return calls


def test_duplicated_bound_row_quad_cost(dependent_faces):
    # The bound on entry (0, 1) twice: every face holding it has dependent rows.
    n = 5
    inst = quad_cost_instance(n).qlp()
    spec = inst.polytope
    G, h = np.vstack([spec.G, 2.0 * spec.G[1]]), np.append(spec.h, 2.0 * spec.h[1])
    doubled = PolytopeSpec(dim=spec.dim, A=spec.A, b=spec.b, G=G, h=h)
    path = trace_path(QlpInstance(doubled, inst.c))
    assert dependent_faces[0] > 0
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


def test_late_landing_off_a_row_raises(monkeypatch):
    # On the unit square with c = -(1, 1e-6) the last row blocks at eta = 2e6, where the
    # residual is 1e6 times the square.  Rows are judged at the scale of x and the polytope,
    # not of the residual: a landing 1e-4 past that row must fail.
    square = PolytopeSpec(dim=2, G=np.vstack([np.eye(2), -np.eye(2)]), h=[1.0, 1.0, 0.0, 0.0])
    true_next = homotopy.next_breakpoint
    moved = []

    def overshoot(state):
        eta, event = true_next(state)
        if isinstance(event, BlockingConstraint) and eta > 1e5:
            moved.append(eta)
            eta = eta + 1e-4 / (square.G[event.rows] @ state.direction_vec).max()
        return eta, event

    monkeypatch.setattr(homotopy, "next_breakpoint", overshoot)
    with pytest.raises(NumericalBreakdown, match=r"landing .*off the face by 1\.00e-04"):
        trace_path(QlpInstance(square, np.array([-1.0, -1e-6])))
    assert len(moved) == 1


def test_trace_with_an_equality_row_through_the_origin():
    # The cold projection of 0 lands on 0 up to rounding; the certificate's polytope-size
    # term keeps that rounding from being judged against itself.
    spec = PolytopeSpec(dim=3, A=[[1.0, 2.0, -3.0]], b=[0.0],
                        G=np.vstack([np.eye(3), -np.eye(3)]), h=np.ones(6))
    path = trace_path(QlpInstance(spec, np.array([-1.0, 1.0, 0.0])))
    assert path.eta_star == pytest.approx(22 / 9, rel=1e-12)
    np.testing.assert_allclose(path.x_star, [1.0, -1.0, -1 / 3], atol=1e-12)
    path = trace_path(QlpInstance(spec, np.array([1.0, 0.5, -0.2])))
    assert path.eta_star == pytest.approx(100 / 11, rel=1e-12)
    np.testing.assert_allclose(path.x_star, [-1.0, -1.0, -1.0], atol=1e-12)


@pytest.mark.parametrize("case", ["interval", 4, 9])
def test_stalled_tracer_raises(interval_inst, monkeypatch, case):
    # Events reported at the current eta make no progress; five in a row stall the trace.
    true_next = homotopy.next_breakpoint

    def stuck(state):
        eta, event = true_next(state)
        return (eta, event) if isinstance(event, Stationary) else (state.eta, event)

    monkeypatch.setattr(homotopy, "next_breakpoint", stuck)
    inst = interval_inst if case == "interval" else random_polytope_instance(case)
    with pytest.raises(NumericalBreakdown, match="stalled"):
        trace_path(inst)


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
    A = spec.A[spec.eq_reduction]
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
    aq = np.linalg.qr(spec.A[spec.eq_reduction].T)[0].T  # orthonormal rows spanning A's
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
    # branch, and the dependent exit is checked against cone membership.
    exit_time = homotopy._dual_exit_time
    branches = {"full": 0, "dependent": 0, "dependent exit": 0}

    def checked_exit_time(spec, seg_rows, r0, rdot, cap, eta, pair):
        before = lp_calls[0]
        s_exit, rows, *mult = exit_time(spec, seg_rows, r0, rdot, cap, eta, pair)
        if seg_rows.size == 0:
            return s_exit, rows, *mult
        branch = "full" if _full_rank(spec, seg_rows) else "dependent"
        assert branch == "dependent" or lp_calls[0] == before
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


def test_certificate_pair_agrees_with_the_program(monkeypatch, lp_calls):
    # Every dependent exit the certificate pair settles, without the linear program, is
    # the program's exit on the same inputs: the cap, or no exit at all.
    exit_time = homotopy._dual_exit_time
    settled = [0]

    def compared_exit_time(spec, seg_rows, r0, rdot, cap, eta, pair):
        before = lp_calls[0]
        out = exit_time(spec, seg_rows, r0, rdot, cap, eta, pair)
        if lp_calls[0] == before and not _full_rank(spec, seg_rows):
            settled[0] += 1
            s_lp = exit_time(spec, seg_rows, r0, rdot, cap, eta)[0]
            assert lp_calls[0] == before + 1
            assert (out[0] is None and s_lp is None) or (
                out[0] == pytest.approx(s_lp, rel=1e-12, abs=0.0))
        return out

    monkeypatch.setattr(homotopy, "_dual_exit_time", compared_exit_time)
    for inst in _exit_time_cases():
        trace_path(inst)
    assert settled[0] > 20


def test_exit_reuses_the_cone_factorization(monkeypatch):
    # When the cone solve ends on the segment's rows, rdot's certificate keeps the factorization
    # of [A_red; G_J] and _dual_exit_time builds none; its answer is, bit for bit, the one a
    # new factorization gives.
    built = [0]

    class Counted(_FreeSystem):
        def __init__(self, *args):
            built[0] += 1
            super().__init__(*args)

    monkeypatch.setattr(homotopy, "_FreeSystem", Counted)
    exit_time = homotopy._dual_exit_time
    seen = {"same rows": 0, "other rows": 0}

    def checked_exit_time(spec, seg_rows, r0, rdot, cap, eta, pair):
        built[0] = 0
        out = exit_time(spec, seg_rows, r0, rdot, cap, eta, pair)
        same = np.array_equal(pair[1].rows, seg_rows)
        assert built[0] == (0 if same else 1)
        seen["same rows" if same else "other rows"] += 1
        unkept = (pair[0], pair[1]._replace(system=None))
        fresh = exit_time(spec, seg_rows, r0, rdot, cap, eta, unkept)
        for a, b in zip(out, fresh):
            assert (a is None and b is None) or np.array_equal(a, b)
        return out

    monkeypatch.setattr(homotopy, "_dual_exit_time", checked_exit_time)
    for inst in _exit_time_cases():
        trace_path(inst)
    assert seen["same rows"] > 80 and seen["other rows"] > 10


def test_oracle_check_transport_set_needs_few_programs(lp_calls):
    # Guard for the certificate pair: on the transport instances `oracle-check` runs, the
    # dependent faces exit by the pair, and the program runs only where it crosses first.
    for i in range(25):
        n = int(np.random.default_rng(10000 + i).integers(2, 6))
        trace_path(ot_build(cost=random_cost_matrix(10000 + i, n)).qlp())
    assert lp_calls[0] <= 5


def test_trace_projects_once(monkeypatch, lp_calls, dependent_faces):
    # The cold start is the only projection: every piece is certified from
    # the event analysis's multipliers, and a dependent face runs no linear
    # program beyond its exit.
    calls = [0]
    project_ = homotopy.project

    def counted_project(*args, **kwargs):
        calls[0] += 1
        return project_(*args, **kwargs)

    monkeypatch.setattr(homotopy, "project", counted_project)
    # The transport instance has faces with dependent rows.
    cases = [quad_cost_instance(8).qlp(), ot_build(cost=random_cost_matrix(10003, 3)).qlp()]
    cases += [random_polytope_instance(seed) for seed in range(20)]
    for i, inst in enumerate(cases):
        calls[0], lp_calls[0], dependent_faces[0] = 0, 0, 0
        path = trace_path(inst)
        assert calls[0] == 1
        assert len(path.certificates) == path.n_segments
        assert lp_calls[0] <= path.n_segments + 1
        if i == 1:
            assert dependent_faces[0] > 0


@pytest.mark.parametrize("case", ["quad6", 1, 4, 5])
def test_perturbed_direction_raises(monkeypatch, case):
    # A direction off by 1e-6 leaves the face or the normal cone's span;
    # the end certificates must catch it.
    inst = quad_cost_instance(6).qlp() if case == "quad6" else random_polytope_instance(case)
    trace_path(inst)
    right_derivative = homotopy._right_derivative

    def perturbed(*args):
        d, cone = right_derivative(*args)
        if np.any(d):
            d = d + 1e-6 * np.random.default_rng(0).normal(size=d.size) / np.sqrt(d.size)
        return d, cone

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
    midpoint, from the predicted point, instead of certifying its two ends;
    each piece starts from the landing solve's point and certificate."""
    spec = inst.polytope
    cost_norm = float(np.linalg.norm(inst.c)) or 1.0
    unit = QlpInstance(spec, inst.c / cost_norm)
    eta, res = 0.0, project(spec, np.zeros(spec.dim))
    etas = [0.0]
    while True:
        x = res.x
        tight = np.flatnonzero(spec.h - spec.G @ x <= 1e-9)
        cert = Certificate(res.active_set, res.eq_multipliers, res.multipliers)
        state = homotopy._make_state(unit, eta, x, tight, cert)
        eta_next, event = homotopy.next_breakpoint(state)
        if isinstance(event, Stationary):
            return np.asarray(etas) / cost_norm
        rows = [int(j) for j in state.tight] + [int(j) for j in event.rows]
        for t in (0.5, 1.0):
            pred = x + t * (eta_next - eta) * state.direction_vec
            z = unit.target(eta + t * (eta_next - eta))
            res = project(spec, z, start=pred, working_set=rows)
            assert np.max(np.abs(res.x - pred)) <= 1e-8 * (1.0 + np.linalg.norm(pred))
        etas.append(eta_next)
        eta = eta_next


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


def _copied_rows_next_breakpoint(state):
    """:func:`homotopy.next_breakpoint` with the blocking ratio test on copied rows ``G[idx]``
    and its own slack and rate: the reference for the state's shared ``slack`` and ``rate``."""
    inst, spec = state.inst, state.inst.polytope
    d = state.direction_vec
    outside = np.ones(spec.n_ineq, dtype=bool)
    outside[state.segment_rows] = False
    idx = np.flatnonzero(outside)
    G = spec.G[idx]
    t_block, block_rows = _ratio_test(
        spec.h[idx] - G @ state.x, G @ d, spec.row_norms[idx] * np.linalg.norm(d), idx, state.eta
    )
    rdot = -0.5 * inst.c - d
    s_dual, drop_rows, *mult = homotopy._dual_exit_time(
        spec, state.segment_rows, state.residual, rdot, t_block, state.eta,
        (state.certificate, state.direction_certificate))
    if s_dual is None:
        return state.eta, Stationary()
    if t_block is None or s_dual < t_block:
        return state.eta + s_dual, homotopy.DroppingMultiplier(drop_rows, tuple(mult))
    return state.eta + t_block, BlockingConstraint(block_rows, tuple(mult))


def _slack_and_rate_cases():
    for n in range(2, 9):
        yield quad_cost_instance(n).qlp()
    for seed in range(40):
        yield random_polytope_instance(seed)
    for seed in range(10000, 10010):
        for n in (2, 3, 4):
            yield ot_build(cost=random_cost_matrix(seed, n)).qlp()


def test_state_slack_and_rate_are_the_products_of_the_piece(monkeypatch):
    # Each piece takes h - G x and G d once; every reader must see the bits that its own
    # product on copied rows gave, so no breakpoint, event or segment row moves.
    true_next = homotopy.next_breakpoint
    states = [0]

    def checked(state):
        spec, d, tight = state.inst.polytope, state.direction_vec, state.tight
        assert state.slack.tobytes() == (spec.h - spec.G @ state.x).tobytes()
        assert state.rate.tobytes() == (spec.G @ d).tobytes()
        gd = spec.G[tight] @ d
        seg = tight[np.abs(gd) <= ZERO_TOL * spec.row_norms[tight] * np.linalg.norm(d)]
        assert np.array_equal(state.segment_rows, seg)
        eta, event = true_next(state)
        ref_eta, ref_event = _copied_rows_next_breakpoint(state)
        assert eta == ref_eta and type(event) is type(ref_event)
        if not isinstance(event, Stationary):
            assert np.array_equal(event.rows, ref_event.rows)
            for y, y_ref in zip(event.multipliers, ref_event.multipliers):
                assert y.tobytes() == y_ref.tobytes()
        states[0] += 1
        return eta, event

    monkeypatch.setattr(homotopy, "next_breakpoint", checked)
    for inst in _slack_and_rate_cases():
        trace_path(inst)
    assert states[0] > 300  # 366 pieces and stops
