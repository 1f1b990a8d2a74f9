import numpy as np
import pytest

from qreglp import (
    DegeneratePath,
    PolytopeSpec,
    QlpInstance,
    SolutionPath,
    VertexSet,
    enumerate_vertices,
    solve_qlp,
    trace_path,
)
from qreglp.analysis import (
    analyze,
    aux_cost_check,
    e_curve,
    eta_star_formula,
    gap_bound,
    orthogonality_condition,
    slope_report,
    small_eta_report,
    suboptimality,
)
from qreglp.oracle import random_cost_matrix, random_polytope_instance
from qreglp.ot import birkhoff_polytope, build, quad_cost_instance


def neg_id_instance(n):
    spec = birkhoff_polytope(n, attach_vertices=True)
    return QlpInstance(spec, (-np.eye(n) / n).ravel())


def test_suboptimality_interval(interval_inst):
    assert suboptimality(interval_inst, 1.0, -1.0) == pytest.approx(0.5, abs=1e-10)
    for eta in (2.0, 3.0, 10.0):
        assert suboptimality(interval_inst, eta, -1.0) == pytest.approx(0.0, abs=1e-10)


def test_suboptimality_birkhoff_neg_id():
    inst = neg_id_instance(3)
    # E(3) = (eta* - eta) (n-1) / (2 n^2) with eta* = 6.
    lp_val = float(inst.c @ np.eye(3).ravel())
    assert suboptimality(inst, 3.0, lp_val) == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_eta_star_formula_interval(interval_inst):
    vs = enumerate_vertices(interval_inst.polytope).mark_optimal(interval_inst.c)
    eta, argmax = eta_star_formula(vs, interval_inst.c, np.array([1.0]))
    assert eta == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(vs.vertices[argmax], [[0.0]])


def test_eta_star_formula_reads_the_optimal_mask(interval_inst):
    # The formula excludes the vertices the mask flags, and marks an
    # unmarked set itself: on [0, 1] with c = -1 only v = 1 is optimal.
    c, x_star = interval_inst.c, np.array([1.0])
    eta, argmax = eta_star_formula(VertexSet([[0.0], [1.0]], optimal_mask=[True, True]), c, x_star)
    assert eta == 0.0 and argmax.size == 0
    eta, argmax = eta_star_formula(VertexSet([[0.0], [1.0]]), c, x_star)
    assert eta == 2.0 and argmax.tolist() == [0]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eta_star_formula_birkhoff(n):
    inst = neg_id_instance(n)
    vs = enumerate_vertices(inst.polytope).mark_optimal(inst.c)
    eta, _ = eta_star_formula(vs, inst.c, np.eye(n).ravel())
    assert eta == pytest.approx(2.0 * n, rel=1e-9)


def test_eta_star_formula_quad_cost():
    inst = quad_cost_instance(4).qlp()
    path = trace_path(inst)
    vs = enumerate_vertices(inst.polytope).mark_optimal(inst.c)
    eta, _ = eta_star_formula(vs, inst.c, path.x_star)
    assert eta == pytest.approx(128.0, rel=1e-9)


def test_eta_star_formula_all_optimal(interval):
    c = np.zeros(1)
    vs = enumerate_vertices(interval).mark_optimal(c)
    eta, argmax = eta_star_formula(vs, c, np.zeros(1))
    assert eta == 0.0 and argmax.size == 0


def test_eta_star_formula_clamped_negative():
    # Positive cost on [1, 2]: x* = x0 = 1, the raw maximand is negative.
    spec = PolytopeSpec.interval(1.0, 2.0)
    c = np.array([1.0])
    vs = enumerate_vertices(spec).mark_optimal(c)
    eta, _ = eta_star_formula(vs, c, np.array([1.0]))
    assert eta == 0.0


def test_aux_cost_interval(interval_inst):
    path = trace_path(interval_inst)
    vs = enumerate_vertices(interval_inst.polytope).mark_optimal(interval_inst.c)
    _, argmax = eta_star_formula(vs, interval_inst.c, path.x_star)
    chk = aux_cost_check(path, interval_inst.c, vs, argmax)
    # c* = (2/2)(-1) + 1 = 0: everything degenerates to zero.
    assert np.allclose(chk.aux_cost, 0.0, atol=1e-12)
    assert chk.passed


def test_aux_cost_neg_id_reduces_to_zero():
    # With the identity matching and threshold 2n, the auxiliary cost
    # collapses: (2n/2)(-Id/n) + Id = 0, so every check is trivial.
    inst = neg_id_instance(2)
    path = trace_path(inst)
    vs = enumerate_vertices(inst.polytope).mark_optimal(inst.c)
    _, argmax = eta_star_formula(vs, inst.c, path.x_star)
    chk = aux_cost_check(path, inst.c, vs, argmax)
    assert np.allclose(chk.aux_cost, 0.0, atol=1e-12)
    assert chk.passed


def test_aux_cost_quad2_hand_identity():
    # Quadratic cost at n = 2: threshold 16 gives c* = 4C + Id, and the
    # swap (which carries the interior of the last segment) satisfies
    # <c*, P_swap - Id> = 0.
    inst = quad_cost_instance(2)
    c_aux_hand = 4.0 * inst.cost + np.eye(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.sum(c_aux_hand * (swap - np.eye(2))) == pytest.approx(0.0, abs=1e-12)
    qlp = inst.qlp()
    path = trace_path(qlp)
    vs = enumerate_vertices(qlp.polytope).mark_optimal(qlp.c)
    _, argmax = eta_star_formula(vs, qlp.c, path.x_star)
    chk = aux_cost_check(path, qlp.c, vs, argmax)
    assert np.allclose(chk.aux_cost.reshape(2, 2), c_aux_hand, atol=1e-9)
    assert chk.passed


def test_aux_cost_random_instance_ratio_identity():
    hits = 0
    for seed in (40, 41, 42, 43, 44):
        inst = random_polytope_instance(seed)
        path = trace_path(inst)
        vs = enumerate_vertices(inst.polytope).mark_optimal(inst.c)
        _, argmax = eta_star_formula(vs, inst.c, path.x_star)
        chk = aux_cost_check(path, inst.c, vs, argmax)
        assert chk.ratio_identity_error <= 1e-7
        assert chk.passed
        hits += path.n_segments > 0
    assert hits >= 2  # the identity was exercised on moving paths


def test_slope_interval(interval_inst):
    rep = slope_report(trace_path(interval_inst), interval_inst.c)
    assert rep.slope == pytest.approx(0.5, abs=1e-12)
    assert rep.bound_angle == pytest.approx(0.5, abs=1e-12)
    assert rep.bound_norm == pytest.approx(0.5, abs=1e-12)
    assert rep.chain_holds


@pytest.mark.parametrize("n", [2, 3, 5])
def test_slope_birkhoff_neg_id(n):
    inst = neg_id_instance(n)
    rep = slope_report(trace_path(inst), inst.c)
    assert rep.slope == pytest.approx((n - 1) / (2.0 * n * n), rel=1e-9)
    assert rep.chain_holds


def test_slope_quad_cost_bound():
    inst = quad_cost_instance(3).qlp()
    rep = slope_report(trace_path(inst), inst.c)
    assert 0.0 < rep.slope <= 2.0 / 729.0 + 1e-12
    assert rep.chain_holds


def test_slope_degenerate(interval):
    inst = QlpInstance(interval, np.zeros(1))
    with pytest.raises(DegeneratePath):
        slope_report(trace_path(inst), inst.c)


def test_slope_zero_length_last_segment():
    path = SolutionPath(np.array([0.0, 1.0]), np.array([[0.5], [0.5]]))
    with pytest.raises(DegeneratePath, match="zero length"):
        slope_report(path, np.array([-1.0]))


def test_gap_bound_interval(interval_inst):
    vs = enumerate_vertices(interval_inst.polytope).mark_optimal(interval_inst.c)
    assert gap_bound(vs, interval_inst.c) == pytest.approx(2.0, abs=1e-12)


def test_gap_bound_birkhoff2():
    inst = neg_id_instance(2)
    vs = enumerate_vertices(inst.polytope).mark_optimal(inst.c)
    b = gap_bound(vs, inst.c)
    assert b == pytest.approx(4.0 * np.sqrt(2.0), rel=1e-12)
    assert b >= 4.0  # dominates eta* = 2n


def test_gap_bound_dominates_on_random_instances():
    for seed in range(8):
        inst = random_polytope_instance(seed)
        vs = enumerate_vertices(inst.polytope).mark_optimal(inst.c)
        if vs.optimal_mask.all():
            continue
        path = trace_path(inst)
        eta, _ = eta_star_formula(vs, inst.c, path.x_star)
        assert eta <= gap_bound(vs, inst.c) + 1e-9


def test_small_eta_interval_sharp(interval_inst):
    vs = enumerate_vertices(interval_inst.polytope)
    path = trace_path(interval_inst)
    half = orthogonality_condition(path.x_zero, vs)
    row = small_eta_report(path, interval_inst.c, [1.0], half)[0]
    # |x(1) - x0| = 1/2 with |c| = 1: the half-constant bound is tight.
    assert row.half_constant
    assert row.distance == pytest.approx(0.5, abs=1e-10)
    assert row.bound == pytest.approx(0.5, abs=1e-12)
    assert row.passed


def test_small_eta_orthogonality_on_interval():
    # x0 = 0 makes <x0, v - x0> = 0 for every vertex.
    spec = PolytopeSpec.interval(0.0, 1.0)
    vs = enumerate_vertices(spec)
    assert orthogonality_condition(np.zeros(1), vs)


def test_small_eta_birkhoff():
    n = 4
    inst = neg_id_instance(n)
    vs = enumerate_vertices(inst.polytope)
    assert orthogonality_condition(np.full(n * n, 1.0 / n), vs)
    rows = small_eta_report(trace_path(inst), inst.c, [0.0, 0.3, 1.0], half=True)
    for row in rows:
        assert row.half_constant and row.passed
    # closed form: |pi(eta) - pi0| = (eta / 2n) sqrt(n - 1)
    expect = (0.3 / (2 * n)) * np.sqrt(n - 1.0)
    assert rows[1].distance == pytest.approx(expect, abs=1e-10)


def test_e_curve_shape_and_monotone(interval_inst):
    path = trace_path(interval_inst)
    curve = e_curve(path, interval_inst.c, grid=128)
    assert curve.shape[1] == 3
    assert np.all(np.diff(curve[:, 1]) <= 1e-12)
    # piecewise linear: second differences vanish inside segments
    seg0 = curve[curve[:, 2] == 0]
    diffs = np.diff(seg0[:, 1]) / np.diff(seg0[:, 0])
    assert np.max(np.abs(np.diff(diffs))) <= 1e-8


def test_e_curve_matches_pointwise_interpolation(interval):
    # Reference: the path's own interpolation and segment lookup, one eta at a time.
    insts = [QlpInstance(interval, np.zeros(1)), QlpInstance(interval, np.array([-1.0])),
             quad_cost_instance(4).qlp()] + [random_polytope_instance(s) for s in range(12)]
    for inst in insts:
        path = trace_path(inst)
        curve = e_curve(path, inst.c, grid=97)
        lp = float(inst.c @ path.x_star)
        E = [float(inst.c @ path.interpolate(float(eta))) - lp for eta in curve[:, 0]]
        seg = [path.segment_index(float(eta)) for eta in curve[:, 0]]
        assert np.all(np.abs(curve[:, 1] - E) <= 1e-12 * (1.0 + np.abs(E)))
        assert np.array_equal(curve[:, 2], seg)


def test_analyze_full_report(interval_inst):
    rep = analyze(interval_inst, grid=64)
    assert rep.eta_star_path == pytest.approx(2.0, abs=1e-12)
    assert rep.eta_star_formula == pytest.approx(2.0, abs=1e-12)
    assert rep.agreement and rep.bounds_ok
    assert rep.slope_last_segment == pytest.approx(0.5, abs=1e-12)
    assert rep.gap_bound == pytest.approx(2.0, abs=1e-12)
    data = rep.to_json_dict()
    assert data["bounds_ok"] is True
    names = ["agreement", "gap_bound", "aux_cost", "slope_chain", "small_eta", "e_monotone"]
    assert data["checks"] == dict.fromkeys(names, True)


def test_analyze_zero_cost(interval):
    rep = analyze(QlpInstance(interval, np.zeros(1)), grid=32)
    assert rep.eta_star_path == 0.0
    assert rep.all_vertices_optimal
    assert rep.bounds_ok
    # No moving segment and no non-optimal vertex: those checks do not apply.
    assert list(rep.checks) == ["agreement", "small_eta", "e_monotone"]


def test_analyze_without_vertices():
    # Vertex enumeration priced out: path-derived quantities survive,
    # formula fields stay empty, and no agreement verdict is made.
    inst = QlpInstance(birkhoff_polytope(3), (-np.eye(3) / 3).ravel())
    rep = analyze(inst, grid=32, vertex_budget=1)
    assert rep.eta_star_path == pytest.approx(6.0, rel=1e-10)
    assert rep.eta_star_formula is None
    assert rep.agreement is None
    assert rep.gap_bound is None
    assert rep.slope_last_segment == pytest.approx(2.0 / 18.0, rel=1e-9)
    assert rep.bounds_ok
    assert list(rep.checks) == ["slope_chain", "small_eta", "e_monotone"]


def test_analyze_transport_beyond_vertex_lists():
    # From n = 7 a transport spec lists no vertices; at n = 8 the default
    # budget refuses the enumeration before its work is done, so the
    # report keeps the path-derived quantities only.
    rep = analyze(build(cost=random_cost_matrix(0, 8)).qlp(), grid=32)
    assert rep.eta_star_formula is None
    assert rep.agreement is None
    assert rep.eta_star_path > 0
    assert rep.bounds_ok


def test_formula_matches_path_on_a_tiny_polytope():
    # Scaled by 1e-6, seed 140 has 24 vertices, two pairs of them 2.8e-10 and
    # 5.2e-10 apart.  A merge of rows closer than an absolute 1e-9 lost two and
    # moved the formula's threshold 2.5e-4 off the path.
    inst = random_polytope_instance(140)
    spec = inst.polytope
    tiny = QlpInstance(PolytopeSpec(dim=spec.dim, G=spec.G, h=spec.h * 1e-6), inst.c)
    path = trace_path(tiny)
    vs = enumerate_vertices(tiny.polytope)
    assert len(vs) == 24
    eta, _ = eta_star_formula(vs, inst.c, path.x_star)
    assert eta == pytest.approx(path.eta_star, rel=1e-9)


@pytest.mark.parametrize("seed", [447, 606])
def test_optimal_mask_scales_with_the_polytope(seed):
    # Scaled by 1e-6, a vertex 1.3e-10 (seed 447) or 1.9e-9 (seed 606) above the optimum
    # lay within an absolute cut OPT_TOL (1 + |c|), was flagged optimal, and moved the
    # formula's threshold 53 % and 90 % off the path.
    inst = random_polytope_instance(seed)
    spec = inst.polytope
    tiny = QlpInstance(
        PolytopeSpec(dim=spec.dim, A=spec.A, b=spec.b * 1e-6, G=spec.G, h=spec.h * 1e-6), inst.c
    )
    path = trace_path(tiny)
    eta, _ = eta_star_formula(enumerate_vertices(tiny.polytope), inst.c, path.x_star)
    assert eta == pytest.approx(path.eta_star, rel=1e-9)


def test_agreement_is_relative_for_a_small_threshold(interval, monkeypatch):
    # With the cost scaled by 1e8, eta* = 2e-8: a formula route twice off is 2e-8 away,
    # inside an absolute 1e-7 (1 + eta*) but not within 1e-7 relative.
    from qreglp import analysis

    inst = QlpInstance(interval, np.array([-1e8]))
    assert analyze(inst, grid=16).agreement
    real = analysis.eta_star_formula
    monkeypatch.setattr(
        analysis, "eta_star_formula", lambda *a: (2.0 * real(*a)[0], real(*a)[1])
    )
    rep = analyze(inst, grid=16)
    assert rep.agreement is False and rep.checks["agreement"] is False and not rep.bounds_ok


def _scaled(inst, kind, a):
    """``inst`` with its cost, or its polytope and feasible point, scaled by ``a``."""
    if kind == "cost":
        return QlpInstance(inst.polytope, inst.c * a)
    spec = inst.polytope
    return QlpInstance(
        PolytopeSpec(dim=spec.dim, G=spec.G, h=spec.h * a, feasible_point=spec.feasible_point * a),
        inst.c,
    )


# Seed 4 lost `slope_chain` at cost x1e6, seed 47 `gap_bound` at cost x1e-6, and seed 30
# `aux_cost` and `gap_bound` at polytope x1e6, while absolute margins judged the checks.
@pytest.mark.parametrize("seed", [4, 30, 47])
@pytest.mark.parametrize(
    "kind, a", [("cost", 1e-9), ("cost", 1e-6), ("cost", 1e6), ("cost", 1e9),
                ("polytope", 1e-6), ("polytope", 1e6)],
)
def test_analyze_checks_are_invariant_to_scale(seed, kind, a):
    inst = random_polytope_instance(seed)
    base = analyze(inst, grid=64)
    rep = analyze(_scaled(inst, kind, a), grid=64)
    assert base.bounds_ok and rep.checks == base.checks
    assert rep.argmax_vertices.tolist() == base.argmax_vertices.tolist()


def test_slope_chain_catches_a_wrong_slope_at_small_cost(monkeypatch):
    # At cost x1e-6 the slope is about 1e-14, so an absolute margin of 1e-9 passed a slope
    # 1000 times too large.
    from dataclasses import replace

    from qreglp import analysis

    inst = _scaled(random_polytope_instance(4), "cost", 1e-6)
    assert analyze(inst, grid=16).checks["slope_chain"]
    real = analysis.slope_report
    monkeypatch.setattr(
        analysis, "slope_report", lambda *a: replace(real(*a), slope=1e3 * real(*a).slope)
    )
    rep = analyze(inst, grid=16)
    assert rep.checks["slope_chain"] is False and not rep.bounds_ok


def test_small_eta_rows_read_off_the_path():
    inst = random_polytope_instance(5)
    path = trace_path(inst)
    etas = [path.eta_star / 10.0, path.eta_star / 100.0]
    for row in small_eta_report(path, inst.c, etas, half=False):
        assert row.distance == pytest.approx(
            np.linalg.norm(solve_qlp(inst, row.eta).x - path.x_zero), abs=1e-10
        )
