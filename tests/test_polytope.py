import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import HalfspaceIntersection

from qreglp import (
    AllVerticesOptimal,
    BudgetExceeded,
    EmptyFeasibleSet,
    NonFiniteData,
    PolytopeSpec,
    QlpInstance,
    ShapeMismatch,
    UnboundedSet,
    enumerate_vertices,
    geometry,
    suboptimality_gap,
    trace_path,
    validate,
)
from qreglp.oracle import random_polytope_instance
from qreglp.ot import birkhoff_polytope, permutation_matrices
from qreglp.polytope import _recession_ray


def test_validate_interval(interval):
    rep = validate(interval)
    assert rep.nonempty and rep.bounded


def test_validate_birkhoff2_vertices():
    spec = birkhoff_polytope(2, attach_vertices=True)
    rep = validate(spec)
    assert rep.vertex_consistent
    perms = {(1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0)}
    assert {tuple(v) for v in rep.spec.vertices} == perms


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_validate_birkhoff_vertices_and_a_point_moved_off_its_face(n):
    # The permutation matrices are the vertices; one moved 1e-6 of the way along an edge to
    # another lies on fewer rows, so it is no vertex, at any scale.
    spec = birkhoff_polytope(n, attach_vertices=True)
    assert validate(spec).vertex_consistent
    V = spec.vertices.copy()
    V[0] += 1e-6 * (V[1] - V[0])
    for scale in (1e-6, 1.0, 1e6):
        moved = replace(spec, b=scale * spec.b, vertices=scale * V, feasible_point=None)
        assert not validate(moved).vertex_consistent


def test_enumerate_affine_subspace_has_no_vertices():
    spec = PolytopeSpec(dim=2, A=[[1.0, 1.0]], b=[1.0])
    with pytest.raises(UnboundedSet):
        enumerate_vertices(spec)


def test_validate_unbounded_halfspace():
    spec = PolytopeSpec(dim=2, G=[[-1.0, 0.0]], h=[0.0])
    with pytest.raises(UnboundedSet):
        validate(spec)


def test_recession_ray_slab_is_a_line():
    # Only a line: the LP's objective is zero on every recession direction.
    spec = PolytopeSpec(dim=3, G=[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], h=[1.0, 0.0])
    ray = _recession_ray(spec)
    assert ray is not None and np.linalg.norm(ray) > 0.5
    assert np.max(np.abs(spec.G @ ray)) <= 1e-12
    with pytest.raises(UnboundedSet, match="recession direction"):
        validate(spec)


@pytest.mark.parametrize("with_eq", [False, True])
def test_recession_ray_oblique(with_eq):
    # Wedge x/2 - 1 <= y <= 2x + 1: its rays lie strictly between (2, 1) and
    # (1, 2), so none is along an axis.
    G = np.array([[0.5, -1.0], [-2.0, 1.0]])
    if with_eq:  # the same wedge in the plane z = 0 of R^3
        spec = PolytopeSpec(dim=3, A=[[0.0, 0.0, 1.0]], b=[0.0],
                            G=np.hstack([G, np.zeros((2, 1))]), h=[1.0, 1.0])
    else:
        spec = PolytopeSpec(dim=2, G=G, h=[1.0, 1.0])
    ray = _recession_ray(spec)
    assert ray is not None
    assert np.max(spec.G @ ray) <= 1e-9 and ray[0] > 0.1 and ray[1] > 0.1
    if with_eq:
        assert abs(ray[2]) <= 1e-12
    with pytest.raises(UnboundedSet, match="recession direction"):
        validate(spec)


def test_validate_interval_with_a_tiny_row():
    # The row 1e-200 x <= 1e-200 is x <= 1: its norm, taken without scaling, underflows to zero,
    # and the recession test then read the interval [0, 1] as unbounded.
    spec = PolytopeSpec(dim=1, G=[[1e-200], [-1.0]], h=[1e-200, 0.0])
    rep = validate(spec)
    assert rep.bounded and rep.vertex_consistent
    assert _recession_ray(spec) is None


def test_validate_keeps_feasible_point():
    spec = PolytopeSpec(dim=2, G=[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], h=[1.0, 1.0, 0.0])
    rep = validate(spec)
    assert rep.spec.feasible_point is not None
    assert np.array_equal(rep.spec.feasible_point, rep.feasible_point)
    assert spec.contains(rep.spec.feasible_point)


def test_phase1_point_at_small_scale(generic_d6):
    # HiGHS's tolerances are absolute: on this polytope scaled by 1e-6 without a feasible
    # point, the phase-1 LP's point broke the row rule and the trace raised.
    G, h, c = generic_d6(1)
    path = trace_path(QlpInstance(PolytopeSpec(dim=6, G=G, h=h), c))
    spec = PolytopeSpec(dim=6, G=G, h=h * 1e-6)
    assert spec.contains(validate(spec).feasible_point)
    tiny = trace_path(QlpInstance(spec, c))
    assert tiny.eta_star == pytest.approx(1e-6 * path.eta_star, rel=1e-7)
    assert np.allclose(tiny.x_star, 1e-6 * path.x_star, rtol=0, atol=1e-13)


def test_validate_empty():
    spec = PolytopeSpec(dim=1, G=[[1.0], [-1.0]], h=[-1.0, 0.0])
    with pytest.raises(EmptyFeasibleSet):
        validate(spec)


def test_empty_vertex_list_counts_as_none(interval):
    spec = PolytopeSpec(dim=1, G=interval.G, h=interval.h, vertices=[])
    assert spec.vertices is None
    data = {"dim": 1, "G": interval.G.tolist(), "h": interval.h.tolist(), "vertices": []}
    assert PolytopeSpec.from_json_dict(data).vertices is None
    assert np.array_equal(enumerate_vertices(spec).vertices, [[0.0], [1.0]])


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        PolytopeSpec(dim=2, G=[[1.0, 0.0, 0.0]], h=[1.0])
    with pytest.raises(ShapeMismatch):
        PolytopeSpec(dim=2, G=[[1.0, 0.0]], h=[1.0, 2.0])


def test_enumerate_interval(interval):
    vs = enumerate_vertices(interval)
    assert np.allclose(np.sort(vs.vertices.ravel()), [0.0, 1.0])


def test_enumerate_birkhoff3_from_constraints():
    # No vertex list attached: the combinatorial route must find the
    # six permutation matrices on its own.
    spec = birkhoff_polytope(3)
    assert spec.vertices is None
    vs = enumerate_vertices(spec)
    assert len(vs) == 6
    P = np.sort(permutation_matrices(3).reshape(6, 9), axis=0)
    assert np.allclose(np.sort(vs.vertices, axis=0), P, atol=1e-9)


def test_enumerate_simplex():
    vs = enumerate_vertices(PolytopeSpec.simplex(3))
    assert len(vs) == 3
    assert np.allclose(np.sort(vs.vertices, axis=0), np.sort(np.eye(3), axis=0), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_birkhoff_vertex_count_and_structure(n):
    spec = birkhoff_polytope(n, attach_vertices=True)
    vs = enumerate_vertices(spec)
    assert len(vs) == math.factorial(n)
    V = vs.vertices.reshape(-1, n, n)
    assert np.all((np.abs(V) < 1e-9) | (np.abs(V - 1) < 1e-9))
    assert np.allclose(V.sum(axis=1), 1.0) and np.allclose(V.sum(axis=2), 1.0)


def test_enumerated_vertices_feasible():
    rng = np.random.default_rng(7)
    G = np.vstack([np.eye(3), -np.eye(3), rng.normal(size=(3, 3))])
    h = np.concatenate([np.ones(3), np.zeros(3), G[6:] @ np.full(3, 0.5) + 0.2])
    spec = PolytopeSpec(dim=3, G=G, h=h)
    vs = enumerate_vertices(spec)
    for v in vs.vertices:
        assert np.max(spec.G @ v - spec.h) <= 1e-9


def test_enumeration_row_permutation_invariant():
    rng = np.random.default_rng(3)
    G = np.vstack([np.eye(3), -np.eye(3), rng.normal(size=(2, 3))])
    h = np.concatenate([np.ones(3), np.zeros(3), G[6:] @ np.full(3, 0.5) + 0.1])
    spec = PolytopeSpec(dim=3, G=G, h=h)
    perm = rng.permutation(G.shape[0])
    spec_p = PolytopeSpec(dim=3, G=G[perm], h=h[perm])
    v1 = enumerate_vertices(spec).vertices
    v2 = enumerate_vertices(spec_p).vertices
    assert v1.shape == v2.shape
    assert np.max(np.abs(v1 - v2)) <= 1e-9


def test_enumeration_rank_rule():
    # Three rows in R^3 give one candidate basis, M itself, and its solution
    # v is feasible: v is a vertex exactly when M passes the rank rule.  The
    # tilted basis has the larger |det| of the two near-singular ones, so no
    # determinant test keeps the small one and rejects the tilted one.
    cases = {
        "plain": (np.eye(3) + 0.1, True),
        "zero pivot": (np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), False),
        "angle 1e-11": (np.array([[1.0, 0.0, 0.0], [1.0, 1e-11, 0.0], [0.0, 0.0, 1.0]]), False),
        "|det| 1e-12, sigma_min 1e-6": (np.diag([1e-6, 1e-6, 1.0]), True),
    }
    v = np.array([0.5, 0.25, 1.0])
    for name, (M, kept) in cases.items():
        try:
            got = enumerate_vertices(PolytopeSpec(dim=3, G=M, h=M @ v)).vertices
        except EmptyFeasibleSet:
            got = np.zeros((0, 3))
        expect = v[None, :] if kept else np.zeros((0, 3))
        assert got.shape == expect.shape, name
        assert np.max(np.abs(got - expect), initial=0.0) <= 1e-12, name


def _box_plus_cuts(seed: int) -> tuple[PolytopeSpec, np.ndarray]:
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    anchor = rng.uniform(0.3, 0.7, size=d)
    cuts = rng.normal(size=(int(rng.integers(0, 7)), d))
    G = np.vstack([np.eye(d), -np.eye(d), cuts])
    h = np.concatenate([np.ones(d), np.zeros(d), cuts @ anchor + rng.uniform(0.02, 0.3, len(cuts))])
    return PolytopeSpec(dim=d, G=G, h=h), anchor


def _qhull_vertices(spec: PolytopeSpec, interior: np.ndarray) -> np.ndarray:
    """Vertices from scipy's halfspace intersection, near-duplicates merged."""
    if spec.dim == 1:
        g, h = spec.G[:, 0], spec.h
        return np.array([[np.max(h[g < 0] / g[g < 0])], [np.min(h[g > 0] / g[g > 0])]])
    pts = HalfspaceIntersection(np.hstack([spec.G, -spec.h[:, None]]), interior).intersections
    kept: list[np.ndarray] = []
    for p in pts:
        if all(np.max(np.abs(p - q)) > 1e-7 for q in kept):
            kept.append(p)
    return np.asarray(kept)


@given(seed=st.integers(0, 2**31 - 1), boxed=st.booleans())
def test_enumeration_matches_halfspace_intersection(seed, boxed):
    if boxed:
        spec, interior = _box_plus_cuts(seed)
    else:
        spec = random_polytope_instance(seed).polytope
        interior = spec.feasible_point
    V = enumerate_vertices(spec).vertices
    ref = _qhull_vertices(spec, interior)
    assert V.shape == ref.shape
    gaps = np.max(np.abs(V[:, None, :] - ref[None, :, :]), axis=2)
    assert np.max(gaps.min(axis=1)) <= 1e-7 and np.max(gaps.min(axis=0)) <= 1e-7


def test_enumeration_budget():
    # The budget caps the rays held plus the zero-set tests of each step of
    # the cone pass; Birkhoff n = 5 has 120 vertices.
    with pytest.raises(BudgetExceeded):
        enumerate_vertices(birkhoff_polytope(5), budget=100)


@pytest.mark.parametrize("n", [6, 7, 8, 12])
def test_enumeration_budget_refuses_before_the_work(n):
    # A step is charged before it runs.  Charging only the rays held lets
    # Birkhoff 7 reach a step of 117,649 rays and 1.1e9 pairs to test;
    # under the default budget each n is refused at a step of a few
    # thousand rays.
    with pytest.raises(BudgetExceeded, match="rays held"):
        enumerate_vertices(birkhoff_polytope(n))


def test_enumerate_birkhoff5_from_constraints():
    V = enumerate_vertices(birkhoff_polytope(5)).vertices
    P = permutation_matrices(5).reshape(-1, 25).astype(float)
    assert np.array_equal(V, P[np.lexsort(P.T[::-1])])


def _basis_sweep_reference(spec: PolytopeSpec) -> np.ndarray:
    """Vertices from every candidate basis: ``dim - rank(A)`` inequality rows
    stacked on the equality rows, solved, kept when feasible to ``1e-9`` and
    of full rank, then deduplicated and sorted as the program does."""
    eq_idx, _ = spec.eq_reduction
    A_red, b_red = spec.A[eq_idx], spec.b[eq_idx]
    r_eq = len(eq_idx)
    s = spec.dim - r_eq
    sel = np.array(list(itertools.combinations(range(spec.n_ineq), s)), dtype=np.intp)
    M = np.empty((sel.shape[0], spec.dim, spec.dim))
    rhs = np.empty((sel.shape[0], spec.dim))
    M[:, :r_eq], rhs[:, :r_eq] = A_red, b_red
    M[:, r_eq:], rhs[:, r_eq:] = spec.G[sel], spec.h[sel]
    ok = np.linalg.slogdet(M)[0] != 0
    M = M[ok]
    X = np.linalg.solve(M, rhs[ok][..., None])[..., 0]
    feas = np.max(X @ spec.G.T - spec.h, axis=1) <= 1e-9
    if spec.n_eq:
        feas &= np.max(np.abs(X @ spec.A.T - spec.b), axis=1) <= 1e-9
    sv = np.linalg.svd(M[feas], compute_uv=False)
    V = X[feas][sv[:, -1] > 1e-10 * np.maximum(sv[:, 0], 1.0)]
    kept: list[np.ndarray] = []
    for row in V[np.lexsort(V.T[::-1])]:
        if all(np.max(np.abs(row - q)) > 1e-9 for q in kept):
            kept.append(row)
    return np.asarray(kept)


def _degenerate_specs():
    for d in range(2, 6):
        yield PolytopeSpec.box(np.zeros(d), np.ones(d))
        signs = np.array(list(itertools.product([-1.0, 1.0], repeat=d)))
        yield PolytopeSpec(dim=d, G=signs, h=np.ones(len(signs)))
    for d in (4, 5):  # hypersimplex
        yield PolytopeSpec(dim=d, A=np.ones((1, d)), b=[2.0],
                           G=np.vstack([np.eye(d), -np.eye(d)]), h=np.r_[np.ones(d), np.zeros(d)])
    yield PolytopeSpec(dim=3, G=[[0, 0, -1], [1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]],
                       h=[0, 1, 1, 1, 1])  # square pyramid, four rows tight at the apex
    for n in (2, 3, 4):
        yield birkhoff_polytope(n)
    box = PolytopeSpec.box(np.zeros(3), np.ones(3))
    yield PolytopeSpec(dim=3, G=np.vstack([box.G, box.G[:2]]), h=np.r_[box.h, box.h[:2]])
    square = PolytopeSpec.box(np.zeros(2), np.ones(2))
    yield PolytopeSpec(dim=2, A=np.eye(2), b=[0.5, 0.5], G=square.G, h=square.h)  # one point
    yield PolytopeSpec(dim=2, A=[[1, 1], [2, 2]], b=[1, 2], G=-np.eye(2), h=[0, 0])
    for h0 in (0.5, 0.7):  # a row constant on the line x_0 = 0.5, tight or slack
        yield PolytopeSpec(dim=2, A=[[1, 0]], b=[0.5], G=[[1, 0], [0, 1], [0, -1]], h=[h0, 1, 0])


def test_enumeration_matches_basis_sweep():
    specs = [random_polytope_instance(seed).polytope for seed in range(300)]
    for spec in specs + list(_degenerate_specs()):
        assert np.array_equal(enumerate_vertices(spec).vertices, _basis_sweep_reference(spec))


@pytest.mark.parametrize("scale", [1e7, 1e8, 1e12])
def test_enumeration_scaled_matches_halfspace_intersection(scale):
    # An absolute feasibility test drops true vertices of these polytopes
    # once they are scaled: seed 31 loses 4 of its 29 vertices at 1e7.
    # Zero tests on unit rays miss them at 1e12 unless t is measured in
    # the polytope's own unit of length.
    for seed in (9, 31, 119, 299):
        spec = random_polytope_instance(seed).polytope
        scaled = PolytopeSpec(dim=spec.dim, G=spec.G, h=spec.h * scale)
        interior = spec.feasible_point * scale
        V = enumerate_vertices(scaled).vertices
        pts = HalfspaceIntersection(np.hstack([scaled.G, -scaled.h[:, None]]), interior)
        ref = pts.intersections
        gaps = np.max(np.abs(V[:, None, :] - ref[None, :, :]), axis=2)
        assert np.max(gaps.min(axis=1)) <= 1e-9 * scale, seed
        assert np.max(gaps.min(axis=0)) <= 1e-9 * scale, seed


def test_enumeration_tiny_matches_halfspace_intersection():
    # Scaled by 1e-6, each of these polytopes has true vertices closer than
    # 1e-9 to each other; a merge of rows at an absolute 1e-9 lost 17 of them.
    scale = 1e-6
    for seed in (6, 140, 268, 447, 606, 745, 755, 756, 762, 799, 924, 927):
        spec = random_polytope_instance(seed).polytope
        tiny = PolytopeSpec(dim=spec.dim, G=spec.G, h=spec.h * scale)
        V = enumerate_vertices(tiny).vertices
        pts = HalfspaceIntersection(np.hstack([tiny.G, -tiny.h[:, None]]),
                                    spec.feasible_point * scale).intersections
        ref: list[np.ndarray] = []
        for p in pts:  # qhull repeats a vertex where more than dim rows are tight
            if all(np.max(np.abs(p - q)) > 1e-12 * scale for q in ref):
                ref.append(p)
        assert V.shape == (len(ref), spec.dim), seed
        gaps = np.max(np.abs(V[:, None, :] - np.asarray(ref)[None, :, :]), axis=2)
        assert np.max(gaps.min(axis=1)) <= 1e-12 * scale, seed
        assert np.max(gaps.min(axis=0)) <= 1e-12 * scale, seed


def test_validate_merges_near_duplicate_listed_vertices():
    # A listed vertex comes from outside the program: two listed points that lie on the same
    # constraint rows by the row rule are one vertex, and the first in lexicographic order is kept.
    square = PolytopeSpec.box(np.zeros(2), np.ones(2))
    listed = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1e-10]]
    rep = validate(replace(square, vertices=listed))
    assert rep.vertex_consistent
    assert rep.spec.vertices.tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]


@pytest.mark.parametrize("scale", [1e-6, 1e12])
@pytest.mark.parametrize("extra", [[0.5, 0.5], [1.2, 0.0], [1.0 - 1e-6, 1.0]],
                         ids=["interior", "outside", "near corner"])
def test_validate_flags_a_listed_point_that_is_no_vertex(scale, extra):
    # The row rule reads the same at any scale: a point 1e-6 relative off a corner lies on one
    # row only, so it is no vertex, however small or large the square.
    square = PolytopeSpec.box(np.zeros(2), scale * np.ones(2))
    corners = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    rep = validate(replace(square, vertices=scale * np.array(corners + [extra])))
    assert not rep.vertex_consistent
    assert validate(replace(square, vertices=scale * np.array(corners))).vertex_consistent


@pytest.mark.parametrize("h0", [0.0, 2.0])
def test_enumeration_drops_zero_row(h0):
    box = PolytopeSpec.box(np.zeros(2), np.ones(2))
    spec = PolytopeSpec(dim=2, G=np.vstack([box.G, np.zeros((1, 2))]), h=np.r_[box.h, h0])
    assert np.array_equal(enumerate_vertices(spec).vertices, enumerate_vertices(box).vertices)


@pytest.mark.parametrize("spec", [
    PolytopeSpec(dim=2, G=np.vstack([np.eye(2), -np.eye(2), np.zeros((1, 2))]),
                 h=[1, 1, 0, 0, -1]),  # 0 <= -1
    PolytopeSpec(dim=2, A=[[1, 0]], b=[0.5], G=[[1, 0], [0, 1], [0, -1]], h=[0.4, 1, 0]),
    PolytopeSpec(dim=2, A=[[1, 1], [2, 2]], b=[1, 2.1], G=-np.eye(2), h=[0, 0]),
], ids=["zero row", "row constant on the hull", "dependent equality rows"])
def test_enumeration_row_violated_on_the_hull_is_empty(spec):
    with pytest.raises(EmptyFeasibleSet):
        enumerate_vertices(spec)


def test_geometry_interval(interval):
    B, D = geometry(enumerate_vertices(interval))
    assert B == pytest.approx(1.0, abs=1e-12)
    assert D == pytest.approx(1.0, abs=1e-12)


def test_geometry_birkhoff2():
    vs = enumerate_vertices(birkhoff_polytope(2, attach_vertices=True))
    B, D = geometry(vs)
    assert B == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert D == pytest.approx(2.0, abs=1e-12)


def test_geometry_simplex():
    B, D = geometry(enumerate_vertices(PolytopeSpec.simplex(3)))
    assert B == pytest.approx(1.0, abs=1e-12)
    assert D == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_gap_interval(interval):
    vs = enumerate_vertices(interval).mark_optimal(np.array([-1.0]))
    assert suboptimality_gap(vs, np.array([-1.0])) == pytest.approx(1.0, abs=1e-12)


def test_gap_birkhoff2():
    vs = enumerate_vertices(birkhoff_polytope(2, attach_vertices=True))
    c = (-np.eye(2) / 2).ravel()
    assert suboptimality_gap(vs.mark_optimal(c), c) == pytest.approx(1.0, abs=1e-12)


def test_gap_all_optimal(interval):
    c = np.zeros(1)
    vs = enumerate_vertices(interval).mark_optimal(c)
    with pytest.raises(AllVerticesOptimal):
        suboptimality_gap(vs, c)


def test_cost_range_cauchy_schwarz():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        spec = PolytopeSpec.box(np.zeros(d), rng.uniform(0.5, 2.0, size=d))
        vs = enumerate_vertices(spec)
        _, D = geometry(vs)
        c = rng.normal(size=d)
        vals = vs.vertices @ c
        assert vals.max() - vals.min() <= np.linalg.norm(c) * D + 1e-9


def test_json_round_trip(interval):
    data = interval.to_json_dict()
    assert set(data) == {"dim", "A", "b", "G", "h"}
    again = PolytopeSpec.from_json_dict(data)
    assert np.allclose(again.G, interval.G) and np.allclose(again.h, interval.h)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["A", "b", "G", "h", "vertices", "feasible_point"])
def test_non_finite_data_are_refused(name, bad):
    # The unit square with the equality x_0 + x_1 = 1; one entry of one field is not finite.
    data = {"A": [[1.0, 1.0]], "b": [1.0], "G": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            "h": [1.0, 1.0, 0.0, 0.0], "vertices": [[1.0, 0.0], [0.0, 1.0]],
            "feasible_point": [0.5, 0.5]}
    PolytopeSpec(dim=2, **data)
    field = np.array(data[name])
    field.flat[-1] = bad
    with pytest.raises(NonFiniteData, match=name):
        PolytopeSpec(dim=2, **{**data, name: field})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_cost_is_refused(bad):
    square = PolytopeSpec.box(np.zeros(2), np.ones(2))
    with pytest.raises(NonFiniteData):
        QlpInstance(square, np.array([1.0, bad]))
