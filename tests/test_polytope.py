import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import HalfspaceIntersection

from qreglp import (
    AllVerticesOptimal,
    BudgetExceeded,
    EmptyFeasibleSet,
    PolytopeSpec,
    ShapeMismatch,
    UnboundedSet,
    enumerate_vertices,
    geometry,
    suboptimality_gap,
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


def test_validate_keeps_feasible_point():
    spec = PolytopeSpec(dim=2, G=[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], h=[1.0, 1.0, 0.0])
    rep = validate(spec)
    assert rep.spec.feasible_point is not None
    assert np.array_equal(rep.spec.feasible_point, rep.feasible_point)
    assert spec.contains(rep.spec.feasible_point)


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
    with pytest.raises(BudgetExceeded):
        enumerate_vertices(birkhoff_polytope(5), budget=10**6)


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
