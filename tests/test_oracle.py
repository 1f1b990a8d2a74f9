import numpy as np
import pytest

from qreglp import QlpInstance, enumerate_vertices, trace_path
from qreglp.oracle import (
    cross_check_instance,
    eta_star_bruteforce,
    lp_solve_bruteforce,
    min_norm_over_M,
    min_norm_point,
    path_verify,
    random_cost_matrix,
    random_polytope_instance,
)
from qreglp.ot import birkhoff_polytope, build, quad_cost_instance


def test_lp_bruteforce_interval(interval):
    vs = enumerate_vertices(interval)
    value, idx = lp_solve_bruteforce(vs, np.array([-1.0]))
    assert value == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(vs.vertices[idx], [[1.0]])


def test_lp_bruteforce_birkhoff3():
    vs = enumerate_vertices(birkhoff_polytope(3, attach_vertices=True))
    c = (-np.eye(3) / 3).ravel()
    value, idx = lp_solve_bruteforce(vs, c)
    assert value == pytest.approx(-1.0, abs=1e-12)
    assert len(idx) == 1
    assert np.allclose(vs.vertices[idx[0]], np.eye(3).ravel())


def test_lp_bruteforce_constant_cost(interval):
    vs = enumerate_vertices(interval)
    _, idx = lp_solve_bruteforce(vs, np.zeros(1))
    assert len(idx) == len(vs)


def test_min_norm_singleton():
    assert np.allclose(min_norm_over_M(np.array([[1.0]])), [1.0])


def test_min_norm_pair_symmetric():
    x = min_norm_over_M(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(x, [0.5, 0.5], atol=1e-12)


def test_min_norm_birkhoff2_uniform():
    perms = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]])
    x = min_norm_over_M(perms)
    assert np.allclose(x, 0.5, atol=1e-12)


def test_min_norm_certificate_random_hulls():
    rng = np.random.default_rng(1)
    for _ in range(20):
        K, d = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        V = rng.normal(size=(K, d))
        x, w = min_norm_point(V)
        assert np.all(w >= 0.0) and np.sum(w) == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(V.T @ w - x)) <= 1e-9
        # optimality: <x, v - x> >= 0 for every generator
        gaps = (V - x) @ x
        assert gaps.min() >= -1e-9 * (1.0 + np.max(np.abs(V)) ** 2)
        assert np.linalg.norm(x) <= np.min(np.linalg.norm(V, axis=1)) + 1e-9


def test_eta_star_bruteforce_interval(interval):
    vs = enumerate_vertices(interval)
    assert eta_star_bruteforce(vs, np.array([-1.0]), np.array([1.0])) == pytest.approx(2.0)


def test_eta_star_bruteforce_neg_id_n4():
    inst = build(cost=-np.eye(4))
    vs = enumerate_vertices(inst.polytope)
    c = inst.scaled_cost.ravel()
    eta = eta_star_bruteforce(vs, c, np.eye(4).ravel())
    assert eta == pytest.approx(8.0, rel=1e-12)


def test_eta_star_bruteforce_quad_n2():
    inst = quad_cost_instance(2)
    vs = enumerate_vertices(inst.polytope)
    path = trace_path(inst.qlp())
    eta = eta_star_bruteforce(vs, inst.scaled_cost.ravel(), path.x_star)
    assert eta == pytest.approx(16.0, rel=1e-9)


def test_path_verify_interval(interval_inst):
    path = trace_path(interval_inst)
    rep = path_verify(interval_inst, path, samples=100, seed=3)
    assert rep.passed and rep.max_discrepancy <= 1e-12


def test_path_verify_birkhoff3_neg_id():
    inst = build(cost=-np.eye(3)).qlp()
    rep = path_verify(inst, trace_path(inst), samples=60, seed=5)
    assert rep.passed


def test_path_verify_random_polytope():
    inst = random_polytope_instance(12)
    rep = path_verify(inst, trace_path(inst), samples=60, seed=12)
    assert rep.passed


@pytest.mark.parametrize("inst", [random_polytope_instance(12), quad_cost_instance(4).qlp()])
def test_path_verify_rejects_flipped_multiplier(inst):
    # The stored certificates pass; one multiplier with its sign flipped
    # leaves a stationarity residual and a negative multiplier.
    path = trace_path(inst)
    rep = path_verify(inst, path, samples=5, seed=1)
    assert rep.passed and rep.certificate_violation <= 1e-12
    i, end = max(
        ((i, end) for i, pair in enumerate(path.certificates) for end in (0, 1)),
        key=lambda ie: np.abs(path.certificates[ie[0]][ie[1]].lam).max(initial=0.0),
    )
    cert = path.certificates[i][end]
    lam = cert.lam.copy()
    k = int(np.argmax(np.abs(lam)))
    lam[k] = -lam[k]
    pair = list(path.certificates[i])
    pair[end] = cert._replace(lam=lam)
    path.certificates[i] = tuple(pair)
    rep = path_verify(inst, path, samples=5, seed=1)
    assert not rep.passed and rep.certificate_violation > 1e-7
    assert rep.max_discrepancy <= 1e-7


def test_path_verify_requires_certificates():
    inst = random_polytope_instance(12)
    path = trace_path(inst)
    path.certificates.pop()
    assert not path_verify(inst, path, samples=5, seed=1).passed


def test_path_verify_planar_pentagon():
    # Regular pentagon (5 vertices in the plane) with a random cost.
    from qreglp import PolytopeSpec

    rng = np.random.default_rng(77)
    angles = 2 * np.pi * np.arange(5) / 5.0
    verts = np.stack([np.cos(angles) + 0.3, np.sin(angles) - 0.1], axis=1)
    G, h = [], []
    for i in range(5):
        a, b = verts[i], verts[(i + 1) % 5]
        edge = b - a
        normal = np.array([edge[1], -edge[0]])
        if normal @ (verts.mean(axis=0) - a) > 0:
            normal = -normal
        G.append(normal)
        h.append(float(normal @ a))
    spec = PolytopeSpec(dim=2, G=np.asarray(G), h=np.asarray(h), vertices=verts)
    inst = QlpInstance(spec, rng.normal(size=2))
    vs = enumerate_vertices(spec)
    assert len(vs) == 5
    rep = path_verify(inst, trace_path(inst), samples=80, seed=77)
    assert rep.passed


def test_random_instances_deterministic():
    a = random_polytope_instance(99)
    b = random_polytope_instance(99)
    assert np.allclose(a.c, b.c) and np.allclose(a.polytope.G, b.polytope.G)
    assert np.allclose(random_cost_matrix(7, 4), random_cost_matrix(7, 4))


def test_random_instance_bounds():
    for seed in range(10):
        inst = random_polytope_instance(seed)
        assert inst.polytope.dim <= 6
        assert inst.polytope.n_ineq <= 12


def test_cross_check_agreement_small_batch():
    for seed in (0, 5, 9):
        r = cross_check_instance(random_polytope_instance(seed), seed=seed, samples=25)
        assert r.rel_disagreement <= 1e-7
        assert r.path_discrepancy <= 1e-7


def test_run_cross_checks_reports_worst_instance(monkeypatch):
    # Two instances; the first disagrees more, so its whole record (and not
    # the last instance's eta triple) must come back, with its label.
    from dataclasses import replace

    from qreglp import oracle

    records = {
        0: oracle.CrossCheck(1.0, 1.0 + 1e-9, 1.0, 1e-9, 1e-12, 1e-12),
        1: oracle.CrossCheck(5.0, 5.0, 5.0, 1e-15, 1e-11, 1e-8),
    }
    monkeypatch.setattr(oracle, "cross_check_instance", lambda inst, seed, samples: records[seed])
    worst = oracle.run_cross_checks(n_polytopes=2, n_transport=0, seed=0)
    assert worst == replace(records[0], label="polytope[0]")
    records[1] = replace(records[1], path_discrepancy=1e-6)
    assert oracle.run_cross_checks(n_polytopes=2, n_transport=0, seed=0) == replace(
        records[1], label="polytope[1]"
    )


def test_oracle_lp_value_matches_path_endpoint():
    for seed in (2, 4):
        inst = random_polytope_instance(seed)
        vs = enumerate_vertices(inst.polytope)
        value, _ = lp_solve_bruteforce(vs, inst.c)
        path = trace_path(inst)
        assert float(inst.c @ path.x_star) == pytest.approx(value, abs=1e-8)


def test_min_norm_matches_projection_route():
    # Wolfe's answer against the active-set projector on the hull of the
    # optimal face, expressed through its H-representation.
    from qreglp import PolytopeSpec, project

    rng = np.random.default_rng(3)
    for _ in range(5):
        d = int(rng.integers(2, 5))
        spec = PolytopeSpec.box(np.zeros(d), np.ones(d))
        c = rng.normal(size=d)
        inst = QlpInstance(spec, c)
        vs = enumerate_vertices(spec)
        value, idx = lp_solve_bruteforce(vs, c)
        x_wolfe = min_norm_over_M(vs.vertices[idx])
        face = PolytopeSpec(
            dim=d,
            A=c[None, :],
            b=np.array([value]),
            G=spec.G,
            h=spec.h,
            feasible_point=vs.vertices[idx[0]],
        )
        x_proj = project(face, np.zeros(d)).x
        assert np.max(np.abs(x_wolfe - x_proj)) <= 1e-9
