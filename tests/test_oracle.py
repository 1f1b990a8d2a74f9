import numpy as np
import pytest

from qreglp import (
    PolytopeSpec,
    QlpInstance,
    enumerate_vertices,
    projection,
    solve_qlp,
    trace_path,
)
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
from qreglp.projection import project_sweep


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


def test_lp_bruteforce_ties_at_the_cost_scale():
    # A tie window of 1e-9 (1 + |vmin|) took every vertex as optimal at cost x1e-9: on
    # seed 17 the brute-force eta* was 1.35e-6 against 2.4e11 traced.
    inst = random_polytope_instance(17)
    vs = enumerate_vertices(inst.polytope)
    c = 1e-9 * inst.c
    assert np.array_equal(lp_solve_bruteforce(vs, c)[1], lp_solve_bruteforce(vs, inst.c)[1])
    r = cross_check_instance(QlpInstance(inst.polytope, c), seed=17)
    assert r.rel_disagreement <= 1e-9 and r.x_star_gap <= 1e-9


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


def _cold_spot_checks(inst, path, samples, seed):
    """``path_verify``'s spot checks as independent cold solves, draw order, each deviation
    relative to ``|x| + size`` as ``path_verify`` takes it."""
    rng = np.random.default_rng(seed)
    hi = 1.2 * path.eta_star if path.eta_star > 0 else 1.0
    etas = rng.uniform(0.0, hi, size=samples)
    etas = etas[etas > 0]
    worst, worst_eta = 0.0, 0.0
    for eta in etas:
        x = solve_qlp(inst, float(eta)).x
        dev = float(np.max(np.abs(x - path.interpolate(float(eta)))))
        dev /= float(np.linalg.norm(x)) + inst.polytope.size
        if dev > worst:
            worst, worst_eta = dev, float(eta)
    return len(etas), worst, worst_eta


def _move_interior_endpoint(path, by=1e-3):
    """Move the interior end point with the widest neighbourhood by ``by``
    and drop the certificates of the two segments that share it."""
    assert path.n_segments >= 2
    widths = np.diff(path.breakpoints)
    k = 1 + int(np.argmax(widths[:-1] + widths[1:]))
    path.endpoints[k] = path.endpoints[k] + by
    del path.certificates[k - 1:k + 1]


@pytest.mark.parametrize(
    "inst",
    [random_polytope_instance(s) for s in (3, 4, 12)]
    + [quad_cost_instance(4).qlp(), build(cost=random_cost_matrix(10_003, 4)).qlp()],
)
def test_path_verify_sweep_matches_cold_solves(inst):
    # On the traced path every deviation is rounding, so its arg max is
    # noise; a moved end point gives a real worst sample to compare.
    path = trace_path(inst)
    for moved in (False, True):
        if moved:
            _move_interior_endpoint(path)
        rep = path_verify(inst, path, samples=40, seed=7)
        samples, worst, worst_eta = _cold_spot_checks(inst, path, samples=40, seed=7)
        assert rep.samples == samples
        assert abs(rep.max_discrepancy - worst) <= 1e-10
        if moved:
            assert rep.worst_eta == worst_eta


def _interpolate_one(path, eta):
    """The path point at ``eta``, one value at a time (the loop ``path_verify`` replaced)."""
    bp = path.breakpoints
    if eta >= bp[-1]:
        return path.endpoints[-1].copy()
    if eta <= bp[0]:
        return path.endpoints[0].copy()
    i = int(np.searchsorted(bp, eta, side="right")) - 1
    t = (eta - bp[i]) / (bp[i + 1] - bp[i])
    return (1.0 - t) * path.endpoints[i] + t * path.endpoints[i + 1]


def _sweep_spot_checks(inst, path, samples, seed):
    """``path_verify``'s sweep, each sample's deviation measured one sample at a time."""
    rng = np.random.default_rng(seed)
    hi = 1.2 * path.eta_star if path.eta_star > 0 else 1.0
    etas = rng.uniform(0.0, hi, size=samples)
    etas = np.sort(etas[etas > 0])
    X = project_sweep(inst.polytope, [inst.target(eta) for eta in etas.tolist()]).x
    worst, worst_eta = 0.0, 0.0
    for x, eta in zip(X, etas.tolist()):
        dev = float(np.max(np.abs(x - _interpolate_one(path, eta))))
        dev /= float(np.linalg.norm(x)) + inst.polytope.size
        if dev > worst:
            worst, worst_eta = dev, eta
    return worst, worst_eta


def test_path_verify_measures_samples_as_the_loop_did():
    # All deviations in one pass after the sweep: the same bits and the same first arg max as
    # measuring the sweep's answers one sample at a time, on traced paths, moved ones and a
    # path with no segment; and SolutionPath.interpolate keeps the loop's arithmetic.
    square = PolytopeSpec.box(np.zeros(2), np.ones(2))
    cases = [random_polytope_instance(s) for s in range(10)] + [
        quad_cost_instance(4).qlp(), build(cost=random_cost_matrix(10_003, 4)).qlp(),
        QlpInstance(square, np.zeros(2))]
    for inst in cases:
        path = trace_path(inst)
        for moved in (False, True):
            if moved and path.n_segments >= 2:
                _move_interior_endpoint(path)
            rep = path_verify(inst, path, samples=40, seed=3)
            assert (rep.max_discrepancy, rep.worst_eta) == _sweep_spot_checks(inst, path, 40, 3)
            for eta in np.linspace(0.0, 1.3 * path.eta_star, 17):
                np.testing.assert_array_equal(path.interpolate(eta), _interpolate_one(path, eta))


def test_path_verify_catches_moved_endpoint():
    # The warm sweep starts from earlier samples, not from the path, so a
    # wrong interior end point shows in the sampled solves themselves.
    inst = random_polytope_instance(12)
    path = trace_path(inst)
    _move_interior_endpoint(path)
    rep = path_verify(inst, path, samples=60, seed=12)
    assert rep.max_discrepancy > 1e-7 and not rep.passed


def test_path_verify_sweep_halves_kernel_iterations(monkeypatch):
    inst = random_polytope_instance(12)
    path = trace_path(inst)
    count = [0]
    kernel = projection.min_distance_active_set

    def counted(*args, **kwargs):
        out = kernel(*args, **kwargs)
        count[0] += out[4]  # iterations
        return out

    monkeypatch.setattr(projection, "min_distance_active_set", counted)
    path_verify(inst, path, samples=60, seed=12)
    swept, count[0] = count[0], 0
    _cold_spot_checks(inst, path, samples=60, seed=12)
    assert swept <= count[0] / 2


def test_path_verify_solves_the_kernel_once_per_face(oracle_battery):
    # One oracle-battery round: the kernel solves at most 500 of its 3,000 samples, the first
    # of each path among them; a batched step on the face of the last kernel answer takes the
    # rest.
    solves = samples = 0
    for inst, s in oracle_battery(0):
        rep = path_verify(inst, trace_path(inst), samples=40, seed=s)
        assert 1 <= rep.kernel_solves <= rep.samples
        solves, samples = solves + rep.kernel_solves, samples + rep.samples
    assert samples == 3000 and solves <= 500


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
        1: oracle.CrossCheck(5.0, 5.0, 5.0, 1e-15, 1e-11, 1e-10),
    }
    monkeypatch.setattr(oracle, "cross_check_instance", lambda inst, seed: records[seed])
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


def _over(inst, s, a=1.0):
    """``inst`` over ``s P`` with cost ``a c``: ``h``, ``b`` and the feasible point scaled."""
    from qreglp import PolytopeSpec

    spec = inst.polytope
    point = None if spec.feasible_point is None else s * spec.feasible_point
    scaled = PolytopeSpec(dim=spec.dim, A=spec.A, b=s * spec.b, G=spec.G, h=s * spec.h,
                          feasible_point=point)
    return QlpInstance(scaled, a * inst.c)


_SCALED = [random_polytope_instance(s) for s in (3, 12, 21)] + [
    build(cost=random_cost_matrix(10_003, 4)).qlp()
]


@pytest.mark.parametrize("s, a", [(1e-9, 1.0), (1e9, 1.0), (1.0, 1e9)])
@pytest.mark.parametrize("inst", _SCALED)
def test_cross_check_holds_at_every_scale(inst, s, a):
    # Each measure is relative to its own terms.  Over 1e9 P, absolute measures read path
    # discrepancies of 6e-8 to 3.4e-5 on points of norm about 1e9 here, all sound traces.
    r = cross_check_instance(_over(inst, s, a), samples=20)
    assert r.worst_measure() <= 1e-7
    assert max(r.rel_disagreement, r.path_discrepancy, r.x_star_gap,
               r.certificate_violation) <= 1e-8


@pytest.mark.parametrize("s, a", [(1e-9, 1.0), (1.0, 1.0), (1e9, 1.0), (1.0, 1e9)])
@pytest.mark.parametrize("move", ["x_star", "eta_star"])
def test_cross_check_flags_a_moved_end_at_every_scale(monkeypatch, s, a, move):
    # A trace whose x* (eta*) is off by 1e-6 relative.  Over 1e-9 P both read as agreement
    # when measured against 1 + |x| and 1 + max(eta).
    from qreglp import oracle

    def moved(inst):
        path = trace_path(inst)
        if move == "eta_star":
            path.breakpoints[-1] *= 1.0 + 1e-6
        else:
            x = path.endpoints[-1]
            path.endpoints[-1] = x + 1e-6 * np.linalg.norm(x) / np.sqrt(x.size)
        return path

    monkeypatch.setattr(oracle, "trace_path", moved)
    inst = _over(random_polytope_instance(12), s, a)
    assert trace_path(inst).eta_star > 0
    assert cross_check_instance(inst, samples=5).worst_measure() > 1e-7


@pytest.mark.parametrize("k", [1e-9, 1e-6, 1.0, 1e6])
def test_min_norm_over_M_at_every_scale(k):
    # Wolfe's method runs at unit size.  With its stop rule at 1 + max |v|^2 it stopped at its
    # first vertex for k = 1e-9, was off by 1.1e-5 k for k = 1e-6, and returned
    # k (0.5, 0.5, 0) for k = 1e6.
    x = min_norm_over_M(k * np.array([[-1.0, -1.0], [-1.0, 1.0]]))
    assert np.linalg.norm(x - k * np.array([-1.0, 0.0])) <= 1e-12 * k
    x = min_norm_over_M(k * np.eye(3))
    assert np.linalg.norm(x - k * np.ones(3) / 3) <= 1e-12 * k
