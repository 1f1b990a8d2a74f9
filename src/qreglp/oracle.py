"""Brute-force ground truth for desk-scale instances.

Everything here is deliberately independent of the analysis module's
vectorized formulas: plain loops over vertices, and Wolfe's min-norm-point
algorithm over hull weights instead of the active-set projector.  These
are the reference answers the fast paths are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import AllVerticesOptimal, NumericalBreakdown
from .polytope import PolytopeSpec, VertexSet
from .projection import QlpInstance, solve_qlp


def lp_solve_bruteforce(vs: VertexSet, c, tol: float = 1e-9):
    """Exact LP optimum over an enumerated vertex set.

    Returns ``(value, optimal_indices)`` where ties within ``tol``
    relative are all reported.
    """
    c = np.asarray(c, dtype=float).ravel()
    vals = []
    for v in vs.vertices:
        vals.append(float(np.dot(c, v)))
    vmin = min(vals)
    cut = vmin + tol * (1.0 + abs(vmin))
    idx = [i for i, val in enumerate(vals) if val <= cut]
    return vmin, np.asarray(idx, dtype=int)


def min_norm_point(V: np.ndarray, tol: float = 1e-12, max_iter: int | None = None):
    """Wolfe's algorithm: the smallest-norm point of ``conv(rows of V)``.

    Maintains a corral of affinely independent points; alternates between
    adding the most violating point and restoring nonnegative affine
    weights.  Returns ``(x, weights)`` with ``weights`` over all rows.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    K = V.shape[0]
    if max_iter is None:
        max_iter = 64 * (K + 2)
    norms2 = np.einsum("ij,ij->i", V, V)
    scale = 1.0 + float(norms2.max(initial=0.0))
    j0 = int(np.argmin(norms2))
    corral = [j0]
    w = np.array([1.0])
    x = V[j0].copy()

    def affine_min_norm(idx):
        S = V[idx]
        n = len(idx)
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = 2.0 * (S @ S.T)
        M[:n, n] = 1.0
        M[n, :n] = 1.0
        rhs = np.zeros(n + 1)
        rhs[n] = 1.0
        sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
        return sol[:n]

    for _ in range(max_iter):
        vals = V @ x
        j = int(np.argmin(vals))
        if vals[j] >= x @ x - tol * scale:
            break
        if j in corral:
            break
        corral.append(j)
        w = np.append(w, 0.0)
        for _ in range(max_iter):
            u = affine_min_norm(corral)
            if np.all(u >= -1e-14):
                w = np.clip(u, 0.0, None)
                break
            neg = u < 0.0
            theta = np.min(w[neg] / (w[neg] - u[neg]))
            w = (1.0 - theta) * w + theta * u
            keep = w > 1e-14
            keep[np.argmax(w)] = True
            corral = [corral[i] for i in range(len(corral)) if keep[i]]
            w = w[keep]
        x = V[corral].T @ w
    else:
        raise NumericalBreakdown("min-norm-point iteration did not settle")

    weights = np.zeros(K)
    weights[corral] = w / w.sum()
    return V.T @ weights, weights


def min_norm_over_M(optimal_vertices: np.ndarray) -> np.ndarray:
    """Projection of the origin onto the hull of the optimal vertices."""
    V = np.atleast_2d(np.asarray(optimal_vertices, dtype=float))
    if V.shape[0] == 0:
        raise ValueError("need at least one optimal vertex")
    if V.shape[0] == 1:
        return V[0].copy()
    x, _ = min_norm_point(V)
    return x


def eta_star_bruteforce(vs: VertexSet, c, x_star, tol: float = 1e-9) -> float:
    """Direct evaluation of the threshold maximum, vertex by vertex."""
    c = np.asarray(c, dtype=float).ravel()
    x_star = np.asarray(x_star, dtype=float).ravel()
    value, opt_idx = lp_solve_bruteforce(vs, c, tol)
    opt = set(int(i) for i in opt_idx)
    if len(opt) == len(vs):
        raise AllVerticesOptimal("threshold maximand has empty index set")
    best = None
    for i, v in enumerate(vs.vertices):
        if i in opt:
            continue
        num = float(np.dot(x_star, x_star - v))
        den = float(np.dot(c, v - x_star))
        ratio = 2.0 * num / den
        if best is None or ratio > best:
            best = ratio
    return max(best, 0.0)


@dataclass
class PathVerifyReport:
    """Certificate checks and cold-start spot checks of a traced path.

    ``certificate_violation`` is the worst violation over the stored end
    certificates, relative to ``1 + |x|`` (feasibility and tightness) or
    ``1 + |x| + |target - x|`` (stationarity and multiplier signs); it is
    infinite when the path holds no certificate for some segment.
    """

    samples: int
    max_discrepancy: float
    worst_eta: float
    passed: bool
    certificate_violation: float = 0.0


def _certificate_violation(spec: PolytopeSpec, c: np.ndarray, eta: float, x: np.ndarray,
                           cert) -> float:
    """How far ``cert = (rows, mu, lam)`` is from proving ``x`` optimal at ``eta``."""
    rows, mu, lam = cert
    r = -0.5 * eta * c - x
    stat = r - spec.A.T @ mu - spec.G[rows].T @ lam
    slack = spec.h - spec.G @ x
    feas = [np.abs(spec.A @ x - spec.b), -slack, np.abs(slack[rows])]
    scale = 1.0 + float(np.linalg.norm(x))
    worst = max(float(np.max(v, initial=0.0)) for v in feas) / scale
    opt = max(float(np.max(np.abs(stat), initial=0.0)), float(np.max(-lam, initial=0.0)))
    return max(worst, opt / (scale + float(np.linalg.norm(r))))


def path_verify(inst: QlpInstance, path, samples: int = 100, seed: int = 0,
                tol: float = 1e-7) -> PathVerifyReport:
    """Check the path's end certificates, then compare its interpolation
    with from-scratch solves at random etas.

    Each segment's two certificates (``path.certificates``) are checked with
    plain matrix-vector products at its end points: feasibility, tightness
    of the certificate's rows, the stationarity residual and ``lam >= 0``.
    The cold solves are an independent cross-check of the tracer's events.
    """
    spec, c = inst.polytope, inst.c
    bp, ends = path.breakpoints, path.endpoints
    violation = 0.0 if len(path.certificates) == path.n_segments else float("inf")
    for i, (left, right) in enumerate(path.certificates):
        violation = max(
            violation,
            _certificate_violation(spec, c, float(bp[i]), ends[i], left),
            _certificate_violation(spec, c, float(bp[i + 1]), ends[i + 1], right),
        )
    rng = np.random.default_rng(seed)
    hi = 1.2 * path.eta_star if path.eta_star > 0 else 1.0
    etas = rng.uniform(0.0, hi, size=samples)
    etas = etas[etas > 0]
    worst, worst_eta = 0.0, 0.0
    for eta in etas:
        x_cold = solve_qlp(inst, float(eta)).x
        dev = float(np.max(np.abs(x_cold - path.interpolate(float(eta)))))
        if dev > worst:
            worst, worst_eta = dev, float(eta)
    return PathVerifyReport(
        samples=len(etas),
        max_discrepancy=worst,
        worst_eta=worst_eta,
        passed=worst <= tol and violation <= tol,
        certificate_violation=violation,
    )


def random_polytope_instance(seed: int, max_dim: int = 6, max_ineq: int = 12) -> QlpInstance:
    """Seeded random instance: unit box cut by random halfspaces.

    The box keeps the region bounded by construction; every cut contains
    an interior anchor point, so the region stays nonempty.  The cost is
    standard normal.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, max_dim + 1))
    G = [np.eye(d), -np.eye(d)]
    h = [np.ones(d), np.zeros(d)]
    anchor = rng.uniform(0.3, 0.7, size=d)
    n_cuts = int(rng.integers(0, max(0, (max_ineq - 2 * d)) + 1))
    for _ in range(n_cuts):
        g = rng.normal(size=d)
        g /= np.linalg.norm(g)
        margin = rng.uniform(0.05, 0.3)
        G.append(g[None, :])
        h.append(np.array([float(g @ anchor) + margin]))
    spec = PolytopeSpec(
        dim=d,
        G=np.vstack(G),
        h=np.concatenate(h),
        feasible_point=anchor,
    )
    c = rng.normal(size=d)
    return QlpInstance(spec, c)


def random_cost_matrix(seed: int, n: int) -> np.ndarray:
    """Seeded random transport cost with occasional structure.

    Alternates between uniform entries and squared distances of random
    scalar point clouds, which exercises both generic and separated-cost
    code paths.
    """
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        return rng.uniform(0.0, 1.0, size=(n, n))
    x = np.sort(rng.normal(size=n))
    y = np.sort(rng.normal(size=n))
    return (x[:, None] - y[None, :]) ** 2


@dataclass
class CrossCheck:
    """Agreement record between the three threshold routes and the path."""

    eta_formula: float
    eta_bruteforce: float
    eta_path: float
    rel_disagreement: float
    path_discrepancy: float
    x_star_gap: float
    label: str = ""


def cross_check_instance(inst: QlpInstance, seed: int = 0, samples: int = 40) -> CrossCheck:
    """Compare formula, brute force, and homotopy on one instance.

    The formula route uses the homotopy's final point as the minimum-norm
    solution; the brute-force route recomputes it over the optimal hull,
    so a wrong endpoint shows up as disagreement.
    """
    from .analysis import eta_star_formula
    from .homotopy import trace_path
    from .polytope import enumerate_vertices

    vs = enumerate_vertices(inst.polytope)
    marked = vs.mark_optimal(inst.c)
    _, opt_idx = lp_solve_bruteforce(vs, inst.c)
    x_star_oracle = min_norm_over_M(vs.vertices[opt_idx])
    path = trace_path(inst)
    eta_f, _ = eta_star_formula(marked, inst.c, path.x_star)
    try:
        eta_b = eta_star_bruteforce(vs, inst.c, x_star_oracle)
    except AllVerticesOptimal:
        eta_b = 0.0
    vals = (eta_f, eta_b, path.eta_star)
    scale = 1.0 + max(vals)
    rel = max(abs(a - b) for a in vals for b in vals) / scale
    pv = path_verify(inst, path, samples=samples, seed=seed)
    gap = float(np.max(np.abs(path.x_star - x_star_oracle)))
    return CrossCheck(
        eta_formula=eta_f,
        eta_bruteforce=eta_b,
        eta_path=path.eta_star,
        rel_disagreement=rel,
        path_discrepancy=pv.max_discrepancy,
        x_star_gap=gap,
    )


def run_cross_checks(
    n_polytopes: int = 50,
    n_transport: int = 25,
    seed: int = 0,
    samples: int = 40,
    verbose: bool = False,
) -> CrossCheck:
    """Randomized agreement battery; returns the worst instance's record.

    The worst instance has the largest of ``rel_disagreement`` and
    ``path_discrepancy``; its record carries its label, e.g. ``polytope[17]``.
    """
    from .ot import build

    records = []

    def absorb(r: CrossCheck, label: str):
        if verbose:
            print(
                f"{label}: eta*=({r.eta_formula:.6g}, {r.eta_bruteforce:.6g}, "
                f"{r.eta_path:.6g}) rel={r.rel_disagreement:.2e} "
                f"path={r.path_discrepancy:.2e}"
            )
        records.append(replace(r, label=label))

    for i in range(n_polytopes):
        inst = random_polytope_instance(seed + i)
        absorb(cross_check_instance(inst, seed=seed + i, samples=samples), f"polytope[{i}]")
    for i in range(n_transport):
        rng = np.random.default_rng(seed + 10_000 + i)
        n = int(rng.integers(2, 6))
        C = random_cost_matrix(seed + 10_000 + i, n)
        inst = build(cost=C)
        absorb(
            cross_check_instance(inst.qlp(), seed=seed + 10_000 + i, samples=samples),
            f"transport[{i}] n={n}",
        )
    return max(
        records,
        key=lambda r: max(r.rel_disagreement, r.path_discrepancy),
        default=CrossCheck(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    )
