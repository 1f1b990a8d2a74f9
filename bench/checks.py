"""Checks of the program's outputs against computations made apart from it.

Every function returns a list of problems, empty when the output passes.
None of them compares against a stored copy of an earlier output: the
references are closed forms, scipy's qhull and HiGHS, and the brute-force
oracle (which shares no code with the path tracer by design).
"""

from __future__ import annotations

import numpy as np

ETA_REL_TOL = 1e-9
X_STAR_TOL = 1e-9
ORACLE_TOL = 1e-7
VERTEX_TOL = 1e-7
LP_TOL = 1e-7


def experiment_rows(rows, n_values) -> list[str]:
    """Slope experiment rows: one per size, ``ratio = bound / L_n >= 1``.

    The bound is the closed form ``(n - 1) / n^6``.
    """
    problems = []
    if sorted(r.n for r in rows) != sorted(n_values):
        problems.append(f"experiment rows cover {[r.n for r in rows]}, asked for {n_values}")
    for r in rows:
        if r.skipped or r.slope is None or r.ratio is None:
            problems.append(f"n={r.n}: row skipped")
            continue
        bound = (r.n - 1) / r.n**6
        if abs(r.bound - bound) > 1e-15 * bound:
            problems.append(f"n={r.n}: bound {r.bound!r} is not (n-1)/n^6 = {bound!r}")
        if not r.slope > 0.0:
            problems.append(f"n={r.n}: slope {r.slope!r} is not positive")
        elif abs(r.ratio - bound / r.slope) > 1e-12 * abs(r.ratio):
            problems.append(f"n={r.n}: ratio {r.ratio!r} is not bound / slope")
        if not r.ratio >= 1.0:
            problems.append(f"n={r.n}: ratio {r.ratio!r} < 1 breaks the slope bound")
    return problems


def quad_cost_trace(n: int, eta_star: float, x_star) -> list[str]:
    """Quadratic-cost family on ``i/n``: ``eta* = 2 n^3`` and ``x*`` is the identity."""
    problems = []
    exact = 2.0 * n**3
    rel = abs(eta_star - exact) / exact
    if not rel <= ETA_REL_TOL:
        problems.append(f"n={n}: eta* = {eta_star!r} is off 2n^3 = {exact!r} by {rel:.2e} relative")
    x_star = np.asarray(x_star, dtype=float).ravel()
    if x_star.shape != (n * n,):
        problems.append(f"n={n}: x* has shape {x_star.shape}")
    else:
        dev = float(np.max(np.abs(x_star - np.eye(n).ravel())))
        if not dev <= X_STAR_TOL:
            problems.append(f"n={n}: x* is off the identity by {dev:.2e}")
    return problems


def cross_check_record(label: str, record) -> list[str]:
    """Formula, brute force and tracer agree; the path matches cold solves."""
    problems = []
    for field in ("rel_disagreement", "path_discrepancy", "x_star_gap"):
        value = float(getattr(record, field))
        if not value <= ORACLE_TOL:
            problems.append(f"{label}: {field} = {value:.2e} > {ORACLE_TOL:.0e}")
    for field in ("eta_formula", "eta_bruteforce", "eta_path"):
        value = float(getattr(record, field))
        if not (np.isfinite(value) and value >= 0.0):
            problems.append(f"{label}: {field} = {value!r}")
    return problems


def qhull_vertices(G, h, interior) -> np.ndarray:
    """Vertices of ``{x : G x <= h}`` from scipy's qhull, duplicates merged."""
    from scipy.spatial import HalfspaceIntersection

    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    hs = HalfspaceIntersection(np.hstack([G, -h[:, None]]), np.asarray(interior, dtype=float))
    kept: list[np.ndarray] = []
    for p in hs.intersections:
        if all(np.max(np.abs(p - q)) > VERTEX_TOL for q in kept):
            kept.append(p)
    return np.asarray(kept)


def same_vertex_sets(label: str, program, reference) -> list[str]:
    """Both sets have the same points, each matched within ``VERTEX_TOL``."""
    program = np.atleast_2d(np.asarray(program, dtype=float))
    reference = np.atleast_2d(np.asarray(reference, dtype=float))
    dist = np.max(np.abs(program[:, None, :] - reference[None, :, :]), axis=2)
    unmatched = int(np.sum(dist.min(axis=1) > VERTEX_TOL)) + int(
        np.sum(dist.min(axis=0) > VERTEX_TOL)
    )
    if unmatched:
        return [f"{label}: {len(program)} vertices against qhull's {len(reference)}, "
                f"{unmatched} without a match"]
    return []


def analyze_report(label: str, report: dict, G, h, c, vertices) -> list[str]:
    """An ``analyze`` report on ``{x : G x <= h}`` with cost ``c``.

    ``x*`` is read back from the report's auxiliary cost
    ``c_aux = eta*/2 c + x*``.  HiGHS confirms that ``x*`` is LP-optimal
    and minimizes ``c_aux``; the threshold is re-evaluated as the maximum
    of ``2 <x*, x* - v> / <c, v - x*>`` over the non-optimal ``vertices``
    (from qhull).
    """
    from scipy.optimize import linprog

    problems = []
    for flag in ("agreement", "bounds_ok"):
        if report.get(flag) is not True:
            problems.append(f"{label}: report has {flag} = {report.get(flag)!r}")
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    c = np.asarray(c, dtype=float)
    eta = report.get("eta_star_path")
    aux = report.get("aux_cost")
    if eta is None or aux is None:
        return problems + [f"{label}: report lacks eta_star_path or aux_cost"]
    aux = np.asarray(aux, dtype=float)
    x_star = aux - 0.5 * eta * c
    scale = 1.0 + float(np.max(np.abs(x_star)))
    if float(np.max(G @ x_star - h)) > LP_TOL * scale:
        problems.append(f"{label}: x* violates a constraint")
    bounds = [(None, None)] * c.size
    for name, cost in (("LP cost", c), ("auxiliary cost", aux)):
        res = linprog(cost, A_ub=G, b_ub=h, bounds=bounds, method="highs")
        if res.status != 0:
            problems.append(f"{label}: HiGHS failed on the {name}: {res.message}")
            continue
        gap = float(cost @ x_star) - float(res.fun)
        if gap > LP_TOL * (1.0 + abs(float(res.fun))):
            problems.append(f"{label}: x* misses the {name} minimum by {gap:.2e}")
    V = np.asarray(vertices, dtype=float)
    vals = V @ c
    lp_opt = float(vals.min())
    nonopt = vals > lp_opt + 1e-9 * (1.0 + abs(lp_opt))
    if np.any(nonopt):
        Vn = V[nonopt]
        ratios = 2.0 * ((x_star - Vn) @ x_star) / ((Vn - x_star) @ c)
        ref = max(float(ratios.max()), 0.0)
        if abs(eta - ref) > 1e-7 * (1.0 + ref):
            problems.append(f"{label}: eta* = {eta!r}, qhull vertex formula gives {ref!r}")
    return problems
