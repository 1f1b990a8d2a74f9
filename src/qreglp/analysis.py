"""Quantitative analysis around the stationarity threshold.

Evaluates the suboptimality curve, the closed-form threshold and its
auxiliary-cost characterization, the slope bound of the final segment,
the geometry-based threshold bound, and the large-regularization rates.
Every check follows one rule (:func:`_at_most`): ``a <= b`` up to a tolerance
times the size of the terms ``a`` and ``b`` are computed from, so no answer
changes when the cost or the polytope is scaled.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .errors import AllVerticesOptimal, BudgetExceeded, DegeneratePath
from .homotopy import SolutionPath, trace_path
from .polytope import (DEFAULT_BASIS_BUDGET, VertexSet, enumerate_vertices, geometry,
                       suboptimality_gap)
from .projection import QlpInstance, solve_qlp

_CHECK_TOL = 1e-9  # proven inequalities and ties
_ROUTE_TOL = 1e-7  # two computed routes to one number
_AUX_SAMPLES = 9


def _at_most(a, b, size, tol=_CHECK_TOL):
    """The one check rule: ``a <= b`` up to ``tol`` times ``size``, the magnitude of the
    terms ``a`` and ``b`` are computed from (no ``1 +`` floor).  Works elementwise."""
    return a - b <= tol * size


def suboptimality(inst: QlpInstance, eta: float, lp_value: float) -> float:
    """Cost excess ``<c, x(eta)> - lp_value`` of the regularized solution."""
    x = solve_qlp(inst, eta).x
    return float(inst.c @ x - lp_value)


def routes_agree(a: float, b: float) -> bool:
    """Whether two routes to ``eta*`` agree: ``|a - b| <= _ROUTE_TOL max(|a|, |b|)``."""
    return _at_most(abs(a - b), 0.0, max(abs(a), abs(b)), _ROUTE_TOL)


def eta_star_formula(vs: VertexSet, c, x_star):
    """Closed-form threshold ``2 max <x*, x* - v> / <c, v - x*>``.

    The maximum runs over the vertices that ``vs.optimal_mask`` leaves
    unflagged; an unset mask is set by :meth:`VertexSet.mark_optimal`.
    Returns ``(eta_star, argmax_indices)``; ties within ``_CHECK_TOL``
    relative are all reported.  When every vertex is optimal the threshold is zero
    by convention and the index list is empty.  A negative maximum (the
    origin projection already solves the LP) is clamped to zero.
    """
    c = np.asarray(c, dtype=float).ravel()
    x_star = np.asarray(x_star, dtype=float).ravel()
    if vs.optimal_mask is None:
        vs = vs.mark_optimal(c)
    nonopt = ~vs.optimal_mask
    if not np.any(nonopt):
        return 0.0, np.zeros(0, dtype=int)
    V = vs.vertices[nonopt]
    num = (x_star - V) @ x_star
    den = (V - x_star) @ c
    ratios = 2.0 * num / den
    best = float(ratios.max())
    if best < 0.0:
        # Degenerate instance: the origin projection already solves the
        # LP, the threshold is zero, and no vertex attains it.
        return 0.0, np.zeros(0, dtype=int)
    idx = np.flatnonzero(nonopt)[_at_most(best, ratios, best)]
    return best, idx


def gap_bound(vs: VertexSet, c) -> float:
    """Geometry bound ``2 B D / gap`` dominating the threshold."""
    B, D = geometry(vs)
    delta = suboptimality_gap(vs, c)
    return 2.0 * B * D / delta


@dataclass
class SlopeReport:
    """Final-segment slope of the suboptimality curve and its bounds."""

    slope: float
    bound_angle: float
    bound_norm: float

    @property
    def chain_holds(self) -> bool:
        """``slope <= bound_angle <= bound_norm``, each at the size ``|c|^2 / 2``."""
        return _at_most(self.slope, self.bound_angle, self.bound_norm) and _at_most(
            self.bound_angle, self.bound_norm, self.bound_norm
        )


def slope_report(path: SolutionPath, c) -> SlopeReport:
    """Slope of the last affine piece of the suboptimality curve.

    The curve hits zero at the threshold, so the slope is the cost gap at
    the second-to-last breakpoint divided by the final segment length.
    Bounded by half the squared cost component along the segment, and in
    turn by half the squared cost norm.
    """
    c = np.asarray(c, dtype=float).ravel()
    if path.n_segments == 0:
        raise DegeneratePath("threshold is zero; no moving segment")
    x_prev = path.endpoints[-2]
    x_star = path.x_star
    diff = x_star - x_prev
    nd = float(np.linalg.norm(diff))
    if _at_most(nd, 0.0, max(np.linalg.norm(x_star), np.linalg.norm(x_prev))):
        raise DegeneratePath("last segment has zero length")
    e_prev = float(c @ (x_prev - x_star))
    slope = e_prev / (path.breakpoints[-1] - path.breakpoints[-2])
    bound_angle = 0.5 * float(c @ (diff / nd)) ** 2
    bound_norm = 0.5 * float(c @ c)
    return SlopeReport(slope=slope, bound_angle=bound_angle, bound_norm=bound_norm)


@dataclass
class AuxCostCheck:
    """Auxiliary-cost certificate of the threshold maximizers."""

    aux_cost: np.ndarray
    min_gap_over_vertices: float
    max_gap_on_argmax: float
    max_gap_on_last_segment: float
    ratio_identity_error: float
    passed: bool


def aux_cost_check(
    path: SolutionPath,
    c,
    vs: VertexSet,
    argmax: np.ndarray | None = None,
) -> AuxCostCheck:
    """Check the auxiliary cost ``c* = (eta*/2) c + x*`` certificate.

    ``x*`` must minimize ``<c*, .>`` over the polytope, the threshold
    argmax vertices must attain equality, the whole last segment must be
    contained in that minimizing face, and on the open last segment the
    threshold equals ``2 <x*, x* - x(eta)> / <c, x(eta) - x*>`` (sampled at
    ``_AUX_SAMPLES`` points).  Each check holds to ``_ROUTE_TOL`` times its size: the gaps at
    ``(eta* |c| / 2 + |x*|) max |v - x*|``, the size of their terms before ``c_aux``
    cancels, and the ratio identity at ``eta*``.
    """
    c = np.asarray(c, dtype=float).ravel()
    x_star = path.x_star
    eta_star = path.eta_star
    c_aux = 0.5 * eta_star * c + x_star
    reach = float(np.max(np.linalg.norm(vs.vertices - x_star, axis=1), initial=0.0))
    size = (0.5 * eta_star * float(np.linalg.norm(c)) + float(np.linalg.norm(x_star))) * reach
    gaps = (vs.vertices - x_star) @ c_aux
    min_gap = float(gaps.min())
    max_on_argmax = (
        float(np.max(np.abs(gaps[argmax]))) if argmax is not None and len(argmax) else 0.0
    )
    max_seg = 0.0
    ratio_err = 0.0
    if path.n_segments >= 1:
        lo, hi = path.breakpoints[-2], path.breakpoints[-1]
        for t in np.linspace(0.05, 0.95, _AUX_SAMPLES):
            eta = (1.0 - t) * lo + t * hi
            x = path.interpolate(float(eta))
            max_seg = max(max_seg, abs(float((x - x_star) @ c_aux)))
            den = float(c @ (x - x_star))
            if not _at_most(abs(den), 0.0, np.linalg.norm(c) * np.linalg.norm(x - x_star)):
                ratio = 2.0 * float(x_star @ (x_star - x)) / den
                ratio_err = max(ratio_err, abs(ratio - eta_star))
    passed = (
        _at_most(0.0, min_gap, size, _ROUTE_TOL)
        and _at_most(max(max_on_argmax, max_seg), 0.0, size, _ROUTE_TOL)
        and _at_most(ratio_err, 0.0, eta_star, _ROUTE_TOL)
    )
    return AuxCostCheck(
        aux_cost=c_aux,
        min_gap_over_vertices=min_gap,
        max_gap_on_argmax=max_on_argmax,
        max_gap_on_last_segment=max_seg,
        ratio_identity_error=ratio_err,
        passed=passed,
    )


@dataclass
class SmallEtaRow:
    """One large-regularization rate check ``|x(eta) - x0| <= C |c| eta``."""

    eta: float
    distance: float
    bound: float
    half_constant: bool
    passed: bool


def orthogonality_condition(x_zero, vs: VertexSet) -> bool:
    """Whether ``<x0, v - x0>`` vanishes on all vertices.

    This is the condition under which the rate constant improves from
    ``|c|`` to ``|c|/2``; it holds automatically on the transport polytope.
    Each value is judged at the size ``|x0| max |v - x0|``.
    """
    x_zero = np.asarray(x_zero, dtype=float).ravel()
    off = vs.vertices - x_zero
    size = np.linalg.norm(x_zero) * np.max(np.linalg.norm(off, axis=1), initial=0.0)
    return bool(np.all(_at_most(np.abs(off @ x_zero), 0.0, size)))


def small_eta_report(path: SolutionPath, c, etas, half: bool) -> list[SmallEtaRow]:
    """Rate check rows for the regime of large regularization, with ``x(eta)`` read off the
    traced path (exact between its certified ends).

    ``half`` selects the improved constant ``|c| / 2`` (:func:`orthogonality_condition`);
    each distance is judged at the size of its bound.
    """
    cnorm = float(np.linalg.norm(np.asarray(c, dtype=float)))
    rows = []
    for eta in map(float, etas):
        dist = float(np.linalg.norm(path.interpolate(eta) - path.x_zero))
        bound = (0.5 if half else 1.0) * cnorm * eta
        rows.append(SmallEtaRow(eta, dist, bound, half, bool(_at_most(dist, bound, bound))))
    return rows


def e_curve(path: SolutionPath, c, grid: int = 512) -> np.ndarray:
    """Sampled suboptimality curve: columns ``eta, E, segment_index``.

    Uniform grid on ``[0, 1.1 eta*]`` plus every breakpoint (the only
    non-smooth points).  Falls back to ``[0, 1]`` when the threshold is
    zero.
    """
    c = np.asarray(c, dtype=float).ravel()
    bp, n_seg = path.breakpoints, path.n_segments
    hi = 1.1 * path.eta_star if path.eta_star > 0 else 1.0
    etas = np.union1d(np.linspace(0.0, hi, grid), bp)
    # c . x(eta) is affine between breakpoints, so it interpolates exactly.
    cx = path.endpoints @ c
    E = np.interp(etas, bp, cx) - cx[-1]
    seg = np.clip(np.searchsorted(bp, etas, side="right") - 1, 0, max(n_seg - 1, 0))
    seg[etas > bp[-1]] = n_seg
    return np.column_stack([etas, E, seg])


@dataclass
class AnalysisReport:
    """Everything the threshold theory predicts, with pass flags.

    ``checks`` maps the name of each check that applies to its outcome, and
    ``bounds_ok`` is true when all of them hold.
    """

    eta_star_path: float
    eta_star_formula: float | None
    argmax_vertices: np.ndarray | None
    aux_cost: np.ndarray | None
    slope_last_segment: float | None
    slope_bound_angle: float | None
    slope_bound_norm: float
    gap_bound: float | None
    small_eta_bounds: list = field(default_factory=list)
    e_curve: np.ndarray | None = None
    agreement: bool | None = None
    bounds_ok: bool = True
    all_vertices_optimal: bool = False
    half_constant: bool | None = None
    checks: dict[str, bool] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Every field but ``e_curve`` (written as CSV), as plain JSON values."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self) if f.name != "e_curve"}


def _plain(value):
    """``value`` as lists, dicts and Python scalars, which ``json`` encodes as they are."""
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if is_dataclass(value):
        return asdict(value)
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def analyze(
    inst: QlpInstance,
    grid: int = 512,
    vertex_budget: int = DEFAULT_BASIS_BUDGET,
) -> AnalysisReport:
    """Full report for one instance: path, threshold, bounds, curve.

    Traces the path once and enumerates the vertices with at most
    ``vertex_budget`` rays held plus zero-set tests in any step of the
    enumeration.
    Vertex-based quantities are filled in when the enumeration fits the
    budget, otherwise left as ``None`` with ``agreement`` unset.  ``checks``
    names each check that applies (``agreement``, ``gap_bound``, ``aux_cost``,
    ``slope_chain``, ``small_eta``, ``e_monotone``); ``bounds_ok`` is their
    conjunction.
    """
    path = trace_path(inst)
    c = inst.c
    try:
        vs = enumerate_vertices(inst.polytope, budget=vertex_budget)
    except BudgetExceeded:
        vs = None

    eta_formula = None
    argmax = None
    aux = None
    bound_2bd = None
    agreement = None
    all_opt = False
    half = None
    checks = {}
    if vs is not None:
        marked = vs.mark_optimal(c)
        eta_formula, argmax = eta_star_formula(marked, c, path.x_star)
        all_opt = bool(marked.optimal_mask.all())
        agreement = routes_agree(eta_formula, path.eta_star)
        checks["agreement"] = agreement
        try:
            bound_2bd = gap_bound(marked, c)
            checks["gap_bound"] = _at_most(eta_formula, bound_2bd, bound_2bd)
        except AllVerticesOptimal:
            bound_2bd = None
        if path.n_segments:
            aux_chk = aux_cost_check(path, c, marked, argmax)
            aux = aux_chk.aux_cost
            checks["aux_cost"] = aux_chk.passed
        half = orthogonality_condition(path.x_zero, marked)

    slope = angle = None
    norm_bound = 0.5 * float(c @ c)
    if path.n_segments:
        rep = slope_report(path, c)
        slope, angle = rep.slope, rep.bound_angle
        checks["slope_chain"] = rep.chain_holds

    etas = [path.eta_star / 10.0, path.eta_star / 100.0] if path.eta_star > 0 else [0.1]
    small = small_eta_report(path, c, etas, half=bool(half))
    checks["small_eta"] = all(r.passed for r in small)

    curve = e_curve(path, c, grid)
    size = float(np.linalg.norm(c) * np.max(np.linalg.norm(path.endpoints, axis=1)))
    checks["e_monotone"] = bool(np.all(_at_most(np.diff(curve[:, 1]), 0.0, size)))
    checks = {name: bool(ok) for name, ok in checks.items()}

    return AnalysisReport(
        eta_star_path=path.eta_star,
        eta_star_formula=eta_formula,
        argmax_vertices=argmax,
        aux_cost=aux,
        slope_last_segment=slope,
        slope_bound_angle=angle,
        slope_bound_norm=norm_bound,
        gap_bound=bound_2bd,
        small_eta_bounds=small,
        e_curve=curve,
        agreement=agreement,
        bounds_ok=all(checks.values()),
        all_vertices_optimal=all_opt,
        half_constant=half,
        checks=checks,
    )
