"""Exact path tracing for the regularized solve as eta sweeps upward.

The minimizer ``x(eta) = proj_P(-eta c / 2)`` is piecewise affine in
``eta`` and constant past a finite threshold.  The tracer advances one
affine piece at a time:

* the right derivative at the current point is the projection of ``-c/2``
  onto the critical cone (tangent cone intersected with the plane normal
  to the projection residual), computed by the active-set solver;
* the piece ends either when an inactive inequality blocks the ray
  (closed-form smallest crossing) or when a multiplier of the carrying
  face crosses zero (closed form when the face's tight rows are linearly
  independent, otherwise one linear program over the face's multipliers);
* each piece is certified at its two ends: ``x`` is feasible, the piece's
  rows ``J`` are tight and ``target - x = A^T mu + G_J^T lam``, ``lam >= 0``.
  All of it is affine in ``eta``, so the ends certify the whole piece.  The
  right end's multipliers are the event analysis's own, the left end's
  those of the previous right end (or the cold start) on ``J``; a failed
  certificate means a missed kink, and raises.

``trace_path`` runs at unit cost norm: ``x(eta; c) = x(a eta; c / a)``, so
it traces ``c / |c|`` and divides the breakpoints by ``|c|``.  Every
tolerance then acts on data of one scale, whatever the scale of ``c``; the
multipliers of a certificate do not depend on that scale.

Stationarity is certified locally: the direction is zero and both the
residual and ``-c/2`` lie in the normal cone of the current face, which
guarantees the point stays optimal for every larger eta.  A zero
direction without that certificate starts a constant piece that can
resume moving later (this does happen: the target ray can sweep across a
vertex's normal cone and exit on the far side).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog

from .errors import MaxSegmentsExceeded, NumericalBreakdown
from .polytope import FEAS_TOL, PolytopeSpec, _extend_basis
from .projection import QlpInstance, _FreeSystem, _ratio_test, min_distance_active_set, project

_DIR_ZERO = 1e-12
_VERIFY_TOL = 1e-8


@dataclass
class BlockingConstraint:
    """An inactive inequality becomes tight at the event."""

    rows: np.ndarray
    multipliers: tuple = ()


@dataclass
class DroppingMultiplier:
    """A multiplier of the carrying face crosses zero at the event."""

    rows: np.ndarray
    multipliers: tuple = ()


@dataclass
class Stationary:
    """No further event: the point is optimal for every larger eta."""


class Certificate(NamedTuple):
    """Optimality of a path point: ``target - x = A^T mu + G[rows]^T lam``,
    ``lam >= 0`` and ``rows`` tight; ``mu`` has one entry per row of ``A``."""

    rows: np.ndarray
    mu: np.ndarray
    lam: np.ndarray


@dataclass
class SolutionPath:
    """Breakpoints and endpoints of the piecewise-affine solution curve.

    ``breakpoints[0] == 0`` and ``breakpoints[-1]`` is the stationarity
    threshold; ``endpoints[i]`` solves the instance at ``breakpoints[i]``
    and linear interpolation between consecutive endpoints solves it in
    between.  ``segment_active_sets[i]`` holds the inequality rows tight
    along the interior of segment ``i``, and ``certificates[i]`` is the pair
    of :class:`Certificate` on those rows at its left and right end.
    """

    breakpoints: np.ndarray
    endpoints: np.ndarray
    segment_active_sets: list = field(default_factory=list)
    certificates: list = field(default_factory=list)

    @property
    def eta_star(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def x_star(self) -> np.ndarray:
        return self.endpoints[-1]

    @property
    def x_zero(self) -> np.ndarray:
        return self.endpoints[0]

    @property
    def n_segments(self) -> int:
        return len(self.breakpoints) - 1

    def interpolate(self, eta: float) -> np.ndarray:
        """The path point at any ``eta >= 0`` (constant past the end)."""
        bp = self.breakpoints
        if eta >= bp[-1]:
            return self.endpoints[-1].copy()
        if eta <= bp[0]:
            return self.endpoints[0].copy()
        i = int(np.searchsorted(bp, eta, side="right")) - 1
        t = (eta - bp[i]) / (bp[i + 1] - bp[i])
        return (1.0 - t) * self.endpoints[i] + t * self.endpoints[i + 1]

    def segment_index(self, eta: float) -> int:
        """Index of the segment containing ``eta``.

        Values past the final breakpoint report ``n_segments``, marking
        the stationary regime.
        """
        if self.n_segments == 0:
            return 0
        if eta > self.breakpoints[-1]:
            return self.n_segments
        i = int(np.searchsorted(self.breakpoints, eta, side="right")) - 1
        return min(max(i, 0), self.n_segments - 1)

    def to_json_dict(self) -> dict:
        return {"breakpoints": self.breakpoints.tolist(),
                "endpoints": self.endpoints.tolist(), "eta_star": self.eta_star}

    def csv_rows(self):
        """Rows ``(i, eta_i, x components...)``, one per breakpoint."""
        for i, (eta, x) in enumerate(zip(self.breakpoints, self.endpoints)):
            yield [i, float(eta), *map(float, x)]


@dataclass
class PathState:
    """Snapshot of the tracer between breakpoints."""

    inst: QlpInstance
    eta: float
    x: np.ndarray
    tight: np.ndarray
    residual: np.ndarray
    direction_vec: np.ndarray
    segment_rows: np.ndarray
    cone_ws: list = field(default_factory=list)


def direction(active_set, inst: QlpInstance) -> np.ndarray:
    """Path velocity on the affine piece carried by ``active_set``.

    Projects ``-c/2`` onto the null space of the equality rows stacked
    with the given tight inequality rows; the zero vector signals a
    stationary piece.
    """
    spec = inst.polytope
    _, Q = _extend_basis(spec.eq_reduction[1], spec.G, [int(j) for j in active_set])
    v = -0.5 * inst.c
    return v - Q.T @ (Q @ v)


def _right_derivative(inst: QlpInstance, eta: float, x: np.ndarray, tight: np.ndarray, warm_rows):
    """Projection of ``-c/2`` onto the critical cone at ``x``.

    ``warm_rows`` holds global inequality-row indices from the previous
    call's cone working set; they seed the new working set where still
    tight.  Returns the derivative, the residual, and the new working set
    in global row indices.
    """
    spec = inst.polytope
    r = inst.target(eta) - x
    A_cone = spec.A
    eq_idx, base_q = spec.eq_reduction
    rn = float(np.linalg.norm(r))
    if rn > 1e-12 * (1.0 + np.linalg.norm(x) + abs(eta) * np.linalg.norm(inst.c)):
        A_cone = np.vstack([spec.A, r / rn])
        kept, base_q = _extend_basis(base_q, A_cone, [spec.n_eq])
        eq_idx = eq_idx + kept
    G_cone = spec.G[tight]
    w0 = None
    if warm_rows is not None and tight.size:
        pos = {int(row): i for i, row in enumerate(tight)}
        w0 = [pos[int(rr)] for rr in warm_rows if int(rr) in pos]
    d, ws, _, _, _ = min_distance_active_set(
        A_cone, G_cone, np.zeros(G_cone.shape[0]), -0.5 * inst.c, np.zeros(spec.dim), w0=w0,
        eq=(eq_idx, base_q), col=spec.unit_columns[tight], row_norms=spec.row_norms[tight],
    )
    if np.linalg.norm(d) <= _DIR_ZERO * (1.0 + np.linalg.norm(inst.c)):
        d = np.zeros(spec.dim)
    return d, r, [int(tight[i]) for i in ws]


def path_state(inst: QlpInstance, eta: float, x=None) -> PathState:
    """State of the tracer at ``eta``: point, tight rows, velocity.

    ``x`` defaults to a fresh solve at ``eta`` (projection of the origin
    when ``eta`` is zero).  Feed the result to :func:`next_breakpoint`.
    """
    if x is None:
        x = project(inst.polytope, inst.target(eta)).x
    return _make_state(inst, float(eta), np.asarray(x, dtype=float).ravel())


def _make_state(inst: QlpInstance, eta: float, x: np.ndarray, warm_ws=None, landed=()) -> PathState:
    # ``landed``: rows tight at ``x`` by construction, whatever the rounding
    # that ``x = x_prev + s d`` gathered along a long step.
    spec = inst.polytope
    tight = np.union1d(spec.tight_rows(x, FEAS_TOL), np.asarray(landed, dtype=int))
    d, r, cone_ws = _right_derivative(inst, eta, x, tight, warm_ws)
    if tight.size and np.any(d):
        gd = spec.G[tight] @ d
        scale = 1e-11 * (1.0 + spec.row_norms[tight] * np.linalg.norm(d))
        seg = tight[np.abs(gd) <= scale]
    else:
        seg = tight
    return PathState(inst, eta, x, tight, r, d, seg, cone_ws)


def _dual_exit_time(spec: PolytopeSpec, seg_rows: np.ndarray, r0: np.ndarray, rdot: np.ndarray, cap):
    """Largest ray parameter keeping ``r0 + s rdot`` in the face's normal cone.

    Returns ``(s_exit, rows, y0, ydot)`` with ``s_exit = cap`` (or ``None``
    when ``cap`` is ``None``) if no multiplier crosses before the cap.  When
    the face's rows are independent of each other and of ``A_red``
    (:attr:`_FreeSystem.full_rank`; an empty face is ``A_red`` alone) the
    multipliers on ``[A_red; G_J]`` are ``y0 + s ydot`` for every ``s`` and a
    ratio test gives the exit and the falling rows.  Otherwise the exit is
    the optimum of one linear program, maximize ``s <= cap`` subject to
    ``A_red^T mu + G_J^T lam - s rdot = r0`` with ``lam >= 0``; no rows are
    reported, ``y0`` is the program's ``(mu, lam)`` and ``ydot`` is zero, so
    ``y0`` holds at ``s_exit`` only.
    """
    GJ = spec.G[seg_rows]
    A_red = spec.A[spec.eq_reduction[0]]
    m = A_red.shape[0]
    no_rows = np.zeros(0, dtype=int)
    system = _FreeSystem(A_red, GJ, range(GJ.shape[0]), spec.unit_columns[seg_rows])
    if system.full_rank:
        y0, ydot = system.multipliers(r0), system.multipliers(rdot)
        lam0, lamdot = y0[m:], ydot[m:]
        smin, hit = _ratio_test(lam0, -lamdot, 1.0 + np.abs(lamdot).max(initial=0.0), seg_rows)
        if smin is None or (cap is not None and smin >= cap):
            return cap, no_rows, y0, ydot
        scale = 1.0 + float(np.linalg.norm(r0)) + float(np.linalg.norm(rdot))
        return max(smin, 1e-13 * scale), hit, y0, ydot

    n_lam = GJ.shape[0]
    cost = np.zeros(m + n_lam + 1)
    cost[-1] = -1.0
    res = linprog(
        cost, A_eq=np.hstack([A_red.T, GJ.T, -rdot[:, None]]), b_eq=r0,
        bounds=[(None, None)] * m + [(0.0, None)] * n_lam + [(0.0, cap)], method="highs",
    )
    if res.status == 3:  # unbounded: only possible when cap is None
        return None, no_rows, None, None
    if res.status != 0:
        raise NumericalBreakdown(f"normal-cone exit LP failed: {res.message}")
    return float(res.x[-1]), no_rows, res.x[:-1], np.zeros(m + n_lam)


def next_breakpoint(state: PathState):
    """Next event along the current piece.

    Returns ``(eta, event)`` where the event is a
    :class:`BlockingConstraint`, a :class:`DroppingMultiplier`, or
    :class:`Stationary` (in which case ``eta`` is the current value).  The
    first two carry ``(y0, ydot)`` of :func:`_dual_exit_time` for the piece.
    """
    inst, spec = state.inst, state.inst.polytope
    d = state.direction_vec
    if not np.any(d):
        # Constant piece: residual must stay in the face's normal cone.
        rdot = -0.5 * inst.c
        s_exit, rows, *mult = _dual_exit_time(spec, state.tight, state.residual, rdot, None)
        if s_exit is None:
            return state.eta, Stationary()
        return state.eta + s_exit, DroppingMultiplier(rows, tuple(mult))
    outside = np.ones(spec.n_ineq, dtype=bool)
    outside[state.segment_rows] = False
    idx = np.flatnonzero(outside)
    G = spec.G[idx]
    t_block, block_rows = _ratio_test(
        spec.h[idx] - G @ state.x, G @ d, 1.0 + spec.row_norms[idx] * np.linalg.norm(d), idx
    )
    if t_block is None:
        raise NumericalBreakdown("moving ray never blocked on a bounded polytope")
    rdot = -0.5 * inst.c - d
    s_dual, drop_rows, *mult = _dual_exit_time(spec, state.segment_rows, state.residual, rdot, t_block)
    if s_dual is not None and s_dual < t_block:
        return state.eta + s_dual, DroppingMultiplier(drop_rows, tuple(mult))
    return state.eta + t_block, BlockingConstraint(block_rows, tuple(mult))


def _certificate(spec: PolytopeSpec, rows: np.ndarray, y: np.ndarray) -> Certificate:
    """:class:`Certificate` from multipliers ``y`` on ``[A_red; G[rows]]``."""
    eq_idx = spec.eq_reduction[0]
    mu = np.zeros(spec.n_eq)
    mu[eq_idx] = y[: len(eq_idx)]
    return Certificate(rows, mu, y[len(eq_idx) :])


def _restrict(cert: Certificate, rows: np.ndarray) -> Certificate:
    """``cert`` on ``rows``: a row it does not hold gets a zero multiplier."""
    lam = np.zeros(rows.size)
    _, into, outof = np.intersect1d(rows, cert.rows, assume_unique=True, return_indices=True)
    lam[into] = cert.lam[outof]
    return Certificate(rows, cert.mu, lam)


def _check_end(spec: PolytopeSpec, where: str, x: np.ndarray, r: np.ndarray, cert: Certificate, eta):
    """Raise unless ``cert`` proves ``x`` optimal for the residual ``r``."""
    lam = np.zeros(spec.n_ineq)
    lam[cert.rows] = cert.lam
    slack = spec.h - spec.G @ x
    off = np.concatenate([spec.A @ x - spec.b, np.minimum(slack, 0.0), slack[cert.rows]])
    off = float(np.max(np.abs(off), initial=0.0))
    resid = float(np.max(np.abs(r - spec.A.T @ cert.mu - spec.G.T @ lam), initial=0.0))
    low = float(lam.min(initial=0.0))
    tol = _VERIFY_TOL * (1.0 + np.linalg.norm(x))
    if off > tol or max(resid, -low) > tol + _VERIFY_TOL * np.linalg.norm(r):
        raise NumericalBreakdown(
            f"{where} point of the segment from eta={eta!r} fails its certificate (off the "
            f"face by {off:.2e}, stationarity residual {resid:.2e}, smallest multiplier "
            f"{low:.2e}); the event analysis missed a kink"
        )


def trace_path(inst: QlpInstance, max_segments: int | None = None) -> SolutionPath:
    """Trace the full solution path from ``eta = 0`` to stationarity.

    Returns the ordered breakpoints, the solution at each of them, and
    the tight rows and two end certificates of each affine piece.  The
    final endpoint is the minimum-norm solution of the underlying linear
    program and the final breakpoint is the exact stationarity threshold.

    The path is traced for the cost ``c / |c|`` and its breakpoints are
    divided by ``|c|``; endpoints, active sets and certificates do not
    depend on the cost's scale.

    Raises
    ------
    MaxSegmentsExceeded
        If more than ``10 (m + k)`` pieces are produced, which signals a
        cycling bug rather than a legitimate path.
    NumericalBreakdown
        If either end of a piece fails its certificate (the landing point
        is infeasible or off the piece's rows, or the multipliers leave a
        stationarity residual or go negative), or the tracer stops advancing.
    """
    spec = inst.polytope
    cost_norm = float(np.linalg.norm(inst.c)) or 1.0
    inst = QlpInstance(spec, inst.c / cost_norm)
    if max_segments is None:
        max_segments = max(10 * (spec.n_eq + spec.n_ineq), 8)
    res0 = project(spec, np.zeros(spec.dim))
    eta, x = 0.0, res0.x
    right = Certificate(res0.active_set, res0.eq_multipliers, res0.multipliers)
    etas, points, seg_sets, certs = [0.0], [x], [], []
    warm, landed, stalled = None, (), 0

    for _ in range(max_segments):
        state = _make_state(inst, eta, x, warm, landed)
        eta_next, event = next_breakpoint(state)
        if isinstance(event, Stationary):
            break
        J = np.asarray(state.segment_rows, dtype=int)
        x_next = x + (eta_next - eta) * state.direction_vec
        y0, ydot = event.multipliers
        left, right = _restrict(right, J), _certificate(spec, J, y0 + (eta_next - eta) * ydot)
        r_next = inst.target(eta_next) - x_next
        _check_end(spec, "landing", x_next, r_next, right, eta / cost_norm)
        _check_end(spec, "start", x, state.residual, left, eta / cost_norm)
        stalled = stalled + 1 if eta_next - eta <= 1e-12 * (1.0 + eta) else 0
        if stalled >= 5:
            raise NumericalBreakdown(f"path tracer stalled near eta={eta / cost_norm!r}")
        etas.append(float(eta_next))
        points.append(x_next)
        seg_sets.append(J)
        certs.append((left, right))
        eta, x, warm = float(eta_next), x_next, state.cone_ws
        landed = np.union1d(J, event.rows)
    else:
        raise MaxSegmentsExceeded(f"more than {max_segments} path segments")

    points[-1] = _polish_min_norm(spec, points[-1])
    return SolutionPath(np.asarray(etas) / cost_norm, np.asarray(points), seg_sets, certs)


def _polish_min_norm(spec: PolytopeSpec, x: np.ndarray) -> np.ndarray:
    """Re-solve the stationary endpoint at unit scale.

    The stationary point is the origin's projection onto the affine hull
    of its own face, i.e. the minimum-norm solution of the face's tight
    constraints.  Solving that system directly removes the error inherited
    from projecting the large target ``-eta c / 2``.
    """
    tight = spec.tight_rows(x, FEAS_TOL)
    if not spec.n_eq and not tight.size:
        return x
    B = np.vstack([spec.A, spec.G[tight]])
    x_pol = np.linalg.lstsq(B, np.concatenate([spec.b, spec.h[tight]]), rcond=None)[0]
    ok = (
        spec.contains(x_pol, 10 * FEAS_TOL)
        and np.max(np.abs(x_pol - x)) <= 1e-6 * (1.0 + np.linalg.norm(x))
    )
    return x_pol if ok else x
