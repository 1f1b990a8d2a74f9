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
* every landing is re-solved from scratch and each piece is verified at
  its midpoint; a landing or midpoint off the predicted ray means the
  event analysis missed a kink, and raises rather than returning a wrong
  path.

``trace_path`` runs at unit cost norm: ``x(eta; c) = x(a eta; c / a)``, so
it traces ``c / |c|`` and divides the breakpoints by ``|c|``.  Every
tolerance then acts on data of one scale, whatever the scale of ``c``.

Stationarity is certified locally: the direction is zero and both the
residual and ``-c/2`` lie in the normal cone of the current face, which
guarantees the point stays optimal for every larger eta.  A zero
direction without that certificate starts a constant piece that can
resume moving later (this does happen: the target ray can sweep across a
vertex's normal cone and exit on the far side).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .errors import MaxSegmentsExceeded, NumericalBreakdown
from .polytope import FEAS_TOL, PolytopeSpec, _extend_basis
from .projection import (
    QlpInstance,
    _FreeSystem,
    _ratio_test,
    _unit_columns,
    min_distance_active_set,
    project,
)

_DIR_ZERO = 1e-12
_VERIFY_TOL = 1e-8


@dataclass
class BlockingConstraint:
    """An inactive inequality becomes tight at the event."""

    rows: np.ndarray


@dataclass
class DroppingMultiplier:
    """A multiplier of the carrying face crosses zero at the event."""

    rows: np.ndarray


@dataclass
class Stationary:
    """No further event: the point is optimal for every larger eta."""


@dataclass
class SolutionPath:
    """Breakpoints and endpoints of the piecewise-affine solution curve.

    ``breakpoints[0] == 0`` and ``breakpoints[-1]`` is the stationarity
    threshold; ``endpoints[i]`` solves the instance at ``breakpoints[i]``
    and linear interpolation between consecutive endpoints solves it in
    between.  ``segment_active_sets[i]`` holds the inequality rows tight
    along the interior of segment ``i``.
    """

    breakpoints: np.ndarray
    endpoints: np.ndarray
    segment_active_sets: list = field(default_factory=list)

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
        return {
            "breakpoints": self.breakpoints.tolist(),
            "endpoints": self.endpoints.tolist(),
            "eta_star": self.eta_star,
        }

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
    G_cone = spec.G[tight] if tight.size else np.zeros((0, spec.dim))
    w0 = None
    if warm_rows is not None and tight.size:
        pos = {int(row): i for i, row in enumerate(tight)}
        w0 = [pos[int(rr)] for rr in warm_rows if int(rr) in pos]
    d, ws, _, _, _ = min_distance_active_set(
        A_cone,
        G_cone,
        np.zeros(G_cone.shape[0]),
        -0.5 * inst.c,
        np.zeros(spec.dim),
        w0=w0,
        eq=(eq_idx, base_q),
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


def _make_state(inst: QlpInstance, eta: float, x: np.ndarray, warm_ws=None) -> PathState:
    spec = inst.polytope
    tight = spec.tight_rows(x, FEAS_TOL)
    d, r, cone_ws = _right_derivative(inst, eta, x, tight, warm_ws)
    if tight.size and np.any(d):
        gd = spec.G[tight] @ d
        scale = 1e-11 * (1.0 + np.linalg.norm(spec.G[tight], axis=1) * np.linalg.norm(d))
        seg = tight[np.abs(gd) <= scale]
    else:
        seg = tight
    return PathState(
        inst=inst,
        eta=eta,
        x=x,
        tight=tight,
        residual=r,
        direction_vec=d,
        segment_rows=seg,
        cone_ws=cone_ws,
    )


def _dual_exit_time(spec: PolytopeSpec, seg_rows: np.ndarray, r0: np.ndarray, rdot: np.ndarray, cap):
    """Largest ray parameter keeping ``r0 + s rdot`` in the face's normal cone.

    Returns ``(s_exit, rows)`` with ``s_exit = cap`` (or ``None`` when
    ``cap`` is ``None``) if no multiplier crosses before the cap.  When the
    face's rows are independent of each other and of ``A_red``
    (:attr:`_FreeSystem.full_rank`) the multipliers are affine in ``s`` and a
    ratio test gives the exit and the falling rows.  Otherwise the exit is
    the optimum of one linear program, maximize ``s <= cap`` subject to
    ``A_red^T mu + G_J^T lam - s rdot = r0`` with ``lam >= 0``, and no rows
    are reported.
    """
    GJ = spec.G[seg_rows] if seg_rows.size else np.zeros((0, spec.dim))
    if GJ.shape[0] == 0:
        return cap, np.zeros(0, dtype=int)
    scale = 1.0 + float(np.linalg.norm(r0)) + float(np.linalg.norm(rdot))
    A_red = spec.A[spec.eq_reduction[0]]
    m = A_red.shape[0]
    system = _FreeSystem(A_red, GJ, range(GJ.shape[0]), _unit_columns(GJ))
    if system.full_rank:
        # Independent rows: multipliers are unique affine functions of s.
        lam0 = system.multipliers(r0)[m:]
        lamdot = system.multipliers(rdot)[m:]
        smin, hit = _ratio_test(lam0, -lamdot, 1.0 + np.abs(lamdot).max(initial=0.0), seg_rows)
        if smin is None or (cap is not None and smin >= cap):
            return cap, np.zeros(0, dtype=int)
        return max(smin, 1e-13 * scale), hit

    n_lam = GJ.shape[0]
    cost = np.zeros(m + n_lam + 1)
    cost[-1] = -1.0
    res = linprog(
        cost,
        A_eq=np.hstack([A_red.T, GJ.T, -rdot[:, None]]),
        b_eq=r0,
        bounds=[(None, None)] * m + [(0.0, None)] * n_lam + [(0.0, cap)],
        method="highs",
    )
    if res.status == 3:  # unbounded: only possible when cap is None
        return None, np.zeros(0, dtype=int)
    if res.status != 0:
        raise NumericalBreakdown(f"normal-cone exit LP failed: {res.message}")
    return float(res.x[-1]), np.zeros(0, dtype=int)


def next_breakpoint(state: PathState):
    """Next event along the current piece.

    Returns ``(eta, event)`` where the event is a
    :class:`BlockingConstraint`, a :class:`DroppingMultiplier`, or
    :class:`Stationary` (in which case ``eta`` is the current value).
    """
    inst, spec = state.inst, state.inst.polytope
    d = state.direction_vec
    if not np.any(d):
        # Constant piece: residual must stay in the face's normal cone.
        rdot = -0.5 * inst.c
        s_exit, rows = _dual_exit_time(spec, state.tight, state.residual, rdot, None)
        if s_exit is None:
            return state.eta, Stationary()
        return state.eta + s_exit, DroppingMultiplier(rows)
    outside = np.ones(spec.n_ineq, dtype=bool)
    outside[state.segment_rows] = False
    idx = np.flatnonzero(outside)
    G = spec.G[idx]
    t_block, block_rows = _ratio_test(
        spec.h[idx] - G @ state.x,
        G @ d,
        1.0 + np.linalg.norm(G, axis=1) * np.linalg.norm(d),
        idx,
    )
    if t_block is None:
        raise NumericalBreakdown("moving ray never blocked on a bounded polytope")
    rdot = -0.5 * inst.c - d
    s_dual, drop_rows = _dual_exit_time(spec, state.segment_rows, state.residual, rdot, t_block)
    if s_dual is not None and s_dual < t_block:
        return state.eta + s_dual, DroppingMultiplier(drop_rows)
    return state.eta + t_block, BlockingConstraint(block_rows)


def _check_on_ray(where: str, x: np.ndarray, pred: np.ndarray, eta: float) -> None:
    """Raise unless a solve at a point of the segment lies on its predicted ray."""
    dev = float(np.max(np.abs(x - pred)))
    if dev > _VERIFY_TOL * (1.0 + np.linalg.norm(pred)):
        raise NumericalBreakdown(
            f"{where} solve left the predicted ray by {dev:.2e} on the segment "
            f"from eta={eta!r}; the event analysis missed a kink"
        )


def trace_path(inst: QlpInstance, max_segments: int | None = None) -> SolutionPath:
    """Trace the full solution path from ``eta = 0`` to stationarity.

    Returns the ordered breakpoints, the solution at each of them, and
    the tight rows carrying each affine piece.  The final endpoint is the
    minimum-norm solution of the underlying linear program and the final
    breakpoint is the exact stationarity threshold.

    The path is traced for the cost ``c / |c|`` and its breakpoints are
    divided by ``|c|``; endpoints and active sets do not depend on the
    cost's scale.

    Raises
    ------
    MaxSegmentsExceeded
        If more than ``10 (m + k)`` pieces are produced, which signals a
        cycling bug rather than a legitimate path.
    NumericalBreakdown
        If a solve at a predicted breakpoint or segment midpoint leaves the
        predicted ray, or the tracer stops advancing.
    """
    spec = inst.polytope
    cost_norm = float(np.linalg.norm(inst.c)) or 1.0
    inst = QlpInstance(spec, inst.c / cost_norm)
    if max_segments is None:
        max_segments = max(10 * (spec.n_eq + spec.n_ineq), 8)
    res0 = project(spec, np.zeros(spec.dim))
    eta, x = 0.0, res0.x
    etas = [0.0]
    points = [x]
    seg_sets: list[np.ndarray] = []
    warm = None
    stalled = 0

    for _ in range(max_segments):
        state = _make_state(inst, eta, x, warm)
        eta_next, event = next_breakpoint(state)
        if isinstance(event, Stationary):
            break
        d = state.direction_vec
        x_pred = x + (eta_next - eta) * d
        warm_rows = list(state.tight)
        if isinstance(event, (BlockingConstraint, DroppingMultiplier)):
            warm_rows += [int(j) for j in event.rows]
        x_next = project(spec, inst.target(eta_next), start=x_pred, working_set=warm_rows).x
        _check_on_ray("landing", x_next, x_pred, eta / cost_norm)
        mid = 0.5 * (eta + eta_next)
        mid_pred = x + (mid - eta) * d
        x_mid = project(spec, inst.target(mid), start=mid_pred, working_set=warm_rows).x
        _check_on_ray("midpoint", x_mid, mid_pred, eta / cost_norm)
        if eta_next - eta <= 1e-12 * (1.0 + eta):
            stalled += 1
            if stalled >= 5:
                raise NumericalBreakdown(f"path tracer stalled near eta={eta / cost_norm!r}")
        else:
            stalled = 0
        etas.append(float(eta_next))
        points.append(x_next)
        seg_sets.append(np.asarray(state.segment_rows, dtype=int))
        eta, x = float(eta_next), x_next
        warm = state.cone_ws
    else:
        raise MaxSegmentsExceeded(f"more than {max_segments} path segments")

    points[-1] = _polish_min_norm(spec, points[-1])
    return SolutionPath(np.asarray(etas) / cost_norm, np.asarray(points), seg_sets)


def _polish_min_norm(spec: PolytopeSpec, x: np.ndarray) -> np.ndarray:
    """Re-solve the stationary endpoint at unit scale.

    The stationary point is the origin's projection onto the affine hull
    of its own face, i.e. the minimum-norm solution of the face's tight
    constraints.  Solving that system directly removes the error inherited
    from projecting the large target ``-eta c / 2``.
    """
    tight = spec.tight_rows(x, FEAS_TOL)
    blocks = []
    rhs = []
    if spec.n_eq:
        blocks.append(spec.A)
        rhs.append(spec.b)
    if tight.size:
        blocks.append(spec.G[tight])
        rhs.append(spec.h[tight])
    if not blocks:
        return x
    B = np.vstack(blocks)
    r = np.concatenate(rhs)
    x_pol = np.linalg.lstsq(B, r, rcond=None)[0]
    ok = (
        spec.contains(x_pol, 10 * FEAS_TOL)
        and np.max(np.abs(x_pol - x)) <= 1e-6 * (1.0 + np.linalg.norm(x))
    )
    return x_pol if ok else x
