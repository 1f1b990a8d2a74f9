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
  independent, otherwise a bisection on nonnegative-cone membership);
* every landing is re-solved from scratch and each piece is verified at
  its midpoint, with a bisection fallback that localizes any kink the
  event analysis might have missed.

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
from scipy.optimize import nnls

from .errors import MaxSegmentsExceeded, NumericalBreakdown
from .polytope import FEAS_TOL, PolytopeSpec, _extend_basis
from .projection import (
    QlpInstance,
    _FreeSystem,
    _unit_columns,
    min_distance_active_set,
    project,
)

MERGE_TOL = 1e-10
_DIR_ZERO = 1e-12
_VERIFY_TOL = 1e-8
_MEMBER_TOL = 1e-9


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


def _cone_membership(aq: np.ndarray, gj_proj: np.ndarray, v: np.ndarray, tol: float) -> bool:
    """Is ``v`` in span(A rows) + cone(G_J rows)?

    ``aq`` is an orthonormal basis of span(A); ``gj_proj`` holds the G_J
    rows with their span(A) components removed.
    """
    w = v - aq.T @ (aq @ v) if aq.shape[0] else v
    nw = float(np.linalg.norm(w))
    if gj_proj.shape[0] == 0:
        return nw <= tol
    try:
        _, res = nnls(gj_proj.T, w, maxiter=max(30 * gj_proj.shape[0], 300))
    except RuntimeError as exc:
        raise NumericalBreakdown("cone membership solve stalled") from exc
    return float(res) <= tol + 1e-14 * nw


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


def _blocking_time(spec: PolytopeSpec, x: np.ndarray, d: np.ndarray, seg_rows: np.ndarray):
    """Smallest ray parameter at which an outside inequality turns tight."""
    k = spec.n_ineq
    if k == 0:
        return None, np.zeros(0, dtype=int)
    mask = np.ones(k, dtype=bool)
    mask[seg_rows] = False
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return None, np.zeros(0, dtype=int)
    Gd = spec.G[idx] @ d
    sl = spec.h[idx] - spec.G[idx] @ x
    nd = np.linalg.norm(d)
    pos = Gd > 1e-13 * (1.0 + np.linalg.norm(spec.G[idx], axis=1) * nd)
    if not np.any(pos):
        return None, np.zeros(0, dtype=int)
    t = np.maximum(sl[pos], 0.0) / Gd[pos]
    jj = idx[pos]
    tmin = float(t.min())
    ties = jj[t <= tmin + 1e-10 * (1.0 + tmin)]
    return tmin, np.sort(ties)


def _dual_exit_time(spec: PolytopeSpec, seg_rows: np.ndarray, r0: np.ndarray, rdot: np.ndarray, cap):
    """Largest ray parameter keeping ``r0 + s rdot`` in the face's normal cone.

    Returns ``(s_exit, rows)`` with ``s_exit = cap`` (or ``None`` when
    ``cap`` is ``None``) if no multiplier crosses before the cap.
    """
    A = spec.A if spec.n_eq else np.zeros((0, spec.dim))
    GJ = spec.G[seg_rows] if seg_rows.size else np.zeros((0, spec.dim))
    m = A.shape[0]
    if GJ.shape[0] == 0:
        return cap, np.zeros(0, dtype=int)
    scale = 1.0 + float(np.linalg.norm(r0)) + float(np.linalg.norm(rdot))
    # [A; G_J] has full row rank exactly when its unit rows fix distinct
    # coordinates and the other rows are independent on the rest.
    system = _FreeSystem(A, GJ, range(GJ.shape[0]), _unit_columns(GJ))
    diag = np.abs(np.diag(system.R))
    full_rank = (
        np.unique(system.fixed).size == system.fixed.size
        and system.B.shape[0] <= system.free.size
        and (diag.size == 0 or diag.min() > 1e-9 * max(diag.max(), 1.0))
    )
    if full_rank:
        # Independent rows: multipliers are unique affine functions of s.
        lam0 = system.multipliers(r0)[m:]
        lamdot = system.multipliers(rdot)[m:]
        floor = 1e-13 * scale
        falling = lamdot < -1e-13 * (1.0 + np.abs(lamdot).max(initial=0.0))
        if not np.any(falling):
            return cap, np.zeros(0, dtype=int)
        s = -np.maximum(lam0[falling], 0.0) / lamdot[falling]
        rows = seg_rows[falling]
        smin = float(s.min())
        if cap is not None and smin >= cap:
            return cap, np.zeros(0, dtype=int)
        hit = rows[s <= smin + 1e-10 * (1.0 + smin)]
        return max(smin, floor), np.sort(hit)

    # Dependent rows: locate the exit by bisection on cone membership.
    aq = spec.eq_reduction[1]
    gj = GJ - (GJ @ aq.T) @ aq if aq.shape[0] else GJ
    tol = _MEMBER_TOL * scale

    def member(s):
        return _cone_membership(aq, gj, r0 + s * rdot, tol)

    if cap is None:
        if member(0.0) and _cone_membership(aq, gj, rdot, tol):
            return None, np.zeros(0, dtype=int)
        hi = 1.0
        for _ in range(80):
            if not member(hi):
                break
            hi *= 2.0
        else:
            raise NumericalBreakdown("normal-cone exit not bracketed")
        lo = 0.0
    else:
        if member(cap):
            return cap, np.zeros(0, dtype=int)
        lo, hi = 0.0, cap
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * (1.0 + hi):
            break
    return 0.5 * (lo + hi), np.zeros(0, dtype=int)


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
    t_block, block_rows = _blocking_time(spec, state.x, d, state.segment_rows)
    if t_block is None:
        raise NumericalBreakdown("moving ray never blocked on a bounded polytope")
    rdot = -0.5 * inst.c - d
    s_dual, drop_rows = _dual_exit_time(spec, state.segment_rows, state.residual, rdot, t_block)
    if s_dual is not None and s_dual < t_block:
        return state.eta + s_dual, DroppingMultiplier(drop_rows)
    return state.eta + t_block, BlockingConstraint(block_rows)


def _refine_kink(inst: QlpInstance, eta_lo, x_lo, d, eta_hi, warm_rows):
    """Earliest eta in ``(eta_lo, eta_hi]`` where the path leaves the ray."""
    spec = inst.polytope

    def on_ray(eta):
        pred = x_lo + (eta - eta_lo) * d
        res = project(spec, inst.target(eta), start=pred, working_set=warm_rows)
        dev = float(np.max(np.abs(res.x - pred)))
        return dev <= _VERIFY_TOL * (1.0 + np.linalg.norm(pred)), res.x

    lo, hi = eta_lo, eta_hi
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        ok, _ = on_ray(mid)
        if ok:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * (1.0 + hi):
            break
    eta_k = lo
    if eta_k <= eta_lo + 1e-13 * (1.0 + eta_lo):
        raise NumericalBreakdown(
            "kink refinement collapsed onto the segment start; the local "
            "direction disagrees with the solved path"
        )
    x_k = project(spec, inst.target(eta_k), start=x_lo + (eta_k - eta_lo) * d,
                  working_set=warm_rows).x
    return eta_k, x_k


def trace_path(inst: QlpInstance, max_segments: int | None = None) -> SolutionPath:
    """Trace the full solution path from ``eta = 0`` to stationarity.

    Returns the ordered breakpoints, the solution at each of them, and
    the tight rows carrying each affine piece.  The final endpoint is the
    minimum-norm solution of the underlying linear program and the final
    breakpoint is the exact stationarity threshold.

    Raises
    ------
    MaxSegmentsExceeded
        If more than ``10 (m + k)`` pieces are produced, which signals a
        cycling bug rather than a legitimate path.
    """
    spec = inst.polytope
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
        res = project(spec, inst.target(eta_next), start=x_pred, working_set=warm_rows)
        x_next = res.x
        landing_dev = float(np.max(np.abs(x_next - x_pred)))
        if landing_dev > _VERIFY_TOL * (1.0 + np.linalg.norm(x_pred)):
            eta_next, x_next = _refine_kink(inst, eta, x, d, eta_next, warm_rows)
        else:
            mid = 0.5 * (eta + eta_next)
            mid_pred = x + (mid - eta) * d
            mid_res = project(spec, inst.target(mid), start=mid_pred, working_set=warm_rows)
            if float(np.max(np.abs(mid_res.x - mid_pred))) > _VERIFY_TOL * (
                1.0 + np.linalg.norm(mid_pred)
            ):
                eta_next, x_next = _refine_kink(inst, eta, x, d, mid, warm_rows)
        if eta_next - eta <= 1e-12 * (1.0 + eta):
            stalled += 1
            if stalled >= 5:
                raise NumericalBreakdown(f"path tracer stalled near eta={eta!r}")
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
    return _merge_segments(np.asarray(etas), np.asarray(points), seg_sets)


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


def _merge_segments(etas: np.ndarray, points: np.ndarray, seg_sets: list) -> SolutionPath:
    """Drop duplicate breakpoints and join collinear neighboring pieces."""
    etas = list(map(float, etas))
    points = [np.asarray(p) for p in points]
    sets = [np.asarray(s, dtype=int) for s in seg_sets]

    def remove_breakpoint(j, merged_set):
        # Segments j-1 and j become one piece carried by merged_set.
        del etas[j]
        del points[j]
        sets[j - 1] = merged_set
        del sets[j]

    changed = True
    while changed:
        changed = False
        n = len(etas)
        # Sliver segments first (events that coincided numerically).
        for i in range(n - 1):
            if etas[i + 1] - etas[i] <= MERGE_TOL * (1.0 + etas[i + 1]):
                if n <= 2:
                    break
                if i == 0:
                    remove_breakpoint(1, sets[1])
                else:
                    remove_breakpoint(i, sets[i - 1])
                changed = True
                break
        if changed:
            continue
        # Then interior breakpoints where the velocity does not change.
        for i in range(1, n - 1):
            d1 = (points[i] - points[i - 1]) / (etas[i] - etas[i - 1])
            d2 = (points[i + 1] - points[i]) / (etas[i + 1] - etas[i])
            scale = 1.0 + max(np.max(np.abs(d1)), np.max(np.abs(d2)))
            if np.max(np.abs(d1 - d2)) <= 1e-9 * scale:
                remove_breakpoint(i, np.intersect1d(sets[i - 1], sets[i]))
                changed = True
                break
    return SolutionPath(
        breakpoints=np.asarray(etas),
        endpoints=np.asarray(points),
        segment_active_sets=sets,
    )
