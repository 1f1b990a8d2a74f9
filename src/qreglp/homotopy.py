"""Exact path tracing for the regularized solve as eta sweeps upward.

The minimizer ``x(eta) = proj_P(-eta c / 2)`` is piecewise affine in
``eta`` and constant past a finite threshold.  The tracer advances one
affine piece at a time:

* the right derivative at the current point is the projection of ``-c/2``
  onto the critical cone (Haraux 1977).  With the point's certificate
  ``r = A^T mu + G_J^T lam``, ``<r, v> = sum_i lam_i <g_i, v>`` for a tangent
  ``v`` and each term is ``<= 0``, so the cone is ``A v = 0``, ``g_i v = 0``
  where ``lam_i > 0`` (rows the active-set solver holds as equalities) and
  ``g_i v <= 0`` on the other tight rows (Facchinei & Pang 2003, sec. 3.3).
  Each piece takes the slack ``h - G x`` at its start and the rate ``G d`` once
  (:class:`PathState`); its rows are the tight rows with ``|g_i d| <= ZERO_TOL |g_i| |d|``;
* the piece ends either when an inactive inequality blocks the ray
  (closed-form smallest crossing of ``slack - t rate``) or when a multiplier of the carrying
  face crosses zero (closed form when the face's tight rows are linearly
  independent; otherwise the multipliers the start point's certificate and
  the cone solve already hold settle it when they do not cross before the
  cap, and one linear program over the face's multipliers when they do);
* each piece is certified at its two ends by :func:`projection._check_certificate`: ``x`` is
  feasible, the piece's rows ``J`` are tight and ``target - x = A^T mu + G_J^T lam``, ``lam >= 0``.
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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from ._tolerances import ZERO_TOL
from .errors import MaxSegmentsExceeded, NumericalBreakdown
from .polytope import PolytopeSpec, _length, _size_unit, _tight_rows
from .projection import (Certificate, QlpInstance, _check_certificate, _FreeSystem, _ratio_test,
                         min_distance_active_set, project)


@dataclass
class BlockingConstraint:
    """An inactive inequality becomes tight at the event.  ``rows`` (the rows that block) is
    diagnostic: :func:`trace_path` takes the next face from :func:`polytope._tight_rows`."""

    rows: np.ndarray
    multipliers: tuple = ()


@dataclass
class DroppingMultiplier:
    """A multiplier of the carrying face crosses zero at the event.  ``rows`` (the rows whose
    multipliers cross; none after the linear program) is diagnostic, as for
    :class:`BlockingConstraint`."""

    rows: np.ndarray
    multipliers: tuple = ()


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
        return self._points(np.array([eta], dtype=float))[0]

    def _points(self, etas: np.ndarray) -> np.ndarray:
        """:meth:`interpolate` at each of ``etas``, one row per value."""
        bp, ends = self.breakpoints, self.endpoints
        i = np.clip(np.searchsorted(bp, etas, side="right") - 1, 0, max(bp.size - 2, 0))
        j = np.minimum(i + 1, bp.size - 1)
        with np.errstate(divide="ignore", invalid="ignore"):  # rows past either end are replaced
            t = ((etas - bp[i]) / (bp[j] - bp[i]))[:, None]
            out = (1.0 - t) * ends[i] + t * ends[j]
        out[etas <= bp[0]] = ends[0]
        out[etas >= bp[-1]] = ends[-1]
        return out

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
    """Snapshot of the tracer between breakpoints.

    ``certificate`` and ``direction_certificate`` hold ``residual = A^T mu + G^T lam`` and
    ``-c/2 - direction_vec`` as :class:`Certificate`.  The second's rows are the cone solve's
    final working set, and it carries that solve's last factorization (``system``, the
    kernel's last :class:`projection._FreeSystem`), which :func:`_dual_exit_time` reuses when
    those rows are the segment's.  :func:`trace_path` drops each state before it builds the
    next, so one factorization of this kind is alive at a time.  ``slack = h - G x`` and
    ``rate = G direction_vec`` hold every inequality row, taken once per piece: the segment
    rows, the blocking ratio test and the start certificate read them.
    """

    inst: QlpInstance
    eta: float
    x: np.ndarray
    tight: np.ndarray
    residual: np.ndarray
    direction_vec: np.ndarray
    segment_rows: np.ndarray
    certificate: Certificate
    direction_certificate: Certificate
    slack: np.ndarray
    rate: np.ndarray


def _right_derivative(inst: QlpInstance, x: np.ndarray, r: np.ndarray, tight: np.ndarray,
                      cert: Certificate) -> tuple[np.ndarray, Certificate]:
    """Projection ``d`` of ``-c/2`` onto the critical cone at ``x``, from the certificate
    ``cert`` of the residual ``r``.  A row of ``tight`` is held when ``lam_i |g_i| > ZERO_TOL
    (|x| + |r| + size)``, the scale of :func:`projection._check_certificate`.  Also returns
    the cone solve's multipliers, ``-c/2 - d = A^T mu + G[rows]^T lam`` as a
    :class:`Certificate` (a held row's ``lam`` may be negative) that keeps the solve's last
    factorization, of ``[A_red; G[rows]]``, which the kernel returns."""
    spec = inst.polytope
    weight = cert.restrict(tight).lam * spec.row_norms[tight]
    scale = np.linalg.norm(x) + np.linalg.norm(r) + spec.size
    d, W, mu, lam, _, system = min_distance_active_set(
        spec.A, spec.G[tight], np.zeros(tight.size), -0.5 * inst.c, np.zeros(spec.dim),
        eq=spec.eq_reduction, col=spec.unit_columns[tight], row_norms=spec.row_norms[tight],
        held=np.flatnonzero(weight > ZERO_TOL * scale),
    )
    if np.linalg.norm(d) <= ZERO_TOL * np.linalg.norm(inst.c):
        d = np.zeros(spec.dim)
    return d, Certificate(tight[W], mu, lam, system)


def path_state(inst: QlpInstance, eta: float) -> PathState:
    """State of the tracer at ``eta``: point, tight rows, velocity.

    The point is a fresh solve at ``eta`` (projection of the origin when
    ``eta`` is zero), the face is that solve's active set, and its
    certificate gives the critical cone.  Feed the result to
    :func:`next_breakpoint`.
    """
    res = project(inst.polytope, inst.target(eta))
    cert = Certificate(res.active_set, res.eq_multipliers, res.multipliers)
    return _make_state(inst, float(eta), res.x, res.active_set, cert)


def _make_state(inst: QlpInstance, eta: float, x: np.ndarray, tight: np.ndarray,
                cert: Certificate, slack: np.ndarray | None = None) -> PathState:
    # ``tight``: the inequality rows of the face that ``x`` lies on; ``cert``: its certificate;
    # ``slack``: ``h - G x``, taken here when the caller has none.  No row of ``G`` is copied.
    spec = inst.polytope
    slack = spec.h - spec.G @ x if slack is None else slack
    r = inst.target(eta) - x
    d, cone = _right_derivative(inst, x, r, tight, cert)
    rate = spec.G @ d  # zero on a constant piece, where every tight row carries it
    seg = tight[np.abs(rate[tight]) <= ZERO_TOL * spec.row_norms[tight] * np.linalg.norm(d)]
    return PathState(inst, eta, x, tight, r, d, seg, cert, cone, slack, rate)


def _pair_ray(spec: PolytopeSpec, rows: np.ndarray, pair):
    """The certificates ``pair`` of ``r0`` and ``rdot`` as multipliers ``(y0, ydot)`` on
    ``[A_red; G[rows]]``, or ``None`` when either holds a nonzero multiplier off ``rows``."""
    eq_idx = spec.eq_reduction
    ray = []
    for cert in pair:
        if np.any(cert.lam[~np.isin(cert.rows, rows)]):
            return None
        ray.append(np.concatenate([cert.mu[eq_idx], cert.restrict(rows).lam]))
    return tuple(ray)


def _dual_exit_time(spec: PolytopeSpec, seg_rows: np.ndarray, r0: np.ndarray, rdot: np.ndarray, cap,
                    eta: float, pair=None):
    """Largest ray parameter keeping ``r0 + s rdot`` in the face's normal cone.

    Returns ``(s_exit, rows, y0, ydot)`` with ``s_exit = cap`` (or ``None``
    when ``cap`` is ``None``) if no multiplier crosses before the cap.  When
    the face's rows are independent of each other and of ``A_red``
    (:attr:`_FreeSystem.full_rank`; an empty face is ``A_red`` alone) the
    multipliers on ``[A_red; G_J]`` are ``y0 + s ydot`` for every ``s`` and a
    ratio test gives the exit and the falling rows.  Otherwise the multipliers
    are not unique.  ``pair`` holds the :class:`Certificate` of ``r0`` and of
    ``rdot`` (:class:`PathState`); when neither has a multiplier off ``J``,
    ``y0 + s ydot`` from them is one multiplier of ``r0 + s rdot`` for every
    ``s``, and if the same ratio test finds no crossing before the cap, the
    cap (or stationarity) is the exit.  In every other case the exit is the
    optimum of one linear program, maximize ``s <= cap`` subject to
    ``A_red^T mu + G_J^T lam - s rdot = r0`` with ``lam >= 0``; no rows are
    reported, ``y0`` is the program's ``(mu, lam)`` and ``ydot`` is zero, so
    ``y0`` holds at ``s_exit`` only.  All weigh each multiplier as
    ``lam_i |g_i|``, so scaling a row moves no decision.  The factorization of
    ``[A_red; G_J]`` is the one ``rdot``'s certificate keeps when its rows are ``J``, which
    holds on most pieces; otherwise one is built.
    """
    A_red = spec.A[spec.eq_reduction]
    m = A_red.shape[0]
    no_rows = np.zeros(0, dtype=int)
    norms = spec.row_norms[seg_rows]
    cone = None if pair is None else pair[1]
    if cone is not None and cone.system is not None and np.array_equal(cone.rows, seg_rows):
        system = cone.system
    else:
        system = _FreeSystem(A_red, spec.G, seg_rows, spec.unit_columns)
    if system.full_rank:
        ray = system.multipliers(r0), system.multipliers(rdot)
    else:
        ray = None if pair is None else _pair_ray(spec, seg_rows, pair)
    if ray is not None:
        y0, ydot = ray
        lam0, lamdot = y0[m:] * norms, ydot[m:] * norms
        smin, hit = _ratio_test(lam0, -lamdot, np.abs(lamdot).max(initial=0.0), seg_rows, eta)
        if smin is None or (cap is not None and smin >= cap):
            return cap, no_rows, y0, ydot
        if system.full_rank:
            return max(smin, ZERO_TOL * (float(np.linalg.norm(r0)) + spec.size)), hit, y0, ydot

    weight = np.where(norms > 0, norms, 1.0)  # a zero row's multiplier stays as it is
    n_lam = seg_rows.size
    cost = np.zeros(m + n_lam + 1)
    cost[-1] = -1.0
    unit = _size_unit(spec.size)  # HiGHS's tolerances are absolute: solve at unit size
    cap_unit = None if cap is None else cap / unit
    res = linprog(
        cost, A_eq=np.hstack([A_red.T, (spec.G[seg_rows] / weight[:, None]).T, -rdot[:, None]]),
        b_eq=r0 / unit,
        bounds=[(None, None)] * m + [(0.0, None)] * n_lam + [(0.0, cap_unit)], method="highs",
    )
    if res.status == 3:  # unbounded: only possible when cap is None
        return None, no_rows, None, None
    if res.status != 0:
        raise NumericalBreakdown(f"normal-cone exit LP failed: {res.message}")
    y0 = res.x[:-1] * unit
    y0[m:] /= weight
    return float(res.x[-1]) * unit, no_rows, y0, np.zeros(m + n_lam)


def next_breakpoint(state: PathState):
    """Next event along the current piece.

    Returns ``(eta, event)`` where the event is a
    :class:`BlockingConstraint`, a :class:`DroppingMultiplier`, or
    :class:`Stationary` (in which case ``eta`` is the current value).  The
    first two carry ``(y0, ydot)`` of :func:`_dual_exit_time` for the piece.  The blocking
    ratio test reads the state's ``slack`` and ``rate`` on the rows off the piece.
    """
    inst, spec = state.inst, state.inst.polytope
    d = state.direction_vec
    # A constant piece (d = 0) meets no row: its residual must stay in the normal cone.
    outside = np.ones(spec.n_ineq, dtype=bool)
    outside[state.segment_rows] = False
    idx = np.flatnonzero(outside)
    t_block, block_rows = _ratio_test(state.slack[idx], state.rate[idx],
                                      spec.row_norms[idx] * np.linalg.norm(d), idx, state.eta)
    if t_block is None and np.any(d):
        raise NumericalBreakdown("moving ray never blocked on a bounded polytope")
    rdot = -0.5 * inst.c - d
    s_dual, drop_rows, *mult = _dual_exit_time(
        spec, state.segment_rows, state.residual, rdot, t_block, state.eta,
        (state.certificate, state.direction_certificate))
    if s_dual is None:
        return state.eta, Stationary()
    if t_block is None or s_dual < t_block:
        return state.eta + s_dual, DroppingMultiplier(drop_rows, tuple(mult))
    return state.eta + t_block, BlockingConstraint(block_rows, tuple(mult))


def _certificate(spec: PolytopeSpec, rows: np.ndarray, y: np.ndarray) -> Certificate:
    """:class:`Certificate` from multipliers ``y`` on ``[A_red; G[rows]]``."""
    eq_idx = spec.eq_reduction
    mu = np.zeros(spec.n_eq)
    mu[eq_idx] = y[: len(eq_idx)]
    return Certificate(rows, mu, y[len(eq_idx) :])


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
        If either end of a piece fails its certificate
        (:func:`projection._check_certificate`), the tracer stops advancing, or ``|c|``
        overflows a double.
    """
    spec = inst.polytope
    with np.errstate(over="ignore"):  # |c|^2 overflows past 1e154: then m |c / m|, m = max |c_i|
        cost_norm = float(np.linalg.norm(inst.c))
    if math.isinf(cost_norm):
        big = float(np.abs(inst.c).max())
        cost_norm = big * float(np.linalg.norm(inst.c / big))
    if math.isinf(cost_norm):
        raise NumericalBreakdown("the cost's norm overflows a double")
    cost_norm = cost_norm or 1.0
    inst = QlpInstance(spec, inst.c / cost_norm)
    if max_segments is None:
        max_segments = max(10 * (spec.n_eq + spec.n_ineq), 8)
    res0 = project(spec, np.zeros(spec.dim))
    eta, x, tight = 0.0, res0.x, res0.active_set
    slack = spec.h - spec.G @ x
    right = Certificate(tight, res0.eq_multipliers, res0.multipliers)
    etas, points, seg_sets, certs = [0.0], [x], [], []
    stalled = 0

    for _ in range(max_segments):
        state = _make_state(inst, eta, x, tight, right, slack)
        eta_next, event = next_breakpoint(state)
        if isinstance(event, Stationary):
            break
        J = np.asarray(state.segment_rows, dtype=int)
        x_next = x + (eta_next - eta) * state.direction_vec
        y0, ydot = event.multipliers
        left, right = right.restrict(J), _certificate(spec, J, y0 + (eta_next - eta) * ydot)
        z, slack = inst.target(eta_next), spec.h - spec.G @ x_next
        piece = f"point of the segment from eta={eta / cost_norm!r}"
        _check_certificate(spec, x_next, z - x_next, right, "landing " + piece, slack)
        _check_certificate(spec, x, state.residual, left, "start " + piece, state.slack)
        stalled = stalled + 1 if eta_next - eta <= ZERO_TOL * (eta + spec.size) else 0
        if stalled >= 5:
            raise NumericalBreakdown(f"path tracer stalled near eta={eta / cost_norm!r}")
        etas.append(float(eta_next))
        points.append(x_next)
        seg_sets.append(J)
        certs.append((left, right))
        eta, x = float(eta_next), x_next
        tight = _tight_rows(slack, spec.h, spec.row_norms, _length(x) + _length(z))
        del state  # its cone factorization goes before the next cone solve builds another
    else:
        raise MaxSegmentsExceeded(f"more than {max_segments} path segments")

    return SolutionPath(np.asarray(etas) / cost_norm, np.asarray(points), seg_sets, certs)
