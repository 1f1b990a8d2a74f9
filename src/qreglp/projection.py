"""Euclidean projection onto a polytope and the regularized-LP solve.

The central operation is ``argmin_{x in P} |x - z|^2`` computed by a primal
active-set method on the H-representation.  Minimizing
``<c, x> + |x|^2 / eta`` over ``P`` is the same problem with ``z = -eta c / 2``,
via the identity

    <c, x> + |x|^2/eta  =  |x + eta c / 2|^2 / eta - (eta/4) |c|^2.

Each iteration projects the residual onto the null space of the working-set
rows and either steps to the first blocking constraint or drops a
negative-multiplier row.  A working-set row with one nonzero entry (a bound
such as ``x_j >= 0``) fixes its coordinate, so the step is zero there; only
the equality rows and the other working-set rows, restricted to the free
coordinates, are factored.  On a transport polytope, where the solution is
sparse, that block is ``|free| x (2n - 1)`` instead of ``n^2 x (2n - 1 + |W|)``.
Ties are broken by smallest row index throughout, which makes the method
deterministic and finitely terminating under degeneracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

from .errors import MaxIterationsExceeded, NumericalBreakdown
from .polytope import (
    FEAS_TOL,
    _RANK_TOL,
    PolytopeSpec,
    VertexSet,
    _extend_basis,
    _find_feasible_point,
    _unit_columns,
)

MULT_TOL = 1e-10
KKT_TOL = 1e-8
_STEP_TOL = 1e-12
# Orders of unit rows at least this long are seeded in one batch; below it the
# batch's fixed cost of about ten LAPACK calls exceeds the row loop.
_BATCH_MIN_ROWS = 32


@dataclass(frozen=True)
class QlpInstance:
    """Cost vector plus polytope; owns the regularized objective.

    ``objective(x, eta) = <c, x> + |x|^2 / eta`` for ``eta > 0``.
    """

    polytope: PolytopeSpec
    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).ravel()
        if c.shape[0] != self.polytope.dim:
            from .errors import ShapeMismatch

            raise ShapeMismatch(
                f"cost has {c.shape[0]} entries, polytope dim {self.polytope.dim}"
            )
        object.__setattr__(self, "c", np.ascontiguousarray(c))

    def objective(self, x, eta: float) -> float:
        x = np.asarray(x, dtype=float).ravel()
        return float(self.c @ x + (x @ x) / eta)

    def target(self, eta: float) -> np.ndarray:
        """The point whose projection onto P solves the instance at eta."""
        return -0.5 * eta * self.c


@dataclass
class ProjectionResult:
    """Projection output with a checkable optimality certificate.

    ``active_set`` lists every inequality row tight at ``x``;
    ``multipliers`` holds one Lagrange multiplier per tight row (zero for
    tight rows outside the working set).  ``residual`` is the largest
    variational-inequality violation over the polytope's attached vertices,
    or the KKT stationarity residual when it has none.
    """

    x: np.ndarray
    active_set: np.ndarray
    multipliers: np.ndarray
    residual: float
    working_set: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    eq_multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterations: int = 0
    kkt_residual: float = float("nan")

    def to_json_dict(self) -> dict:
        return {
            "x": self.x.tolist(),
            "active_set": [int(i) for i in self.active_set],
            "residual": float(self.residual),
        }


def _ratio_test(gap: np.ndarray, rate: np.ndarray, scale, rows: np.ndarray):
    """First zero crossing of ``gap - t rate`` over the rows with ``rate > 0``.

    ``gap`` holds slacks or multipliers (negative values count as zero) and
    ``rate`` the speed at which each shrinks; a rate counts as positive above
    ``1e-13 * scale``.  Returns ``t_min`` and the sorted labels from ``rows``
    of the rows tied with it to ``1e-10 (1 + t_min)``, or ``None`` and no rows
    when nothing crosses.
    """
    pos = rate > 1e-13 * scale
    if not np.any(pos):
        return None, rows[:0]
    t = np.maximum(gap[pos], 0.0) / rate[pos]
    t_min = float(t.min())
    return t_min, np.sort(rows[pos][t <= t_min + 1e-10 * (1.0 + t_min)])


def _extend_independent(base_q: np.ndarray, G: np.ndarray, order) -> list[int]:
    """Rows of ``G``, visited in ``order``, that extend the span of the
    orthonormal rows ``base_q``, as :func:`polytope._extend_basis` keeps them.

    When at least ``_BATCH_MIN_ROWS`` rows are visited and every one is a unit
    row they are chosen in one batch instead, which near the rank tolerance
    may keep other rows than the loop, or a dependent one;
    :func:`min_distance_active_set` certifies the batch's choice.
    """
    order = [int(j) for j in order]
    if len(order) >= _BATCH_MIN_ROWS:
        col = _unit_columns(G[order])
        if np.all(col >= 0):
            return _extend_unit_rows(base_q, G, order, col)
    return _extend_basis(base_q, G, order)[0]


def _extend_unit_rows(base_q, G, order, col) -> list[int]:
    """:func:`_extend_independent` for unit rows ``G[order_i] ~ e_{col_i}``.

    ``[base_q; e_S]`` is independent exactly when the columns of ``base_q``
    outside ``S`` have full row rank: ``S`` is independent in the dual of its
    column matroid.  On the visited coordinates ``T`` that dual is the dual of
    the contraction by the other columns, so the greedy choice keeps all of
    ``T`` but the contraction's greedy column basis in reverse order.  Rank
    decisions are made to ``_RANK_TOL`` on the contraction, not row by row.
    """
    first = np.sort(np.unique(col, return_index=True)[1])  # a repeat is dependent
    rows = [order[i] for i in first]
    T, coef = col[first], np.abs(G[rows, col[first]])
    if base_q.shape[0] == 0:
        return [j for j, a in zip(rows, coef) if a > _RANK_TOL * max(1.0, a)]
    free = np.ones(base_q.shape[1], dtype=bool)
    free[T] = False
    P = base_q[:, T]
    if free.any():  # contract: project out the span of the other columns
        U, sv, _ = np.linalg.svd(base_q[:, free], full_matrices=False)
        U = U[:, sv > _RANK_TOL * max(1.0, sv[0])]
        P = P - U @ (U.T @ P)
    dropped = np.zeros(T.size, dtype=bool)
    while True:
        big = np.flatnonzero(np.linalg.norm(P, axis=0) > _RANK_TOL)
        if big.size == 0:
            break
        t = big[-1]
        u = P[:, t] / np.linalg.norm(P[:, t])
        P = P - np.outer(u, u @ P)
        dropped[t] = True
    return [j for j, drop in zip(rows, dropped) if not drop]


class _FreeSystem:
    """The working-set rows ``[A_red; G[W]]`` on the coordinates no row fixes.

    A unit row of the working set fixes its coordinate, where the null space
    of the stack is zero; only the equality and general working-set rows,
    restricted to the free coordinates, are factored.  :attr:`full_rank`
    reads the independence of the whole stack off that factorization, which
    :meth:`multipliers` needs.
    """

    def __init__(self, A_red: np.ndarray, G: np.ndarray, W: list[int], col: np.ndarray):
        self.A_red, self.G, self.W = A_red, G, np.asarray(W, dtype=int)
        self.unit = col[self.W] >= 0
        self.fixed = col[self.W[self.unit]]
        free = np.ones(G.shape[1], dtype=bool)
        free[self.fixed] = False
        self.free = np.flatnonzero(free)
        self.B = np.vstack([A_red, G[self.W[~self.unit]]])
        self.Q, self.R = np.linalg.qr(self.B[:, self.free].T)

    @cached_property
    def full_rank(self) -> bool:
        """Whether ``[A_red; G[W]]`` has full row rank.

        It has exactly when the unit rows fix distinct coordinates and the
        other rows are independent on the rest: no more of them than free
        coordinates, and every diagonal entry of ``R`` above ``1e-9`` times
        the largest (or one).
        """
        diag = np.abs(np.diag(self.R))
        return bool(
            np.unique(self.fixed).size == self.fixed.size
            and self.B.shape[0] <= self.free.size
            and (diag.size == 0 or diag.min() > 1e-9 * max(diag.max(), 1.0))
        )

    def project(self, v: np.ndarray) -> np.ndarray:
        """Component of ``v`` in the null space of the working-set rows."""
        out = np.zeros_like(v)
        vf = v[self.free]
        vf = vf - self.Q @ (self.Q.T @ vf)
        # Second pass: a free coordinate the other rows pin in place must not
        # pick up rounding noise that the ratio test would take for a move.
        out[self.free] = vf - self.Q @ (self.Q.T @ vf)
        return out

    def extends(self, g: np.ndarray, g_norm: float) -> bool:
        """Whether the row ``g`` (of norm ``g_norm``) is independent of the
        working-set rows, to the tolerance of :func:`polytope._extend_basis`."""
        return float(np.linalg.norm(self.project(g))) > _RANK_TOL * max(1.0, g_norm)

    def multipliers(self, v: np.ndarray) -> np.ndarray:
        """Least-squares ``y`` with ``[A_red; G[W]]^T y = v``, in that row order.

        The rows must be independent (:attr:`full_rank`).
        """
        m_red = self.A_red.shape[0]
        y_gen = solve_triangular(self.R, self.Q.T @ v[self.free]) if self.R.size else np.zeros(0)
        resid = v - self.B.T @ y_gen
        y = np.empty(m_red + self.W.size)
        y[:m_red] = y_gen[:m_red]
        y[m_red + np.flatnonzero(~self.unit)] = y_gen[m_red:]
        coef = self.G[self.W[self.unit], self.fixed]
        y[m_red + np.flatnonzero(self.unit)] = resid[self.fixed] / coef
        return y


def min_distance_active_set(
    A: np.ndarray,
    G: np.ndarray,
    h: np.ndarray,
    z: np.ndarray,
    x0: np.ndarray,
    w0=None,
    eq=None,
    col=None,
    row_norms=None,
):
    """Minimize ``|x - z|^2`` subject to ``A x = A x0`` and ``G x <= h``.

    ``x0`` must be feasible.  The equality right-hand side is taken from
    ``x0`` so the routine serves both polytopes and cones (``h = 0``,
    ``x0 = 0``).  ``eq`` is the reduction ``(eq_idx, base_q)`` of ``A``
    (:attr:`PolytopeSpec.eq_reduction`), ``col`` the unit columns of ``G``
    (:attr:`PolytopeSpec.unit_columns`) and ``row_norms`` the norms of its
    rows (:attr:`PolytopeSpec.row_norms`); each is computed when not given.
    Returns ``(x, working_set, eq_mult, ineq_mult, iters)`` where ``eq_mult``
    has one entry per row of ``A`` (zero on redundant rows, which are removed
    internally).
    """
    d = z.size
    m = A.shape[0]
    k = G.shape[0]
    x = np.asarray(x0, dtype=float).copy()
    if k:
        worst = float(np.max(G @ x - h))
        if worst > 1e-6:
            raise ValueError(f"start point infeasible by {worst:.2e}")
    max_iter = max(50 * (m + k), 100)

    # Redundant equality rows would break the null-space projection.
    eq_idx, base_q = eq if eq is not None else _extend_basis(np.zeros((0, d)), A, range(m))
    A_red = A[eq_idx]
    m_red = A_red.shape[0]

    col = _unit_columns(G) if col is None else col
    g_norm = np.linalg.norm(G, axis=1) if row_norms is None else row_norms
    slack = h - G @ x if k else np.zeros(0)
    tight = np.flatnonzero(slack <= FEAS_TOL) if k else np.zeros(0, dtype=int)
    if w0 is None:
        order = tight
    else:
        w0 = [int(j) for j in w0 if k and slack[j] <= FEAS_TOL]
        order = list(dict.fromkeys(list(w0) + list(tight)))
    W = sorted(_extend_independent(base_q, G, order)) if k else []
    system = _FreeSystem(A_red, G, W, col)
    if not system.full_rank:  # the batch seed kept a dependent row
        W = sorted(_extend_basis(base_q, G, order)[0])
        system = None
    # Later working sets stay independent: a drop removes a row, and a row
    # enters only when the step moves against it and it extends the span.

    # |x0| keeps the zero-step test relative on a polytope far from the origin.
    zscale = 1.0 + float(np.linalg.norm(z)) + float(np.linalg.norm(x))
    it = 0
    while it < max_iter:
        it += 1
        if system is None:
            system = _FreeSystem(A_red, G, W, col)
        v = z - x
        dvec = system.project(v)
        nd = np.linalg.norm(dvec)
        if nd <= _STEP_TOL * zscale:
            lam = system.multipliers(v)[m_red:]
            neg = np.flatnonzero(lam < -MULT_TOL)
            if neg.size == 0:
                break
            # Bland: drop the smallest-index offending row (W is sorted).
            W.pop(int(neg.min()))
            system = None
            continue
        mask = np.ones(k, dtype=bool)
        mask[W] = False
        gap, rate, enter = h - G @ x, G @ dvec, None
        while enter is None:
            idx = np.flatnonzero(mask)
            t_min, ties = _ratio_test(gap[idx], rate[idx], 1.0 + g_norm[idx] * nd, idx)
            if t_min is None or t_min >= 1.0:
                break
            # A row in the span of W has zero rate but for rounding, which an
            # ill-conditioned W can lift past the floor: it cannot block.
            enter = next((j for j in ties if system.extends(G[j], g_norm[j])), None)
            mask[ties] = False
        if enter is not None:
            x = x + t_min * dvec
            # Bland: the smallest-index blocking row enters.
            W.append(int(enter))
            W.sort()
            system = None
        else:
            x = x + dvec
    else:
        raise MaxIterationsExceeded(
            f"no convergence in {max_iter} active-set iterations", best_x=x
        )

    mu = np.zeros(m)
    y = system.multipliers(z - x)
    mu[eq_idx] = y[:m_red]
    return x, np.asarray(W, dtype=int), mu, y[m_red:], it


def project(
    spec: PolytopeSpec,
    z,
    start=None,
    working_set=None,
) -> ProjectionResult:
    """Project ``z`` onto the polytope.

    Parameters
    ----------
    spec : PolytopeSpec
        Validated polytope.
    z : array_like
        Point to project.
    start, working_set : optional
        Warm start: a feasible point and inequality rows to seed the
        working set.  A cold start uses a vertex or a feasibility solve.

    Returns
    -------
    ProjectionResult
        Minimizer with KKT certificate data.
    """
    z = np.asarray(z, dtype=float).ravel()
    x0 = None
    if start is not None:
        cand = np.asarray(start, dtype=float).ravel()
        if spec.contains(cand, 1e-7):
            x0 = cand
    if x0 is None:
        x0 = _find_feasible_point(spec)
        working_set = None
    x, W, mu, lam, iters = min_distance_active_set(
        spec.A, spec.G, spec.h, z, x0, w0=working_set, eq=spec.eq_reduction,
        col=spec.unit_columns, row_norms=spec.row_norms,
    )
    grad = z - x
    if spec.n_eq:
        grad = grad - spec.A.T @ mu
    if W.size:
        grad = grad - spec.G[W].T @ lam
    kkt = float(np.max(np.abs(grad))) if grad.size else 0.0
    if kkt > KKT_TOL * (1.0 + np.linalg.norm(z)):
        raise NumericalBreakdown(f"KKT stationarity residual {kkt:.2e}")

    active = spec.tight_rows(x, FEAS_TOL)
    mults = np.zeros(active.size)
    pos = {int(j): i for i, j in enumerate(active)}
    for wj, lj in zip(W, lam):
        if int(wj) in pos:
            mults[pos[int(wj)]] = lj

    if spec.vertices is not None and len(spec.vertices):
        residual = float(np.max((spec.vertices - x) @ (z - x)))
    else:
        residual = kkt
    return ProjectionResult(
        x=x,
        active_set=active,
        multipliers=mults,
        residual=residual,
        working_set=W,
        eq_multipliers=mu,
        iterations=iters,
        kkt_residual=kkt,
    )


def solve_qlp(
    inst: QlpInstance,
    eta: float,
    start=None,
    working_set=None,
) -> ProjectionResult:
    """Unique minimizer of ``<c, x> + |x|^2/eta`` over the polytope."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return project(inst.polytope, inst.target(eta), start=start, working_set=working_set)


@dataclass
class CertReport:
    """Variational-inequality check of a projection against vertices."""

    max_violation: float
    tol: float
    passed: bool
    worst_vertex: int


def certify(
    spec: PolytopeSpec,
    result: ProjectionResult,
    z,
    vertices: VertexSet | np.ndarray,
    tol: float | None = None,
) -> CertReport:
    """Verify ``<z - x, v - x> <= tol`` over all vertices ``v``.

    The default tolerance is ``1e-7 * (1 + |z|)``.
    """
    z = np.asarray(z, dtype=float).ravel()
    V = vertices.vertices if isinstance(vertices, VertexSet) else np.asarray(vertices)
    if tol is None:
        tol = 1e-7 * (1.0 + float(np.linalg.norm(z)))
    vals = (V - result.x) @ (z - result.x)
    worst = int(np.argmax(vals))
    mx = float(vals[worst])
    return CertReport(max_violation=mx, tol=tol, passed=mx <= tol, worst_vertex=worst)
