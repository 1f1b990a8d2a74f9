"""Euclidean projection onto a polytope and the regularized-LP solve.

The central operation is ``argmin_{x in P} |x - z|^2`` computed by a primal
active-set method on the H-representation.  Minimizing
``<c, x> + |x|^2 / eta`` over ``P`` is the same problem with ``z = -eta c / 2``,
via the identity

    <c, x> + |x|^2/eta  =  |x + eta c / 2|^2 / eta - (eta/4) |c|^2.

Each iteration projects the residual onto the null space of the working-set
rows and either steps to the first blocking constraint or drops a
negative-multiplier row.  An unblocked full step lands on the minimizer over
the working set's face, so the next iteration takes the multipliers without
projecting again.  A working-set row with one nonzero entry (a bound
such as ``x_j >= 0``) fixes its coordinate, so the step is zero there; only
the equality rows and the other working-set rows, restricted to the free
coordinates, are factored, in :class:`_FreeSystem`, the one place that
factors or solves.  On a transport polytope, where the solution is
sparse, that block is ``|free| x (2n - 1)`` instead of ``n^2 x (2n - 1 + |W|)``.
When the rows tight at the start are dependent, the seed is chosen by
:func:`polytope._column_rule`, which decides the unit rows on the columns of the
other rows, ``2n - 1`` long on a transport polytope, not on rows ``n^2`` long.
A warm solve, ``project(spec, z, warm=prev)``, takes the start, the seed and the
last factorization from the answer ``prev`` of an earlier solve on ``spec``
(:class:`KernelState`); the spec itself holds no state.  :func:`project_sweep` projects
a sequence of targets: each kernel answer's last factorization projects the later targets
onto its face in one batched step, and the first target that leaves the face goes back to
the kernel.  The batch forms are those of the one-target solve: :class:`_FreeSystem`, the
crossing times and the certificate rule each take a stack of points.  Ties are broken by
smallest row index throughout, which makes the method deterministic and
finitely terminating under degeneracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dtrtrs

from ._tolerances import KKT_TOL, RANK_TOL, TIE_TOL, ZERO_TOL
from .errors import MaxIterationsExceeded, NumericalBreakdown, ShapeMismatch
from .polytope import (PolytopeSpec, _column_rule, _extend_basis, _find_feasible_point, _finite,
                       _length, _norms, _rows_hold, _tight_rows, _unit_columns)


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
            raise ShapeMismatch(
                f"cost has {c.shape[0]} entries, polytope dim {self.polytope.dim}"
            )
        object.__setattr__(self, "c", _finite(c, "cost"))

    def objective(self, x, eta: float) -> float:
        x = np.asarray(x, dtype=float).ravel()
        return float(self.c @ x + (x @ x) / eta)

    def target(self, eta: float) -> np.ndarray:
        """The point whose projection onto P solves the instance at eta."""
        return -0.5 * eta * self.c


@dataclass
class ProjectionResult:
    """Projection output with a checkable optimality certificate.

    ``active_set`` lists every inequality row tight at ``x`` (:meth:`PolytopeSpec.tight_rows`:
    slack at most ``ZERO_TOL (|h_i| + |g_i| (|x| + |z|))`` for the target ``z``), so far from
    the polytope it can include a row whose slack is up to about ``1e-12 |g_i| |z|``;
    ``multipliers`` holds one Lagrange multiplier per tight row (zero for
    tight rows outside the working set).  ``residual`` is the largest
    variational-inequality violation over the polytope's attached vertices,
    or the KKT stationarity residual when it has none.  ``warm_state``, neither compared nor
    written, is the spec and the :class:`KernelState` that ``project(spec, z, warm=res)`` reads.
    """

    x: np.ndarray
    active_set: np.ndarray
    multipliers: np.ndarray
    residual: float
    working_set: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    eq_multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterations: int = 0
    kkt_residual: float = float("nan")
    warm_state: tuple = field(default=(None, None), repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "x": self.x.tolist(),
            "active_set": [int(i) for i in self.active_set],
            "residual": float(self.residual),
        }


def _crossings(gap: np.ndarray, rate: np.ndarray, scale):
    """Where ``gap - t rate`` crosses zero, for the entries whose rate is positive.

    ``gap`` holds slacks or multipliers (negative values count as zero) and
    ``rate`` the speed at which each shrinks; a rate counts as positive above
    ``ZERO_TOL * scale``.  Returns the mask of positive rates and ``t`` at its entries,
    in order; ``gap``, ``rate`` and ``scale`` may be stacks of the same shape.
    """
    pos = rate > ZERO_TOL * scale
    return pos, np.maximum(gap[pos], 0.0) / rate[pos]


def _ratio_test(gap: np.ndarray, rate: np.ndarray, scale, rows: np.ndarray, origin: float):
    """First zero crossing of ``gap - t rate`` (:func:`_crossings`) over the rows with
    ``rate > 0``.  ``origin`` is where ``t`` starts, in ``t``'s own unit.
    Returns ``t_min`` and the sorted labels from ``rows`` of the rows tied with
    it to ``TIE_TOL (origin + t_min)``, or ``None`` and no rows when nothing
    crosses.
    """
    pos, t = _crossings(gap, rate, scale)
    if not t.size:
        return None, rows[:0]
    t_min = float(t.min())
    return t_min, np.sort(rows[pos][t <= t_min + TIE_TOL * (origin + t_min)])


class _FreeSystem:
    """The working-set rows ``[A_red; G[W]]`` on the coordinates no row fixes.

    A unit row of the working set fixes its coordinate, where the null space
    of the stack is zero; only the equality and general working-set rows,
    restricted to the free coordinates, are factored.  :attr:`full_rank`
    reads the independence of the whole stack off that factorization, which
    :meth:`multipliers` needs.  :meth:`project` and :meth:`multipliers` take one vector or a
    stack of them, one per row.
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
        # Where :meth:`multipliers` puts the general and the unit rows' entries, and the unit
        # rows' coefficients, built once per factorization.
        m_red = A_red.shape[0]
        self.general_at = m_red + np.flatnonzero(~self.unit)
        self.unit_at = m_red + np.flatnonzero(self.unit)
        self.coef = G[self.W[self.unit], self.fixed]

    @cached_property
    def full_rank(self) -> bool:
        """Whether ``[A_red; G[W]]`` has full row rank.

        It has exactly when the unit rows fix distinct coordinates and the
        other rows are independent on the rest: no more of them than free
        coordinates, and each diagonal entry of ``R`` above ``RANK_TOL``
        times the norm of its own row.
        """
        diag = np.abs(np.diag(self.R))
        return bool(
            np.unique(self.fixed).size == self.fixed.size
            and self.B.shape[0] <= self.free.size
            and np.all(diag > RANK_TOL * _norms(self.B))
        )

    def project(self, v: np.ndarray) -> np.ndarray:
        """Component of ``v`` in the null space of the working-set rows."""
        # ``.T`` puts the coordinates first: a vector is itself, a stack's points are columns.
        out = np.zeros_like(v)
        vf = v.T[self.free]
        vf = vf - self.Q @ (self.Q.T @ vf)
        # Second pass: a free coordinate the other rows pin in place must not
        # pick up rounding noise that the ratio test would take for a move.
        out.T[self.free] = vf - self.Q @ (self.Q.T @ vf)
        return out

    def extends(self, g: np.ndarray, g_norm: float) -> bool:
        """Whether the row ``g`` (of norm ``g_norm``) is independent of the working-set rows:
        its residual off them, on the free coordinates, exceeds ``RANK_TOL g_norm``.  This is
        the test :attr:`full_rank` reads off ``R`` and :func:`polytope._column_rule` applies
        to general rows."""
        return _norms(self.project(g)) > RANK_TOL * g_norm

    def multipliers(self, v: np.ndarray) -> np.ndarray:
        """Least-squares ``y`` with ``[A_red; G[W]]^T y = v``, in that row order.

        The rows must be independent (:attr:`full_rank`); a singular ``R`` raises
        ``LinAlgError``.  ``R`` is C-ordered, so ``R y = b`` is LAPACK's ``dtrtrs`` on the
        Fortran-ordered ``R.T`` with ``trans=1``, the call ``solve_triangular`` makes.
        """
        m_red = self.A_red.shape[0]
        v = v.T  # coordinates first, as in :meth:`project`; the answer is turned back
        y_gen = np.zeros((0,) + v.shape[1:])
        if self.R.size:
            y_gen, info = dtrtrs(self.R.T, self.Q.T @ v[self.free], lower=1, trans=1)
            if info > 0:
                raise np.linalg.LinAlgError(f"singular matrix: zero diagonal entry {info - 1}")
        resid = v - self.B.T @ y_gen
        y = np.empty((m_red + self.W.size,) + v.shape[1:])
        y[:m_red] = y_gen[:m_red]
        y[self.general_at] = y_gen[m_red:]
        y[self.unit_at] = (resid[self.fixed].T / self.coef).T
        return y.T


class KernelState(NamedTuple):
    """What a kernel call hands to the next warm one: the visiting ``order`` it seeded from,
    the ``seed`` it kept and its last factorization ``system``, of the final working set."""

    order: tuple
    seed: tuple
    system: _FreeSystem


def min_distance_active_set(A: np.ndarray, G: np.ndarray, h: np.ndarray, z: np.ndarray,
                            x0: np.ndarray, w0=None, eq=None, col=None, row_norms=None, held=(),
                            warm=None):
    """Minimize ``|x - z|^2`` over ``A x = A x0``, ``G x <= h`` and ``G[held] x = h[held]``.

    ``x0`` must be feasible and is not checked here: :func:`project` takes a
    start only when it holds every row by the row rule.  The equality
    right-hand side is taken from ``x0`` so the routine serves both
    polytopes and cones (``h = 0``, ``x0 = 0``).  ``eq`` is the reduction
    ``(eq_idx, base_q)`` of ``A`` (:attr:`PolytopeSpec.eq_reduction`), ``col`` the unit
    columns of ``G`` (:attr:`PolytopeSpec.unit_columns`) and ``row_norms`` the norms of its
    rows (:attr:`PolytopeSpec.row_norms`); each is computed when not given.
    The working set starts as every row tight at ``x0`` when
    :attr:`_FreeSystem.full_rank` says they are independent (the factorization the first
    iteration reuses); otherwise the column rule :func:`polytope._column_rule` keeps the first
    independent ones, visiting the rows of ``held``, then those of ``w0`` still tight at
    ``x0``, then the other tight rows.  It decides unit rows on the columns of the other
    rows, so no full-length row is orthogonalized.  The seed is a set that ``full_rank``
    accepts: where the rule's column test and ``full_rank`` disagree near ``RANK_TOL``, it is
    the longest prefix of the kept rows, in visiting order, that ``full_rank`` accepts.
    The ``held`` rows must be tight at ``x0``; no drop removes them, so
    their multipliers may be negative.  After an unblocked full step the next pass goes
    straight to the multiplier test, with no projection; it still counts as an iteration,
    so ``iters`` counts the passes a re-projection would have made.
    ``warm`` is the :class:`KernelState` of an earlier call on the same ``A``, ``G``, ``eq``
    and ``col``: its seed is kept when the visiting order is its order, and its factorization
    when the first working set factored is that factorization's.  Both are pure functions of
    those, so a warm call returns what a cold one would.  Returns
    ``(x, working_set, eq_mult, ineq_mult, iters, state)`` where ``eq_mult`` has one entry
    per row of ``A`` (zero on redundant rows, which are removed internally) and ``state``
    is this call's :class:`KernelState`.
    """
    d = z.size
    m = A.shape[0]
    k = G.shape[0]
    x = np.asarray(x0, dtype=float).copy()
    max_iter = max(50 * (m + k), 100)

    # Redundant equality rows would break the null-space projection.
    eq_idx = (eq if eq is not None else _extend_basis(np.zeros((0, d)), A, range(m)))[0]
    A_red = A[eq_idx]
    m_red = A_red.shape[0]

    col = _unit_columns(G) if col is None else col
    g_norm = _norms(G) if row_norms is None else row_norms
    # The tight-row, zero-step and multiplier-sign tests are at the size |z| + |x0| of the data.
    scale = float(np.sqrt(z @ z) + np.sqrt(x @ x))
    order = _tight_rows(h - G @ x, h, g_norm, scale)
    keep = np.zeros(k, dtype=bool)  # the held rows, which no drop removes
    keep[np.asarray(held, dtype=int)] = True
    tight = set(order.tolist())  # the held rows go first, then the rows of w0 still tight
    first = [int(j) for j in [*held, *(() if w0 is None else w0)] if int(j) in tight]
    order = tuple(dict.fromkeys(first + order.tolist()))
    last = None if warm is None else warm.system  # the one factorization kept, the seed's included

    def factor(W):
        nonlocal last
        if last is None or last.W.tolist() != W:
            last = _FreeSystem(A_red, G, W, col)
        return last

    if warm is not None and warm.order == order:
        W = list(warm.seed)
    else:
        W = sorted(order)
        # Dependent tight rows (more than d need no factorization to tell): keep the first
        # independent ones.  Where full_rank rejects the column rule's rows, bisect for the
        # longest prefix it accepts (a prefix of an independent set is independent).
        if m_red + len(W) > d or not factor(W).full_rank:
            kept = _column_rule(A_red, G, order, col)
            n = len(kept)
            lo, hi = (n, n + 1) if factor(sorted(kept)).full_rank else (0, n)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if factor(sorted(kept[:mid])).full_rank else (lo, mid)
            W = sorted(kept[:lo])
    seed, system = tuple(W), None
    # Later working sets stay independent: a drop removes a row, and a row
    # enters only when the step moves against it and it extends the span.

    it = 0
    full = False  # the last step was unblocked: x minimizes |x - z| on the working set's face
    while it < max_iter:
        it += 1
        if system is None:
            system = factor(W)
        v = z - x
        if not full:
            dvec = system.project(v)
            nd = np.sqrt(dvec @ dvec)
        if full or nd <= ZERO_TOL * scale:
            # After a full step the projection of ``v`` is zero but for rounding: the pass
            # goes straight to the multipliers, and still counts as an iteration.
            full = False
            y = system.multipliers(v)
            neg = np.flatnonzero((y[m_red:] * g_norm[W] < -ZERO_TOL * scale) & ~keep[W])
            if neg.size == 0:
                break
            # Bland: drop the smallest-index offending row (W is sorted).
            W.pop(int(neg.min()))
            system = None
            continue
        mask = np.ones(k, dtype=bool)
        mask[W] = False
        gap, rate, enter = h - G @ x, G @ dvec, None
        # t starts at |x| / nd; ties to TIE_TOL (1 + t_min) on a long step let rows off it enter.
        origin = min(1.0, math.sqrt(x @ x) / nd)
        while enter is None:
            idx = np.flatnonzero(mask)
            t_min, ties = _ratio_test(gap[idx], rate[idx], g_norm[idx] * nd, idx, origin)
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
            full = True
    else:
        raise MaxIterationsExceeded(
            f"no convergence in {max_iter} active-set iterations", best_x=x
        )

    # The loop leaves only through the exit branch, whose ``y`` is final.
    mu = np.zeros(m)
    mu[eq_idx] = y[:m_red]
    return x, np.asarray(W, dtype=int), mu, y[m_red:], it, KernelState(order, seed, system)


class Certificate(NamedTuple):
    """Optimality of ``x`` for the residual ``r = z - x``: ``r = A^T mu + G[rows]^T lam``,
    ``lam >= 0`` and ``rows`` tight; ``mu`` has one entry per row of ``A``.  ``system`` is
    the :class:`_FreeSystem` of ``[A_red; G[rows]]`` that solved the multipliers, when the
    solver kept it."""

    rows: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    system: _FreeSystem | None = None

    def restrict(self, rows: np.ndarray) -> "Certificate":
        """This certificate on ``rows``: a row it does not hold gets a zero multiplier (and
        no factorization)."""
        full = np.zeros(1 + max(rows.max(initial=-1), self.rows.max(initial=-1)))
        full[self.rows] = self.lam
        return Certificate(rows, self.mu, full[rows])


def _check_certificate(spec: PolytopeSpec, x, r, cert: Certificate, where: str | None,
                       slack=None):
    """Raise unless ``cert`` proves ``x = proj(x + r)``; return its stationarity residual.

    The one KKT rule, at the data's scale: the rows hold by :func:`polytope._rows_hold`, and
    the stationarity residual and ``-min lam_i |g_i|`` lie within ``KKT_TOL (|x| + size + |r|)``,
    where ``size`` (:attr:`PolytopeSpec.size`) keeps rounding in ``x`` at the origin from failing.
    ``slack`` is ``h - G x`` when the caller has it.

    With ``where=None``, ``x``, ``r``, ``cert.mu`` and ``cert.lam`` may hold one point per row,
    all on the rows ``cert.rows``; nothing is raised, and the answer is the residual of each
    point, infinite where the rule fails.
    """
    resid = np.abs(r - cert.mu @ spec.A - cert.lam @ spec.G[cert.rows]).max(axis=-1)
    low = (cert.lam * spec.row_norms[cert.rows]).min(axis=-1, initial=0)
    bound = KKT_TOL * (_length(x) + _length(r) + spec.size)
    holds = _rows_hold(spec, x, cert.rows, slack) & (resid <= bound) & (-low <= bound)
    if where is None:
        return np.where(holds, resid, np.inf)
    if not holds:
        off = np.concatenate([np.abs(spec.A @ x - spec.b), spec.G @ x - spec.h,
                              np.abs(spec.G[cert.rows] @ x - spec.h[cert.rows])])
        raise NumericalBreakdown(
            f"{where} fails its certificate (off the face by {off.max(initial=0):.2e}, "
            f"stationarity residual {resid:.2e}, smallest multiplier {low:.2e})")
    return float(resid)


def project(spec: PolytopeSpec, z, start=None, working_set=None, warm=None) -> ProjectionResult:
    """Project ``z`` onto the polytope.

    Parameters
    ----------
    spec : PolytopeSpec
        Validated polytope.
    z : array_like
        Point to project.
    start, working_set : optional
        Warm start: a point and inequality rows to seed the working set.
        The start is taken when it holds every row by the row rule
        (:meth:`PolytopeSpec.contains`); otherwise, or without one, the
        solve starts cold from :func:`polytope._find_feasible_point`.
    warm : ProjectionResult, optional
        An earlier answer of this function, in place of ``start=warm.x`` and
        ``working_set=warm.working_set``.  When it was certified on ``spec``
        itself (checked by identity), its ``x`` is not judged again and the
        kernel reuses its seed and factorization (:class:`KernelState`).

    Returns
    -------
    ProjectionResult
        Minimizer with KKT certificate data, checked by :func:`_check_certificate`.
    """
    z = np.asarray(z, dtype=float).ravel()
    state = None
    if warm is not None:
        if start is not None or working_set is not None:
            raise ValueError("warm replaces start and working_set; pass it alone")
        (owner, state), start, working_set = warm.warm_state, warm.x, warm.working_set
        # On its own spec, the certificate of ``warm`` held ``x`` to the row rule of ``contains``.
        state = state if owner is spec else None
    x0 = None if start is None else np.asarray(start, dtype=float).ravel()
    if x0 is None or not (state is not None or spec.contains(x0)):
        x0 = _find_feasible_point(spec)
        working_set = None
    x, W, mu, lam, iters, state = min_distance_active_set(
        spec.A, spec.G, spec.h, z, x0, w0=working_set, eq=spec.eq_reduction,
        col=spec.unit_columns, row_norms=spec.row_norms, warm=state,
    )
    cert = Certificate(W, mu, lam)
    slack = spec.h - spec.G @ x  # one slack for the certificate's rows and the tight rows
    kkt = _check_certificate(spec, x, z - x, cert, "projection", slack)
    active = _tight_rows(slack, spec.h, spec.row_norms, float(np.sqrt(x @ x) + np.sqrt(z @ z)))
    residual = kkt if spec.vertices is None else float(np.max((spec.vertices - x) @ (z - x)))
    return ProjectionResult(
        x=x,
        active_set=active,
        multipliers=cert.restrict(active).lam,
        residual=residual,
        working_set=W,
        eq_multipliers=mu,
        iterations=iters,
        kkt_residual=kkt,
        warm_state=(spec, state),
    )


class Sweep(NamedTuple):
    """Answers of :func:`project_sweep`: the projections ``x``, one per row, and the mask
    ``kernel`` of the rows the active-set kernel solved; a face step took the rest."""

    x: np.ndarray
    kernel: np.ndarray


def _face_step(spec: PolytopeSpec, prev: ProjectionResult, Z: np.ndarray) -> np.ndarray:
    """The projections of the longest prefix of the rows of ``Z`` that lie on the face of the
    answer ``prev``: one step from ``prev.x`` on its working set, in one batch.

    A row is taken when :func:`min_distance_active_set`, started from ``prev.x`` on that
    working set, would exit at once: no row off the set crosses before the full step (by
    :func:`_crossings`, at the kernel's rate floor), no multiplier ``lam_i |g_i|`` falls below
    ``-ZERO_TOL (|z| + |x|)``, and a step below ``ZERO_TOL (|z| + |x|)`` is not taken.  Each
    taken answer passes :func:`_check_certificate`.
    """
    if not len(Z):
        return Z
    x, W, system = prev.x, prev.working_set, prev.warm_state[1].system
    m_red = system.A_red.shape[0]
    scale = _length(Z) + _length(x)
    D = system.project(Z - x)
    nd = _length(D)
    D[nd <= ZERO_TOL * scale] = 0.0
    X = x + D
    off = np.ones(spec.n_ineq, dtype=bool)
    off[W] = False
    rate = D @ spec.G[off].T
    hits, t = _crossings(np.broadcast_to((spec.h - spec.G @ x)[off], rate.shape), rate,
                         spec.row_norms[off] * nd[:, None])
    hits[hits] = t < 1.0
    blocked = hits.any(axis=1)
    R = Z - X
    y = system.multipliers(R)
    mu = np.zeros((len(Z), spec.n_eq))
    mu[:, spec.eq_reduction[0]] = y[:, :m_red]
    lam = y[:, m_red:]
    negative = (lam * spec.row_norms[W] < -ZERO_TOL * scale[:, None]).any(axis=1)
    certified = _check_certificate(spec, X, R, Certificate(W, mu, lam), None) < np.inf
    taken = ~blocked & ~negative & certified
    return X[:int(np.argmin(np.append(taken, False)))]


def project_sweep(spec: PolytopeSpec, Z) -> Sweep:
    """Project each row of ``Z`` onto the polytope, in the order given.

    The first row is solved cold by :func:`project`.  The answer's last factorization then
    gives, in one batch, the projections of the later rows that lie on its face
    (:func:`_face_step`); the first row it does not take is solved by ``project(spec, z,
    warm=prev)`` from the last kernel answer ``prev``, and so on.  Targets that move along
    a piecewise-affine path, as ``-eta c / 2`` does with ``eta``, need one kernel solve per
    face.  Every answer passes the one KKT rule of :func:`_check_certificate`.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != spec.dim:
        raise ShapeMismatch(f"targets of shape {Z.shape}, polytope dim {spec.dim}")
    X, kernel = np.empty_like(Z), np.zeros(len(Z), dtype=bool)
    k, prev = 0, None
    while k < len(Z):
        prev = project(spec, Z[k], warm=prev)
        X[k], kernel[k] = prev.x, True
        taken = _face_step(spec, prev, Z[k + 1:])
        X[k + 1:k + 1 + len(taken)] = taken
        k += 1 + len(taken)
    return Sweep(X, kernel)


def solve_qlp(inst: QlpInstance, eta: float, start=None, working_set=None,
              warm=None) -> ProjectionResult:
    """Unique minimizer of ``<c, x> + |x|^2/eta`` over the polytope."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return project(inst.polytope, inst.target(eta), start=start, working_set=working_set, warm=warm)
