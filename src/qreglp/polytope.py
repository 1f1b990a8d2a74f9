"""Polytopes in constraint form: validation, vertex enumeration, geometry.

A polytope is described by equalities ``A x = b`` and inequalities
``G x <= h`` (nonnegativity is encoded as rows of ``G``), optionally
accompanied by an explicit vertex list.  Vertices are enumerated by the
double description method on the homogenized cone, so the work grows with
the number of vertices and rows rather than with the number of candidate
bases.  A budget caps the work of each step of the method, the rays
held plus the zero-set tests it runs, and is charged before the step runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgeqrf, dorgqr
from scipy.optimize import linprog

from ._tolerances import KKT_TOL, OPT_TOL, RANK_TOL, RECESSION_TOL, ZERO_TOL
from .errors import (
    AllVerticesOptimal,
    BudgetExceeded,
    EmptyFeasibleSet,
    NonFiniteData,
    ShapeMismatch,
    UnboundedSet,
)

DEFAULT_BASIS_BUDGET = 10**7
DEFAULT_PAIRWISE_BUDGET = 4096


def _as_matrix(M, dim, name):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return np.zeros((0, dim))
    if M.shape[1] != dim:
        raise ShapeMismatch(f"{name} has {M.shape[1]} columns, expected {dim}")
    return _finite(M, name)


def _as_vector(v, rows, name):
    v = np.atleast_1d(np.asarray(v, dtype=float)).ravel()
    if v.size == 0:
        return np.zeros(0)
    if v.shape[0] != rows:
        raise ShapeMismatch(f"{name} has {v.shape[0]} entries, expected {rows}")
    return _finite(v, name)


def _finite(M, name):
    if not np.isfinite(M).all():
        raise NonFiniteData(f"{name} holds a NaN or an infinite entry")
    return np.ascontiguousarray(M)


@dataclass(frozen=True)
class PolytopeSpec:
    """H-representation ``{x : A x = b, G x <= h}`` with optional vertices.

    Parameters
    ----------
    dim : int
        Ambient dimension.
    A, b : array_like
        Equality block, shape (m, dim) and (m,).  May be empty.
    G, h : array_like
        Inequality block, shape (k, dim) and (k,).  May be empty.
    vertices : array_like, optional
        Explicit vertex list, shape (K, dim).  When given, enumeration
        returns them, one row per vertex (:func:`_distinct_vertices`);
        :func:`validate` checks them.  An empty list counts as none and is
        stored as ``None``.
    feasible_point : array_like, optional
        A known feasible point, used to skip the feasibility phase.
    """

    dim: int
    A: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    b: np.ndarray = field(default_factory=lambda: np.zeros(0))
    G: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    h: np.ndarray = field(default_factory=lambda: np.zeros(0))
    vertices: np.ndarray | None = None
    feasible_point: np.ndarray | None = None

    def __post_init__(self):
        if self.dim <= 0:
            raise ShapeMismatch("dim must be a positive integer")
        A = _as_matrix(self.A, self.dim, "A")
        G = _as_matrix(self.G, self.dim, "G")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "b", _as_vector(self.b, A.shape[0], "b"))
        object.__setattr__(self, "h", _as_vector(self.h, G.shape[0], "h"))
        if self.vertices is not None:
            V = _as_matrix(self.vertices, self.dim, "vertices")
            object.__setattr__(self, "vertices", V if V.shape[0] else None)
        if self.feasible_point is not None:
            p = _as_vector(self.feasible_point, self.dim, "feasible_point")
            object.__setattr__(self, "feasible_point", p)

    @property
    def n_eq(self) -> int:
        return self.A.shape[0]

    @property
    def n_ineq(self) -> int:
        return self.G.shape[0]

    @cached_property
    def eq_reduction(self) -> list[int]:
        """The rows of ``A`` that :func:`_independent_rows` keeps, computed once per spec."""
        return _independent_rows(self.A)

    @cached_property
    def unit_columns(self) -> np.ndarray:
        """:func:`_unit_columns` of ``G``, computed once per spec."""
        return _unit_columns(self.G)

    @cached_property
    def row_norms(self) -> np.ndarray:
        """Euclidean norms of the rows of ``G`` (:func:`_norms`), computed once per spec."""
        return _norms(self.G)

    @cached_property
    def eq_row_norms(self) -> np.ndarray:
        """Euclidean norms of the rows of ``A`` (:func:`_norms`), computed once per spec."""
        return _norms(self.A)

    @cached_property
    def size(self) -> float:
        """``max |rhs| / max |row|`` over both blocks: a length that scales with the polytope."""
        top = max(self.row_norms.max(initial=0), self.eq_row_norms.max(initial=0))
        rhs = max(np.abs(self.h).max(initial=0), np.abs(self.b).max(initial=0))
        return float(rhs / top) if top else 0.0

    def contains(self, x, tol: float | None = None) -> bool:
        """Whether ``x`` holds every row by the row rule (:func:`_row_rule`), to ``tol`` in
        place of ``KKT_TOL`` when given."""
        return bool(_row_rule(self, np.ravel(x), tol)[0])

    def to_json_dict(self) -> dict:
        out = {
            "dim": int(self.dim),
            "A": self.A.tolist(),
            "b": self.b.tolist(),
            "G": self.G.tolist(),
            "h": self.h.tolist(),
        }
        if self.vertices is not None:
            out["vertices"] = self.vertices.tolist()
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "PolytopeSpec":
        dim = int(data["dim"])
        return cls(
            dim=dim,
            A=data.get("A", []),
            b=data.get("b", []),
            G=data.get("G", []),
            h=data.get("h", []),
            vertices=data.get("vertices"),
        )

    @classmethod
    def box(cls, lower, upper) -> "PolytopeSpec":
        """Axis-aligned box ``lower <= x <= upper``."""
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        d = lower.size
        G = np.vstack([np.eye(d), -np.eye(d)])
        h = np.concatenate([upper, -lower])
        return cls(dim=d, G=G, h=h, feasible_point=(lower + upper) / 2.0)

    @classmethod
    def interval(cls, lo: float = 0.0, hi: float = 1.0) -> "PolytopeSpec":
        return cls.box([lo], [hi])

    @classmethod
    def simplex(cls, d: int) -> "PolytopeSpec":
        """Unit simplex ``{x >= 0, sum x = 1}`` in dimension ``d``."""
        return cls(
            dim=d,
            A=np.ones((1, d)),
            b=np.ones(1),
            G=-np.eye(d),
            h=np.zeros(d),
            feasible_point=np.full(d, 1.0 / d),
        )


@dataclass
class VertexSet:
    """Vertices of a polytope plus, optionally, an LP-optimality mask."""

    vertices: np.ndarray
    optimal_mask: np.ndarray | None = None

    def __post_init__(self):
        self.vertices = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if self.optimal_mask is not None:
            self.optimal_mask = np.asarray(self.optimal_mask, dtype=bool)

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def mark_optimal(self, c) -> "VertexSet":
        """Return a copy whose mask flags minimizers of ``<c, v>``.

        A vertex is flagged optimal when its cost is within ``OPT_TOL |c| |ptp(V)|`` of the
        least, ``|ptp(V)|`` the diagonal of the vertices' bounding box (scale covariant).
        """
        c = np.asarray(c, dtype=float).ravel()
        vals = self.vertices @ c
        cut = vals.min() + OPT_TOL * np.linalg.norm(c) * np.linalg.norm(np.ptp(self.vertices, 0))
        return VertexSet(self.vertices, vals <= cut)

    @property
    def optimal_vertices(self) -> np.ndarray:
        if self.optimal_mask is None:
            raise ValueError("optimal_mask not set; call mark_optimal first")
        return self.vertices[self.optimal_mask]


@dataclass
class ValidationReport:
    """Outcome of :func:`validate`: flags plus the canonicalized spec."""

    nonempty: bool
    bounded: bool
    vertex_consistent: bool
    spec: PolytopeSpec
    feasible_point: np.ndarray | None = None


def _lexsorted(V: np.ndarray) -> np.ndarray:
    if V.shape[0] <= 1:
        return V
    order = np.lexsort(V.T[::-1])
    return V[order]


def _length(x: np.ndarray):
    """``|x|``, or the norm of each row of a stack."""
    return math.sqrt(x @ x) if x.ndim == 1 else np.sqrt(np.einsum("ij,ij->i", x, x))


def _row_rule(spec: PolytopeSpec, X, tol: float | None = None, slack=None):
    """The one row rule for a point, at the data's scale: row ``i`` holds, or the point lies
    on it, to ``KKT_TOL (|h_i| + |g_i| s)`` (``|b_i| + |a_i| s`` for an equality row),
    ``s = |x| + size``.  It judges the solver's certificates and every point given from
    outside (listed vertices, start points) alike.

    ``X`` is one point, or holds one point per row; ``slack`` is ``h - G X`` when the caller
    has it.  Returns, per point, whether it holds every row, and per point and inequality
    row, whether it lies on the row.
    """
    tol = KKT_TOL if tol is None else tol
    X = np.asarray(X, dtype=float)
    norm = _length(X) if X.ndim == 1 else _length(X)[:, None]
    if slack is None:  # for one point, the expression of :func:`projection.project`'s slack
        slack = spec.h - (spec.G @ X if X.ndim == 1 else X @ spec.G.T)
    off = -slack  # positive on a broken row
    bound = tol * (np.abs(spec.h) + spec.row_norms * (norm + spec.size))
    holds = (off <= bound).all(axis=-1)
    if spec.n_eq:
        eq_bound = tol * (np.abs(spec.b) + spec.eq_row_norms * (norm + spec.size))
        holds &= (np.abs(X @ spec.A.T - spec.b) <= eq_bound).all(axis=-1)
    return holds, np.abs(off) <= bound


def _rows_hold(spec: PolytopeSpec, x, rows, slack=None):
    """Whether ``x`` holds every row and lies on the inequality rows ``rows``, by
    :func:`_row_rule` (``slack`` is ``h - G x`` when the caller has it); per point when ``x``
    holds one point per row."""
    holds, on = _row_rule(spec, x, slack=slack)
    return holds & on.T[rows].all(axis=0)  # ``.T`` puts the rows first, for a stack too


def _distinct_vertices(spec: PolytopeSpec, V: np.ndarray) -> np.ndarray:
    """``V`` in lexicographic order, one row per vertex: a vertex is fixed by the constraint rows
    it lies on, so two points of ``V`` that lie on the same rows (:func:`_row_rule`) are one
    vertex, and the first is kept."""
    V = _lexsorted(V)
    first = np.unique(_row_rule(spec, V)[1], axis=0, return_index=True)[1]
    return V[np.sort(first)]


def _tight_rows(slack, h, row_norms, scale: float) -> np.ndarray:
    """The one rule for which rows ``g_i x <= h_i`` are tight: ``slack_i <= ZERO_TOL (|h_i| +
    |g_i| scale)``, with ``scale = |x| + |z|`` for the point ``x`` and the point ``z`` projected."""
    return np.flatnonzero(slack <= ZERO_TOL * (np.abs(h) + row_norms * scale))


def _unit_columns(G: np.ndarray) -> np.ndarray:
    """Per row of ``G``: the coordinate a unit row (one nonzero) fixes, else -1."""
    col = np.argmax(np.abs(G), axis=1)
    col[np.count_nonzero(G, axis=1) != 1] = -1
    return col


def _thin_qr(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The thin QR ``M = Q R``, by LAPACK's ``dgeqrf`` and ``dorgqr``, the routines and bits of
    ``np.linalg.qr``: on the few-row matrices of a seed or a working set, ``np.linalg.qr``
    spends most of its time outside LAPACK.  ``Q`` is Fortran-ordered, ``R`` C-ordered."""
    if not M.size:
        return np.zeros((M.shape[0], 0)), np.zeros((0, M.shape[1]))
    k = min(M.shape)
    qr, tau, _, _ = dgeqrf(M)
    return dorgqr(qr[:, :k], tau)[0], np.triu(qr[:k])


def _column_rule(A_red: np.ndarray, G: np.ndarray, order, col: np.ndarray) -> list[int]:
    """Rows of ``G``, visited in ``order``, that extend the span of ``A_red`` and of the rows
    kept before them: the rank rule of a working set.  Returns the kept rows in visiting order.

    A unit row (``col >= 0``) fixes its coordinate.  With ``S`` the coordinates fixed so far
    and ``B = [A_red; kept general rows]``, each run of rows of one kind is decided on
    ``B[:, ~S]``:

    - a general row is kept when its residual off the rows before it exceeds
      ``RANK_TOL |row|``, read as ``|R_ii|`` of the QR of ``[B; run][:, ~S]^T``, the test of
      ``projection._FreeSystem``; the QR is redone after each row dropped, and a run is
      skipped whole once the kept rows span the free coordinates;
    - for distinct unit rows ``T`` off ``S``, ``rank [B; E_T] = |T| + rank B[:, ~T]`` on the
      columns ``~S``.  So the unit rows that extend the span, taken greedily in visiting
      order (greedy on the dual matroid of ``B``'s columns), are those of the run's
      coordinates outside the greedy column basis of ``B[:, ~S]``, built over the other
      columns first and then the run's in reverse order (Oxley, *Matroid Theory*, ch. 2).
      The basis grows on the rows of ``Q``, the orthonormal factor of ``B[:, ~S]^T``, which
      have ``B``'s column dependencies and unit scale: each pass takes, from the first whose
      residual exceeds ``RANK_TOL``, the longest run whose QR diagonal exceeds it, and
      projects their span out of the later ones.  A coordinate fixed already, or again in
      the run, is dependent.
    """
    order = np.asarray(order, dtype=int)
    general, kept = order[:0], [order[:0]]
    fixed = np.zeros(G.shape[1], dtype=bool)
    for run in np.split(order, np.flatnonzero(np.diff(col[order] >= 0)) + 1):
        if run.size and col[run[0]] < 0:
            if A_red.shape[0] + general.size == np.count_nonzero(~fixed):
                continue  # the kept rows span the free coordinates: the rest depend on them
            while True:
                B = np.vstack([A_red, G[general], G[run]])[:, ~fixed]
                diag, r = np.zeros(B.shape[0]), np.diagonal(_thin_qr(B.T)[1])
                diag[:r.size] = np.abs(r)
                low = diag[B.shape[0] - run.size:] <= RANK_TOL * _norms(G[run])
                if not low.any():
                    break
                run = np.delete(run, np.argmax(low))
            general = np.concatenate([general, run])
            kept.append(run)
            continue
        first = np.unique(col[run], return_index=True)[1]
        first.sort()
        run = run[first][~fixed[col[run[first]]]]
        coords = col[run]
        others = ~fixed
        others[coords] = False
        priority = np.concatenate([np.flatnonzero(others), coords[::-1]])
        # Row-contiguous, since each pass below works on a block of rows.
        V = np.ascontiguousarray(_thin_qr(np.vstack([A_red, G[general]])[:, priority].T)[0])
        basis = np.zeros(G.shape[1], dtype=bool)
        rank = start = 0
        while rank < V.shape[1]:
            above = np.einsum("ij,ij->i", V[start:], V[start:]) > RANK_TOL**2
            if not above.any():
                break
            start += int(above.argmax())
            Q, R = _thin_qr(V[start:start + V.shape[1] - rank].T)
            diag = np.diagonal(R)
            # The longest run of columns whose QR diagonal exceeds RANK_TOL: all independent.
            p = int(np.argmin(np.append(np.abs(diag) > RANK_TOL, False)))
            basis[priority[start:start + p]] = True
            rank, start, Q = rank + p, start + p, Q[:, :p]
            for _ in range(2):
                V[start:] -= (V[start:] @ Q) @ Q.T
        fixed[coords[~basis[coords]]] = True
        kept.append(run[~basis[coords]])
    return np.concatenate(kept).tolist()


def _independent_rows(M: np.ndarray) -> list[int]:
    """The rows of ``M`` that :func:`_column_rule` keeps in row order: of two dependent rows
    the earlier wins."""
    return _column_rule(np.zeros((0, M.shape[1])), M, range(M.shape[0]), _unit_columns(M))


def _norms(M: np.ndarray):
    """The Euclidean norm of the vector ``M``, or of each row of the matrix ``M``, at its own
    scale.  A plain norm inside ``(2^-460, 2^460)`` is kept: no square that could move it
    under- or overflows.  Any other row is divided by the power of two of its largest entry
    (``frexp``) first, so a row of tiny entries does not underflow to zero; the division is
    exact, so a row at unit scale would keep the same bits."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(M, axis=1) if M.ndim == 2 else np.array([np.linalg.norm(M)])
    redo = ~((norms > 2.0**-460) & (norms < 2.0**460))
    if redo.any():
        rows = np.atleast_2d(M)[redo]
        unit = np.ldexp(1.0, np.frexp(np.abs(rows).max(axis=1, initial=0))[1])
        norms[redo] = np.linalg.norm(rows / unit[:, None], axis=1) * unit
    return norms if M.ndim == 2 else float(norms[0])


def _size_unit(size: float) -> float:
    """The power of two nearest ``size`` (1 at 0), which divides data exactly."""
    return 2.0 ** round(math.log2(size)) if size else 1.0


def _find_feasible_point(spec: PolytopeSpec) -> np.ndarray:
    """A feasible point: the spec hint or the first listed vertex when it holds every row by
    the row rule (:meth:`PolytopeSpec.contains`), else the point of a phase-1 LP.

    HiGHS's tolerances are absolute, so the LP is solved at unit size: ``h`` and ``b`` are
    divided by ``_size_unit(spec.size)``, and the point is multiplied back."""
    for p in (spec.feasible_point, None if spec.vertices is None else spec.vertices[0]):
        if p is not None and spec.contains(p):
            return np.asarray(p, dtype=float)
    unit = _size_unit(spec.size)
    res = linprog(
        c=np.zeros(spec.dim),
        A_ub=spec.G if spec.n_ineq else None,
        b_ub=spec.h / unit if spec.n_ineq else None,
        A_eq=spec.A if spec.n_eq else None,
        b_eq=spec.b / unit if spec.n_eq else None,
        bounds=[(None, None)] * spec.dim,
        method="highs",
    )
    if res.status == 2 or res.x is None:
        raise EmptyFeasibleSet("constraint system is infeasible")
    return np.asarray(res.x, dtype=float) * unit


def _recession_ray(spec: PolytopeSpec) -> np.ndarray | None:
    """A nonzero recession direction if one exists, else None.

    With the rows of ``[A; G]`` scaled to unit length, a null vector is a
    line in the region.  Otherwise every nonzero recession direction ``d``
    has ``g_i . d < 0`` on some row, so one LP, ``max sum_i -g_i . d`` over
    ``G d <= 0``, ``A d = 0``, ``-1 <= d <= 1``, is positive exactly when
    the region is unbounded.  Each row is divided by its largest entry before
    its norm is taken, as ``dnrm2`` does, so the norm of a row of tiny entries
    does not underflow to zero.
    """
    M = np.vstack([spec.A, spec.G])
    top = np.abs(M).max(axis=1, initial=0)
    M = M / np.where(top > 0, top, 1.0)[:, None]
    norms = np.linalg.norm(M, axis=1)
    M = M / np.where(norms > 0, norms, 1.0)[:, None]
    _, sv, Vt = np.linalg.svd(M)
    if sv.size < spec.dim or sv[-1] <= RECESSION_TOL:
        return Vt[-1]
    G = M[spec.n_eq:]
    res = linprog(
        G.sum(axis=0),
        A_ub=G,
        b_ub=np.zeros(spec.n_ineq),
        A_eq=spec.A if spec.n_eq else None,
        b_eq=np.zeros(spec.n_eq) if spec.n_eq else None,
        bounds=[(-1.0, 1.0)] * spec.dim,
        method="highs",
    )
    if res.status == 0 and res.x is not None and -res.fun > RECESSION_TOL:
        return np.asarray(res.x, dtype=float)
    return None


def validate(spec: PolytopeSpec) -> ValidationReport:
    """Check nonemptiness, boundedness, and V/H consistency.

    A listed vertex comes from outside the program, so it is judged by the row rule
    (:func:`_row_rule`): the list is consistent when every vertex holds every row and is
    extreme (:func:`_is_extreme`).  Listed points that lie on the same rows are one vertex
    (:func:`_distinct_vertices`).  Returns the canonicalized spec (contiguous float arrays,
    vertices deduplicated and lexicographically sorted, and the feasible point the
    check found).  Raises
    :class:`EmptyFeasibleSet` or :class:`UnboundedSet` on failure, and
    :class:`ShapeMismatch` for inconsistent blocks (at construction).
    """
    point = _find_feasible_point(spec)
    ray = _recession_ray(spec)
    if ray is not None:
        raise UnboundedSet(f"recession direction found: {ray.tolist()}")

    vertex_consistent = True
    canon = replace(spec, feasible_point=point)
    if spec.vertices is not None:
        V = _distinct_vertices(spec, spec.vertices)
        holds, on = _row_rule(spec, V)
        vertex_consistent = bool(holds.all() and all(_is_extreme(spec, rows) for rows in on))
        canon = replace(canon, vertices=V)
    return ValidationReport(
        nonempty=True,
        bounded=True,
        vertex_consistent=vertex_consistent,
        spec=canon,
        feasible_point=point,
    )


def _is_extreme(spec: PolytopeSpec, on: np.ndarray) -> bool:
    """Extreme-point certificate of a point that lies on the inequality rows ``on`` (a mask,
    :func:`_row_rule`): the equality rows and the rows of ``on`` that :func:`_column_rule`
    keeps reach rank ``dim``."""
    eq_idx = spec.eq_reduction
    kept = _column_rule(spec.A[eq_idx], spec.G, np.flatnonzero(on), spec.unit_columns)
    return len(eq_idx) + len(kept) == spec.dim


def _check_budget(rays: int, tests: int, budget: int) -> None:
    if rays + tests > budget:
        raise BudgetExceeded(
            f"{rays} rays held and {tests} zero-set tests exceed budget {budget}; "
            "use the homotopy path instead of vertex formulas"
        )


def _adjacent_pairs(Z: np.ndarray, plus: np.ndarray, minus: np.ndarray, need: int,
                    budget: int):
    """Pairs ``(plus[a], minus[b])`` of rays whose common zero set has at least
    ``need`` rows and lies in no third ray's zero set.

    ``Z`` holds the zero sets as 0/1 rows, so both tests are matrix
    products: ``Z[p] @ Z[q].T`` counts common zeros, and a ray holds a set
    when the set meets none of the ray's nonzero rows.  Each test is
    charged against ``budget``, with the rays held, before it runs: first
    the pairs, then each pair that has enough common zeros times the rays
    that could hold its set.  Work runs in chunks of about ``2**21``
    products, so memory does not grow with the pairs times the rays.
    """
    rays = Z.shape[0]
    _check_budget(rays, plus.size * minus.size, budget)
    chunk = 1 << 21
    step = max(1, chunk // max(1, minus.size))
    Zq = Z[minus].T
    pa, qb = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    for lo in range(0, plus.size, step):
        p = plus[lo:lo + step]
        a, b = np.nonzero(Z[p] @ Zq >= need)
        pa.append(p[a])
        qb.append(minus[b])
    pa, qb = np.concatenate(pa), np.concatenate(qb)
    _check_budget(rays, plus.size * minus.size + pa.size * rays, budget)
    outside = 1 - Z
    per = max(1, chunk // rays)
    adj = np.zeros(pa.size, dtype=bool)
    for lo in range(0, pa.size, per):
        common = Z[pa[lo:lo + per]] * Z[qb[lo:lo + per]]
        adj[lo:lo + per] = np.count_nonzero(common @ outside.T == 0, axis=1) == 2
    return pa[adj], qb[adj]  # only the pair itself holds its common set


def _double_description(M: np.ndarray, budget: int) -> np.ndarray:
    """Zero sets of the extreme rays of the pointed cone ``{w : M w <= 0}``.

    ``M`` has unit rows.  The seed is the cone of ``len(w)`` independent
    rows picked by :func:`_independent_rows` in row order; every other row is
    then added in turn (Motzkin et al. 1953; Fukuda & Prodon 1996).  A ray
    is zero on a row when ``|row . ray| <= ZERO_TOL`` (unit ray).  Rays
    positive on the new row go; each pair of a positive and a negative ray
    that is adjacent gives a new ray on the row.  Adjacency is decided
    from the zero sets alone: the pair's common zero set has at least
    ``len(w) - 2`` rows and lies in no third ray's zero set.

    Returns the zero sets as a bool array, one row per ray and one column
    per row of ``M``; it has no rows when ``M`` has rank below ``len(w)``.
    Each step's zero-set tests plus the rays held are charged against
    ``budget`` before the tests run (:func:`_adjacent_pairs`), and
    :class:`BudgetExceeded` is raised when they pass it.  A new ray comes
    from a tested pair, so the rays held never pass the budget either.
    """
    n, m = M.shape
    seed = _independent_rows(M)
    if len(seed) < m:  # the cone holds a line, so it has no extreme ray
        return np.zeros((0, n), dtype=bool)
    _check_budget(m, 0, budget)
    R = -np.linalg.solve(M[seed], np.eye(m)).T  # M[seed] @ R[j] = -e_j
    R /= np.linalg.norm(R, axis=1)[:, None]
    Z = np.zeros((m, n), dtype=np.float32)  # zero sets as 0/1 rows
    Z[:, seed] = 1 - np.eye(m, dtype=np.float32)
    for i in sorted(set(range(n)) - set(seed)):
        v = R @ M[i]
        keep = v <= ZERO_TOL
        Z[np.abs(v) <= ZERO_TOL, i] = 1
        if keep.all():
            continue
        p, q = _adjacent_pairs(Z, np.flatnonzero(~keep), np.flatnonzero(v < -ZERO_TOL), m - 2,
                               budget)
        W = v[p, None] * R[q] - v[q, None] * R[p]
        Zw = Z[p] * Z[q]
        Zw[:, i] = 1
        R = np.vstack([R[keep], W / np.linalg.norm(W, axis=1)[:, None]])
        Z = np.vstack([Z[keep], Zw])
    return Z > 0


def enumerate_vertices(
    spec: PolytopeSpec,
    budget: int = DEFAULT_BASIS_BUDGET,
) -> VertexSet:
    """Enumerate all extreme points of the polytope.

    If the spec carries an explicit vertex list it is deduplicated by the
    rows each vertex lies on (:func:`_distinct_vertices`), sorted, and
    returned.  Otherwise the affine hull ``A x = b`` is written as
    ``x0 + N y``, both from the complete QR of ``A_red^T`` (``A_red`` the rows of
    ``spec.eq_reduction``), and the vertices are read off the extreme rays
    of the cone ``{(y, t) : G N y - (h - G x0) t / L <= 0, t >= 0}`` with
    unit rows, found by :func:`_double_description`.  ``L``, the largest
    distance from ``x0`` to a row's hyperplane in the hull, measures ``t``
    in the polytope's own unit of length, so the zero test on the rays
    does not change when the polytope is scaled.  A ray with ``t = 0`` is
    a recession direction and is dropped.  Each vertex is solved from its
    tight rows: ``A_red`` stacked on the tight inequality rows in ascending order, or on the
    independent ones :func:`_column_rule` keeps (the call :func:`_is_extreme` makes) when
    more than ``dim - rank(A)`` are tight.  A row of ``G`` that is constant on the affine
    hull (zero there to ``RANK_TOL`` times its norm) bounds nothing: it is dropped, or the
    set is empty when ``x0`` breaks it.  Every norm is taken at the row's own scale
    (:func:`_norms`), so a row of tiny entries is not taken for a flat one.  Each extreme
    ray gives one vertex, so the rows need no deduplication (a merge at an absolute
    distance would fuse true vertices of a small polytope).  Deterministic lexicographic
    output order.

    Raises
    ------
    BudgetExceeded
        If a step of the cone pass would hold rays and run zero-set tests
        that number more than ``budget`` (:func:`_double_description`).
    """
    if spec.vertices is not None:
        return VertexSet(_distinct_vertices(spec, spec.vertices))

    d = spec.dim
    eq_idx = spec.eq_reduction
    A_red = spec.A[eq_idx]
    b_red = spec.b[eq_idx]
    r_eq = A_red.shape[0]
    s = d - r_eq
    if s > spec.n_ineq:
        raise UnboundedSet(
            "fewer inequality rows than the codimension of the equality "
            "block; a nonempty region of this form has no vertices"
        )
    Q, R = np.linalg.qr(A_red.T, mode="complete")  # A_red^T = Q[:, :r_eq] R[:r_eq]
    x0 = Q[:, :r_eq] @ np.linalg.solve(R[:r_eq].T, b_red)  # the least-norm point of the hull
    N = Q[:, r_eq:]  # orthonormal, A N = 0
    size = np.linalg.norm(x0)
    off = np.abs(spec.b - spec.A @ x0)
    if np.any(off > ZERO_TOL * (np.abs(spec.b) + spec.eq_row_norms * size)):
        raise EmptyFeasibleSet("the equality rows are inconsistent")
    GN = spec.G @ N
    slack = spec.h - spec.G @ x0
    flat = _norms(GN) <= RANK_TOL * spec.row_norms
    if np.any(flat & (slack < -ZERO_TOL * (np.abs(spec.h) + spec.row_norms * size))):
        raise EmptyFeasibleSet("an inequality row constant on the affine hull is violated")
    rows = np.flatnonzero(~flat)
    dist = np.abs(slack[rows]) / _norms(GN[rows])
    length = float(np.max(dist, initial=0.0)) or 1.0
    cone = np.hstack([GN[rows], -slack[rows, None] / length])
    cone /= _norms(cone)[:, None]
    t_row = np.zeros((1, s + 1))
    t_row[0, s] = -1.0
    zero = _double_description(np.vstack([t_row, cone]), budget)
    tight = zero[~zero[:, 0], 1:]  # rays with t = 0 are recession directions
    simple = tight.sum(axis=1) == s
    sel = rows[np.nonzero(tight[simple])[1]].reshape(int(simple.sum()), s)
    extra = []
    for mask in tight[~simple]:
        kept = _column_rule(A_red, spec.G, rows[mask], spec.unit_columns)
        if len(kept) == s:
            extra.append(kept)
    sel = np.vstack([sel, np.asarray(extra, dtype=np.intp).reshape(len(extra), s)])
    if not sel.shape[0]:
        raise EmptyFeasibleSet("no basic feasible solution found")
    M = np.empty((sel.shape[0], d, d))
    rhs = np.empty((sel.shape[0], d))
    M[:, :r_eq, :] = A_red
    rhs[:, :r_eq] = b_red
    M[:, r_eq:, :] = spec.G[sel]
    rhs[:, r_eq:] = spec.h[sel]
    X = np.linalg.solve(M, rhs[..., None])[..., 0]
    return VertexSet(_lexsorted(X))


def geometry(vs: VertexSet) -> tuple[float, float]:
    """Norm bound ``B`` and diameter ``D`` of the polytope with vertices ``vs``.

    Both are attained at vertices.  The pairwise diameter scan is capped at
    ``DEFAULT_PAIRWISE_BUDGET`` vertices.
    """
    V = vs.vertices
    K = V.shape[0]
    if K > DEFAULT_PAIRWISE_BUDGET:
        raise BudgetExceeded(f"{K} vertices exceed pairwise budget {DEFAULT_PAIRWISE_BUDGET}")
    B = float(np.max(np.linalg.norm(V, axis=1))) if K else 0.0
    sq = np.sum(V * V, axis=1)
    D2 = sq[:, None] + sq[None, :] - 2.0 * (V @ V.T)
    D = float(np.sqrt(max(np.max(D2), 0.0)))
    return B, D


def suboptimality_gap(vs: VertexSet, c) -> float:
    """Gap ``min over non-optimal vertices of <c, v - v_opt>``.

    Strictly positive when at least one vertex is non-optimal; raises
    :class:`AllVerticesOptimal` otherwise.
    """
    c = np.asarray(c, dtype=float).ravel()
    marked = vs.mark_optimal(c) if vs.optimal_mask is None else vs
    if marked.optimal_mask.all():
        raise AllVerticesOptimal("every vertex minimizes the cost")
    vals = marked.vertices @ c
    return float(vals[~marked.optimal_mask].min() - vals.min())
