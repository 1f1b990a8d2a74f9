"""Polytopes in constraint form: validation, vertex enumeration, geometry.

A polytope is described by equalities ``A x = b`` and inequalities
``G x <= h`` (nonnegativity is encoded as rows of ``G``), optionally
accompanied by an explicit vertex list.  All enumeration here is meant for
desk-scale instances and guarded by an explicit work budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.optimize import linprog

from ._tolerances import (DEDUP_TOL, EXTREME_RANK_TOL, FEAS_TOL, OPT_TOL, RANK_TOL,
                          RECESSION_TOL, START_TOL, ZERO_TOL)
from .errors import (
    AllVerticesOptimal,
    BudgetExceeded,
    EmptyFeasibleSet,
    ShapeMismatch,
    UnboundedSet,
)

DEFAULT_BASIS_BUDGET = 10**6
DEFAULT_PAIRWISE_BUDGET = 4096


def _as_matrix(M, dim, name):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return np.zeros((0, dim))
    if M.shape[1] != dim:
        raise ShapeMismatch(f"{name} has {M.shape[1]} columns, expected {dim}")
    return np.ascontiguousarray(M)


def _as_vector(v, rows, name):
    v = np.atleast_1d(np.asarray(v, dtype=float)).ravel()
    if v.size == 0:
        return np.zeros(0)
    if v.shape[0] != rows:
        raise ShapeMismatch(f"{name} has {v.shape[0]} entries, expected {rows}")
    return np.ascontiguousarray(v)


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
        returns them directly after validation.  An empty list counts as
        none and is stored as ``None``.
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
    def eq_reduction(self) -> tuple[list[int], np.ndarray]:
        """``(eq_idx, base_q)``: greedy independent rows of ``A`` and an
        orthonormal basis of their span, computed once per spec."""
        return _extend_basis(np.zeros((0, self.dim)), self.A, range(self.n_eq))

    @cached_property
    def unit_columns(self) -> np.ndarray:
        """:func:`_unit_columns` of ``G``, computed once per spec."""
        return _unit_columns(self.G)

    @cached_property
    def row_norms(self) -> np.ndarray:
        """Euclidean norms of the rows of ``G``, computed once per spec."""
        return np.linalg.norm(self.G, axis=1)

    def contains(self, x, tol: float = FEAS_TOL) -> bool:
        """Membership test up to ``tol`` on both constraint blocks."""
        x = np.asarray(x, dtype=float).ravel()
        if self.n_eq and np.max(np.abs(self.A @ x - self.b)) > tol:
            return False
        if self.n_ineq and np.max(self.G @ x - self.h) > tol:
            return False
        return True

    def tight_rows(self, x, z) -> np.ndarray:
        """Inequality rows tight at ``x``, the projection of ``z`` (:func:`_tight_rows`)."""
        x = np.asarray(x, dtype=float).ravel()
        scale = float(np.linalg.norm(x)) + float(np.linalg.norm(z))
        return _tight_rows(self.h - self.G @ x, self.h, self.row_norms, scale)

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

        A vertex is flagged optimal when its cost is within
        ``OPT_TOL * (1 + |c|)`` of the minimum over all vertices.
        """
        c = np.asarray(c, dtype=float).ravel()
        vals = self.vertices @ c
        cut = vals.min() + OPT_TOL * (1.0 + np.linalg.norm(c))
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


def _dedup_rows(V: np.ndarray) -> np.ndarray:
    """Drop rows that duplicate an earlier row in the infinity norm."""
    V = _lexsorted(V)
    if V.shape[0] <= 1:
        return V
    kept = [V[0]]
    for row in V[1:]:
        K = np.asarray(kept)
        if np.min(np.max(np.abs(K - row), axis=1)) > DEDUP_TOL:
            kept.append(row)
    return np.asarray(kept)


def _tight_rows(slack, h, row_norms, scale: float) -> np.ndarray:
    """The one rule for which rows ``g_i x <= h_i`` are tight: ``slack_i <= ZERO_TOL (|h_i| +
    |g_i| scale)``, with ``scale = |x| + |z|`` for the point ``x`` and the point ``z`` projected."""
    return np.flatnonzero(slack <= ZERO_TOL * (np.abs(h) + row_norms * scale))


def _unit_columns(G: np.ndarray) -> np.ndarray:
    """Per row of ``G``: the coordinate a unit row (one nonzero) fixes, else -1."""
    col = np.argmax(np.abs(G), axis=1)
    col[np.count_nonzero(G, axis=1) != 1] = -1
    return col


def _extend_basis(base: np.ndarray, M: np.ndarray, order) -> tuple[list[int], np.ndarray]:
    """Rows of ``M``, visited in ``order``, that extend the span of ``base``.

    ``base`` holds orthonormal rows.  A row is kept when its component
    orthogonal to ``base`` and to the rows kept so far (two Gram-Schmidt
    passes) exceeds ``RANK_TOL * max(1, |row|)``, so of two dependent rows
    the earlier wins.  Returns the kept indices, as ints in visiting order,
    and ``base`` extended by one orthonormal row per kept row.
    """
    d = M.shape[1]
    r = base.shape[0]
    basis = np.empty((min(d, r + len(order)), d))
    basis[:r] = base
    kept: list[int] = []
    for j in order:
        if r == d:
            break
        g = M[j]
        Qb = basis[:r]
        res = g - Qb.T @ (Qb @ g)
        res -= Qb.T @ (Qb @ res)  # second pass keeps the basis orthonormal
        nr = float(np.linalg.norm(res))
        if nr > RANK_TOL * max(1.0, float(np.linalg.norm(g))):
            basis[r] = res / nr
            r += 1
            kept.append(int(j))
    return kept, basis[:r]


def _find_feasible_point(spec: PolytopeSpec) -> np.ndarray:
    """A feasible point, from the spec hint, a vertex, or a phase-1 LP."""
    if spec.feasible_point is not None and spec.contains(spec.feasible_point, START_TOL):
        return np.asarray(spec.feasible_point, dtype=float)
    if spec.vertices is not None:
        v = spec.vertices[0]
        if spec.contains(v, START_TOL):
            return np.asarray(v, dtype=float)
    res = linprog(
        c=np.zeros(spec.dim),
        A_ub=spec.G if spec.n_ineq else None,
        b_ub=spec.h if spec.n_ineq else None,
        A_eq=spec.A if spec.n_eq else None,
        b_eq=spec.b if spec.n_eq else None,
        bounds=[(None, None)] * spec.dim,
        method="highs",
    )
    if res.status == 2 or res.x is None:
        raise EmptyFeasibleSet("constraint system is infeasible")
    return np.asarray(res.x, dtype=float)


def _recession_ray(spec: PolytopeSpec) -> np.ndarray | None:
    """A nonzero recession direction if one exists, else None.

    With the rows of ``[A; G]`` scaled to unit length, a null vector is a
    line in the region.  Otherwise every nonzero recession direction ``d``
    has ``g_i . d < 0`` on some row, so one LP, ``max sum_i -g_i . d`` over
    ``G d <= 0``, ``A d = 0``, ``-1 <= d <= 1``, is positive exactly when
    the region is unbounded.
    """
    M = np.vstack([spec.A, spec.G])
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

    Returns the canonicalized spec (contiguous float arrays, vertices
    deduplicated and lexicographically sorted, and the feasible point the
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
        V = _dedup_rows(spec.vertices)
        ok_feas = all(spec.contains(v, 10 * FEAS_TOL) for v in V)
        ok_extreme = all(_is_extreme(spec, v) for v in V)
        vertex_consistent = bool(ok_feas and ok_extreme)
        canon = replace(canon, vertices=V)
    return ValidationReport(
        nonempty=True,
        bounded=True,
        vertex_consistent=vertex_consistent,
        spec=canon,
        feasible_point=point,
    )


def _is_extreme(spec: PolytopeSpec, v: np.ndarray) -> bool:
    """Extreme-point certificate: the rows tight at ``v`` have full rank.  ``v`` comes from
    outside the program, so a row is tight at the absolute slack ``10 FEAS_TOL``."""
    M = np.vstack([spec.A, spec.G[spec.h - spec.G @ v <= 10 * FEAS_TOL]])
    return np.linalg.matrix_rank(M, tol=EXTREME_RANK_TOL) == spec.dim


def enumerate_vertices(
    spec: PolytopeSpec,
    budget: int = DEFAULT_BASIS_BUDGET,
) -> VertexSet:
    """Enumerate all extreme points of the polytope.

    If the spec carries an explicit vertex list it is deduplicated,
    sorted, and returned.  Otherwise every candidate basis (a size-
    ``dim - rank(A)`` subset of inequality rows stacked on the equality
    rows) is solved; feasible solutions (to ``FEAS_TOL``) are vertices.
    Deterministic lexicographic output order.

    A candidate whose LU has an exact zero pivot (the sign of its
    ``slogdet``) is singular and skipped; every other one is solved.  A
    feasible solution is a vertex when its matrix passes the rank test
    ``σ_min > RANK_TOL max(σ_max, 1)``, so singular values are taken only
    of the few candidates that land in the polytope.

    Raises
    ------
    BudgetExceeded
        If the number of candidate bases exceeds ``budget``.
    """
    if spec.vertices is not None:
        return VertexSet(_dedup_rows(spec.vertices))

    d = spec.dim
    eq_idx, _ = spec.eq_reduction
    A_red = spec.A[eq_idx]
    b_red = spec.b[eq_idx]
    r_eq = A_red.shape[0]
    s = d - r_eq
    k = spec.n_ineq
    if s > k:
        raise UnboundedSet(
            "fewer inequality rows than the codimension of the equality "
            "block; a nonempty region of this form has no vertices"
        )
    n_cand = math.comb(k, s)
    if n_cand > budget:
        raise BudgetExceeded(
            f"{n_cand} candidate bases exceed budget {budget}; "
            "use the homotopy path instead of vertex formulas"
        )

    found = []
    combos = itertools.combinations(range(k), s)
    chunk_size = 32768
    while True:
        chunk = list(itertools.islice(combos, chunk_size))
        if not chunk:
            break
        M = np.empty((len(chunk), d, d))
        rhs = np.empty((len(chunk), d))
        M[:, :r_eq, :] = A_red
        rhs[:, :r_eq] = b_red
        if s:
            flat = itertools.chain.from_iterable(chunk)
            sel = np.fromiter(flat, np.intp, count=len(chunk) * s).reshape(-1, s)
            M[:, r_eq:, :] = spec.G[sel]
            rhs[:, r_eq:] = spec.h[sel]
        ok = np.linalg.slogdet(M)[0] != 0  # a batched solve raises on a zero pivot
        M = M[ok]
        X = np.linalg.solve(M, rhs[ok][..., None])[..., 0]
        feas = np.ones(X.shape[0], dtype=bool)
        if spec.n_ineq:
            feas &= np.max(X @ spec.G.T - spec.h, axis=1) <= FEAS_TOL
        if spec.n_eq:
            feas &= np.max(np.abs(X @ spec.A.T - spec.b), axis=1) <= FEAS_TOL
        sv = np.linalg.svd(M[feas], compute_uv=False)
        found.append(X[feas][sv[:, -1] > RANK_TOL * np.maximum(sv[:, 0], 1.0)])
    V = np.vstack(found)
    if not V.size:
        raise EmptyFeasibleSet("no basic feasible solution found")
    return VertexSet(_dedup_rows(V))


def geometry(
    spec_or_vs: PolytopeSpec | VertexSet,
) -> tuple[float, float]:
    """Norm bound ``B`` and diameter ``D`` of the polytope.

    Both are attained at vertices; requires vertices (supplied or
    enumerable within budget).  The pairwise diameter scan is capped at
    ``DEFAULT_PAIRWISE_BUDGET`` vertices.
    """
    if isinstance(spec_or_vs, PolytopeSpec):
        vs = enumerate_vertices(spec_or_vs)
    else:
        vs = spec_or_vs
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
