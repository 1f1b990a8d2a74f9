"""Discrete quadratically regularized optimal transport, uniform marginals.

Couplings of two `N`-point empirical measures are doubly stochastic
matrices up to the scaling ``pi = N gamma``.  The regularized transport
problem becomes the regularized linear program over the Birkhoff polytope
with the normalized cost ``C / N``, which is the coordinate system every
routine here works in.  Threshold and slope formulas specific to this
polytope live here; the generic machinery is reused from the other
modules.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    AssumptionViolated,
    BudgetExceeded,
    NaNInCost,
    NonSquareCost,
    NumericalBreakdown,
)
from .homotopy import SolutionPath, trace_path
from .oracle import lp_solve_bruteforce, min_norm_over_M
from .polytope import PolytopeSpec, VertexSet
from .projection import QlpInstance

PERMUTATION_BUDGET = 8
HOMOTOPY_BUDGET = 32
ATTACH_VERTICES_UP_TO = 6
_SUPPORT_TOL = 1e-9


def birkhoff_polytope(n: int, attach_vertices: bool = False) -> PolytopeSpec:
    """Doubly stochastic matrices, vectorized row-major.

    Equalities are the ``n`` row sums plus ``n - 1`` column sums (the last
    column sum is implied, keeping the block full-rank); inequalities are
    entrywise nonnegativity.  The uniform matrix is recorded as a known
    feasible point.
    """
    d = n * n
    A = np.zeros((2 * n - 1, d))
    for i in range(n):
        A[i, i * n : (i + 1) * n] = 1.0
    for j in range(n - 1):
        A[n + j, j::n] = 1.0
    b = np.ones(2 * n - 1)
    vertices = permutation_matrices(n).reshape(math.factorial(n), d) if attach_vertices else None
    return PolytopeSpec(
        dim=d,
        A=A,
        b=b,
        G=-np.eye(d),
        h=np.zeros(d),
        vertices=vertices,
        feasible_point=np.full(d, 1.0 / n),
    )


@lru_cache(maxsize=16)
def _permutation_matrices_cached(n: int) -> np.ndarray:
    perms = list(itertools.permutations(range(n)))
    P = np.zeros((len(perms), n, n))
    for k, sigma in enumerate(perms):
        P[k, np.arange(n), sigma] = 1.0
    P.setflags(write=False)
    return P


def permutation_matrices(n: int, budget: int = PERMUTATION_BUDGET) -> np.ndarray:
    """All ``n!`` permutation matrices, lexicographic in the permutation."""
    if n > budget:
        raise BudgetExceeded(f"{n}! permutation matrices exceed budget n <= {budget}")
    return _permutation_matrices_cached(n)


@dataclass(frozen=True)
class OtInstance:
    """Square cost matrix plus its Birkhoff-polytope embedding.

    ``scaled_cost`` is the normalized matrix ``cost / n`` used as the
    linear cost over doubly stochastic matrices; ``points`` optionally
    records the clouds the cost was derived from.
    """

    n: int
    cost: np.ndarray
    polytope: PolytopeSpec
    points: tuple[np.ndarray, np.ndarray] | None = None
    kind: str = "custom-matrix"

    @property
    def scaled_cost(self) -> np.ndarray:
        return self.cost / self.n

    def qlp(self) -> QlpInstance:
        """The regularized linear program in doubly-stochastic coordinates."""
        return QlpInstance(self.polytope, self.scaled_cost.ravel())

    def coupling_qlp(self) -> tuple[QlpInstance, float]:
        """Equivalent program in coupling coordinates.

        Returns the instance over matrices with row and column sums
        ``1/n`` together with the factor ``f = n^2`` such that solving it
        at ``eta / f`` yields the coupling whose ``n``-fold multiple is
        the doubly-stochastic solution at ``eta``.
        """
        spec = birkhoff_polytope(self.n)
        gamma_spec = PolytopeSpec(
            dim=spec.dim,
            A=spec.A,
            b=spec.b / self.n,
            G=spec.G,
            h=spec.h,
            feasible_point=np.full(spec.dim, 1.0 / self.n**2),
        )
        return QlpInstance(gamma_spec, self.cost.ravel()), float(self.n**2)


@dataclass
class CouplingView:
    """A doubly stochastic solution with its coupling-scale twin."""

    pi: np.ndarray
    support_tol: float = _SUPPORT_TOL

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=float)
        if self.pi.ndim == 1:
            n = int(round(math.sqrt(self.pi.size)))
            self.pi = self.pi.reshape(n, n)

    @property
    def n(self) -> int:
        return self.pi.shape[0]

    @property
    def gamma(self) -> np.ndarray:
        return self.pi / self.n

    @property
    def support(self) -> list[tuple[int, int]]:
        cut = self.support_tol * self.n
        ii, jj = np.nonzero(self.pi > cut)
        return list(zip(ii.tolist(), jj.tolist()))

    def marginal_error(self) -> float:
        g = self.gamma
        target = 1.0 / self.n
        return float(
            max(
                np.max(np.abs(g.sum(axis=1) - target)),
                np.max(np.abs(g.sum(axis=0) - target)),
            )
        )


def build(
    cost=None,
    points=None,
    kind: str | None = None,
    attach_vertices_up_to: int = ATTACH_VERTICES_UP_TO,
) -> OtInstance:
    """Make an instance from a cost matrix or from point clouds.

    ``kind`` is ``"custom-matrix"`` (with ``cost``) or ``"sqeuclidean"``
    (with ``points = (x, y)`` of equal length; entries become squared
    distances).  Permutation vertices are attached to the polytope for
    sizes up to ``attach_vertices_up_to``.
    """
    if points is not None:
        x, y = points
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if y.ndim == 1:
            y = y[:, None]
        if x.shape[0] != y.shape[0]:
            raise NonSquareCost("point clouds must have equal size")
        if kind is None:
            kind = "sqeuclidean"
        if kind != "sqeuclidean":
            raise ValueError(f"unknown cost kind {kind!r}")
        diff = x[:, None, :] - y[None, :, :]
        C = np.einsum("ijk,ijk->ij", diff, diff)
        pts = (x, y)
    elif cost is not None:
        C = np.asarray(cost, dtype=float)
        kind = kind or "custom-matrix"
        pts = None
    else:
        raise ValueError("need either cost or points")
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise NonSquareCost(f"cost has shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise NaNInCost("cost contains NaN or infinity")
    n = C.shape[0]
    spec = birkhoff_polytope(n, attach_vertices=(n <= attach_vertices_up_to))
    return OtInstance(n=n, cost=np.ascontiguousarray(C), polytope=spec, points=pts, kind=kind)


def from_json_dict(data: dict) -> OtInstance:
    """Instance from ``{"cost": [[...]]}`` or ``{"x", "y", "kind"}``."""
    if "cost" in data:
        return build(cost=data["cost"])
    if "x" in data and "y" in data:
        return build(points=(data["x"], data["y"]), kind=data.get("kind", "sqeuclidean"))
    raise ValueError("transport input needs 'cost' or 'x'/'y' keys")


def ot_eta_star(inst: OtInstance, budget: int = PERMUTATION_BUDGET) -> float:
    """Exact stationarity threshold by permutation enumeration.

    Evaluates ``2 n max <pi*, pi* - P> / <C, P - pi*>`` over non-optimal
    permutation matrices ``P``; zero when every permutation is optimal.
    Beyond the enumeration budget the separated-cost shortcut is tried:
    when the optimal matching has zero cost, every other pairing is
    strictly positive, and the cost is symmetric, the threshold has a
    closed form without enumeration.
    """
    n = inst.n
    if n == 1:
        return 0.0
    if n > budget:
        return _eta_star_separated_fallback(inst)
    P = permutation_matrices(n, budget).reshape(-1, n * n)
    vs = VertexSet(P)
    _, opt_idx = lp_solve_bruteforce(vs, inst.scaled_cost.ravel())
    if len(opt_idx) == len(P):
        return 0.0
    pi_star = min_norm_over_M(P[opt_idx])
    mask = np.ones(len(P), dtype=bool)
    mask[opt_idx] = False
    V = P[mask]
    num = (pi_star - V) @ pi_star
    den = (V - pi_star) @ inst.cost.ravel()
    return max(float(2.0 * n * np.max(num / den)), 0.0)


def _eta_star_separated_fallback(inst: OtInstance) -> float:
    """Closed-form threshold for separated symmetric costs, any size."""
    from scipy.optimize import linear_sum_assignment

    sigma = linear_sum_assignment(inst.cost)[1]
    try:
        sb = separated_bounds(inst, sigma)
    except AssumptionViolated as exc:
        raise BudgetExceeded(
            f"{inst.n}! permutations exceed the enumeration budget and the "
            "cost lacks separated structure"
        ) from exc
    if sb.exact is None:
        raise BudgetExceeded(
            f"{inst.n}! permutations exceed the enumeration budget and the "
            "separated cost is asymmetric (only bounds are available)"
        )
    return sb.exact


@dataclass
class SeparatedBounds:
    """Threshold bounds for costs vanishing along a perfect matching."""

    lower: float
    upper: float
    kappa: float
    kappa_prime: float
    symmetric: bool

    @property
    def exact(self) -> float | None:
        return self.upper if self.symmetric else None


def separated_bounds(inst: OtInstance, sigma_star) -> SeparatedBounds:
    """Bounds ``4n/kappa' <= eta* <= 2n/kappa`` for separated costs.

    ``sigma_star`` is the matching with zero cost: ``cost[i, sigma[i]] = 0``
    for all ``i`` and every off-matching entry positive.  The columns are
    relabeled so the matching is the diagonal; ``kappa`` is the smallest
    off-diagonal entry and ``kappa'`` the smallest symmetrized pair sum.
    For a symmetric (relabeled) cost the two bounds coincide and the upper
    value is exact.

    Raises
    ------
    AssumptionViolated
        If the matching cost is not zero or some off-matching entry is
        not positive.
    """
    sigma = np.asarray(sigma_star, dtype=int).ravel()
    n = inst.n
    if sigma.size != n or sorted(sigma.tolist()) != list(range(n)):
        raise AssumptionViolated("sigma_star is not a permutation")
    C = inst.cost[:, sigma]
    scale = 1.0 + float(np.max(np.abs(C)))
    if np.max(np.abs(np.diag(C))) > 1e-12 * scale:
        raise AssumptionViolated("cost along the matching is not zero")
    off = ~np.eye(n, dtype=bool)
    if n == 1:
        raise AssumptionViolated("no off-matching entries for n = 1")
    kappa = float(np.min(C[off]))
    if kappa <= 0.0:
        raise AssumptionViolated("off-matching costs must be positive")
    sym_sum = C + C.T
    kappa_prime = float(np.min(sym_sum[off]))
    symmetric = bool(np.max(np.abs(C - C.T)) <= 1e-12 * scale)
    return SeparatedBounds(
        lower=4.0 * n / kappa_prime,
        upper=2.0 * n / kappa,
        kappa=kappa,
        kappa_prime=kappa_prime,
        symmetric=symmetric,
    )


def ot_slope_bound(inst: OtInstance) -> float:
    """Half the variance of the cost entries under the product measure.

    This is the centered version of the generic half-squared-norm slope
    bound; shifting the cost by a constant does not change the optimizer,
    so the mean can always be removed first.
    """
    C = inst.cost
    return 0.5 * float(np.mean(C * C) - np.mean(C) ** 2)


def quad_cost_instance(n: int) -> OtInstance:
    """Scalar grid points ``i/n`` with squared-distance cost.

    The entries are assembled as integer squared differences over
    ``n**2`` so each is a single correctly rounded rational; squaring
    point differences first would lose that exactness.
    """
    idx = np.arange(1, n + 1)
    C = np.subtract.outer(idx, idx).astype(float) ** 2 / n**2
    inst = build(cost=C, kind="sqeuclidean")
    pts = idx / n
    return OtInstance(
        n=n, cost=inst.cost, polytope=inst.polytope, points=(pts[:, None], pts[:, None]),
        kind="sqeuclidean",
    )


@dataclass
class ExperimentRow:
    """One size of the slope-versus-bound experiment."""

    n: int
    slope: float | None
    bound: float
    ratio: float | None
    skipped: bool = False

    def csv_values(self):
        if self.skipped:
            return [self.n, "skipped", self.bound, "skipped"]
        return [self.n, self.slope, self.bound, self.ratio]


def figure3_experiment(
    n_values,
    grid: int = 4,
    homotopy_budget: int = HOMOTOPY_BUDGET,
) -> list[ExperimentRow]:
    """Final-segment slope of the quadratic-cost family versus its bound.

    For each size the full path of the ``i/n`` grid instance is traced
    and the last-segment slope ``L_n`` is read off the exact endpoints
    (never from finite differences).  The bound is ``(n-1)/n^6``; the
    reported ratio ``bound / L_n`` should never drop below one.  Sizes
    beyond the homotopy budget yield a skipped row.  ``grid`` solves inside
    the final segment double-check its linearity; each starts from the
    segment's left breakpoint and its tight rows, steps to its own ``eta``
    and is KKT-certified.
    """
    from .analysis import slope_report
    from .projection import solve_qlp

    rows = []
    for n in n_values:
        n = int(n)
        bound = (n - 1) / n**6
        if n > homotopy_budget:
            rows.append(ExperimentRow(n=n, slope=None, bound=bound, ratio=None, skipped=True))
            continue
        inst = quad_cost_instance(n)
        qlp = inst.qlp()
        path = trace_path(qlp)
        rep = slope_report(path, qlp.c)
        lo, hi = path.breakpoints[-2], path.breakpoints[-1]
        x_lo, rows_lo = path.endpoints[-2], path.segment_active_sets[-1]
        for t in np.linspace(0.2, 0.8, grid):
            eta = float((1.0 - t) * lo + t * hi)
            x = solve_qlp(qlp, eta, start=x_lo, working_set=rows_lo).x
            if np.max(np.abs(x - path.interpolate(eta))) > 1e-6 * (1.0 + np.linalg.norm(x)):
                raise NumericalBreakdown(f"last segment not affine at n={n}, eta={eta}")
        rows.append(
            ExperimentRow(n=n, slope=rep.slope, bound=bound, ratio=bound / rep.slope)
        )
    return rows


def trace_ot_path(inst: OtInstance, homotopy_budget: int = HOMOTOPY_BUDGET) -> SolutionPath:
    """Path of the doubly-stochastic solve, guarded by the size budget."""
    if inst.n > homotopy_budget:
        raise BudgetExceeded(f"path tracing capped at n <= {homotopy_budget}")
    return trace_path(inst.qlp())
