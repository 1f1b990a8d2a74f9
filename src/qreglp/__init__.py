"""Quadratically regularized linear programs over polytopes.

Solves ``min <c, x> + |x|^2 / eta`` over a polytope by projection, traces
the exact piecewise-affine solution path in ``eta``, evaluates the
stationarity threshold and the suboptimality bounds around it, and
specializes the machinery to quadratically regularized optimal transport
on the Birkhoff polytope.
"""

from .errors import (
    AllVerticesOptimal,
    AssumptionViolated,
    BudgetExceeded,
    DegeneratePath,
    EmptyFeasibleSet,
    MaxIterationsExceeded,
    MaxSegmentsExceeded,
    NaNInCost,
    NonFiniteData,
    NonSquareCost,
    NumericalBreakdown,
    QreglpError,
    ShapeMismatch,
    UnboundedSet,
)
from .polytope import (
    PolytopeSpec,
    ValidationReport,
    VertexSet,
    enumerate_vertices,
    geometry,
    suboptimality_gap,
    validate,
)
from .projection import (
    ProjectionResult,
    QlpInstance,
    project,
    project_sweep,
    solve_qlp,
)
from .homotopy import (
    BlockingConstraint,
    DroppingMultiplier,
    PathState,
    SolutionPath,
    Stationary,
    next_breakpoint,
    path_state,
    trace_path,
)

__all__ = [
    "AllVerticesOptimal",
    "AssumptionViolated",
    "BlockingConstraint",
    "BudgetExceeded",
    "DegeneratePath",
    "DroppingMultiplier",
    "EmptyFeasibleSet",
    "MaxIterationsExceeded",
    "MaxSegmentsExceeded",
    "NaNInCost",
    "NonFiniteData",
    "NonSquareCost",
    "NumericalBreakdown",
    "PathState",
    "PolytopeSpec",
    "ProjectionResult",
    "QlpInstance",
    "QreglpError",
    "ShapeMismatch",
    "SolutionPath",
    "Stationary",
    "UnboundedSet",
    "ValidationReport",
    "VertexSet",
    "enumerate_vertices",
    "geometry",
    "next_breakpoint",
    "path_state",
    "project",
    "project_sweep",
    "solve_qlp",
    "suboptimality_gap",
    "trace_path",
    "validate",
]

__version__ = "0.1.0"
