"""Exception types raised across the package."""


class QreglpError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(QreglpError):
    """Constraint blocks disagree on the ambient dimension."""


class EmptyFeasibleSet(QreglpError):
    """The constraint system has no feasible point."""


class UnboundedSet(QreglpError):
    """The feasible region has a nonzero recession direction."""


class BudgetExceeded(QreglpError):
    """An enumeration would exceed its configured work budget."""


class MaxIterationsExceeded(QreglpError):
    """Active-set iteration cap hit before convergence.

    Carries the best iterate found so far in ``best_x``.
    """

    def __init__(self, message, best_x=None):
        super().__init__(message)
        self.best_x = best_x


class MaxSegmentsExceeded(QreglpError):
    """Path tracing produced more segments than the safety cap allows."""


class NumericalBreakdown(QreglpError):
    """A linear system stayed singular after regularization, or geometry
    is inconsistent beyond repair."""


class AllVerticesOptimal(QreglpError):
    """Every vertex minimizes the linear cost; the suboptimality gap and
    the threshold formula's maximand are undefined."""


class DegeneratePath(QreglpError):
    """The path has no moving segment (threshold is zero)."""


class NonSquareCost(QreglpError):
    """Transport cost matrix is not square."""


class NonFiniteData(QreglpError):
    """Instance data (a polytope's blocks, a cost vector or matrix) hold a NaN or an infinity."""


NaNInCost = NonFiniteData  # the transport cost's error by its public name


class AssumptionViolated(QreglpError):
    """A structural precondition on the cost matrix does not hold."""
