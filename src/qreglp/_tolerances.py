"""Every threshold of the solver layers (polytope, projection, homotopy), one name per decision.

Each comment states the decision and the scale the value multiplies.  No module of the package
keeps a ``1 +`` or ``max(1, .)`` floor: every zero, sign, tie, rank and check decision scales
with its own terms (a rank test with each row's own norm), so it reads the same on scaled data.
Whether a point holds a row, or lies on it, is decided by one row rule at ``KKT_TOL`` and the
data's scale, for the solver's points and for points from outside alike.  The checking modules
keep their own constants, so a change here moves no check that judges the solver: ``analysis``
judges every check by one rule at the size of its own terms, with ``_CHECK_TOL`` for proven
inequalities and ties and ``_ROUTE_TOL`` for two computed routes to one number; ``oracle``
measures at its own sizes against ``_VERIFY_TOL``, which ``cli`` reads; ``ot`` keeps its own.
"""

OPT_TOL = 1e-9  # a vertex is LP-optimal when its cost is within this |c| |ptp(V)| of the least
RECESSION_TOL = 1e-7  # unbounded if unit-row [A; G] has sigma_min <= this or the ray LP exceeds it
# A row is independent when its residual off the span is > this |row|, working-set rows are
# when each diagonal entry |R_ii| of their QR factor is > this |row_i|, and a column is when
RANK_TOL = 1e-10  # its residual in the rows' orthonormal factor is > this (the column rule)
# A step, residual, direction, slack, rate, multiplier (as lam_i |g_i|), sign or eta step is zero
ZERO_TOL = 1e-12  # at <= this times its terms' size; rates at most that never cross, exits >= it
TIE_TOL = 1e-10  # crossings tie within this (origin + t_min), t measured from where it starts
KKT_TOL = 1e-8  # row rule: to this (|h_i| + |g_i| s), s = |x| + size; KKT residual to s + |r|
