"""Default tolerances and scan parameters.

A run can set the ``HarnessConfig`` fields and the checkers' ``tau_feas``;
DISTINCT_DIST, TAU_PROJ and the other uses of TAU_FEAS are fixed.
"""

# Feasibility tolerance: membership tests and weight-sum checks.
TAU_FEAS = 1e-10

# KKT bound for polyhedral projections: feasibility, the multipliers'
# signs and complementarity must each hold to TAU_PROJ * s, where s >= 1
# is the projection's scale (see Polyhedron.project).
TAU_PROJ = 1e-8

# Solver stopping tolerance on the natural-map residual.
TAU_SOLVE = 1e-8

# Margin that turns strict inequalities (">") into machine-checkable tests.
EPS_STRICT = 1e-9

# Points closer than this are treated as equal in distinctness filters.
DISTINCT_DIST = 10 * TAU_FEAS

# Extragradient defaults.
DEFAULT_STEP = 0.1
DEFAULT_BUDGET = 100_000

# Quantifier discretization defaults: tuples up to size 3, 11 grid steps
# per weight axis.
DEFAULT_M_MAX = 3
DEFAULT_WEIGHT_RESOLUTION = 11
DEFAULT_SAMPLE_COUNT = 24
