"""Default tolerances and scan parameters, and a run's settings.

A run can set the ``HarnessConfig`` fields; TAU_FEAS, DISTINCT_DIST,
TAU_PROJ, GRID_POINT_LIMIT, VERTEX_SUBSET_LIMIT and the plan limits
PLAN_POINT_LIMIT and PLAN_PAIR_LIMIT are fixed.
"""

from dataclasses import dataclass
from math import isfinite

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

# Largest grid the oracle builds: a region's grid, or the bounding-box mesh
# it is cut from, is refused above this many points (4,194,304).
GRID_POINT_LIMIT = 1 << 22

# Largest polyhedral vertex enumeration: at most this many n-row subsets
# (65,536; about 220 bytes each), counted before any is built.  A
# polyhedron with more is certified by linear programs instead, and its
# sample plans carry no vertices.
VERTEX_SUBSET_LIMIT = 1 << 16

# Largest sample plan: at most this many points, region vertices and plan
# points counted before deduplication, and a tuple scan of at most
# PLAN_PAIR_LIMIT (tuple, weight) pairs, counted before the plan is built
# and scanned.  The 64-point default catalog plans hold 68 points and scan
# about 3.3 million pairs.
PLAN_POINT_LIMIT = 1 << 10
PLAN_PAIR_LIMIT = 1 << 26

# Extragradient defaults.
DEFAULT_STEP = 0.1
DEFAULT_BUDGET = 100_000

# Quantifier discretization defaults: tuples up to size 3, 11 grid steps
# per weight axis.
DEFAULT_M_MAX = 3
DEFAULT_WEIGHT_RESOLUTION = 11
DEFAULT_SAMPLE_COUNT = 24


@dataclass(frozen=True)
class HarnessConfig:
    """A run's settings: sample plan, solver and oracle grid.

    Every command reads its settings from one of these, and its
    constructor makes every range check on them.
    """

    grid_spacing: float = 0.02
    num_points: int = DEFAULT_SAMPLE_COUNT
    tuple_size_max: int = DEFAULT_M_MAX
    weight_grid_resolution: int = DEFAULT_WEIGHT_RESOLUTION
    eps_strict: float = EPS_STRICT
    step: float = DEFAULT_STEP
    budget: int = DEFAULT_BUDGET
    tol_solve: float = TAU_SOLVE

    def __post_init__(self):
        for name in ("grid_spacing", "eps_strict", "step", "tol_solve"):
            value = getattr(self, name)
            if not (isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.num_points < 0:
            raise ValueError(f"plan points must be nonnegative: num_points is "
                             f"{self.num_points}")
        if self.num_points > PLAN_POINT_LIMIT:
            raise ValueError(f"plan points must be at most {PLAN_POINT_LIMIT}: "
                             f"num_points is {self.num_points}")
        if self.tuple_size_max < 2:
            raise ValueError(f"tuple_size_max must be >= 2, got {self.tuple_size_max}")
        if self.weight_grid_resolution < 3:
            raise ValueError(f"weight_grid_resolution must be >= 3, got "
                             f"{self.weight_grid_resolution}")
        if self.budget < 0:
            raise ValueError(f"budget must be nonnegative, got {self.budget}")
