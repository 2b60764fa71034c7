"""Walrasian equilibrium problems as variational inequalities over convex regions."""

from .economy import (
    ExcessDemandModel,
    Fixture,
    MortgageTerms,
    affine_rate_cap_region,
    default_catalog,
    linear_economy,
    mortgage_payment,
    mortgage_region,
    scalar_catalog,
)
from .harness import (
    HarnessConfig,
    TheoremCheckResult,
    check_lemma_2_1,
    check_lemma_2_2,
    check_theorem_4_1,
    check_theorem_4_2,
    check_theorem_4_3,
    failure_events,
    summary_table,
)
from .monotonicity import (
    CLASS_NAMES,
    MonotonicityReport,
    SamplePlan,
    build_plan,
    check_class,
    is_positive,
    replay_witness,
)
from .regions import (
    Box,
    ConvexRegion,
    Polyhedron,
    Simplex,
    project_onto_simplex,
)
from .vi_core import (
    SolutionSetEstimate,
    VIProblem,
    VISolveResult,
    enumerate_solutions,
    minty_gap,
    residual,
    solve_extragradient,
)

__version__ = "0.1.0"
