import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    cluster_centroids,
    cluster_members_reference,
    enumerate_solutions_reference,
    extragradient_reference,
    grid_reference,
    halton_reference,
    minty_gap_reference,
    minty_members_bruteforce,
    minty_values_reference,
    minty_values_two_pass,
    set_diameter,
    single_linkage_clusters,
    stampacchia_mask_reference,
    stampacchia_members_bruteforce,
)
from walras_vi import regions, vi_core
from walras_vi.constants import TAU_PROJ, TAU_SOLVE, HarnessConfig
from walras_vi.economy import (
    ExcessDemandModel,
    default_catalog,
    linear_economy,
    scalar_catalog,
)
from walras_vi.regions import Box, Polyhedron, Simplex
from walras_vi.vi_core import (
    BUDGET_EXHAUSTED,
    CONVERGED,
    VIProblem,
    _extreme_points,
    cluster_members,
    enumerate_solutions,
    minty_gap,
    residual,
    solve_extragradient,
)

UNIT_INTERVAL = Box([0.0], [1.0])
UNIT_SQUARE = Box([0.0, 0.0], [1.0, 1.0])

NEGSLOPE = VIProblem(scalar_catalog()["negslope_half"], UNIT_INTERVAL)
POSSLOPE = VIProblem(scalar_catalog()["posslope_half"], UNIT_INTERVAL)


def catalog_problem(label):
    fixture = default_catalog()[label]
    return VIProblem(fixture.model, fixture.region), fixture


# ---------------------------------------------------------------------------
# problem validation


def test_problem_requires_matching_dimensions():
    with pytest.raises(ValueError):
        VIProblem(linear_economy(np.eye(2), [0.0, 0.0]), UNIT_INTERVAL)


def test_problem_requires_bounded_region():
    # regions are compact when built, so an unbounded one never reaches
    # VIProblem
    with pytest.raises(ValueError, match="finite"):
        Box([0.0], [np.inf])


# ---------------------------------------------------------------------------
# residual


def test_residual_zero_at_interior_zero_of_field():
    prob = VIProblem(linear_economy(np.eye(2), [0.4, 0.6]), UNIT_SQUARE)
    assert residual(prob, [0.4, 0.6]) == pytest.approx(0.0, abs=1e-14)


def test_residual_direct_arithmetic():
    assert residual(POSSLOPE, [0.0]) == pytest.approx(0.5)


def test_residual_of_solver_solution_meets_tolerance():
    result = solve_extragradient(NEGSLOPE, start=[0.3])
    assert residual(NEGSLOPE, result.solution) <= TAU_SOLVE


# ---------------------------------------------------------------------------
# extragradient solver


def test_solver_interior_zero():
    prob = VIProblem(linear_economy(np.eye(2), [0.25, 0.75]), UNIT_SQUARE)
    result = solve_extragradient(prob, start=[0.9, 0.1])
    assert result.status == CONVERGED
    assert result.residual < 1e-8
    assert_allclose(result.solution, [0.25, 0.75], atol=1e-7)


def test_solver_clamped_solution():
    prob = VIProblem(linear_economy(np.eye(2), [1.5, 0.5]), UNIT_SQUARE)
    result = solve_extragradient(prob)
    assert result.status == CONVERGED
    assert_allclose(result.solution, [1.0, 0.5], atol=1e-7)


def test_solver_scalar_interior():
    result = solve_extragradient(POSSLOPE, start=[0.1])
    assert result.status == CONVERGED
    assert result.solution[0] == pytest.approx(0.5, abs=1e-7)


def test_solver_budget_exhaustion_returns_best_iterate():
    # the constant field's solutions fill the edge x_1 = 0, so its face
    # system is singular and no crossover can end the solve early
    prob, _ = catalog_problem("constant_field")
    result = solve_extragradient(prob, start=[0.8, 0.3],
                                 config=HarnessConfig(budget=1))
    assert result.status == BUDGET_EXHAUSTED
    assert result.iterations == 1
    assert prob.region.contains(result.solution, tol=1e-9)
    assert result.trace.shape == (2,)


def test_solver_trace_records_residuals():
    prob = VIProblem(linear_economy(np.eye(2), [0.25, 0.75]), UNIT_SQUARE)
    result = solve_extragradient(prob, start=[0.9, 0.1])
    assert result.trace[0] == pytest.approx(residual(prob, [0.9, 0.1]))
    assert result.trace[-1] == pytest.approx(result.residual)
    assert result.iterations == result.trace.size - 1


def test_solver_rejects_infeasible_start():
    with pytest.raises(ValueError):
        solve_extragradient(POSSLOPE, start=[2.0])


def test_solver_start_point_independence_on_strict_fixtures():
    for label in ("linear_identity", "scalar_posslope", "scalar_positive",
                  "simplex_positive", "mortgage_linear"):
        prob, _ = catalog_problem(label)
        starts = prob.region.sample(10)
        solutions = [solve_extragradient(prob, start=s).solution for s in starts]
        for a in solutions:
            for b in solutions:
                assert np.linalg.norm(a - b) <= 10 * TAU_SOLVE, label


def test_minty_gap_signs():
    # at the dual-stationary point of an increasing field the gap is <= 0
    assert minty_gap(POSSLOPE, [0.5]) <= 1e-12
    assert minty_gap(NEGSLOPE, [0.5]) > 0.1


# The four regions of the solve benchmark.
POLY3 = Polyhedron([[1.0, 1.0, 1.0]], [2.0], lower=np.zeros(3), upper=np.ones(3))
SOLVE_SWEEP_REGIONS = {
    "simplex10": Simplex(10),
    "box10": Box(np.linspace(0.0, 0.9, 10), np.linspace(1.0, 2.8, 10)),
    "poly3": POLY3,
    "mortgage": Polyhedron([[1.0, -1.0]], [-1.0], lower=[0.0, 1.0],
                           upper=[2.0, 4.0]),
}


def _gap_problems():
    for label, fixture in default_catalog().items():
        yield label, VIProblem(fixture.model, fixture.region)
    for name, region in SOLVE_SWEEP_REGIONS.items():
        n = region.dim
        skew = np.triu(np.full((n, n), 0.3), 1)
        for k, M in enumerate((0.35 * np.eye(n), np.eye(n) + skew - skew.T,
                               -np.eye(n))):
            yield f"{name}-{k}", VIProblem(
                linear_economy(M, M @ region.feasible_point()), region)


@pytest.mark.parametrize("label, problem", list(_gap_problems()))
def test_minty_gap_matches_the_samples_first_scan(label, problem):
    # the probe rows now come vertices first; the gap is their maximum, so
    # it must not move by a bit
    region = problem.region
    for x in np.vstack([region.feasible_point()[None], region.sample(7),
                        region.probe_points(0)[:5]]):
        assert minty_gap(problem, x) == minty_gap_reference(problem, x), x


@pytest.mark.parametrize("name", ["poly3", "mortgage"])
def test_minty_gap_projects_only_the_halton_rows_not_strictly_inside(
        monkeypatch, name):
    # the probe set costs one projection per Halton row outside the region
    # or on its boundary (mortgage's first row, (1, 2), is on p1 - p2 = -1),
    # and no vertex enumeration after construction
    region = SOLVE_SWEEP_REGIONS[name]
    problem = VIProblem(linear_economy(np.eye(region.dim), np.zeros(region.dim)),
                        region)
    lo, hi = region.bounding_box()
    A, b, _ = region.constraints()
    worst = ((lo + halton_reference(64, region.dim) * (hi - lo)) @ A.T - b).max(axis=1)
    # the strictly inside rows are far inside: none is near the screen's margin
    assert not np.any((worst > -1e-6) & (worst < 0.0))
    calls = []
    real_project = Polyhedron.project

    def counting_project(self, x):
        calls.append(x)
        return real_project(self, x)

    def no_enumeration(m, k):
        raise AssertionError("vertices enumerated after construction")

    monkeypatch.setattr(Polyhedron, "project", counting_project)
    monkeypatch.setattr(regions, "_row_subsets", no_enumeration)
    gap = minty_gap(problem, region.feasible_point())
    assert len(calls) == np.count_nonzero(worst >= 0.0) > 0
    assert gap == minty_gap_reference(problem, region.feasible_point())


# Problems with boundary solutions on each region kind, as the solve
# benchmark poses them: E(p) = alpha p - alpha (s + v), v normal at s.
SOLVER_PROBLEMS = {
    "simplex": VIProblem(linear_economy(0.35 * np.eye(6), 0.35 * np.array(
        [0.55, 0.35, 0.25, -0.2, -0.2, -0.2])), Simplex(6)),
    "box": VIProblem(linear_economy(np.eye(4), [1.5, 0.2, 0.5, -0.4]),
                     Box([0.0, 0.1, 0.2, 0.0], [1.0, 1.2, 0.9, 0.5])),
    "polyhedron": VIProblem(linear_economy(np.eye(3), [1.5, 0.9, 0.7]), POLY3),
    "mortgage": catalog_problem("mortgage_linear")[0],
    "rotation": catalog_problem("rotation")[0],
}
SOLVER_CASES = [(name, None, HarnessConfig()) for name in SOLVER_PROBLEMS] + [
    ("polyhedron", [0.1, 0.9, 0.2], HarnessConfig(step=0.3)),
    ("simplex", [0.1, 0.1, 0.1, 0.1, 0.1, 0.5], HarnessConfig(tol_solve=1e-12)),
    ("box", [0.0, 1.2, 0.2, 0.5], HarnessConfig(budget=5)),       # exhausted
    ("mortgage", [0.2, 3.9], HarnessConfig(budget=17, step=0.05)),  # exhausted
]


def assert_follows_the_reference(problem, start, config, result):
    """``result`` is the two-evaluation loop's run up to its last row, which
    is either the loop's own or an accepted crossover: a point tried at
    iteration 0 or a multiple of 8, whose residual, taken as the solver
    takes an iterate's, meets ``tol_solve``.  A run with no crossover
    accepted is the loop's, bit for bit."""
    solution, trace, iterations = extragradient_reference(problem, start, config)
    k = result.iterations
    assert result.trace.size == k + 1
    assert result.trace[:-1].tobytes() == trace[:k].tobytes()
    assert result.residual == result.trace[-1]
    assert result.status == (CONVERGED if result.residual <= config.tol_solve
                             else BUDGET_EXHAUSTED)
    if (k, result.trace.tobytes(), result.solution.tobytes()) != (
            iterations, trace.tobytes(), solution.tobytes()):
        assert (k - 1) % 8 == 0 and k <= iterations
        assert result.residual <= config.tol_solve
        assert result.residual == residual(problem, result.solution)
        assert problem.region.contains(result.solution)


@pytest.mark.parametrize("name, start, config", SOLVER_CASES)
def test_solver_matches_the_two_evaluation_loop_bit_for_bit(name, start, config):
    # sharing E(x_k) between the residual and the next y-step must not move
    # one bit of the trace, the solution or the iteration count, up to the
    # crossover that ends the run
    problem = SOLVER_PROBLEMS[name]
    result = solve_extragradient(problem, start=start, config=config)
    assert_follows_the_reference(problem, start, config, result)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["simplex", "box", "polyhedron", "mortgage"]),
       seed=st.integers(0, 2**32 - 1), budget=st.integers(0, 60))
def test_solver_matches_the_reference_from_random_starts(name, seed, budget):
    problem = SOLVER_PROBLEMS[name]
    lo, hi = problem.region.bounding_box()
    start = problem.region.project(np.random.default_rng(seed).uniform(lo, hi))
    config = HarnessConfig(budget=budget)
    result = solve_extragradient(problem, start=start, config=config)
    assert_follows_the_reference(problem, start, config, result)


@pytest.mark.parametrize("name", list(SOLVER_PROBLEMS))
def test_solver_rejects_a_feasible_non_solution_from_the_face_solve(name):
    # a face solve that returns a wrong point must cost a try and nothing
    # else: the residual test turns it away and the run is the loop's
    problem = SOLVER_PROBLEMS[name]
    wrong = next(v for v in problem.region.vertices()
                 if residual(problem, v) > TAU_SOLVE)
    with mock.patch.object(vi_core, "_face_point", lambda *_: wrong.copy()):
        result = solve_extragradient(problem)
    solution, trace, iterations = extragradient_reference(problem, None,
                                                          HarnessConfig())
    assert (result.iterations, result.trace.tobytes(), result.solution.tobytes()) == (
        iterations, trace.tobytes(), solution.tobytes())


def _counting(model):
    """``model``'s field in a subclass that records every evaluation."""
    calls = []

    class Counting(ExcessDemandModel):
        def __call__(self, p):
            calls.append(np.shape(p))
            return super().__call__(p)

    return Counting(model.M, model.c, model.label), calls


@pytest.mark.parametrize("name, start, config", SOLVER_CASES + [
    ("polyhedron", [1.0, 0.6, 0.4], HarnessConfig()),   # starts at the solution
    ("box", [0.0, 1.2, 0.2, 0.5], HarnessConfig(budget=0)),
])
def test_solver_evaluates_the_field_once_per_iterate(name, start, config):
    # E(x_0), then E(y_k) and E(x_{k+1}) per step, and one E per crossover
    # point that reaches the residual test; the solver computes no minty_gap
    problem = SOLVER_PROBLEMS[name]
    model, calls = _counting(problem.model)
    points, face_point = [], vi_core._face_point

    def recording(*args):
        x = face_point(*args)
        if x is not None:
            points.append(x)
        return x

    with mock.patch.object(vi_core, "_face_point", recording):
        result = solve_extragradient(VIProblem(model, problem.region), start=start,
                                     config=config)
    steps = result.iterations - any(x is result.solution for x in points)
    assert len(calls) == 2 * steps + 1 + len(points)
    assert all(shape == (model.dim,) for shape in calls)
    assert result.iterations <= extragradient_reference(problem, start, config)[2]


def _positive_definite(draw, n):
    """A PSD symmetric part plus 0.2 I plus a skew part, scaled to spectral
    norm at most 5 so that the default step 0.1 keeps extragradient stable."""
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    B = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    K = np.triu(np.array(draw(st.lists(entries, min_size=n * n,
                                       max_size=n * n))).reshape(n, n), 1)
    M = B @ B.T + 0.2 * np.eye(n) + K - K.T
    return M / max(1.0, np.linalg.norm(M, 2) / 5.0)


@st.composite
def face_problems(draw):
    """(problem, s): a positive-definite affine field and a point s on a
    drawn face of a box, a simplex or a polyhedron, with c = M s + v for v in
    the normal cone at s, so that s is the unique equilibrium.  Multipliers
    and slacks of at least 0.1 keep the face nondegenerate."""
    n = draw(st.integers(2, 4))
    M = _positive_definite(draw, n)
    unit = st.floats(0.1, 1.0)
    kind = draw(st.sampled_from(["box", "simplex", "polyhedron"]))
    if kind == "box":
        lower = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
        upper = lower + np.array(draw(st.lists(unit, min_size=n, max_size=n)))
        side = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n,
                                      max_size=n)))
        s = np.where(side < 0, lower, np.where(side > 0, upper, 0.5 * (lower + upper)))
        v = side * np.array(draw(st.lists(unit, min_size=n, max_size=n)))
        region = Box(lower, upper)
    elif kind == "simplex":
        support = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        assume(support.any())
        weights = np.array(draw(st.lists(unit, min_size=n, max_size=n))) * support
        s = weights / weights.sum()
        mu = np.array(draw(st.lists(unit, min_size=n, max_size=n))) * ~support
        v = draw(st.floats(-1.0, 1.0)) - mu
        region = Simplex(n)
    else:
        # k random rows through s, inside a box of margin at least 0.1
        k = draw(st.integers(1, n))
        s = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
        A = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k * n,
                                   max_size=k * n))).reshape(k, n)
        assume(np.linalg.svd(A, compute_uv=False).min() >= 0.1)
        margin = np.array(draw(st.lists(unit, min_size=2 * n, max_size=2 * n)))
        v = np.array(draw(st.lists(unit, min_size=k, max_size=k))) @ A
        region = Polyhedron(A, A @ s, lower=s - margin[:n], upper=s + margin[n:])
    return VIProblem(linear_economy(M, M @ s + v), region), s


@settings(max_examples=60, deadline=None)
@given(case=face_problems())
def test_solver_finds_the_equilibrium_on_a_drawn_face(case):
    problem, s = case
    result = solve_extragradient(problem)
    assert result.status == CONVERGED
    assert np.linalg.norm(result.solution - s) <= 1e-9


# ---------------------------------------------------------------------------
# the solution-set oracle


def test_enumerate_negslope_separates_the_solution_sets():
    est = enumerate_solutions(NEGSLOPE, 0.01, 0.25)
    assert_allclose(np.sort(est.stampacchia_members.ravel()), [0.0, 0.5, 1.0])
    assert est.minty_members.shape[0] == 0


def test_enumerate_posslope_both_sets_at_half():
    est = enumerate_solutions(POSSLOPE, 0.01, 0.02)
    assert_allclose(est.stampacchia_members, [[0.5]])
    centroids = cluster_members(est.minty_members, 0.02).centroids
    assert centroids.shape[0] == 1
    assert centroids[0][0] == pytest.approx(0.5, abs=0.01)


def test_enumerate_interior_zero_identity():
    prob = VIProblem(linear_economy(np.eye(2), [0.5, 0.5]), UNIT_SQUARE)
    est = enumerate_solutions(prob, 0.02, 0.1)
    assert_allclose(est.stampacchia_members, [[0.5, 0.5]])
    assert np.linalg.norm(
        est.minty_members - np.array([0.5, 0.5]), axis=1).max() <= 0.1


def test_enumerate_guards():
    big = VIProblem(linear_economy(np.eye(4), np.zeros(4)),
                    Box(np.zeros(4), np.ones(4)))
    with pytest.raises(ValueError, match="desk-scale"):
        enumerate_solutions(big, 0.1, 1.0)
    # NaN used to give empty member sets, and inf every grid point
    for scale in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="lipschitz_scale must be positive"):
            enumerate_solutions(POSSLOPE, 0.01, scale)


def test_grid_with_no_feasible_points_raises():
    # small diamond: every bounding-box corner is infeasible and a coarse
    # mesh misses the interior entirely
    diamond = Polyhedron([[1, 1], [1, -1], [-1, 1], [-1, -1]],
                         [1.1, 0.1, 0.1, -0.9])
    with pytest.raises(ValueError, match="no feasible"):
        diamond.grid(0.16)


@pytest.mark.parametrize("label", ["linear_identity", "rotation",
                                   "scalar_negslope", "simplex_positive",
                                   "mortgage_linear"])
def test_enumerate_matches_bruteforce_oracle(label):
    # coarse double-loop scan, written from the definitions; the lipschitz
    # scale is chosen so no pairing value ties the tolerance exactly
    # (pairings on this grid are multiples of 0.01)
    prob, fixture = catalog_problem(label)
    spacing = 0.1
    est = enumerate_solutions(prob, spacing, lipschitz_scale=0.117)
    grid = est.grid_points
    tol = est.tolerance
    stamp_oracle = stampacchia_members_bruteforce(fixture.model, grid, tol)
    minty_oracle = minty_members_bruteforce(fixture.model, grid, tol)
    assert_allclose(est.stampacchia_members, stamp_oracle)
    assert_allclose(est.minty_members, minty_oracle)


CUBE_LO, CUBE_HI = np.zeros(3), np.ones(3)
POLY_FLAT_2D = Polyhedron([[1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0],
                          CUBE_LO[:2], CUBE_HI[:2])
POLY_FLAT_3D = Polyhedron([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]], [1.0, -1.0],
                          CUBE_LO, CUBE_HI)

# (region, spacings): degenerate boxes, every simplex grid the oracle
# builds, the criterion-1 polyhedron and two flat polyhedra.  All bounds
# sit on every spacing's lattice.
DEGENERATE_REGIONS = [
    pytest.param(Box([0.0, 1.0], [1.0, 1.0]), (0.1, 0.125, 0.2), id="box-flat-axis"),
    pytest.param(Box([0.0], [1.0]), (0.1, 0.125, 0.2), id="box-1d"),
    pytest.param(Box([1.0, 0.0], [1.0, 0.0]), (0.1,), id="box-point"),
    pytest.param(Simplex(1), (0.1,), id="simplex-1"),
    pytest.param(Simplex(2), (0.1, 0.125, 0.2), id="simplex-2"),
    pytest.param(Simplex(3), (0.1, 0.125, 0.2), id="simplex-3"),
    pytest.param(Polyhedron([[1.0, 1.0, 1.0]], [2.0], CUBE_LO, CUBE_HI),
                 (0.2,), id="criterion-1"),
    pytest.param(POLY_FLAT_2D, (0.1, 0.125, 0.2), id="poly-flat-2d"),
    pytest.param(POLY_FLAT_3D, (0.1, 0.2), id="poly-flat-3d"),
]


@st.composite
def quarter_fields(draw, n):
    """A linear field E(p) = M p - c with entries k/4, |k| <= 4."""
    quarters = st.integers(-4, 4).map(lambda k: k / 4)
    M = np.array(draw(st.lists(quarters, min_size=n * n, max_size=n * n)))
    c = np.array(draw(st.lists(quarters, min_size=n, max_size=n)))
    return linear_economy(M.reshape(n, n), c)


@pytest.mark.parametrize("region, spacings", DEGENERATE_REGIONS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_enumerate_matches_bruteforce_on_degenerate_grids(region, spacings, data):
    # entries k/4 keep every pairing on the lattice of spacing^2 / 4 (up
    # to rounding), and tolerance 0.117 * spacing lies off that lattice
    model = data.draw(quarter_fields(region.dim))
    spacing = data.draw(st.sampled_from(spacings))
    est = enumerate_solutions(VIProblem(model, region), spacing, 0.117)
    grid, tol = est.grid_points, est.tolerance
    assert_allclose(est.stampacchia_members,
                    stampacchia_members_bruteforce(model, grid, tol))
    assert_allclose(est.minty_members,
                    minty_members_bruteforce(model, grid, tol))
    # the candidates' minimum is the full-grid minimum, up to rounding
    evals = model(grid)
    hull = (_extreme_points(grid) @ evals.T).min(axis=0)
    full = (grid @ evals.T).min(axis=0)
    ulps = 4 * np.finfo(float).eps * (np.abs(evals) @ np.abs(grid).max(axis=0))
    assert np.all(np.abs(hull - full) <= ulps)


# The degenerate regions, the unit square and mortgage_linear, at their own
# spacings and at rounded ones; the 3-D polyhedra at coarser rounded ones,
# which keep the reference's three lexsorts of the grid short.
LATTICE_CASES = [(region, spacings + ((1 / 3, 0.07, 0.03) if region.dim == 3
                                      and isinstance(region, Polyhedron)
                                      else (0.01, 1 / 3, 0.007)))
                 for region, spacings in [p.values for p in DEGENERATE_REGIONS]
                 + [(UNIT_SQUARE, (0.02,)),
                    (default_catalog()["mortgage_linear"].region, (0.05,))]]


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(LATTICE_CASES), data=st.data())
def test_lattice_is_the_grid_with_its_axis_line_ends(case, data):
    # the mesh rows in mesh order, and the rows _extreme_points finds by
    # sorting them, in the same order
    region, spacings = case
    spacing = data.draw(st.sampled_from(spacings))
    points, hull = region.lattice(spacing)
    want = grid_reference(region, spacing)
    assert np.array_equal(points, want) and points.tobytes() == want.tobytes()
    assert hull.dtype == bool and hull.shape == (len(points),)
    assert np.array_equal(points[hull], _extreme_points(want))
    assert np.array_equal(region.grid(spacing), points)
    lattice = vi_core.GridLattice(region, spacing)
    assert np.array_equal(lattice.grid, points)
    assert np.array_equal(lattice.hull, points[hull])


def test_lattice_keeps_every_row_that_repeats_a_line_end():
    # past 2^53 a unit step rounds to 0 or 2, so the axis mesh repeats floats
    # and _extreme_points keeps both copies of each line end
    points, hull = Box([2.0 ** 53, 0.0], [2.0 ** 53 + 8, 0.5]).lattice(0.25)
    assert len(np.unique(points[:, 0])) < len(points[:, 0]) // 3
    assert np.array_equal(points[hull], _extreme_points(points))
    assert hull.sum() == 20     # ends by mesh position alone would be the 4 corners


def test_the_oracle_sorts_no_region_grid(monkeypatch):
    # _extreme_points is left to point sets that are not a region's grid
    calls = []
    monkeypatch.setattr(vi_core, "_extreme_points",
                        lambda points: calls.append(points) or _extreme_points(points))
    for fixture in default_catalog().values():
        enumerate_solutions(VIProblem(fixture.model, fixture.region), 0.05,
                            fixture.lipschitz)
    for region, spacings in [p.values for p in DEGENERATE_REGIONS]:
        enumerate_solutions(VIProblem(linear_economy(np.eye(region.dim),
                                                     np.zeros(region.dim)), region),
                            spacings[0], 0.117)
    assert calls == []


# Flat regions with a few grid points, off the dyadic lattice: their rounded
# mean lies off their line, and qhull rejected the mean-centered grid as a
# flat initial simplex.
FLAT_REGIONS = [
    pytest.param(Box([0.1, 0.0], [0.1, 0.04]), 0.02, id="box-x-0.1"),
    pytest.param(Box([0.2, 0.7], [0.3, 0.7]), 0.02, id="box-y-0.7"),
    pytest.param(Box([1.1, 0.2], [1.1, 0.5]), 0.05, id="box-x-1.1"),
    pytest.param(Box([0.2, 2.3], [0.5, 2.3]), 0.05, id="box-y-2.3"),
    pytest.param(Polyhedron([[1.0, 1.0], [-1.0, -1.0]], [0.7, -0.7],
                            [0.2, 0.0], [0.26, 2.0]), 0.05, id="segment-0.7"),
    pytest.param(Polyhedron([[1.0, 1.0], [-1.0, -1.0]], [1.1, -1.1],
                            [0.2, 0.0], [0.3, 2.0]), 0.05, id="segment-1.1"),
]


@pytest.mark.parametrize("region, spacing", FLAT_REGIONS)
def test_enumerate_and_cluster_on_flat_regions(region, spacing):
    # the scale 0.117 keeps the tolerance off the pairing values
    model = linear_economy(np.eye(2), [0.1, 0.2])
    est = enumerate_solutions(VIProblem(model, region), spacing, 0.117)
    grid, tol = est.grid_points, est.tolerance
    assert_allclose(est.stampacchia_members,
                    stampacchia_members_bruteforce(model, grid, tol))
    assert_allclose(est.minty_members, minty_members_bruteforce(model, grid, tol))
    for members in (grid, est.stampacchia_members, est.minty_members):
        _assert_matches_reference_clustering(members, 2 * spacing)


@pytest.mark.parametrize("region, spacings", DEGENERATE_REGIONS + [
    pytest.param(p.values[0], (p.values[1],), id=p.id) for p in FLAT_REGIONS])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_masks_are_minima_over_every_grid_column(region, spacings, data):
    # the Stampacchia cascade over the axis-line candidates decides as the
    # minimum over every grid column, and the Minty cascade as the two-pass
    # scan; tolerance 0.117 * spacing lies off the pairing lattice
    model = data.draw(quarter_fields(region.dim))
    spacing = data.draw(st.sampled_from(spacings))
    est = enumerate_solutions(VIProblem(model, region), spacing, 0.117)
    grid, tol = est.grid_points, est.tolerance
    evals = model(grid)
    diag = np.einsum("ij,ij->i", evals, grid)
    assert np.array_equal(est.stampacchia_mask,
                          (evals @ grid.T).min(axis=1) - diag >= -tol)
    assert np.array_equal(est.minty_mask,
                          minty_values_two_pass(grid, evals, diag, tol) >= -tol)


def test_stampacchia_members_on_a_face_qhull_dropped():
    # E = -(1, 1, 1) on criterion-1: E(p).p is least on the face
    # x1 + x2 + x3 = 2, and qhull dropped the 8 face points whose float sum
    # is 2.0000000000000004, so the minimum over its vertices was too high
    region = Polyhedron([[1.0, 1.0, 1.0]], [2.0], CUBE_LO, CUBE_HI)
    model = linear_economy(np.zeros((3, 3)), np.ones(3))
    est = enumerate_solutions(VIProblem(model, region), 0.05, 1.0)
    grid, tol = est.grid_points, est.tolerance
    evals = model(grid)
    diag = np.einsum("ij,ij->i", evals, grid)
    assert est.stampacchia_mask.sum() == est.minty_mask.sum() == 231
    assert np.array_equal(est.stampacchia_mask,
                          (evals @ grid.T).min(axis=1) - diag >= -tol)
    assert stampacchia_mask_reference(grid, evals, diag, tol).sum() == 434


# (region, spacing, grid size): sizes on both sides of the 16-, 256- and
# 4,096-column probe levels.  Below a level's size its stride is 1, so the
# later levels have no fresh column left.  Every coordinate is dyadic, so
# with entries k/4 every pairing is exact however BLAS blocks the product.
MINTY_LATTICES = [
    pytest.param(Box([1.0, 0.0], [1.0, 0.0]), 0.25, 1, id="point-1"),
    pytest.param(Simplex(2), 1.0, 2, id="simplex-2-2"),
    pytest.param(Simplex(3), 0.25, 15, id="simplex-3-15"),
    pytest.param(POLY_FLAT_3D, 0.25, 15, id="poly-flat-3d-15"),
    pytest.param(Box([0.0, 1.0], [15.0, 1.0]), 1.0, 16, id="box-flat-16"),
    pytest.param(POLY_FLAT_2D, 1 / 16, 17, id="poly-flat-2d-17"),
    pytest.param(Box([0.0, 0.0], [16.0, 14.0]), 1.0, 255, id="box-255"),
    pytest.param(Simplex(2), 1 / 256, 257, id="simplex-2-257"),
    pytest.param(Box([0.0, 0.0, 0.0], [14.0, 12.0, 20.0]), 1.0, 4095,
                 id="box-3d-4095"),
    pytest.param(Box([0.0, 0.0], [16.0, 240.0]), 1.0, 4097, id="box-4097"),
    pytest.param(Box([0.0, 0.0], [1.5625, 1.5625]), 1 / 64, 10201,
                 id="box-10201"),
]
# Grids whose coordinates round: there a BLAS product's last bit depends
# on where a column falls in the block, so the two scans may differ by
# rounding and only a value within that rounding of -tol may flip.
MINTY_ROUNDED = [
    pytest.param(Simplex(3), 1 / 89, 4095, id="simplex-3-4095"),
    pytest.param(UNIT_SQUARE, 0.01, 10201, id="square-10201"),
]


@st.composite
def lattice_fields(draw, grid):
    """Excess demands of a linear field with entries k/4 on ``grid``, and
    a tolerance that lies off the pairing lattice or ties one row's minimum.
    """
    evals = draw(quarter_fields(grid.shape[1]))(grid)
    diag = np.einsum("ij,ij->i", evals, grid)
    if draw(st.booleans()):
        i = draw(st.integers(0, grid.shape[0] - 1))
        tol = -float((diag - grid[i] @ evals.T).min())
    else:
        tol = draw(st.sampled_from([0.0117, 0.117, 1.17])) * np.abs(grid).max()
    return evals, diag, tol


@pytest.mark.parametrize("region, spacing, size", MINTY_LATTICES)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_minty_cascade_matches_two_pass(region, spacing, size, data):
    grid = region.grid(spacing)
    assert grid.shape[0] == size
    evals, diag, tol = data.draw(lattice_fields(grid))
    got = vi_core._cascade(grid, -evals, 0.0, diag, tol)
    want = minty_values_two_pass(grid, evals, diag, tol)
    members = want >= -tol
    assert np.array_equal(got >= -tol, members)
    assert np.array_equal(got[members], want[members])


@pytest.mark.parametrize("region, spacing, size", MINTY_ROUNDED)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_minty_cascade_matches_two_pass_up_to_rounding(region, spacing, size,
                                                      data):
    grid = region.grid(spacing)
    assert grid.shape[0] == size
    evals, diag, tol = data.draw(lattice_fields(grid))
    got = vi_core._cascade(grid, -evals, 0.0, diag, tol)
    want = minty_values_two_pass(grid, evals, diag, tol)
    ulps = 4 * np.finfo(float).eps * (
        np.abs(diag).max() + np.abs(grid).max(axis=0) @ np.abs(evals).max(axis=0))
    far = np.abs(want + tol) > ulps
    assert np.array_equal((got >= -tol)[far], (want >= -tol)[far])
    members = (got >= -tol) | (want >= -tol)
    assert np.all(np.abs(got[members] - want[members]) <= ulps)


@pytest.mark.parametrize("region, spacing, size", MINTY_LATTICES + MINTY_ROUNDED)
def test_minty_cascade_zero_field(region, spacing, size):
    # every pairing is 0, so every row reaches the last level
    grid = region.grid(spacing)
    evals, diag = np.zeros_like(grid), np.zeros(size)
    for tol in (0.0, 0.117 * spacing):
        got = vi_core._cascade(grid, -evals, 0.0, diag, tol)
        assert np.array_equal(got, np.zeros(size))
        assert np.array_equal(got, minty_values_two_pass(grid, evals, diag, tol))


def test_cascade_without_columns_leaves_every_row_at_inf():
    # a scan whose filter skipped every column: no column rejects a row, so
    # each keeps the empty minimum, whatever its a_i
    X = UNIT_SQUARE.grid(0.5)
    for a in (0.0, -np.arange(len(X), dtype=float)):
        got = vi_core._cascade(X, np.empty((0, 2)), a, np.empty(0), 0.0)
        assert got.tolist() == [np.inf] * len(X)


# Grids on which a small _MINTY_PAIRS gives many chunks per level, and
# chunks of one row wherever a level has more columns than that
BUFFER_GRIDS = {
    "square": UNIT_SQUARE.grid(0.02),
    "mortgage": default_catalog()["mortgage_linear"].region.grid(0.05),
    "simplex": Simplex(3).grid(1 / 40),
}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(BUFFER_GRIDS)), data=st.data(),
       pairs=st.sampled_from([1, 5, 97, 300, 4096, 1 << 15]))
def test_minty_cascade_in_one_buffer_matches_reference(name, data, pairs):
    # entries k/97 round, so the pairings round as BLAS blocks them; the
    # buffer must keep every operand and shape, and so every bit
    grid = BUFFER_GRIDS[name]
    n = grid.shape[1]
    entries = st.integers(-300, 300).map(lambda k: k / 97)
    M = np.array(data.draw(st.lists(entries, min_size=n * n, max_size=n * n)))
    c = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)))
    evals = linear_economy(M.reshape(n, n), c)(grid)
    diag = np.einsum("ij,ij->i", evals, grid)
    i = data.draw(st.integers(0, grid.shape[0] - 1))
    tol = data.draw(st.sampled_from([0.0, 0.01, 0.3,    # or tie one row's minimum
                                     -float((diag - grid[i] @ evals.T).min())]))
    with mock.patch.object(vi_core, "_MINTY_PAIRS", pairs):
        got = vi_core._cascade(grid, -evals, 0.0, diag, tol)
    want = minty_values_reference(grid, evals, diag, tol, pairs)
    assert np.array_equal(got, want)


def test_minty_cascade_holds_one_chunk_of_pairings():
    # the zero field keeps every row to the end, and the last two levels
    # pair all 10,201 rows with 4,964 fresh columns each, in row blocks of
    # at most max(_BLOCK_PAIRS, 3C) pairings in one buffer: 512 KiB
    grid = UNIT_SQUARE.grid(0.01)
    G = grid.shape[0]
    evals, diag = np.zeros_like(grid), np.zeros(G)
    tracemalloc.start()
    try:
        vals = vi_core._cascade(grid, -evals, 0.0, diag, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(vals, np.zeros(G))
    assert peak <= 1.25 * 8 * max(vi_core._BLOCK_PAIRS, 3 * G) + 128 * G


def test_oracle_peaks_a_few_mib_above_its_grid_arrays():
    # the last Minty level on mortgage_linear at 0.01 pairs 117 rows with
    # 35,668 columns, one 33 MB chunk before row blocks
    problem, fixture = catalog_problem("mortgage_linear")
    tracemalloc.start()
    try:
        G, n = problem.region.grid(0.01).shape
        grid_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        enumerate_solutions(problem, 0.01, fixture.lipschitz)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # grid, field, diagonal, values, surviving rows, fresh columns and masks
    assert peak <= grid_peak + 8 * G * (2 * n + 4) + 8 * 2 ** 20


def test_oracle_peaks_a_few_mib_above_its_grid_arrays_at_0_001():
    # 1,002,001 grid points: the hull candidates' sorts are the peak, and
    # the cell filter's O(G) arrays and blocked bounds stay below it
    problem, fixture = catalog_problem("linear_identity")
    tracemalloc.start()
    try:
        G, n = problem.region.grid(0.001).shape
        grid_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        enumerate_solutions(problem, 0.001, fixture.lipschitz)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # grid, field, diagonal, values, surviving rows, fresh columns and masks
    assert peak <= grid_peak + 8 * G * (2 * n + 4) + 8 * 2 ** 20


# ---------------------------------------------------------------------------
# the certified cell filter in front of both cascades

FILTER_BASES = [0.0, 0.375, 1e3, 12345.678, 1e5]   # coordinates up to 1e5
DYADIC = {0.125, 1 / 64}                            # spacings that pair exactly


@st.composite
def filter_problems(draw):
    """(problem, spacing, exact): a region of DEGENERATE_REGIONS at one of
    its spacings, Simplex(3) at 1/32, or a box of dim 1-3 with 0-24 steps
    per axis (0-8 in dim 3) from bases up to 1e5, whose last cells often
    hold one point; a quarter-integer field; ``exact`` when every pairing
    is exact, the grid being dyadic."""
    kind = draw(st.sampled_from(["degenerate", "simplex", "box"]))
    if kind == "degenerate":
        region, spacings = draw(st.sampled_from([p.values for p in DEGENERATE_REGIONS]))
        spacing = draw(st.sampled_from(spacings))
        exact = spacing in DYADIC
    elif kind == "simplex":
        region, spacing, exact = Simplex(3), 1 / 32, True
    else:
        n = draw(st.integers(1, 3))
        spacing = draw(st.sampled_from(sorted(DYADIC) + [0.1, 0.01]))
        base = np.array(draw(st.lists(st.sampled_from(FILTER_BASES), min_size=n,
                                      max_size=n)))
        steps = np.array(draw(st.lists(st.integers(0, 24 if n < 3 else 8),
                                       min_size=n, max_size=n)))
        region = Box(base, base + steps * spacing)
        exact = spacing in DYADIC and 12345.678 not in base
    model = draw(quarter_fields(region.dim))
    return VIProblem(model, region), spacing, exact


@settings(max_examples=300, deadline=None)
@given(case=filter_problems(), data=st.data())
@example(case=(VIProblem(linear_economy(np.eye(2), [0.5, 0.25]), UNIT_SQUARE),
               0.125, True), data=None)      # 9 x 9 points, one alone in its cell
def test_cell_filter_keeps_every_mask(case, data):
    # identical masks to the oracle before the filter: at tolerance 0.117
    # spacing, off the pairing lattice, or on a dyadic grid at a row's own
    # minimum, where that row sits exactly at -tol.  Every dropped row is
    # rejected there, and no skipped column gives a row left a value below
    # -tol in a product of another blocking.
    problem, spacing, exact = case
    lattice = vi_core.GridLattice(problem.region, spacing)
    grid, hull = lattice.grid, lattice.hull
    evals = problem.model(grid)
    diag = np.einsum("ij,ij->i", evals, grid)
    scale = 0.117
    if exact and data is not None and data.draw(st.booleans()):
        values = np.concatenate((vi_core._cascade(evals, hull, -diag, 0.0, np.inf),
                                 vi_core._cascade(grid, -evals, 0.0, diag, np.inf)))
        ties = values[values < 0]
        if ties.size:
            scale = -float(data.draw(st.sampled_from(ties))) / spacing
    got = enumerate_solutions(problem, spacing, scale)
    want = enumerate_solutions_reference(problem, spacing, scale)
    tol = want.tolerance
    assert got.tolerance == tol
    assert np.array_equal(got.grid_points, want.grid_points)
    assert np.array_equal(got.stampacchia_mask, want.stampacchia_mask)
    assert np.array_equal(got.minty_mask, want.minty_mask)
    stamp, minty, cols = vi_core._cell_filter(problem, lattice, evals, diag, tol)
    assert not want.stampacchia_mask[~stamp].any()
    assert not want.minty_mask[~minty].any()
    assert np.all(np.add(diag[~cols], grid[minty] @ -evals[~cols].T) >= -tol)


@pytest.mark.parametrize("grid", [0.02, 0.01])
@pytest.mark.parametrize("label", list(default_catalog()))
def test_cell_filter_keeps_the_catalog_masks(label, grid):
    problem, fixture = catalog_problem(label)
    got = enumerate_solutions(problem, grid, fixture.lipschitz)
    want = enumerate_solutions_reference(problem, grid, fixture.lipschitz)
    assert np.array_equal(got.stampacchia_mask, want.stampacchia_mask)
    assert np.array_equal(got.minty_mask, want.minty_mask)


@pytest.mark.parametrize("label, stamp, minty, cols", [
    ("linear_identity", 192, 512, 1856),
    ("rotation", 808, 808, 10201),      # no column cell can skip the face
    ("constant_field", 808, 808, 808),
])
def test_cell_filter_leaves_few_rows_and_columns_at_0_01(label, stamp, minty, cols):
    # of 10,201 rows and columns on the unit square
    problem, fixture = catalog_problem(label)
    lattice = vi_core.GridLattice(problem.region, 0.01)
    evals = problem.model(lattice.grid)
    diag = np.einsum("ij,ij->i", evals, lattice.grid)
    masks = vi_core._cell_filter(problem, lattice, evals, diag, 0.01 * fixture.lipschitz)
    assert [int(m.sum()) for m in masks] == [stamp, minty, cols]


def _exact_field(model, p):
    M = [[Fraction(v) for v in row] for row in model.M.tolist()]
    return [sum(m * Fraction(x) for m, x in zip(row, p)) - Fraction(ci)
            for row, ci in zip(M, model.c.tolist())]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_cell_bound_covers_every_cascade_value(n, data):
    # entries k/97 and coordinates up to 1e5 round; every pairing the two
    # cascades form, in one product and row by row, lies within B of the
    # exact pairing of the float inputs
    base = np.array(data.draw(st.lists(st.sampled_from(FILTER_BASES), min_size=n,
                                       max_size=n)))
    spacing = data.draw(st.sampled_from([0.1, 0.01, 1 / 64]))
    steps = np.array(data.draw(st.lists(st.integers(1, 4 if n < 3 else 2),
                                        min_size=n, max_size=n)))
    grid = Box(base, base + steps * spacing).grid(spacing)
    entries = st.integers(-300, 300).map(lambda k: k / 97)
    M = np.array(data.draw(st.lists(entries, min_size=n * n, max_size=n * n)))
    M = M.reshape(n, n)
    near = grid[data.draw(st.integers(0, len(grid) - 1))]   # E nearly 0 there
    c = M @ near + np.array(data.draw(st.lists(entries, min_size=n, max_size=n))) * 1e-3
    model = linear_economy(M, c)
    evals = model(grid)
    diag = np.einsum("ij,ij->i", evals, grid)
    products = (grid @ -evals.T, np.array([g @ -evals.T for g in grid]))
    minty = [np.add(diag, pairs) for pairs in products]
    stamps = (evals @ grid.T, np.array([e @ grid.T for e in evals]))
    stamp = [(pairs + 0.0) + -diag[:, None] for pairs in stamps]
    E = [_exact_field(model, p) for p in grid.tolist()]
    P = [[Fraction(x) for x in p] for p in grid.tolist()]
    G = range(len(grid))
    exact_minty = [[sum(e * (pj - pi) for e, pj, pi in zip(E[j], P[j], P[i])) for j in G]
                   for i in G]
    exact_stamp = [[sum(e * (pj - pi) for e, pj, pi in zip(E[i], P[j], P[i])) for j in G]
                   for i in G]
    reach = np.maximum(np.abs(grid.min(axis=0)), np.abs(grid.max(axis=0)))
    bound = Fraction(vi_core._cell_bound(model, reach, 0.0))
    for got, want in [(v, exact_minty) for v in minty] + [(v, exact_stamp) for v in stamp]:
        assert all(abs(Fraction(g) - w) <= bound
                   for row, wrow in zip(got.tolist(), want) for g, w in zip(row, wrow))


@pytest.mark.parametrize("upper", [1e200, 1e308])
def test_cell_filter_prunes_nothing_when_its_bound_overflows(upper):
    # F P passes 2^1000, so B is infinite and every row and column is kept,
    # computed without a floating-point error under the CLI's error state
    region = Box([0.0, 0.0], [upper, upper])
    problem = VIProblem(linear_economy(np.eye(2), np.zeros(2)), region)
    with np.errstate(over="raise", invalid="raise"):
        lattice = vi_core.GridLattice(region, upper / 4)
        evals = problem.model(lattice.grid)
        diag = np.einsum("ij,ij->i", evals, lattice.grid)
        masks = vi_core._cell_filter(problem, lattice, evals, diag, 1.0)
    assert all(m.all() for m in masks)


@pytest.mark.parametrize("pairs, sizes", [(1 << 22, {2, 3}), (1, {1})],
                         ids=["chunks-of-441", "lone-rows"])
def test_minty_cascade_leaves_no_row_alone_that_its_chunk_does_not(pairs, sizes):
    # a one-row product goes through gemv, whose last bits differ from gemm's
    # on a quarter to two fifths of the entries; the zero field keeps all
    # 441 rows through the two levels that have fresh columns
    grid = UNIT_SQUARE.grid(0.05)
    rows, matmul = [], np.matmul

    def spy(x, y, out):
        rows.append(x.shape[0])
        return matmul(x, y, out=out)

    with mock.patch.object(vi_core, "_BLOCK_PAIRS", 1), \
            mock.patch.object(vi_core, "_MINTY_PAIRS", pairs), \
            mock.patch.object(np, "matmul", spy):
        vals = vi_core._cascade(grid, np.zeros_like(grid), 0.0, np.zeros(len(grid)), 0.0)
    assert np.array_equal(vals, np.zeros(len(grid)))
    assert set(rows) == sizes and sum(rows) == 2 * len(grid)


BLOCK_BUDGETS = [1, 2, 97, 4096, 1 << 16, 1 << 22]
# Lattices with dyadic coordinates, on which quarter fields pair exactly
DYADIC_GRIDS = {
    "square": UNIT_SQUARE.grid(1 / 64),
    "simplex": Simplex(3).grid(1 / 32),
}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(DYADIC_GRIDS)), data=st.data(),
       budget=st.sampled_from(BLOCK_BUDGETS))
def test_minty_cascade_in_row_blocks_is_exact(name, data, budget):
    # every pairing is exact, so any row blocking must keep every bit of
    # the cascade in chunks of _MINTY_PAIRS pairings
    grid = DYADIC_GRIDS[name]
    evals, diag, tol = data.draw(lattice_fields(grid))
    with mock.patch.object(vi_core, "_BLOCK_PAIRS", budget):
        got = vi_core._cascade(grid, -evals, 0.0, diag, tol)
    want = minty_values_reference(grid, evals, diag, tol, vi_core._MINTY_PAIRS)
    assert np.array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(BUFFER_GRIDS)), data=st.data(),
       budget=st.sampled_from(BLOCK_BUDGETS))
def test_minty_cascade_in_row_blocks_matches_up_to_rounding(name, data, budget):
    # entries k/97 round, and a BLAS product's last bit can follow the rows
    # it is blocked with: under the SkylakeX core, on the square's last
    # level, a few 4-wide column tails of the default 28-row blocks differ
    # from the 1,802-row chunk they split
    grid = BUFFER_GRIDS[name]
    n = grid.shape[1]
    entries = st.integers(-300, 300).map(lambda k: k / 97)
    M = np.array(data.draw(st.lists(entries, min_size=n * n, max_size=n * n)))
    c = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)))
    evals = linear_economy(M.reshape(n, n), c)(grid)
    diag = np.einsum("ij,ij->i", evals, grid)
    i = data.draw(st.integers(0, grid.shape[0] - 1))
    tol = data.draw(st.sampled_from([0.0, 0.01, 0.3, 100.0,  # or tie one row's minimum
                                     -float((diag - grid[i] @ evals.T).min())]))
    with mock.patch.object(vi_core, "_BLOCK_PAIRS", budget):
        got = vi_core._cascade(grid, -evals, 0.0, diag, tol)
    want = minty_values_reference(grid, evals, diag, tol, vi_core._MINTY_PAIRS)
    ulps = 4 * np.finfo(float).eps * (
        np.abs(diag).max() + np.abs(grid).max(axis=0) @ np.abs(evals).max(axis=0))
    far = np.abs(want + tol) > ulps
    assert np.array_equal((got >= -tol)[far], (want >= -tol)[far])
    members = (got >= -tol) | (want >= -tol)
    assert np.all(np.abs(got[members] - want[members]) <= ulps)


# ---------------------------------------------------------------------------
# clustering and the uniqueness probe


def test_single_linkage_clusters():
    pts = np.array([[0.0], [0.01], [0.5], [1.0], [0.99]])
    clusters = cluster_members(pts, 0.02).clusters
    assert [sorted(c.tolist()) for c in clusters] == [[0, 1], [2], [3, 4]]
    assert cluster_members(pts, 0.02).diameter == pytest.approx(1.0)
    assert cluster_members(pts[:1], 0.02).diameter == 0.0


def _assert_matches_reference_clustering(pts, threshold):
    got = cluster_members(pts, threshold)
    want = single_linkage_clusters(pts, threshold)
    assert got.member_count == pts.shape[0]
    assert len(got.clusters) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got.clusters, want))
    assert np.array_equal(got.centroids, cluster_centroids(pts, threshold))
    assert got.diameter == set_diameter(pts)
    assert got.is_single(threshold) == (
        len(want) == 1 and set_diameter(pts) <= threshold + 1e-12)


@st.composite
def lattice_sets(draw):
    """Lattice points, with duplicated rows, at a spacing h; link at 2h.

    On the dyadic spacings every coordinate difference is exact, so two
    grid steps tie the 2h threshold exactly; the others round near it.
    """
    dim = draw(st.integers(1, 3))
    spacing = draw(st.sampled_from([0.5, 0.25, 0.125, 0.1, 0.02, 0.01, 1 / 3]))
    coords = draw(st.lists(st.tuples(*[st.integers(0, 6)] * dim), max_size=40))
    if coords:
        coords += draw(st.lists(st.sampled_from(coords), max_size=6))
    return spacing * np.array(coords, dtype=float).reshape(-1, dim), spacing


@settings(max_examples=300, deadline=None)
@given(lattice_sets())
def test_cluster_members_matches_reference(case):
    pts, spacing = case
    _assert_matches_reference_clustering(pts, 2.0 * spacing)


@pytest.mark.parametrize("pts", [np.empty((0, 2)), np.array([[0.25, 0.5]])],
                         ids=["empty", "one-point"])
def test_cluster_members_empty_and_one_point(pts):
    _assert_matches_reference_clustering(pts, 0.5)


def test_cluster_members_spans_several_pair_blocks():
    # 900 rows on a 12 x 12 lattice: 404,550 pairs, most of them duplicates
    rng = np.random.default_rng(3)
    pts = 0.25 * rng.integers(0, 12, size=(900, 2)).astype(float)
    _assert_matches_reference_clustering(pts, 0.5)


@pytest.mark.parametrize("threshold, rim", [
    (0.02, (0.012739233746429086, 0.015417909182306217)),
    (0.5, (0.3058307173369425, 0.3955598214343454)),
])
def test_cluster_members_links_to_the_last_ulp(threshold, rim):
    # the row norm of rim rounds to the threshold, yet scipy's k-d tree
    # queried at the bare threshold misses the pair (0, rim)
    inside, outside = np.nextafter(threshold, 0.0), np.nextafter(threshold, 1.0)
    cases = [([[0.0], [inside]], True), ([[0.0], [threshold]], True),
             ([[0.0], [outside]], False), ([[0.0, 0.0], rim], True),
             ([[0.3, 0.5], [0.3 + inside, 0.5]], None),
             ([[0.3, 0.5], [0.3 + outside, 0.5]], None)]
    for rows, linked in cases:
        pts = np.array(rows)
        _assert_matches_reference_clustering(pts, threshold)
        if linked is not None:
            assert (len(cluster_members(pts, threshold).clusters) == 1) == linked


def _assert_matches_kd_tree_clustering(pts, threshold):
    got = cluster_members(pts, threshold)
    want = cluster_members_reference(pts, threshold)
    assert got.member_count == want.member_count
    assert len(got.clusters) == len(want.clusters)
    assert all(np.array_equal(a, b) for a, b in zip(got.clusters, want.clusters))
    assert np.array_equal(got.centroids, want.centroids)
    assert got.diameter == want.diameter


BASES = [0.0, 0.37, 1e3, 12345.678, 1e5]   # coordinates up to 1e5
LINKS = [1e-3, 0.02, 0.5, 7.0]
# grids have dim <= 3; at dim 9 np.linalg.norm no longer sums in axis order
DIMS = st.sampled_from([1, 2, 3, 9])


@st.composite
def scattered_sets(draw):
    """Up to 40 points of dimension 1-3 or 9 about a base, on a lattice of half
    links or anywhere within 4 links, with duplicated rows."""
    dim, link = draw(DIMS), draw(st.sampled_from(LINKS))
    base = np.array(draw(st.lists(st.sampled_from(BASES), min_size=dim, max_size=dim)))
    steps = (st.integers(-6, 6).map(lambda k: k / 2) if draw(st.booleans())
             else st.floats(-4.0, 4.0))
    rows = draw(st.lists(st.tuples(*[steps] * dim), max_size=40))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=5))
    return base + link * np.array(rows, dtype=float).reshape(-1, dim), link


@st.composite
def diagonal_chains(draw):
    """Up to 2,000 points a step apart on a diagonal, some dropped, in a
    shuffled row order, linked at about one step: many label rounds."""
    dim, n = draw(st.integers(1, 3)), draw(st.integers(2, 2000))
    step = draw(st.sampled_from([1e-3, 0.01, 1 / 3]))
    base = draw(st.sampled_from(BASES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    keep = rng.permutation(n)[:n - draw(st.integers(0, 3))]
    pts = base + np.outer(keep, np.full(dim, step))
    link = float(np.sqrt(dim)) * step * draw(st.sampled_from([1.0, 1 + 1e-12, 1.5]))
    return pts, link


@st.composite
def rim_pairs(draw):
    """Two points about a base, the threshold apart along an axis or a
    diagonal, each coordinate of the offset moved by up to two ulps."""
    dim, threshold = draw(DIMS), draw(st.sampled_from(LINKS))
    base = np.full(dim, draw(st.sampled_from(BASES)))
    direction = np.eye(dim)[0] if draw(st.booleans()) else np.ones(dim)
    offset = threshold * direction / np.linalg.norm(direction)
    for a in range(dim):
        for _ in range(abs(ulps := draw(st.integers(-2, 2)))):
            offset[a] = np.nextafter(offset[a], np.sign(ulps) * np.inf)
    return np.array([base, base + offset]), threshold


@settings(max_examples=300, deadline=None)
@given(st.one_of(scattered_sets(), diagonal_chains(), rim_pairs()))
@example((np.empty((0, 2)), 0.5))
@example((np.array([[0.25, 0.5]]), 0.5))
# rows 1 and 2 link, yet cells 1e-3 (1 + 1e-9) wide put them 2 apart
@example((np.array([[-1e5], [61618.603161618594], [61618.60416161859]]), 1e-3))
# np.linalg.norm links this pair; its squares summed in axis order do not
@example((np.array([[0.0] * 9, [0.547, -0.939, 0.414, -0.252, -0.818, 0.321, 0.863,
                                -0.586, 0.26]]), 1.828595089132638))
def test_cluster_members_matches_the_kd_tree_clustering(case):
    _assert_matches_kd_tree_clustering(*case)


@pytest.mark.parametrize("y", [np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)],
                         ids=["vertical-longer", "vertical-shorter"])
def test_cluster_members_diameter_between_hull_pairs_an_ulp_apart(y):
    # |2y - 2| is one ulp of 2: the farthest pair is decided by the last bit
    pts = np.array([[1.0, 0.0], [0.0, y], [0.0, 0.0], [-1.0, 0.0], [0.0, -y]])
    got = cluster_members(pts, 0.5)
    assert got.diameter == max(2.0, 2 * y) == set_diameter(pts)
    _assert_matches_reference_clustering(pts, 0.5)


FLAT_SETS = [
    pytest.param([[0.1, 0.0], [0.1, 0.0], [0.1, 0.02]], id="duplicated-axis"),
    pytest.param([[0.1, 0.0], [0.1, 0.02], [0.1, 0.04], [0.1, 0.04], [0.1, 0.0]],
                 id="duplicated-axis-5"),
    pytest.param(np.outer([1, 2, 3, 3, 5], [0.1, 0.3]) + 0.7, id="duplicated-diagonal"),
    # the Stampacchia members of E(p) = p - (0.41, 0.59) at scale 2
    pytest.param(Simplex(2).grid(1 / 41)[16:19], id="simplex-2-members"),
    pytest.param([[0.2, 0.1, 0.3], [0.3, 0.1, 0.3], [0.2, 0.2, 0.3], [0.3, 0.2, 0.3],
                  [0.2, 0.1, 0.3]], id="coplanar-axis-3d"),
    pytest.param(Simplex(3).grid(1 / 89)[::97], id="coplanar-simplex-3d"),
    pytest.param(np.array([[0.3, 0.4, 0.3], [0.3, 0.3, 0.4], [0.4, 0.3, 0.3],
                           [0.4, 0.3, 0.3]]) * 3, id="coplanar-tilted-3d"),
]


@pytest.mark.parametrize("pts", FLAT_SETS)
def test_cluster_members_on_flat_sets(pts):
    pts = np.asarray(pts, dtype=float)
    for threshold in (0.05, 0.5):
        _assert_matches_reference_clustering(pts, threshold)


@st.composite
def offset_lattice_subsets(draw):
    """Lattice subsets of dimension 1-3, often flat, with duplicated rows.

    Coordinates are integers over a denominator, as on a simplex grid, so
    flat subsets are flat only up to rounding.
    """
    dim = draw(st.integers(1, 3))
    denominator = draw(st.sampled_from([4, 10, 50, 3, 41, 89]))
    offset = draw(st.sampled_from([0.0, 0.3, 2.5]))
    steps = st.tuples(*[st.integers(-3, 3)] * dim)
    directions = draw(st.lists(steps, min_size=1, max_size=dim))
    origin = np.array(draw(st.tuples(*[st.integers(0, 6)] * dim)))
    coefs = draw(st.lists(st.tuples(*[st.integers(0, 4)] * len(directions)),
                          min_size=1, max_size=12))
    rows = origin + np.array(coefs) @ np.array(directions)
    rows = np.vstack([rows, rows[draw(st.lists(st.integers(0, len(rows) - 1),
                                               max_size=3))]])
    return offset + rows / denominator


@settings(max_examples=300, deadline=None)
@given(offset_lattice_subsets())
def test_extreme_points_reproduce_the_diameter(pts):
    ext = _extreme_points(pts)
    assert all((pts == row).all(axis=1).any() for row in ext)
    assert np.linalg.norm(ext[:, None] - ext, axis=2).max() == set_diameter(pts)


@st.composite
def integer_point_sets(draw):
    """Small-integer point sets of dimension 1-3 with duplicated rows (one
    zero maybe negated), and integer linear functions on them."""
    dim = draw(st.integers(1, 3))
    cells = st.tuples(*[st.integers(0, 3)] * dim)
    pts = np.array(draw(st.lists(cells, min_size=1, max_size=40)), dtype=float)
    pts = np.vstack([pts, pts[draw(st.lists(st.integers(0, len(pts) - 1),
                                            max_size=5))]])
    if draw(st.booleans()):
        pts[-1] = np.where(pts[-1] == 0.0, -0.0, pts[-1])
    weights = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * dim),
                            min_size=1, max_size=8))
    return pts, np.array(weights, dtype=float)


@settings(max_examples=300, deadline=None)
@given(integer_point_sets())
def test_extreme_points_keep_every_linear_minimum(case):
    # integer arithmetic is exact, so the minima must be equal, not close
    pts, weights = case
    ext = _extreme_points(pts)
    assert all((pts == row).all(axis=1).any() for row in ext)
    assert np.array_equal((weights @ ext.T).min(axis=1),
                          (weights @ pts.T).min(axis=1))


def test_extreme_points_of_a_box_grid_are_its_corners():
    box = Box([0.0, 0.2, 1.0], [1.0, 0.5, 1.0])
    ext = _extreme_points(box.grid(0.1))
    assert np.array_equal(ext[np.lexsort(ext.T[::-1])], box.vertices())


@settings(max_examples=100, deadline=None)
@given(offset_lattice_subsets(), st.sampled_from([1, 2, 5, 64]))
def test_cluster_diameter_in_row_blocks(pts, entries):
    with mock.patch.object(vi_core, "_BLOCK_ENTRIES", entries):
        assert cluster_members(pts, 0.5).diameter == set_diameter(pts)


def test_uniqueness_probe_strictly_monotone():
    prob = VIProblem(linear_economy(np.eye(2), [0.5, 0.5]), UNIT_SQUARE)
    est = enumerate_solutions(prob, 0.02, 0.1)
    link = 2 * est.grid_spacing
    assert cluster_members(est.stampacchia_members, link).is_single(link)


def test_uniqueness_probe_negslope_three_clusters():
    est = enumerate_solutions(NEGSLOPE, 0.01, 0.25)
    link = 2 * est.grid_spacing
    assert not cluster_members(est.stampacchia_members, link).is_single(link)


def test_uniqueness_probe_constant_field_solution_face():
    prob, fixture = catalog_problem("constant_field")
    est = enumerate_solutions(prob, 0.02, fixture.lipschitz)
    members = est.stampacchia_members
    # the whole face x1 = 0 satisfies the primal condition
    assert np.all(members[:, 0] <= est.tolerance)
    assert members[:, 1].max() - members[:, 1].min() >= 0.9
    link = 2 * est.grid_spacing
    assert not cluster_members(members, link).is_single(link)


# ---------------------------------------------------------------------------
# cross-cutting invariants on the catalog


@pytest.fixture(scope="module")
def catalog_estimates():
    out = {}
    for label, fixture in default_catalog().items():
        prob = VIProblem(fixture.model, fixture.region)
        out[label] = (prob, fixture,
                      enumerate_solutions(prob, 0.02, fixture.lipschitz))
    return out


def test_solver_agrees_with_oracle_cluster(catalog_estimates):
    for label, (prob, fixture, est) in catalog_estimates.items():
        members = est.stampacchia_members
        assert members.shape[0] > 0, label
        result = solve_extragradient(prob)
        assert result.status == CONVERGED, label
        gap = np.linalg.norm(members - result.solution, axis=1).min()
        assert gap <= 2 * est.grid_spacing, label


def test_minty_members_are_stampacchia_at_relaxed_tolerance(catalog_estimates):
    # continuum containment, certified in relaxed form: a dual member can
    # sit a sqrt(tol)-halo away from the solution (unit-order field
    # slopes), where the primal pairing degrades by halo times probe reach
    for label, (prob, fixture, est) in catalog_estimates.items():
        lo, hi = prob.region.bounding_box()
        relax = 2.0 * np.sqrt(est.tolerance) * np.linalg.norm(hi - lo)
        for x in est.minty_members:
            worst = float(((est.grid_points - x) @ prob.model(x)).min())
            assert worst >= -relax, (label, x, worst)


def test_residual_soundness_two_sided(catalog_estimates):
    for label, (prob, fixture, est) in catalog_estimates.items():
        grid = est.grid_points
        evals = prob.model(grid)
        values = np.array([
            float(np.min((grid - x) @ ex)) for x, ex in zip(grid, evals)
        ])
        residuals = np.array([residual(prob, x) for x in grid])
        tight = residuals <= TAU_PROJ
        assert np.all(values[tight] >= -est.tolerance), label
        far = values < -2 * est.tolerance
        assert np.all(residuals[far] > TAU_PROJ), label
