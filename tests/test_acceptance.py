"""Acceptance criteria, one test per criterion.

Every test prints a single pass/fail line (visible with ``pytest -s`` or
``-rA``) including its wall-clock time, and asserts the runtime budget.
All randomness is seeded; all expected values come from the independent
oracles in conftest or from fixed points of the definitions.
"""

import functools
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import qmc

from conftest import (
    box_grid,
    final_balance,
    nearest_grid_point,
    simplex_lattice,
)
from walras_vi.economy import (
    Fixture,
    MortgageTerms,
    affine_rate_cap_region,
    default_catalog,
    linear_economy,
    mortgage_payment,
)
from walras_vi.harness import (
    GATED_THEOREMS,
    HarnessConfig,
    failure_events,
    run_catalog_with_evidence,
)
from walras_vi.monotonicity import build_plan, check_class, replay_witness
from walras_vi.regions import Box, Polyhedron, Simplex
from walras_vi.vi_core import (
    VIProblem,
    cluster_members,
    enumerate_solutions,
    solve_extragradient,
)

CATALOG = default_catalog()


def criterion(number, budget_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"acceptance criterion {number}: FAIL ({elapsed:.1f}s)")
                raise
            elapsed = time.perf_counter() - start
            print(f"acceptance criterion {number}: PASS "
                  f"({elapsed:.1f}s < {budget_seconds}s)")
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s budget")
        return wrapper
    return decorate


def halton_points(dim, count, lo, hi, skip=1):
    engine = qmc.Halton(d=dim, scramble=False)
    engine.fast_forward(skip)
    return lo + engine.random(count) * (hi - lo)


# ---------------------------------------------------------------------------
# 1. projection suite


@criterion(1, budget_seconds=10.0)
def test_criterion_1_projection_suite():
    regions = [
        Simplex(10),
        Box(np.linspace(0.0, 0.9, 10), np.linspace(1.0, 2.8, 10)),
        Polyhedron([[1.0, 1.0, 1.0]], [2.0], lower=np.zeros(3),
                   upper=np.ones(3)),
    ]
    for region in regions:
        n = region.dim
        pts = halton_points(n, 1000, -1.0, 3.0)
        projected = np.vstack([region.project(x) for x in pts])
        re_projected = np.vstack([region.project(y) for y in projected])
        # idempotence
        assert np.linalg.norm(projected - re_projected, axis=1).max() <= 1e-9
        # nonexpansiveness on consecutive pairs
        image_steps = np.linalg.norm(np.diff(projected, axis=0), axis=1)
        input_steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.all(image_steps <= input_steps + 1e-9)

    # simplex and box projections against the brute-force QP grid oracle
    lattice = simplex_lattice(3, 40)          # spacing 1/40 on the 2-simplex
    simplex = Simplex(3)
    for x in halton_points(3, 40, -1.0, 2.0):
        gap = np.linalg.norm(simplex.project(x) - nearest_grid_point(lattice, x))
        assert gap <= 2 * (1 / 40)
    box = Box([0.0, 0.2, 0.1], [1.0, 1.4, 0.9])
    mesh = box_grid(box.lower, box.upper, 0.05)
    for x in halton_points(3, 40, -1.0, 2.0):
        gap = np.linalg.norm(box.project(x) - nearest_grid_point(mesh, x))
        assert gap <= 2 * 0.05


# ---------------------------------------------------------------------------
# 2. solver correctness on the strictly monotone linear family


def _monotone_case(rng, n, region_kind, exterior):
    a = rng.normal(size=(n, n))
    m = a.T @ a
    m *= 1.2 / np.linalg.norm(m, 2)
    m += 0.3 * np.eye(n)          # eigenvalues within [0.3, 1.5]
    if region_kind == "box":
        # desk-scale oracle cost grows with the mesh, so 3-D boxes get
        # shorter edges; bounds land on the 0.01 oracle grid
        span = (0.2, 0.28) if n >= 3 else (0.4, 0.7)
        lo = np.round(rng.uniform(0.0, 0.3, size=n), 2)
        hi = lo + np.round(rng.uniform(*span, size=n), 2)
        region = Box(lo, hi)
        if exterior:
            target = hi + rng.uniform(0.1, 0.5, size=n)
        else:
            target = lo + rng.uniform(0.3, 0.7, size=n) * (hi - lo)
    else:
        region = Simplex(n)
        raw = rng.uniform(0.2, 1.0, size=n)
        target = raw / raw.sum()
        if exterior:
            target = target + rng.uniform(0.2, 0.6, size=n)
    model = linear_economy(m, m @ target)
    step = 0.6 / np.linalg.norm(m, 2)
    return VIProblem(model, region), m, step


def _capture_scale(problem, m, exterior):
    """Lipschitz scale that certifies grid capture of the true solution.

    Interior solutions zero the field, so the pairing at the nearest grid
    point is at most |M| * (cell radius) * diam; boundary solutions add
    the field magnitude itself.
    """
    n = problem.dim
    lo, hi = problem.region.bounding_box()
    diam = float(np.linalg.norm(hi - lo))
    scale = float(np.linalg.norm(m, 2)) * diam
    if exterior:
        scale += max(float(np.linalg.norm(problem.model(v)))
                     for v in problem.region.vertices())
    return 1.5 * (np.sqrt(n) / 2.0) * scale


@criterion(2, budget_seconds=30.0)
def test_criterion_2_solver_against_oracle():
    rng = np.random.default_rng(20260810)
    cases = [(1, "box", False), (2, "box", True), (2, "simplex", False),
             (3, "box", False), (3, "simplex", True), (2, "box", True),
             (4, "box", False), (4, "simplex", False), (5, "box", True),
             (5, "simplex", False)]
    oracle_runs = 0
    for n, kind, exterior in cases:
        problem, m, step = _monotone_case(rng, n, kind, exterior)
        result = solve_extragradient(problem, config=HarnessConfig(
            step=step, budget=100_000, tol_solve=1e-8))
        assert result.status == "converged", (n, kind, exterior)
        assert result.residual <= 1e-8
        if n <= 3:
            lip = _capture_scale(problem, m, exterior)
            estimate = enumerate_solutions(problem, 0.01, lip)
            members = estimate.stampacchia_members
            assert members.shape[0] > 0, (n, kind, exterior)
            gap = np.linalg.norm(members - result.solution, axis=1).min()
            assert gap <= 2 * 0.01, (n, kind, exterior, gap)
            oracle_runs += 1
    assert oracle_runs == 6


# ---------------------------------------------------------------------------
# 3. separation fixture


@criterion(3, budget_seconds=5.0)
def test_criterion_3_separation_fixture():
    neg = CATALOG["scalar_negslope"]
    neg_problem = VIProblem(neg.model, neg.region)
    est = enumerate_solutions(neg_problem, 0.01, neg.lipschitz)
    centroids = np.sort(cluster_members(est.stampacchia_members,
                                        0.02).centroids.ravel())
    assert centroids.shape[0] == 3
    assert_allclose(centroids, [0.0, 0.5, 1.0], atol=0.01)
    assert est.minty_members.shape[0] == 0

    plan = build_plan(neg.region)
    report = check_class("proper_quasi", neg.model, plan)
    assert report.refuted
    assert replay_witness(neg.model, report, plan) > 0

    pos = CATALOG["scalar_posslope"]
    pos_problem = VIProblem(pos.model, pos.region)
    est = enumerate_solutions(pos_problem, 0.01, pos.lipschitz)
    assert_allclose(est.stampacchia_members, [[0.5]], atol=0.01)
    minty_centroids = cluster_members(est.minty_members, 0.02).centroids
    assert minty_centroids.shape[0] == 1
    assert minty_centroids[0][0] == pytest.approx(0.5, abs=0.01)
    report = check_class("proper_quasi", pos.model, plan)
    assert not report.refuted


# ---------------------------------------------------------------------------
# 4. uniqueness under the strict classes


@criterion(4, budget_seconds=10.0)
def test_criterion_4_uniqueness_and_contrapositive():
    config = HarnessConfig()
    strict_passing = []
    for label, fixture in CATALOG.items():
        plan = build_plan(fixture.region)
        strict = (
            check_class("strict_pseudo", fixture.model, plan),
            check_class("strict_proper_quasi", fixture.model, plan),
        )
        if all(not r.refuted for r in strict):
            strict_passing.append((label, fixture))
    assert len(strict_passing) >= 5
    for label, fixture in strict_passing:
        problem = VIProblem(fixture.model, fixture.region)
        est = enumerate_solutions(problem, config.grid_spacing, fixture.lipschitz)
        link = 2 * config.grid_spacing
        members = cluster_members(est.stampacchia_members, link)
        assert len(members.clusters) == 1, label
        assert members.is_single(link), label

    # the constant field refutes strictness with an exactly-zero witness and
    # the oracle exhibits a solution face
    constant = CATALOG["constant_field"]
    plan = build_plan(constant.region)
    report = check_class("strict_proper_quasi", constant.model, plan)
    assert report.refuted
    assert_allclose(report.witness.dot_products, 0.0, atol=1e-15)
    problem = VIProblem(constant.model, constant.region)
    est = enumerate_solutions(problem, config.grid_spacing, constant.lipschitz)
    face = est.stampacchia_members
    assert np.all(face[:, 0] <= est.tolerance)
    assert face[:, 1].max() - face[:, 1].min() >= 0.9
    link = 2 * config.grid_spacing
    assert not cluster_members(face, link).is_single(link)


# ---------------------------------------------------------------------------
# 5. dual-form consistency across the catalog


@criterion(5, budget_seconds=60.0)
def test_criterion_5_dual_consistency():
    for label, fixture in CATALOG.items():
        plan = build_plan(fixture.region, HarnessConfig(
            tuple_size_max=3, weight_grid_resolution=11))
        primal = check_class("proper_quasi", fixture.model, plan)
        dual = check_class("proper_quasi_dual", fixture.model, plan)
        assert primal.verdict == dual.verdict, label


# ---------------------------------------------------------------------------
# 6. mortgage example


@criterion(6, budget_seconds=5.0)
def test_criterion_6_mortgage():
    rng = np.random.default_rng(8181)
    for _ in range(100):
        principal = float(rng.uniform(1e3, 1e6))
        periods = int(rng.integers(1, 360))
        # keep (1+r)^N <= e^18 so the balance recursion itself stays
        # representable at the 1e-6 * P comparison scale
        rate_cap = min(0.05, float(np.expm1(18.0 / periods)))
        rate = float(rng.uniform(0.0, rate_cap))
        payment = mortgage_payment(MortgageTerms(principal, periods, rate))
        balance = final_balance(principal, periods, rate, payment)
        assert abs(balance) <= 1e-6 * principal

    for rate in (1e-6, 1e-9):
        payment = mortgage_payment(MortgageTerms(1200.0, 12, rate))
        assert abs(payment - 100.0) / 100.0 <= 1e-4

    region = affine_rate_cap_region(-1.0, 1.0, [0.0, 1.0], [1.0, 2.0])
    assert region.contains(region.feasible_point(), tol=1e-9)
    verts = region.vertices()
    assert_allclose(verts, [[0.0, 1.0], [0.0, 2.0], [1.0, 2.0]], atol=1e-9)
    lo, hi = region.bounding_box()
    mesh = box_grid(lo, hi, 0.01)
    feasible = mesh[[region.contains(p, tol=1e-9) for p in mesh]]
    from scipy.spatial import ConvexHull
    oracle = feasible[ConvexHull(feasible).vertices]
    for v in verts:
        assert np.linalg.norm(oracle - v, axis=1).min() <= 0.02
    for v in oracle:
        assert np.linalg.norm(verts - v, axis=1).min() <= 0.02


# ---------------------------------------------------------------------------
# 7. harness gate


@criterion(7, budget_seconds=120.0)
def test_criterion_7_harness_gate():
    results, evidence = run_catalog_with_evidence()
    events = failure_events(results)
    assert events == [], [r.to_dict() for r in events]
    positives = {label for label, ev in evidence.items() if ev.positive}
    assert positives == {"constant_positive", "scalar_positive",
                         "simplex_positive"}
    for r in results:
        if r.theorem_id != "T4_3":
            continue
        if r.fixture_label in positives:
            assert not r.vacuous
            triple = r.details["triple"]
            assert set(triple) == {"strict_proper_quasi_holds", "unique_minty",
                                   "unique_stampacchia"}
            assert all(isinstance(v, bool) for v in triple.values())
        else:
            assert r.vacuous


# ---------------------------------------------------------------------------
# 8. a solution face: the zero field, where every grid point is a member


@criterion(8, budget_seconds=2.0)
def test_criterion_8_zero_field_solution_face():
    zero = Fixture(label="zero", model=linear_economy(np.zeros((2, 2)), np.zeros(2)),
                   region=Box([0.0, 0.0], [1.0, 1.0]), lipschitz=1.0)
    _, evidence = run_catalog_with_evidence({"zero": zero},
                                            HarnessConfig(grid_spacing=0.01))
    ev = evidence["zero"]
    for members in (ev.stampacchia, ev.minty):
        assert members.member_count == 101 * 101
        assert len(members.clusters) == 1
        assert members.diameter == np.sqrt(2.0)
