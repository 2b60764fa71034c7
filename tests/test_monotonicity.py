import functools
import itertools
import json
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from conftest import (REFERENCE_PAIR_CHECKERS, REFERENCE_TUPLE_CHECKERS,
                      box_grid, certified_reference, fused_tuple_scan,
                      line_filter_reference, strict_exclusions_reference)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from walras_vi import monotonicity
from walras_vi.constants import DISTINCT_DIST, EPS_STRICT, TAU_FEAS, HarnessConfig
from walras_vi.economy import default_catalog, linear_economy, scalar_catalog
from walras_vi.monotonicity import (
    CLASS_NAMES,
    SamplePlan,
    build_plan,
    check_class,
    check_tuple_classes,
    replay_witness,
)
from walras_vi.regions import Box, Polyhedron, Simplex, simplex_lattice

UNIT_INTERVAL = Box([0.0], [1.0])
UNIT_SQUARE = Box([0.0, 0.0], [1.0, 1.0])

NEGSLOPE = scalar_catalog()["negslope_half"]
POSSLOPE = scalar_catalog()["posslope_half"]
IDENTITY = linear_economy(np.eye(2), [0.5, 0.5])
CONSTANT = linear_economy(np.zeros((2, 2)), [-1.0, 0.0])


@pytest.fixture(scope="module")
def interval_plan():
    return build_plan(UNIT_INTERVAL)


@pytest.fixture(scope="module")
def square_plan():
    return build_plan(UNIT_SQUARE)


# ---------------------------------------------------------------------------
# sample plans


def test_plan_base_points_feasible_and_start_with_vertices(interval_plan):
    assert interval_plan.base_points[0] == pytest.approx(0.0)
    assert interval_plan.base_points[1] == pytest.approx(1.0)
    for p in interval_plan.base_points:
        assert UNIT_INTERVAL.contains(p, tol=TAU_FEAS)


def test_plan_validation():
    with pytest.raises(ValueError, match="^plan needs at least one base point$"):
        SamplePlan(UNIT_INTERVAL, np.empty((0, 1)))        # no points
    point = Box([0.5], [0.5])                              # a one-point region
    assert SamplePlan(point, np.array([[0.5]])).size == 1
    with pytest.raises(ValueError, match="^tuple_size_max must be >= 2"):
        HarnessConfig(tuple_size_max=1)
    with pytest.raises(ValueError, match="^eps_strict must be positive"):
        HarnessConfig(eps_strict=-1.0)
    with pytest.raises(ValueError, match="^plan base points must lie in the region$"):
        SamplePlan(UNIT_INTERVAL, np.array([[0.0], [2.0]]))  # 2.0 not in [0, 1]
    with pytest.raises(ValueError, match="^plan dimension does not match the region$"):
        SamplePlan(UNIT_SQUARE, np.array([[0.0], [1.0]]))


def test_plan_work_is_counted_before_the_plan_is_built():
    # the 64-point default plans scan about 3.3 million pairs
    base = build_plan(UNIT_SQUARE, HarnessConfig(num_points=64)).base_points
    assert len(base) == 68
    pairs = sum(comb(68, m) * comb(9 + m, m - 1) for m in (1, 2, 3))
    assert 3.3e6 < pairs < monotonicity.PLAN_PAIR_LIMIT
    with pytest.raises(ValueError, match="^the tuple scan up to 4-tuples would pair"):
        SamplePlan(UNIT_SQUARE, base, HarnessConfig(tuple_size_max=4))
    with pytest.raises(ValueError, match="^the weight grid of 2-tuples would hold"):
        SamplePlan(UNIT_INTERVAL, np.array([[0.0], [1.0]]),
                   HarnessConfig(weight_grid_resolution=(1 << 22) + 1))
    with pytest.raises(ValueError, match="^plan points must be at most 1024"):
        HarnessConfig(num_points=1025)
    small = HarnessConfig(num_points=1020, tuple_size_max=2, weight_grid_resolution=3)
    assert build_plan(UNIT_SQUARE, small).size == 1024
    with pytest.raises(ValueError, match="give 1025 plan points, more than the limit"):
        build_plan(UNIT_SQUARE, replace(small, num_points=1021))


def test_tuples_larger_than_the_plan_are_not_scanned():
    # a one-point plan has only 1-tuples, so no weight grid of a larger size
    # is built, whatever its resolution
    plan = SamplePlan(UNIT_INTERVAL, np.array([[0.5]]), HarnessConfig(
        tuple_size_max=50, weight_grid_resolution=10**6))
    assert [m for m, *_ in plan.tuple_sizes] == [1]
    reports = _tuple_reports(POSSLOPE, plan)
    assert {r.samples_used for r in reports.values()} == {1, 0}


def test_sample_plan_pretty_prints():
    # Hypothesis prints a dataclass through its init fields, and ``region``
    # is an init-only field a plan cannot read back
    from hypothesis.vendor.pretty import pretty

    text = pretty(build_plan(UNIT_SQUARE))
    assert text.startswith("SamplePlan(base_points=array(") and "config=" in text


def test_sample_plan_in_a_falsifying_example():
    # a failing property over plans reports its own assertion, not an
    # AttributeError raised while printing the example
    @settings(max_examples=1, database=None, deadline=None)
    @given(st.builds(build_plan, st.just(UNIT_SQUARE)))
    def never(plan):
        assert plan.size < 0

    with pytest.raises(AssertionError):
        never()


# ---------------------------------------------------------------------------
# pseudomonotone

_PAIR_ENTRIES = st.sampled_from([-1.0, -0.5, -0.3, 0.0, 0.25, 0.7, 1.0])


@settings(max_examples=80, deadline=None)
@given(M=st.lists(_PAIR_ENTRIES, min_size=4, max_size=4),
       c=st.lists(_PAIR_ENTRIES, min_size=2, max_size=2),
       region=st.sampled_from([UNIT_SQUARE, Simplex(2)]),
       points=st.integers(0, 12), pick=st.integers(0, 10**6))
def test_pair_checkers_match_reference_scans(M, c, region, points, pick):
    model = linear_economy(np.reshape(M, (2, 2)), c)
    plan = build_plan(region, HarnessConfig(num_points=points))
    # a threshold placed on one conclusion value E(p_j).(p_j - p_i) makes
    # the comparison's equality case decide that pair
    P = plan.base_points
    Ev = model(P)
    values = (np.einsum("ij,ij->i", Ev, P)[None, :] - (Ev @ P.T).T)[
        ~np.eye(plan.size, dtype=bool)]
    v = float(values[pick % values.size])
    cases = [(plan, TAU_FEAS)]
    if v > 0:
        strict = SamplePlan(region, P, HarnessConfig(eps_strict=v))
        cases.append((strict, TAU_FEAS))
    elif v < 0:
        cases.append((plan, -v))
    for case_plan, tau_feas in cases:
        # Hypothesis refuses function-scoped fixtures, so no monkeypatch
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(monotonicity, "TAU_FEAS", tau_feas)
            for name, reference in REFERENCE_PAIR_CHECKERS.items():
                got = check_class(name, model, case_plan)
                want = reference(model, case_plan, tau_feas=tau_feas)
                assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


def test_pseudo_holds_for_monotone_field(square_plan):
    report = check_class("pseudo", IDENTITY, square_plan)
    assert report.verdict == "holds_on_samples"
    assert report.witness is None


def test_pseudo_refuted_for_negslope(interval_plan):
    report = check_class("pseudo", NEGSLOPE, interval_plan)
    assert report.refuted
    # lexicographically first violating pair is the two interval endpoints
    assert_allclose(report.witness.points, [[0.0], [1.0]])
    assert report.witness.extra["premise"] == pytest.approx(0.5)
    assert report.witness.extra["conclusion"] == pytest.approx(-0.5)


def test_pseudo_holds_for_constant_field(square_plan):
    report = check_class("pseudo", CONSTANT, square_plan)
    assert report.verdict == "holds_on_samples"


# ---------------------------------------------------------------------------
# strictly pseudomonotone


def test_strict_pseudo_holds_for_monotone_field(square_plan):
    report = check_class("strict_pseudo", IDENTITY, square_plan)
    assert report.verdict == "holds_on_samples"


def test_strict_pseudo_constant_field_orthogonal_pair(square_plan):
    report = check_class("strict_pseudo", CONSTANT, square_plan)
    assert report.refuted
    assert_allclose(report.witness.points, [[0.0, 0.0], [0.0, 1.0]])
    assert report.witness.extra["premise"] == pytest.approx(0.0, abs=1e-15)
    assert report.witness.extra["conclusion"] == pytest.approx(0.0, abs=1e-15)


def test_strict_pseudo_holds_for_posslope(interval_plan):
    report = check_class("strict_pseudo", POSSLOPE, interval_plan)
    assert report.verdict == "holds_on_samples"


# ---------------------------------------------------------------------------
# properly quasimonotone, primal form


def test_proper_quasi_holds_for_posslope(interval_plan):
    report = check_class("proper_quasi", POSSLOPE, interval_plan)
    assert report.verdict == "holds_on_samples"


def test_proper_quasi_refuted_for_negslope(interval_plan):
    report = check_class("proper_quasi", NEGSLOPE, interval_plan)
    assert report.refuted
    w = report.witness
    assert_allclose(w.points, [[0.0], [1.0]])
    # every member pairing at the witness combination is negative
    assert np.all(w.dot_products < -TAU_FEAS)
    assert_allclose(w.combined, w.weights @ w.points)


def test_degenerate_single_point_tuple_is_satisfied():
    # m = 1 means p = p_1, so the pairing is exactly zero
    point = np.array([0.37])
    pairing = float(NEGSLOPE(point) @ (point - point))
    assert pairing == 0.0 >= -TAU_FEAS


# ---------------------------------------------------------------------------
# properly quasimonotone, dual form


def test_dual_holds_for_posslope(interval_plan):
    report = check_class("proper_quasi_dual", POSSLOPE, interval_plan)
    assert report.verdict == "holds_on_samples"


def test_dual_tuple_witness_for_posslope_endpoints():
    # for the pair (0, 1) the combination p = 0 satisfies both pairings
    pts = np.array([[0.0], [1.0]])
    evals = POSSLOPE(pts)
    p = pts[0]
    dots = np.einsum("jn,jn->j", evals, pts - p)
    assert np.all(dots >= -TAU_FEAS)


def test_dual_refuted_for_negslope(interval_plan):
    report = check_class("proper_quasi_dual", NEGSLOPE, interval_plan)
    assert report.refuted
    w = report.witness
    assert_allclose(w.points, [[0.0], [1.0]])
    for entry in w.extra["per_combination"]:
        assert entry["min_dot"] < -TAU_FEAS


def test_dual_single_point_tuple_is_satisfied():
    pts = np.array([[0.42]])
    dots = np.einsum("jn,jn->j", NEGSLOPE(pts), pts - pts[0])
    assert np.all(dots >= -TAU_FEAS)


# The rotation about the centre of the unit square is monotone (M + Mᵀ = 0),
# so properly quasimonotone, and by the KKM lemma every tuple's hull holds a
# c that pairs >= 0 with every member; the dual form, decided on the weight
# lattice only, still refutes it (ROADMAP Finding 3).
CENTRE_ROTATION = linear_economy([[0.0, 1.0], [-1.0, 0.0]], [0.5, -0.5])


def test_dual_lattice_refutes_the_monotone_centre_rotation(square_plan):
    M = CENTRE_ROTATION.M
    assert not (M + M.T).any()
    for name in ("pseudo", "proper_quasi"):
        assert not check_class(name, CENTRE_ROTATION, square_plan).refuted, name
    report = check_class("proper_quasi_dual", CENTRE_ROTATION, square_plan)
    assert report.refuted and report.margin == 0.0201388887888889
    assert report.witness.indices == (0, 1, 10)
    assert report.witness.points.tolist() == [[0.0, 0.0], [0.0, 1.0],
                                              [0.875, 5 / 9]]
    # off the lattice of tenths, the weights (31, 23, 72)/126 put c at the
    # centre, where every member pairs within 1e-17 of 0 in exact arithmetic
    P = [[Fraction(x) for x in p] for p in report.witness.points.tolist()]
    c = _exact_combination([31, 23, 72], P)
    assert all(abs(x - Fraction(1, 2)) < 1e-16 for x in c)
    for p in P:
        E = [_exact_dot(map(Fraction, row), p) - Fraction(ci)
             for row, ci in zip(M.tolist(), CENTRE_ROTATION.c.tolist())]
        assert abs(_exact_dot(E, [a - b for a, b in zip(p, c)])) < 1e-17


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the dual form is decided "
                   "on the weight lattice, so it refutes this monotone field")
def test_dual_holds_on_the_monotone_centre_rotation(square_plan):
    assert not check_class("proper_quasi_dual", CENTRE_ROTATION,
                           square_plan).refuted


# ---------------------------------------------------------------------------
# strict-properly quasimonotone


def test_strict_proper_example_values():
    # tuple (0.4, 0.6) with p = 0.5: the first pairing is already `+0.01`
    pts = np.array([[0.4], [0.6]])
    p = np.array([0.5])
    dots = np.einsum("jn,jn->j", POSSLOPE(pts), pts - p)
    assert dots[0] == pytest.approx(0.01)
    assert dots.max() > EPS_STRICT


def test_strict_proper_holds_for_posslope(interval_plan):
    report = check_class("strict_proper_quasi", POSSLOPE, interval_plan)
    assert report.verdict == "holds_on_samples"


def test_strict_proper_refuted_for_constant(square_plan):
    report = check_class("strict_proper_quasi", CONSTANT, square_plan)
    assert report.refuted
    w = report.witness
    # orthogonal segment: all pairings vanish identically
    assert_allclose(w.dot_products, 0.0, atol=1e-15)
    seg = w.points[1] - w.points[0]
    assert abs(seg @ np.array([1.0, 0.0])) <= 1e-12


def test_strict_proper_holds_for_identity(square_plan):
    report = check_class("strict_proper_quasi", IDENTITY, square_plan)
    assert report.verdict == "holds_on_samples"


def test_strict_proper_distinctness_excludes_members(interval_plan):
    report = check_class("strict_proper_quasi", NEGSLOPE, interval_plan)
    assert report.refuted
    w = report.witness
    for member in w.points:
        assert np.linalg.norm(w.combined - member) > 10 * TAU_FEAS


# ---------------------------------------------------------------------------
# cross-class invariants


@pytest.fixture(scope="module")
def catalog_reports():
    out = {}
    for label, fixture in default_catalog().items():
        plan = build_plan(fixture.region)
        out[label] = {
            name: check_class(name, fixture.model, plan)
            for name in CLASS_NAMES
        }
    return out


# The monotonicity classes each default fixture is known to satisfy.
_PSEUDO_ONLY = {"pseudo", "proper_quasi", "proper_quasi_dual"}
DECLARED_CLASSES = {
    "linear_identity": set(CLASS_NAMES),
    "constant_field": _PSEUDO_ONLY,
    "constant_positive": _PSEUDO_ONLY,
    "rotation": _PSEUDO_ONLY,
    "scalar_negslope": set(),
    "scalar_posslope": set(CLASS_NAMES),
    "scalar_positive": set(CLASS_NAMES),
    "simplex_positive": set(CLASS_NAMES),
    "mortgage_linear": set(CLASS_NAMES),
}


def test_fixture_self_consistency(catalog_reports):
    assert sorted(DECLARED_CLASSES) == sorted(default_catalog())
    for label, declared in DECLARED_CLASSES.items():
        for name, report in catalog_reports[label].items():
            expected = "holds_on_samples" if name in declared else "refuted"
            assert report.verdict == expected, (label, name)


def test_hierarchy_consistency(catalog_reports):
    for label, reports in catalog_reports.items():
        if reports["pseudo"].refuted:
            assert reports["strict_pseudo"].refuted, label
        if reports["proper_quasi"].refuted:
            assert reports["strict_proper_quasi"].refuted, label


def test_dual_agrees_with_primal(catalog_reports):
    for label, reports in catalog_reports.items():
        assert (reports["proper_quasi"].verdict
                == reports["proper_quasi_dual"].verdict), label


def test_witness_replay(catalog_reports):
    cases = [(label, fixture.model, build_plan(fixture.region), catalog_reports[label])
             for label, fixture in default_catalog().items()]
    # the strict classes replay at the plan's eps_strict, not the default
    identity = default_catalog()["linear_identity"]
    plan = build_plan(identity.region, HarnessConfig(eps_strict=0.05))
    reports = {name: check_class(name, identity.model, plan) for name in CLASS_NAMES}
    assert reports["strict_pseudo"].refuted and reports["strict_proper_quasi"].refuted
    cases.append(("linear_identity eps_strict=0.05", identity.model, plan, reports))
    for label, model, plan, reports in cases:
        for name, report in reports.items():
            if not report.refuted:
                continue
            margin = replay_witness(model, report, plan)
            assert margin >= report.margin - 1e-12, (label, name)
            assert margin > 0, (label, name)


def test_reports_are_deterministic():
    fixture = default_catalog()["scalar_negslope"]
    dumps = []
    for _ in range(2):
        plan = build_plan(fixture.region)
        reports = [check_class(name, fixture.model, plan)
                   for name in CLASS_NAMES]
        dumps.append(json.dumps([r.to_dict() for r in reports], sort_keys=True))
    assert dumps[0] == dumps[1]


def test_unknown_class_name_rejected(interval_plan):
    with pytest.raises(ValueError, match="unknown monotonicity class"):
        check_class("frobnicate", NEGSLOPE, interval_plan)


def test_simplex_rotation_is_strictly_pseudomonotone_on_segment():
    # restricted to the price simplex the rotation field pairs like t - s
    rotation = linear_economy([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0])
    simplex = Simplex(2)
    plan = build_plan(simplex)
    report = check_class("strict_pseudo", rotation, plan)
    assert report.verdict == "holds_on_samples"


# ---------------------------------------------------------------------------
# the shared tuple scan against the per-class reference scans


def _same_reports(fused, reference) -> bool:
    return json.dumps(fused.to_dict()) == json.dumps(reference.to_dict())


def _tuple_reports(model, plan) -> dict:
    """The three combination classes' reports in the reference order: the
    two primal ones from the shared scan, the dual from ``check_class``."""
    shared = check_tuple_classes(model, plan)
    assert list(shared) == ["proper_quasi", "strict_proper_quasi"]
    return {name: shared[name] if name in shared else check_class(name, model, plan)
            for name in REFERENCE_TUPLE_CHECKERS}


# Plan coordinates are multiples of 1/8, so combinations with dyadic
# weights land exactly on other points, tuple members included.
SCAN_REGIONS = {
    "interval": Box([0.25], [1.5]),
    "box": Box([0.0, 0.5], [1.0, 1.5]),
    "box3": Box(np.zeros(3), np.ones(3)),
    "simplex2": Simplex(2),
    "simplex3": Simplex(3),
    "polyhedron": Polyhedron([[1.0, 1.0]], [1.5], lower=np.zeros(2),
                             upper=np.ones(2)),
}
SCAN_LATTICES = {
    name: (lambda g: g[region.contains_many(g, tol=0.0)])(
        box_grid([-1.0] * region.dim, [1.5] * region.dim, 0.125))
    for name, region in SCAN_REGIONS.items()
}
ENTRIES = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])


@st.composite
def tuple_scan_cases(draw):
    name = draw(st.sampled_from(sorted(SCAN_REGIONS)))
    region, lattice = SCAN_REGIONS[name], SCAN_LATTICES[name]
    n = region.dim
    if n == 1:
        # both ends and the midpoint: (1/4, 1/2, 1/4) combines onto a member
        head = [0, len(lattice) - 1, (len(lattice) - 1) // 2]
        rest = draw(st.lists(st.integers(1, len(lattice) - 2), max_size=4,
                             unique=True).filter(lambda r: head[2] not in r))
        rows = head + rest
    else:
        rows = draw(st.lists(st.integers(0, len(lattice) - 1), min_size=2,
                             max_size=7, unique=True))
    if draw(st.booleans()):
        M = draw(st.sampled_from([0.5, 1.0])) * np.eye(n)     # monotone: holds
    else:
        M = np.array(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n)))
    c = draw(st.lists(ENTRIES, min_size=n, max_size=n))
    config = HarnessConfig(tuple_size_max=draw(st.integers(2, 4)),
                           weight_grid_resolution=draw(st.integers(3, 11)))
    return linear_economy(M.reshape(n, n), c), region, lattice[rows], config


@settings(max_examples=150, deadline=None)
@given(tuple_scan_cases())
# a triple whose witness pairing einsum sums out of k order: margin
# 0.024999999900000132 against the scan's 0.02499999989999991
@example(case=(linear_economy([[-0.5, 1.0, -1.0], [0.5, 1.0, -1.0], [0.5, -0.5, 0.0]],
                              [1.0, -1.0, 0.5]),
               SCAN_REGIONS["box3"],
               np.array([[0.0, 1.0, 0.5], [0.375, 0.875, 0.0], [1.0, 1.0, 0.0]]),
               HarnessConfig(weight_grid_resolution=6)))
def test_shared_tuple_scan_matches_reference_byte_for_byte(case):
    model, region, base, config = case
    plan = SamplePlan(region, base, config)
    fused = _tuple_reports(model, plan)
    for name, reference in REFERENCE_TUPLE_CHECKERS.items():
        try:
            expected = reference(model, plan)
        except ValueError:
            # the reference fails on a tuple size with no interior weights
            assert name != "proper_quasi_dual"
            assert (plan.config.weight_grid_resolution - 1
                    < plan.config.tuple_size_max)
            continue
        assert _same_reports(fused[name], expected), name


def test_distinctness_excludes_exact_collinear_coincidences():
    # (0, 1, 1/2) with weights (1/4, 1/4, 1/2) combines exactly onto 1/2
    plan = SamplePlan(UNIT_INTERVAL, np.array([[0.0], [1.0], [0.5]]),
                      HarnessConfig(tuple_size_max=3, weight_grid_resolution=5))
    fused = _tuple_reports(NEGSLOPE, plan)
    combinations = fused["proper_quasi"].samples_used - plan.size  # m >= 2
    assert fused["strict_proper_quasi"].samples_used < combinations
    for name, reference in REFERENCE_TUPLE_CHECKERS.items():
        assert _same_reports(fused[name], reference(NEGSLOPE, plan))


def test_tuple_sizes_without_interior_weights_add_no_samples():
    # steps of 1/2 leave 3-tuples no interior weights; the dual class
    # still scans their boundary combinations
    plan = SamplePlan(UNIT_INTERVAL, np.array([[0.0], [1.0], [0.5]]),
                      HarnessConfig(tuple_size_max=3, weight_grid_resolution=3))
    fused = _tuple_reports(POSSLOPE, plan)
    assert fused["proper_quasi"].samples_used == 3 + 3
    assert fused["strict_proper_quasi"].samples_used == 3
    assert fused["proper_quasi_dual"].samples_used == 3 + 3 * 3 + 6
    reference = REFERENCE_TUPLE_CHECKERS["proper_quasi_dual"]
    assert _same_reports(fused["proper_quasi_dual"],
                         reference(POSSLOPE, plan))


def test_check_class_selects_from_the_shared_scan(catalog_reports):
    for label, fixture in default_catalog().items():
        plan = build_plan(fixture.region)
        shared = _tuple_reports(fixture.model, plan)
        assert list(shared) == list(REFERENCE_TUPLE_CHECKERS)
        for name, report in shared.items():
            assert _same_reports(report, catalog_reports[label][name]), (label, name)


def test_shared_scan_witnesses_replay_at_40_points():
    refuted = 0
    for label, fixture in default_catalog().items():
        plan = build_plan(fixture.region, HarnessConfig(num_points=40))
        for name, report in _tuple_reports(fixture.model, plan).items():
            if report.refuted:
                refuted += 1
                margin = replay_witness(fixture.model, report, plan)
                assert margin >= report.margin - 1e-12, (label, name)
    assert refuted > 0


# Every default fixture is affine, E(p) = M p - c; the scalar ones have
# M = [[+-1]].  The table is checked against the fixtures below.
AFFINE_FIXTURES = {
    "linear_identity": ([[1, 0], [0, 1]], [0.5, 0.5]),
    "constant_field": ([[0, 0], [0, 0]], [-1.0, 0.0]),
    "constant_positive": ([[0, 0], [0, 0]], [-1.0, -1.0]),
    "rotation": ([[0, 1], [-1, 0]], [0.0, 0.0]),
    "scalar_negslope": ([[-1]], [-0.5]),
    "scalar_posslope": ([[1]], [0.5]),
    "scalar_positive": ([[1]], [-0.1]),
    "simplex_positive": ([[1, 0], [0, 1]], [-0.1, -0.1]),
    "mortgage_linear": ([[1, 0], [0, 1]], [0.5, 2.5]),
}


def test_catalog_models_hold_the_affine_table_exactly():
    assert sorted(AFFINE_FIXTURES) == sorted(CATALOG)
    for label, (M, c) in AFFINE_FIXTURES.items():
        model = CATALOG[label].model
        for got, want in ((model.M, M), (model.c, c)):
            want = np.array(want, dtype=float)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), label


def _exact_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _exact_combination(weights, points):
    """sum_k w_k p_k / sum_k w_k in Fractions: a convex combination of the
    points, whether or not the float weights sum to exactly 1."""
    w = [Fraction(x) for x in weights]
    assert min(w) >= 0 and sum(w) > 0
    return [sum(wk * p[i] for wk, p in zip(w, points)) / sum(w)
            for i in range(len(points[0]))]


@pytest.mark.parametrize("points", [24, 64])
def test_catalog_refutations_replay_exactly(points):
    # each witness, in exact arithmetic on its float points and weights,
    # meets the premise and violates the class: strictly for the non-strict
    # classes, non-strictly (<= 0, at a distinct point) for the strict ones
    assert sorted(AFFINE_FIXTURES) == sorted(CATALOG)
    refuted = 0
    for label, fixture in CATALOG.items():
        M, c = AFFINE_FIXTURES[label]

        def E(p):
            return [_exact_dot(map(Fraction, row), p) - Fraction(ci)
                    for row, ci in zip(M, c)]

        plan = build_plan(fixture.region, HarnessConfig(num_points=points))
        rounded = [[float(v) for v in E([Fraction(x) for x in p])]
                   for p in plan.base_points.tolist()]
        assert rounded == fixture.model(plan.base_points).tolist(), label
        for name in CLASS_NAMES:
            report = check_class(name, fixture.model, plan)
            if not report.refuted:
                continue
            refuted += 1
            w, case = report.witness, (label, name)
            P = [[Fraction(x) for x in p] for p in w.points.tolist()]

            def pairing(j, q):                  # E(p_j).(p_j - q)
                return _exact_dot(E(P[j]), [a - b for a, b in zip(P[j], q)])

            if name in ("pseudo", "strict_pseudo"):
                x, y = P
                assert -pairing(0, y) >= 0, case    # E(x).(y - x) >= 0
                if name == "pseudo":
                    assert pairing(1, x) < 0, case
                else:
                    assert x != y and pairing(1, x) <= 0, case
            elif name == "proper_quasi_dual":
                for entry in w.extra["per_combination"]:
                    q = _exact_combination(entry["weights"], P)
                    assert min(pairing(j, q) for j in range(len(P))) < 0, case
            else:
                q = _exact_combination(w.weights.tolist(), P)
                dots = [pairing(j, q) for j in range(len(P))]
                if name == "proper_quasi":
                    assert max(dots) < 0, case
                else:
                    assert q not in P and max(dots) <= 0, case
    assert refuted == 11


# ---------------------------------------------------------------------------
# the k-ordered, prefiltered scan against the fused reference scan


def _same_as_fused(model, plan):
    reference = fused_tuple_scan(model, plan)
    for name, report in _tuple_reports(model, plan).items():
        assert _same_reports(report, reference[name]), name


def _same_exclusions(plan, certify=True):
    """The plan's exclusions against the reference's: with ``certify``
    False, against the float test at every member and weight."""
    got = monotonicity._strict_exclusions(plan)
    expected = strict_exclusions_reference(plan, certify)
    assert got.keys() == expected.keys()
    for m, pairs in expected.items():
        assert got[m].dtype == pairs.dtype, m
        assert got[m].tobytes() == pairs.tobytes(), m
    return got


def _k_order_dots(G, g, combos, W):
    """dots[t, j, w] = g_j - Σ_k w_k G[j, k] in Python floats, summed in k order."""
    G, g, W = G.tolist(), g.tolist(), W.tolist()
    out = []
    for combo in combos.tolist():
        out.append([])
        for j in combo:
            terms, dots = [G[j][k] for k in combo], []
            for w in W:
                s = w[0] * terms[0]
                for wk, Gk in zip(w[1:], terms[1:]):
                    s += wk * Gk
                dots.append(g[j] - s)
            out[-1].append(dots)
    return np.array(out)


@pytest.mark.parametrize("m", range(1, 13))
def test_member_dots_sum_in_k_order(m):
    # random weight rows sum every term inexactly; T covers chunk tails
    rng = np.random.default_rng(m)
    n = m + 3
    P, E = rng.standard_normal((n, 2)), 0.117 * rng.standard_normal((n, 2))
    G, g = E @ P.T, np.einsum("ij,ij->i", E, P)
    W = 0.37 * rng.random((40, m))
    combos = np.array(list(itertools.combinations(range(n), m)))
    expected = _k_order_dots(G, g, combos, W)           # (T, m, W)
    for rows in (slice(0, 1), slice(0, 2), slice(0, 3), slice(0, 7),
                 slice(None), slice(None, None, 3)):
        c = combos[rows]
        bufs = np.empty((2, len(W), len(c)))
        for j in range(m):
            got = monotonicity._member_dots(G, g, c, j, W.T.copy(), bufs)
            assert np.array_equal(got, expected[rows, j].T), (rows, j)


def test_combination_rows_are_lexicographic():
    for n in range(0, 9):
        combos = np.arange(n)[:, None]
        for m in range(1, 6):
            if m > 1:
                combos = monotonicity._extend_combinations(combos, n)
            expected = list(itertools.combinations(range(n), m))
            assert combos.shape == (len(expected), m)
            assert [tuple(r) for r in combos.tolist()] == expected


CATALOG = default_catalog()
# the default plans, and their Halton points alone: region vertices come
# first in a plan, and their 0/1 coordinates make many pairings exact
HALTON_PLANS = {
    (label, points, vertices): (build_plan(fixture.region,
                                           HarnessConfig(num_points=points))
                                .base_points if vertices
                                else fixture.region.sample(points))
    for label, fixture in CATALOG.items() for points in (24, 40)
    for vertices in (True, False)}
# multiples of 0.117 round in every pairing, unlike the 1/8 lattices above
ROUNDED_ENTRIES = st.integers(-4, 4).map(lambda k: 0.117 * k)


@st.composite
def rounded_scan_cases(draw):
    key = draw(st.sampled_from(sorted(HALTON_PLANS)))
    base = HALTON_PLANS[key]
    region, (size, n) = CATALOG[key[0]].region, base.shape
    m_max = draw(st.integers(2, 4))
    resolution = draw(st.integers(3, 11).filter(
        lambda r: comb(size, m_max) * comb(r + m_max - 2, m_max - 1) < 3e6))
    kind = draw(st.sampled_from(["catalog", "linear", "rotation"][:n + 1]))
    if kind == "catalog":
        model = CATALOG[key[0]].model
    elif kind == "linear":
        M = draw(st.lists(ROUNDED_ENTRIES, min_size=n * n, max_size=n * n))
        c = draw(st.lists(ROUNDED_ENTRIES, min_size=n, max_size=n))
        model = linear_economy(np.reshape(M, (n, n)), c)
    else:
        rows = draw(st.lists(st.integers(0, size - 1), min_size=3, max_size=3,
                             unique=True))
        model = _rotation(draw(ROUNDED_ENTRIES.filter(bool)), base[rows])
    config = HarnessConfig(tuple_size_max=m_max, weight_grid_resolution=resolution)
    return model, region, base, config


def _rotation(scale, points):
    """A rotation about the centroid of `points`.

    It passes every pair but fails the dual class on triangles around its
    centre, so the witness lists the min pairing at every weight row of a
    3-tuple: these reports read the pairing sums of 3-tuples.
    """
    M = scale * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return linear_economy(M, M @ points.mean(axis=0))


def _rotation_case(label, points, scale, resolution):
    base = HALTON_PLANS[label, points, False]
    return (_rotation(scale, base[[3, 5, 8]]), CATALOG[label].region, base,
            HarnessConfig(tuple_size_max=3, weight_grid_resolution=resolution))


@settings(max_examples=40, deadline=None)
@given(rounded_scan_cases())
@example(_rotation_case("linear_identity", 24, 0.117, 7))
@example(_rotation_case("mortgage_linear", 40, -0.351, 11))
def test_tuple_scan_matches_fused_reference_on_rounded_plans(case):
    # cases carry the plan's inputs: Hypothesis prints a dataclass by its
    # init fields, and a plan does not keep its region
    model, region, base, config = case
    _same_as_fused(model, SamplePlan(region, base, config))


def _certification_line(points_for, m):
    """Bisect the scale at which the last member of a tuple gets certified."""
    lo, hi = 0.0, 1e-6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if monotonicity._certified(points_for(mid), np.array([list(range(m))]),
                                   10)[0, -1]:
            hi = mid
        else:
            lo = mid
    return lo, hi


@pytest.mark.parametrize("m, points_for", [
    (2, lambda x: np.array([[0.25, 0.5], [0.25 + x, 0.5]])),
    (3, lambda y: np.array([[0.0, 0.0], [1.0, 0.0], [0.5, y]])),
], ids=["pair", "segment"])
def test_members_on_either_side_of_the_certification_line(m, points_for):
    below, above = _certification_line(points_for, m)
    # the line sits just past 2 DISTINCT_DIST / ((m - 1) / steps)
    line = 2 * DISTINCT_DIST * 10 / (m - 1)
    assert line < above < 1.001 * line
    # the rounding allowance grows with the coordinates
    _, far = _certification_line(lambda x: points_for(x) + 1e3, m)
    assert 1.01 * line < far < 1.1 * line
    for x, certified in ((above, True), (below, False)):
        P = points_for(x)
        assert monotonicity._certified(P, np.array([list(range(m))]),
                                       10)[0, -1] == certified
        # certified and uncertain members must give the same reports
        plan = SamplePlan(UNIT_SQUARE, np.vstack([P, P[-1] + [0.0, 0.5]]))
        for model in (IDENTITY, CONSTANT):
            _same_as_fused(model, plan)


@pytest.mark.parametrize("upper", [1e5, 1e6])
def test_large_coordinates_certify(monkeypatch, upper):
    # the allowance grows past DISTINCT_DIST here, yet the bounds leave as
    # few tuples to the float test as on the unit square, of the 52,394 2-
    # and 3-tuples
    counts = _count_tested_pairs(monkeypatch)
    plan = build_plan(Box([0.0, 0.0], [upper, upper]),
                      HarnessConfig(num_points=64))
    assert monotonicity._allowance(plan.base_points, 3) > DISTINCT_DIST
    _same_exclusions(plan, certify=False)
    assert counts["tuples"] == len(counts["pairs"]) == 49
    _same_as_fused(linear_economy(np.array([[1e-6, 0.0], [0.0, 0.0]]),
                                  [0.117, -0.234]), plan)
    _same_as_fused(linear_economy(np.zeros((2, 2)), [-1.0, 0.0]), plan)


def test_collinear_simplex_plan_matches_fused_reference():
    simplex = Simplex(2)
    plan = build_plan(simplex)
    triples = np.array(list(itertools.combinations(range(plan.size), 3)))
    # every triple of points on a line has its middle member uncertain
    assert (~monotonicity._certified(plan.base_points, triples, 10)).any(axis=1).all()
    for model in (CATALOG["simplex_positive"].model, CONSTANT,
                  linear_economy(np.array([[0.117, -0.351], [0.234, 0.0]]),
                                 [0.117, 0.468])):
        _same_as_fused(model, plan)


def test_four_tuples_have_no_bound():
    base = build_plan(UNIT_SQUARE, HarnessConfig(num_points=8)).base_points
    plan = SamplePlan(UNIT_SQUARE, base,
                      HarnessConfig(tuple_size_max=4, weight_grid_resolution=7))
    quads = np.array(list(itertools.combinations(range(plan.size), 4)))
    assert not monotonicity._certified(plan.base_points, quads, 6).any()
    for model in (IDENTITY, CONSTANT, CATALOG["rotation"].model):
        _same_as_fused(model, plan)


# ---------------------------------------------------------------------------
# strict exclusions through the bounds against the float test everywhere


def _plan_64(label):
    return build_plan(CATALOG[label].region, HarnessConfig(num_points=64))


def _line_plan(P, m_max=3, resolution=11):
    return SamplePlan(Box(P.min(axis=0), P.max(axis=0)), P, HarnessConfig(
        tuple_size_max=m_max, weight_grid_resolution=resolution))


# 0, one ulp either way ("ulp", "-ulp"), and either side of DISTINCT_DIST,
# 2 DISTINCT_DIST and the lines where 2 DISTINCT_DIST falls at a tie
# weight's distance
ULPS = st.sampled_from([0.0, "ulp", "-ulp"])
NUDGES = st.one_of(
    ULPS,
    st.builds(lambda k, d, sign: sign * k * DISTINCT_DIST * (1 + d),
              st.sampled_from([1, 2, 2.5, 4, 5, 10, 20]),
              st.sampled_from([-1e-3, -1e-5, 0.0, 1e-5, 1e-3]),
              st.sampled_from([-1, 1])))
FRACTIONS = st.sampled_from([0.0, 1.0, 1 / 2, 1 / 3, 2 / 3, 1 / 4, 3 / 4, 1 / 8,
                             0.3, 0.7, 0.117, 5 / 16])


def _nudge(p, direction, by):
    if by in ("ulp", "-ulp"):
        return np.nextafter(p, p + direction if by == "ulp" else p - direction)
    return p + by * direction


@st.composite
def line_plans(draw):
    """Points on a line, one of them nudged along it and across it, on
    dyadic or rounded coordinates, near 0 or near 1e6.  Some plans hold
    three points only, the third at the lattice ratio i_b/i_a of the other
    two (where the combination of weights (i_a, i_b) of those two lands)
    or one ulp along the line either side of it."""
    n = draw(st.integers(1, 3))
    dyadic = draw(st.booleans())
    coord = (st.integers(-16, 16).map(lambda k: k / 16) if dyadic else
             st.floats(-1, 1, allow_subnormal=False))
    # a in [2, 3]^n keeps the nudged points positive, as a box's prices are
    a = 2 + np.abs(draw(st.lists(coord, min_size=n, max_size=n)))
    d = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    assume(np.linalg.norm(d) > 0.05)
    along = d / np.linalg.norm(d)
    across = np.roll(along, 1) * ([-1] + [1] * (n - 1)) if n > 1 else along
    across = across - (across @ along) * along
    resolution = draw(st.sampled_from([3, 5, 9, 11, 17, 21]))
    m_max = draw(st.integers(2, 4 if resolution < 17 else 3))
    if resolution > 3 and draw(st.booleans()):
        # interior weights have i_a + i_b <= steps - 1 = resolution - 2
        i_a = draw(st.integers(1, resolution - 3))
        i_b = draw(st.integers(1, resolution - 2 - i_a))
        fractions, row, nudges = [0.0, 1.0, i_b / (i_a + i_b)], 2, ULPS
    else:
        fractions = draw(st.lists(FRACTIONS, min_size=3, max_size=7, unique=True))
        row, nudges = draw(st.integers(0, len(fractions) - 1)), NUDGES
    P = draw(st.sampled_from([1.0, 1e6])) * (a + np.outer(fractions, d))
    P[row] = _nudge(_nudge(P[row], along, draw(nudges)), across, draw(NUDGES))
    return P, m_max, resolution


def _nudged_midpoint(by):
    """A midpoint moved by ``by`` along its line: the nearest interior
    combination, w = (1/8, 3/4, 1/8), lies by / 4 from it."""
    P = np.array([[1.0, 1.0], [1.5, 1.25], [2.0, 1.5]])
    P[1] += by * (P[2] - P[0]) / np.linalg.norm(P[2] - P[0])
    return P, 3, 9


@settings(max_examples=150, deadline=None)
@given(line_plans())
@example(_nudged_midpoint(4 * DISTINCT_DIST * (1 - 1e-5)))
@example(_nudged_midpoint(4 * DISTINCT_DIST * (1 + 1e-5)))
@example(_nudged_midpoint(8 * DISTINCT_DIST * (1 - 1e-5)))
@example(_nudged_midpoint(8 * DISTINCT_DIST * (1 + 1e-5)))
@example((np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5 + 2 * DISTINCT_DIST]]),
          3, 11))
@example((np.array([[0.0, 0.0], [1.0, 1.0], [0.5 + 1e-8, 0.5 + 1e-8]]), 3, 11))
@example((np.array([[0.0], [0.25], [0.5], [0.75], [1.0]]), 3, 9))
def test_line_filter_matches_the_float_test_everywhere(case):
    P, m_max, resolution = case
    _same_exclusions(_line_plan(P, m_max, resolution), certify=False)


def _same_certificates(plan):
    """The column-form certificate against the row form, every tuple size."""
    P, steps = plan.base_points, plan.config.weight_grid_resolution - 1
    for m, combos, *_ in plan.tuple_sizes[1:]:
        combos = combos.astype(np.intp)
        got = monotonicity._certified(P, combos, steps)
        assert got.tobytes() == certified_reference(P, combos, steps).tobytes(), m


@settings(max_examples=60, deadline=None)
@given(line_plans())
@example((np.array([[0.0], [0.25], [0.5], [0.75], [1.0]]), 3, 9))
def test_column_certificate_matches_the_row_form_on_lines(case):
    P, m_max, resolution = case
    _same_certificates(_line_plan(P, m_max, resolution))


@settings(max_examples=30, deadline=None)
@given(rounded_scan_cases())
def test_column_certificate_matches_the_row_form_on_rounded_plans(case):
    _, region, base, config = case
    _same_certificates(SamplePlan(region, base, config))


@pytest.mark.parametrize("label", ["linear_identity", "scalar_negslope",
                                   "simplex_positive", "mortgage_linear"])
def test_column_certificate_matches_the_row_form_on_default_plans(label):
    _same_certificates(_plan_64(label))


@pytest.mark.parametrize("steps", [4, 5, 10, 20])
def test_ratio_bound_keeps_every_member_the_filter_keeps(steps):
    # offsets whose filter sum at one interior weight lands on the limit,
    # or one ulp either side of it: the bound must keep every member the
    # filter keeps at some weight.  At weights whose smaller offset has
    # i = 1 the bound is tight, so rounding alone decides these members.
    rng = np.random.default_rng(steps)
    W = simplex_lattice(3, steps)
    Wi = W[(W > 0).all(axis=1)]
    count = 20_000
    rows = rng.integers(len(Wi), size=count)
    s = rng.standard_normal((2, count)) * 10.0 ** rng.integers(-3, 4, (2, count))
    wa, wb = Wi[rows, 1], Wi[rows, 2]           # the others of member 0
    limit = np.abs(wa * s[0] + wb * s[1])
    limit = np.nextafter(limit, limit * rng.choice([0.0, 1.0, 2.0], count))
    filtered = line_filter_reference(s, limit, Wi[:, 1:].T).any(axis=1)
    kept = monotonicity._ratio_kept(s, limit, Wi, steps)
    assert filtered.sum() > count // 2
    assert not (filtered & ~kept).any()


def _count_tested_pairs(monkeypatch):
    """Count the tuples, and collect the (tuple, member) pairs, that reach
    the float test."""
    counts = {"tuples": 0, "pairs": set()}
    near = monotonicity._near_weights

    def spy(P, combos, members, Wi):
        counts["tuples"] += len(combos)
        counts["pairs"].update((tuple(combos[t]), j)
                               for t, j in np.argwhere(members).tolist())
        return near(P, combos, members, Wi)

    monkeypatch.setattr(monotonicity, "_near_weights", spy)
    return counts


@pytest.mark.parametrize("label, tested, excluded", [
    ("linear_identity", 49, 112), ("scalar_negslope", 9_425, 16_223),
    ("simplex_positive", 129, 215), ("mortgage_linear", 34, 71)])
def test_few_pairs_reach_per_weight_work(monkeypatch, label, tested, excluded):
    # of the 45,760 uncertain middle members of the collinear plans, the
    # ratio bound passes only those the line filter keeps at some weight:
    # one member of each tuple that reaches the float test
    counts = _count_tested_pairs(monkeypatch)
    plan = _plan_64(label)
    assert len(plan.strict_exclusions[3]) == excluded
    assert counts["tuples"] == len(counts["pairs"]) == tested


def test_line_filter_keeps_exactly_the_ties_of_a_line():
    # on a line the bound is the distance itself: of a middle member, the
    # filter keeps the weights whose combination lands on it, no more, and
    # those are the plan's exclusions
    P = np.array([[0.0, 0.0], [0.5, 1.0], [1.0, 2.0]])
    W = simplex_lattice(3, 8)
    Wi = W[(W > 0).all(axis=1)]
    s, limit = monotonicity._line_offsets(P, np.array([[0, 1, 2]]), 1,
                                          monotonicity._allowance(P, 3))
    kept = line_filter_reference(s, limit, Wi[:, [0, 2]].T)[0]
    ties = np.flatnonzero(Wi[:, 0] == Wi[:, 2])
    assert np.flatnonzero(kept).tolist() == ties.tolist() and len(ties) == 3
    assert _same_exclusions(_line_plan(P, resolution=9))[3].tolist() == \
        ties.tolist()


@pytest.mark.parametrize("label, excluded", [
    ("linear_identity", 112), ("scalar_negslope", 16_223),
    ("simplex_positive", 215), ("mortgage_linear", 71)])
def test_default_plans_exclude_the_reference_pairs(label, excluded):
    # the four distinct 64-point plans of the default catalog
    got = _same_exclusions(_plan_64(label))
    assert {m: len(pairs) for m, pairs in got.items()} == {1: 0, 2: 0, 3: excluded}


def _scan_rows(m, resolution, scan):
    """Rows of a scan's buffers for m-tuples: the interior weight count for
    the primal scan, every weight row for the dual one."""
    W = simplex_lattice(m, resolution - 1)
    return int((W > 0).all(axis=1).sum()) if scan == "primal" else len(W)


def _spy_folds(monkeypatch):
    """Record (m, scan, tuples) for every fold of the two tuple scans: the
    primal scan folds with max, the dual one with min."""
    calls, fold = [], monotonicity._fold

    def spy(G, g, combos, Wt, bufs, ufunc):
        calls.append((combos.shape[1], "primal" if ufunc is np.maximum
                      else "dual", len(combos)))
        return fold(G, g, combos, Wt, bufs, ufunc)

    monkeypatch.setattr(monotonicity, "_fold", spy)
    return calls


def _zero_field(n):
    return linear_economy(np.zeros((n, n)), np.zeros(n))


def _bound_keeping_fields(plan, model):
    """``model``, then fields whose bounds keep tuples on ``plan``: the zero
    field, where every pairing ties at 0, and, in 2-D, two rotations, which
    fail the dual at vertices."""
    n = plan.base_points.shape[1]
    fields = [model, _zero_field(n)]
    if n == 2:
        fields += [_rotation(0.117, plan.base_points[rows])
                   for rows in ([0, 1, 2], [0, 1, 5])]
    return fields


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_chunk_tails_match_fused_reference(monkeypatch, chunk):
    calls = _spy_folds(monkeypatch)
    scored = {"primal": [], "dual": []}
    for scan, (resolution, m_max) in itertools.product(
            scored, ((11, 3), (3, 3), (5, 4))):
        # a budget of `chunk` pairings per buffer row makes this scan's
        # 3-tuple chunks of `chunk` tuples, then a shorter tail
        monkeypatch.setattr(monotonicity, "_SCAN_PAIRS",
                            chunk * _scan_rows(3, resolution, scan))
        for label in ("rotation", "scalar_negslope", "simplex_positive",
                      "mortgage_linear", "constant_positive"):
            fixture = CATALOG[label]
            plan = build_plan(fixture.region, HarnessConfig(
                num_points=6, tuple_size_max=m_max,
                weight_grid_resolution=resolution))
            for model in _bound_keeping_fields(plan, fixture.model):
                calls.clear()
                _same_as_fused(model, plan)
                scored[scan] += [tuples for m, folded, tuples in calls
                                 if (m, folded) == (3, scan) and tuples]
    # each scan folds chunks of `chunk` 3-tuples and of fewer (a tail, or a
    # chunk the bounds thinned)
    for scan, sizes in scored.items():
        assert chunk in sizes and (chunk == 1 or min(sizes) < chunk), scan


def test_boundary_weight_clears_a_tuple_whose_interior_fails_the_dual():
    # E = 1 on [0, 1]: every interior combination c of (0, 1/2, 1) pairs
    # 0 - c < 0 with member 0, but c = 0, a boundary weight, pairs >= 0
    # with every member, so the tuple is no dual violation
    model = linear_economy([[0.0]], [-1.0])
    plan = SamplePlan(UNIT_INTERVAL, np.array([[0.0], [0.5], [1.0]]))
    P, G, g = monotonicity._pairings(model, plan)
    W = simplex_lattice(3, 10)
    achieved = monotonicity._tuple_dots(G, g, np.arange(3), W.T).min(axis=0)
    interior = (W > 0).all(axis=1)
    assert (achieved[interior] < -TAU_FEAS).all()
    assert (achieved[~interior] >= 0).any()
    report = check_class("proper_quasi_dual", model, plan)
    assert report.verdict == "holds_on_samples"
    _same_as_fused(model, plan)


@pytest.mark.parametrize("pairs", [1, 5, 64])
def test_running_dual_minimum_across_tiny_chunks(monkeypatch, pairs):
    # tiny budgets update the running minimum of achieved chunk by chunk;
    # wide tolerances let tuples that pass inside still hold that minimum
    monkeypatch.setattr(monotonicity, "_SCAN_PAIRS", pairs)
    base = build_plan(UNIT_SQUARE, HarnessConfig(num_points=6)).base_points
    plans = [SamplePlan(UNIT_SQUARE, base, HarnessConfig(
        tuple_size_max=m_max, weight_grid_resolution=resolution))
        for resolution, m_max in ((11, 3), (3, 3), (5, 4))]
    for plan in plans:
        for model, tau in itertools.product((CONSTANT, IDENTITY),
                                            (TAU_FEAS, 0.05, 0.5)):
            reference = fused_tuple_scan(model, plan, tau)
            monkeypatch.setattr(monotonicity, "TAU_FEAS", tau)
            for name, report in _tuple_reports(model, plan).items():
                assert _same_reports(report, reference[name]), (name, tau)


@pytest.mark.parametrize("label", ["constant_field", "rotation",
                                   "scalar_positive"])
def test_reports_do_not_depend_on_the_chunk_width(monkeypatch, label):
    # the bounds keep tuples of these fields in many chunks, so running
    # minima and first hits cross chunk edges at every width
    calls = _spy_folds(monkeypatch)
    fixture, plan = CATALOG[label], _plan_64(label)
    fields = _bound_keeping_fields(plan, fixture.model)[:3]
    if plan.base_points.shape[1] == 2:
        # a rotation too weak to fail the dual: its vertex bound keeps
        # the 3-tuples around its centre
        fields.append(_rotation(1e-12, plan.base_points[[0, 1, 2]]))
    for k, model in enumerate(fields):
        widths = {}
        for pairs in (monotonicity._SCAN_PAIRS, 1 << 16, 1000):
            monkeypatch.setattr(monotonicity, "_SCAN_PAIRS", pairs)
            calls.clear()
            widths[pairs] = json.dumps({name: report.to_dict() for name, report
                                        in _tuple_reports(model, plan).items()})
        assert len(set(widths.values())) == 1
        # at the narrowest width, the zero field and the rotations score
        # 3-tuples in hundreds of chunks of the primal scan, and the weak
        # rotation in hundreds of the dual one
        chunks = {scan: sum(1 for m, folded, tuples in calls
                            if (m, folded) == (3, scan) and tuples)
                  for scan in ("primal", "dual")}
        assert k == 0 or chunks["primal"] > 500, chunks
        assert k < 3 or chunks["dual"] > 500, chunks


# numpy 2.4's broadcast multiply runs about four times slower per element
# on rows narrower than about 3,000 than on wider ones
MIN_SCAN_ROW = 3000


def test_three_tuple_folds_run_on_wide_rows(monkeypatch):
    # every pairing of the zero field ties at 0, so the primal bound keeps
    # every tuple and each chunk folds whole
    calls = _spy_folds(monkeypatch)
    plan = _plan_64("linear_identity")
    check_tuple_classes(_zero_field(2), plan)
    widths = [tuples for m, scan, tuples in calls
              if (m, scan) == (3, "primal")]
    assert sum(widths) == comb(plan.size, 3) and len(widths) > 1
    assert min(widths[:-1]) >= MIN_SCAN_ROW


def test_chunks_the_bounds_clear_fold_nothing(monkeypatch):
    # on eight of the nine default 64-point plans the bounds clear every
    # 3-tuple chunk of the primal scan, and most chunks of the dual one;
    # neither scan folds a chunk it cleared, and the reports stay the
    # reference scans'
    calls = _spy_folds(monkeypatch)
    for label, fixture in CATALOG.items():
        plan = _plan_64(label)
        calls.clear()
        reports = check_tuple_classes(fixture.model, plan)
        assert calls and all(tuples for _, _, tuples in calls), label
        reference = fused_tuple_scan(fixture.model, plan)
        for name, report in reports.items():
            assert _same_reports(report, reference[name]), (label, name)
        calls.clear()
        dual = check_class("proper_quasi_dual", fixture.model, plan)
        assert all(tuples for _, _, tuples in calls), label
        reference = REFERENCE_TUPLE_CHECKERS["proper_quasi_dual"]
        assert _same_reports(dual, reference(fixture.model, plan)), label


@pytest.mark.parametrize("label", ["scalar_negslope", "linear_identity",
                                   "rotation"])
def test_one_primal_class_builds_only_what_it_reads(monkeypatch, label):
    # proper_quasi alone reads no strict exclusions; each class alone keeps
    # the tuples only it needs, yet reports what the shared scan reports
    built, exclusions = [], monotonicity._strict_exclusions
    monkeypatch.setattr(monotonicity, "_strict_exclusions",
                        lambda plan: built.append(plan) or exclusions(plan))
    plan = _plan_64(label)
    models = _bound_keeping_fields(plan, CATALOG[label].model)
    alone = [check_class("proper_quasi", model, plan) for model in models]
    assert built == []
    for model, report in zip(models, alone):
        shared = check_tuple_classes(model, plan)
        assert _same_reports(report, shared["proper_quasi"])
        strict = check_class("strict_proper_quasi", model, plan)
        assert _same_reports(strict, shared["strict_proper_quasi"])
    assert built == [plan]


def test_scan_memory_stays_in_small_chunks():
    # each scan on a fresh plan, so that its peak includes the plan's tuples
    fixture = CATALOG["simplex_positive"]
    for scan in (check_tuple_classes, functools.partial(check_class,
                                                        "proper_quasi_dual")):
        plan = build_plan(fixture.region, HarnessConfig(num_points=64))
        tracemalloc.start()
        try:
            scan(fixture.model, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, scan


# ---------------------------------------------------------------------------
# the per-tuple bounds that let the scan skip tuples


def _tuple_bounds_reference(D, combos, steps, scale):
    """(lb, vlb) as one function computed both before the scans split it."""
    T, m = combos.shape
    unbounded = np.full(T, -np.inf)
    if not np.isfinite(scale):
        return unbounded, unbounded
    A = [[D.take(row + ck) for ck in combos.T] for row in combos.T * len(D)]
    reduce = functools.reduce
    vlb = reduce(np.maximum, [reduce(np.minimum, col) for col in zip(*A)])
    if steps < m or not np.isfinite(4 * steps * scale):
        return unbounded, vlb
    lb = reduce(np.maximum, [(reduce(np.add, row)
                              + (steps - m) * reduce(np.minimum, row)) / steps
                             for row in A])
    tiny = np.finfo(float)
    return lb - (2 * m + 9) * (tiny.eps * scale + tiny.smallest_subnormal), vlb


def _tuple_bounds(D, combos, steps, scale):
    """(lb, vlb) from the two bound functions, each bit for bit the reference's."""
    lb = monotonicity._interior_bound(D, combos, steps, scale)
    vlb = monotonicity._vertex_bound(D, combos, scale)
    want = _tuple_bounds_reference(D, combos, steps, scale)
    assert lb.tobytes() == want[0].tobytes() and vlb.tobytes() == want[1].tobytes()
    return lb, vlb


def _assert_bounds_hold(model, plan, width=2048):
    """lb is at most every float interior ``maxdots`` entry of its tuple,
    and vlb is the max over vertex rows of the scan's min over members,
    whose pairings are the float D entries bit for bit."""
    P, G, g = monotonicity._pairings(model, plan)
    D = g[:, None] - G
    scale = float(np.abs(G).max() + np.abs(g).max())
    steps = plan.config.weight_grid_resolution - 1
    for m, all_combos, W, interior in plan.tuple_sizes:
        vertices = [int(np.flatnonzero(W[:, k] == 1)[0]) for k in range(m)]
        for lo in range(0, len(all_combos), width):
            combos = all_combos[lo:lo + width].astype(np.intp)
            lb, vlb = _tuple_bounds(D, combos, steps, scale)
            bufs = np.empty((3, len(W), len(combos)))
            if interior.any():
                maxdots = monotonicity._fold(G, g, combos, W[interior].T,
                                             bufs[:, :interior.sum()], np.maximum)
                assert (lb <= maxdots.min(axis=0)).all(), m
            else:
                assert np.isneginf(lb).all()
            at_vertices = np.array([monotonicity._member_dots(
                G, g, combos, j, W[vertices].T, bufs[:2, :m]).copy()
                for j in range(m)])                             # (j, k, T)
            exact = D[combos.T[:, None], combos.T[None, :]]     # (j, k, T)
            assert at_vertices.tobytes() == exact.tobytes(), m
            assert np.array_equal(vlb, at_vertices.min(axis=0).max(axis=0)), m


@pytest.mark.parametrize("label", sorted(CATALOG))
def test_bounds_hold_on_the_default_plans(label):
    _assert_bounds_hold(CATALOG[label].model, _plan_64(label))


@settings(max_examples=30, deadline=None)
@given(rounded_scan_cases())
@example(_rotation_case("linear_identity", 24, 0.117, 7))
def test_bounds_hold_on_rounded_plans(case):
    model, region, base, config = case
    _assert_bounds_hold(model, SamplePlan(region, base, config))


@pytest.mark.parametrize("resolution", [3, 5, 11])
def test_pair_bound_is_attained_at_its_vertex(resolution):
    # E(p) = 1 - 20 p on {0, 1}: member 0 pairs -w_1 and member 1 pairs
    # -19 w_0, so the interior minimum of the max is member 0's value at
    # w_1 = 1 - 1/s, the bound's own vertex, where member 0's pairing is
    # smallest and member 1's smaller still
    plan = SamplePlan(UNIT_INTERVAL, np.array([[0.0], [1.0]]),
                      HarnessConfig(weight_grid_resolution=resolution))
    model = linear_economy([[-20.0]], [-1.0])
    P, G, g = monotonicity._pairings(model, plan)
    steps = resolution - 1
    lb, vlb = _tuple_bounds(g[:, None] - G, np.array([[0, 1]]),
                                         steps, 20.0)
    assert lb[0] == pytest.approx(-(steps - 1) / steps, abs=1e-12)
    assert vlb.tolist() == [-1.0]
    _assert_bounds_hold(model, plan)


def test_bounds_stand_down_where_the_scan_could_overflow():
    combos = np.array([[0, 1, 2]])
    D = np.array([[0.0, -1.0, 2.0], [1.0, 0.0, -3.0], [-2.0, 3.0, 0.0]])
    lb, vlb = _tuple_bounds(D, combos, 10, 3.0)
    assert np.isfinite(lb).all() and vlb.tolist() == [-1.0]
    lb, vlb = _tuple_bounds(D, combos, 10, 1e307)   # 40 x 1e307
    assert np.isneginf(lb).all() and vlb.tolist() == [-1.0]
    lb, vlb = _tuple_bounds(D, combos, 10, np.inf)
    assert np.isneginf(lb).all() and np.isneginf(vlb).all()
    lb, _ = _tuple_bounds(D, combos, 2, 3.0)      # no interior rows
    assert np.isneginf(lb).all()


@st.composite
def near_tie_cases(draw):
    """Fields whose pairings tie or nearly tie, where the bounds sit on the
    scores they bound: zero, constant, and skew (E(p) = K (p - z) with K
    antisymmetric and z a plan point or the centroid of three)."""
    key = draw(st.sampled_from(sorted(HALTON_PLANS)))
    base = HALTON_PLANS[key]
    region, (size, n) = CATALOG[key[0]].region, base.shape
    m_max = draw(st.integers(2, 4))
    resolution = draw(st.integers(3, 11).filter(
        lambda r: comb(size, m_max) * comb(r + m_max - 2, m_max - 1) < 3e6))
    kind = draw(st.sampled_from(["zero", "constant", "skew"]))
    M, c = np.zeros((n, n)), np.zeros(n)
    if kind == "constant":
        c = -np.array(draw(st.lists(ROUNDED_ENTRIES, min_size=n, max_size=n)))
    elif kind == "skew":
        K = np.reshape(draw(st.lists(ROUNDED_ENTRIES, min_size=n * n,
                                     max_size=n * n)), (n, n))
        rows = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3,
                             unique=True).filter(lambda r: len(r) != 2))
        M = K - K.T
        c = M @ base[rows].mean(axis=0)
    config = HarnessConfig(tuple_size_max=m_max, weight_grid_resolution=resolution)
    return linear_economy(M, c), region, base, config


@settings(max_examples=40, deadline=None)
@given(near_tie_cases())
@example((_zero_field(2), CATALOG["linear_identity"].region,
          HALTON_PLANS["linear_identity", 24, True],
          HarnessConfig(tuple_size_max=4, weight_grid_resolution=5)))
@example(_rotation_case("simplex_positive", 24, 0.351, 10))
def test_near_tie_fields_match_fused_reference(case):
    model, region, base, config = case
    _same_as_fused(model, SamplePlan(region, base, config))


def test_strict_pair_scan_memory_stays_in_row_blocks():
    # 1,000 points in 100 dimensions: an (N, N, n) distance tensor would
    # take 763 MiB
    region = Box(np.zeros(100), np.ones(100))
    tracemalloc.start()
    try:
        plan = build_plan(region, HarnessConfig(num_points=1000, tuple_size_max=2))
        report = check_class("strict_pseudo",
                             linear_economy(np.eye(100), np.full(100, 0.5)), plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.size == 1000 and report.samples_used == 1000 * 999
    assert peak < 64 * 2**20
