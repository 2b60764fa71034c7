import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    _lstsq_reference,
    box_grid,
    box_vertices_reference,
    first_distinct_reference,
    halton_reference,
    nearest_grid_point,
    nnls_reference,
    polyhedron_lp_reference,
    polyhedron_project_reference,
    polyhedron_vertices_reference,
    project_many_reference,
    project_onto_simplex_reference,
    projection_kkt_residual,
    simplex_grid_reference,
    simplex_lattice,
)
from walras_vi.constants import TAU_FEAS
from walras_vi import regions
from walras_vi.economy import default_catalog, linear_economy
from walras_vi.monotonicity import SamplePlan, is_positive
from walras_vi.regions import (
    Box,
    Polyhedron,
    ProjectionBudgetError,
    Simplex,
    _halton,
    as_price_vector,
    first_distinct,
    project_onto_simplex,
    within_distance,
)

UNIT_SQUARE_POLY = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]),
                              [1.0, 1.0, 0.0, 0.0])


def coords(n, lo=-3.0, hi=3.0):
    return st.lists(st.floats(lo, hi, allow_nan=False), min_size=n, max_size=n)


def assert_same_bits(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


# ---------------------------------------------------------------------------
# price vectors


def test_price_vector_validation():
    assert_allclose(as_price_vector([1, 2]), [1.0, 2.0])
    with pytest.raises(ValueError):
        as_price_vector([])
    with pytest.raises(ValueError):
        as_price_vector([np.inf, 0.0])
    with pytest.raises(ValueError):
        as_price_vector([1.0, 2.0], dim=3)
    with pytest.raises(ValueError):
        as_price_vector([[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("x", [[1e300, -1e300], [np.nan, 0.0], [np.inf, -np.inf],
                               [1e300, np.inf]])
def test_price_vector_finiteness_past_an_overflowing_sum(x):
    # the entries are tested one by one where their sum of squares is not
    # finite; an overflow alone raises nothing, not even a warning
    if np.isfinite(x).all():
        assert as_price_vector(x).tolist() == x
    else:
        with pytest.raises(ValueError, match="entries must be finite"):
            as_price_vector(x)


# ---------------------------------------------------------------------------
# simplex projection


def test_simplex_fixed_point():
    s = Simplex(3)
    assert_allclose(s.project([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])


def test_simplex_project_matches_grid_oracle():
    # fine lattice minimization of ||y - x||^2 over the 1-simplex
    s = Simplex(2)
    lattice = simplex_lattice(2, 400)
    x = np.array([2.0, 0.0])
    oracle = nearest_grid_point(lattice, x)
    assert_allclose(s.project(x), [1.0, 0.0], atol=1e-12)
    assert np.linalg.norm(s.project(x) - oracle) <= 2 * (1 / 400)


def test_simplex_symmetric_input_projects_to_barycenter():
    s = Simplex(3)
    assert_allclose(s.project([0.4, 0.4, 0.4]), np.full(3, 1 / 3), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(coords(4))
def test_simplex_projection_properties(x):
    s = Simplex(4)
    y = s.project(x)
    assert s.contains(y, tol=1e-10)
    assert np.linalg.norm(s.project(y) - y) <= 1e-10
    # variational characterization against sampled feasible z
    for z in np.eye(4):
        assert (np.asarray(x) - y) @ (z - y) <= 1e-8


def test_simplex_batch_projection_agrees_with_rowwise():
    s = Simplex(5)
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(40, 5))
    batch = s.project_many(pts)
    rows = np.vstack([project_onto_simplex(p) for p in pts])
    assert_allclose(batch, rows, atol=1e-12)


def test_simplex_batch_projection_refuses_a_threshold_lost_to_rounding():
    # the second row's running sums leave no k with u_k > theta_k in floats;
    # project raises on it, and so must the batch
    rows = [[1e17, 0.0, 0.0], [-3.3e16] * 3]
    with pytest.raises(ValueError, match="lost to rounding"):
        Simplex(3).project(rows[1])
    with pytest.raises(ValueError, match="lost to rounding"):
        Simplex(3).project_many(rows)


@pytest.mark.parametrize("region", [Box([0.0, 0.0], [1.0, 1.0]), Simplex(2),
                                    UNIT_SQUARE_POLY], ids=["box", "simplex", "polyhedron"])
@pytest.mark.parametrize("rows", [[[0.5], [2.0]], [[0.5, 0.5, 0.5]],
                                  [[0.5, np.inf]], [[np.nan, 0.5]]],
                         ids=["narrow", "wide", "inf", "nan"])
def test_project_many_refuses_what_project_refuses(region, rows):
    # a width other than the region's, or a non-finite entry
    with pytest.raises(ValueError):
        region.project(rows[0])
    with pytest.raises(ValueError, match="finite price rows of dimension 2"):
        region.project_many(rows)


def test_simplex_grid_is_lattice():
    g = Simplex(3).grid(0.5)
    assert g.shape == (6, 3)
    assert_allclose(g.sum(axis=1), 1.0)
    # one lattice builder, byte for byte the brute-force lattice
    for n, k in itertools.product(range(1, 5), range(1, 13)):
        got = regions.simplex_lattice(n, k)
        assert got.dtype == np.float64
        assert got.tobytes() == simplex_lattice(n, k).tobytes(), (n, k)
    # and the grid the per-dimension stacks and meshgrids built before it
    for n, spacing in itertools.product(
            (1, 2, 3), (1.5, 1.0, 0.5, 1 / 3, 0.3, 0.07, 0.02, 0.01, 0.005, 0.0007)):
        got, want = Simplex(n).grid(spacing), simplex_grid_reference(Simplex(n), spacing)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n, spacing)


@pytest.mark.parametrize("region, spacing", [
    (Box([0.0, 0.0], [1e308, 1.0]), 0.02),   # the axis length overflows
    (Box([0.0, 0.0], [1e12, 1.0]), 0.02),    # 5e13 mesh points
    (Simplex(2), 1e-320),                    # 1 / spacing overflows
    (Box([0.0], [1.0]), 2.0 ** -22),         # one past the limit
], ids=["box-1e308", "box-1e12", "simplex-1e-320", "box-limit"])
def test_grid_beyond_the_point_limit_is_refused_before_it_is_built(region, spacing):
    with pytest.raises(ValueError, match="grid would hold"):
        region.grid(spacing)


def test_one_point_simplex_grid_has_no_size_limit():
    assert Simplex(1).grid(1e-320).tolist() == [[1.0]]


# ---------------------------------------------------------------------------
# box projection


def test_box_identity_on_feasible_points():
    k = Box([0.0, 0.0], [1.0, 1.0])
    assert_allclose(k.project([0.25, 0.75]), [0.25, 0.75])


def test_box_componentwise_clamp():
    k = Box([0.0, 0.0], [1.0, 1.0])
    assert_allclose(k.project([-1.0, 5.0]), [0.0, 1.0])
    k2 = Box([0.0, 1.0], [1.0, 2.0])
    assert_allclose(k2.project([0.5, 2.3]), [0.5, 2.0])


def test_box_holds_read_only_copies_of_its_bounds():
    lo = np.array([0.0, 0.0])
    b = Box(lo, [1.0, 1.0])
    lo[0] = 0.9
    assert b.lower.tolist() == [0.0, 0.0]
    assert b.project([0.0, 0.0]).tolist() == [0.0, 0.0]
    for arr in (b.lower, b.upper):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5


def test_polyhedron_constraints_are_read_only():
    A, rhs = np.array([[1.0, 1.0]]), np.array([1.0])
    region = Polyhedron(A, rhs, lower=[0.0, 0.0], upper=[1.0, 1.0])
    A[0, 0] = rhs[0] = 7.0
    assert region.A[0].tolist() == [1.0, 1.0] and region.b[0] == 1.0
    for arr in (region.A, region.b):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5


def test_catalog_regions_cannot_be_written():
    # four default fixtures share one unit square, and the catalog is
    # cached, so a write would reach every later default_catalog()
    written = 0
    for fixture in default_catalog().values():
        for name, arr in vars(fixture.region).items():
            if isinstance(arr, np.ndarray) and not name.startswith("_"):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.5
                written += 1
    assert written == 2 * 8  # four unit squares, three intervals, the mortgage


def test_box_validation():
    with pytest.raises(ValueError):
        Box([-1.0], [1.0])          # negative price floor
    with pytest.raises(ValueError):
        Box([2.0], [1.0])           # crossed bounds
    with pytest.raises(ValueError):
        Box([0.0, 0.0], [1.0])      # length mismatch


@settings(max_examples=60, deadline=None)
@given(coords(3), coords(3))
def test_box_projection_nonexpansive(x, y):
    k = Box([0.0, 0.5, 0.0], [1.0, 2.0, 0.25])
    px, py = k.project(x), k.project(y)
    assert np.linalg.norm(px - py) <= np.linalg.norm(
        np.asarray(x) - np.asarray(y)) + 1e-9


def test_box_project_matches_grid_oracle():
    k = Box([0.0, 0.0], [1.0, 1.0])
    grid = box_grid(k.lower, k.upper, 0.02)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-1, 2, size=(20, 2)):
        assert np.linalg.norm(k.project(x) - nearest_grid_point(grid, x)) <= 0.04


# ---------------------------------------------------------------------------
# polyhedron projection


def test_polyhedron_identity_on_feasible():
    x = np.array([0.5, 0.5])
    assert_allclose(UNIT_SQUARE_POLY.project(x), x)


def test_polyhedron_unit_square_corner():
    # grid oracle for the unit square puts the projection of (2, 2) at (1, 1)
    grid = box_grid([0, 0], [1, 1], 0.02)
    oracle = nearest_grid_point(grid, [2.0, 2.0])
    proj = UNIT_SQUARE_POLY.project([2.0, 2.0])
    assert np.linalg.norm(proj - oracle) <= 0.04
    assert_allclose(proj, [1.0, 1.0], atol=1e-8)


def test_polyhedron_halfplane_projection():
    halfplane = Polyhedron([[1.0, 1.0]], [1.0], lower=[0, 0], upper=[1, 1])
    assert_allclose(halfplane.project([1.0, 1.0]), [0.5, 0.5], atol=1e-10)


def test_polyhedron_empty_region_rejected():
    with pytest.raises(ValueError, match="empty"):
        Polyhedron([[1.0], [-1.0]], [0.0, -1.0])  # x <= 0 and x >= 1


def test_polyhedron_bounding_box_and_vertices():
    lo, hi = UNIT_SQUARE_POLY.bounding_box()
    assert_allclose(lo, [0.0, 0.0], atol=1e-9)
    assert_allclose(hi, [1.0, 1.0], atol=1e-9)
    verts = UNIT_SQUARE_POLY.vertices()
    assert_allclose(verts, [[0, 0], [0, 1], [1, 0], [1, 1]], atol=1e-9)


# HiGHS presolve calls the LP min x_2 over this cone infeasible
CONE = (np.array([[0, 0, -1], [0, 1, 0.5], [1, 0, -1], [1, -1, -1], [-1, 0, -1]]),
        np.array([0, 0, 0, 0, 1.0]))
# and cannot classify max x_1 here, unbounded along (1, 3, 4) / 4
RAY = (np.array([[0, 1, -3], [1, -3, 2], [0, -2, 1], [0, 4, -3], [1, 0, -2]]) / 8,
       np.array([0, 0, 0, 1.0, 0]))
# x <= 1 and 2 x <= 3: at dim 1 the one null direction is +1, and only its
# negative shows the ray
HALF_LINE = (np.array([[1.0], [2.0]]), np.array([1.0, 3.0]))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Box([0.0, 1.0], [np.inf, 2.0]), id="box-inf"),
    pytest.param(lambda: Box([0.0, 1.0], [np.nan, 2.0]), id="box-nan"),
    pytest.param(lambda: Polyhedron([[1.0, 1.0]], [1.0]), id="halfplane"),
    pytest.param(lambda: Polyhedron([[1.0, 1.0]], [5.0], lower=[0.0, 0.0],
                                    upper=[np.nan, 1.0]), id="poly-nan-upper"),
    pytest.param(lambda: Polyhedron([[1.0, 1.0]], [5.0], lower=[np.nan, 0.0],
                                    upper=[1.0, 1.0]), id="poly-nan-lower"),
    pytest.param(lambda: Polyhedron([[1.0, 1.0]], [5.0], lower=[0.0, 0.0],
                                    upper=[np.inf, 1.0]), id="poly-inf-upper"),
    pytest.param(lambda: Polyhedron(*CONE), id="cone"),
    pytest.param(lambda: Polyhedron(*RAY), id="ray"),
    pytest.param(lambda: Polyhedron(*HALF_LINE), id="half-line"),
])
def test_unbounded_regions_rejected(build):
    with pytest.raises(ValueError, match="finite|bounded"):
        build()


@pytest.mark.parametrize("A, b, reason", [
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], "fewer than 3 constraints"),
    ([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]], [1.0, 1.0, 1.0],
     "the constraint normals span fewer than 2 dimensions"),
    ([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [0.0, 0.0, -1.0],
     "no point satisfies A x <= b"),
    # x, y >= 0 and x <= y: the ray along the y axis
    ([[-1.0, 0.0], [0.0, -1.0], [1.0, -1.0]], [0.0, 0.0, 0.0],
     "A d <= 0 at d = [0.0, 1.0]"),
    (*HALF_LINE, "A d <= 0 at d = [-1.0]"),
], ids=["fewer-rows", "rank", "empty", "ray", "half-line"])
def test_polyhedron_refusals_keep_their_full_text(A, b, reason):
    with pytest.raises(ValueError) as info:
        Polyhedron(A, b)
    assert str(info.value) == f"polyhedron must be nonempty and bounded ({reason})"


def test_an_lp_certified_polyhedron_enumerates_no_vertices(monkeypatch):
    # the 2,006-row cube of the CLI's vertex-limit test: C(2006, 3) row
    # subsets, so LPs certify it, and vertices() refuses at once
    normals = np.random.default_rng(5).normal(size=(2000, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    region = Polyhedron(normals, normals @ np.full(3, 0.5) + 1.0,
                        lower=np.zeros(3), upper=np.ones(3))

    def no_enumeration(*args):
        raise AssertionError("vertices enumerated after construction")

    monkeypatch.setattr(regions, "_row_subsets", no_enumeration)
    monkeypatch.setattr(np.linalg, "det", no_enumeration)
    with pytest.raises(ValueError) as info:
        region.vertices()
    assert str(info.value) == ("vertices are kept only within the limits of "
                               "dim <= 3 and 65536 row subsets")


@st.composite
def boxes(draw):
    """A box of 1 to 16 axes, each a range, a flat axis, or a flat axis at
    zero whose bounds carry opposite zero signs; a -0.0 lower bound is
    drawn often."""
    lower, upper = [], []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(["range", "range", "flat", "signed-zeros"]))
        if kind == "signed-zeros":
            a = draw(st.sampled_from([-0.0, 0.0]))
            b = -a
        else:
            a = draw(st.sampled_from([-0.0, 0.0, 0.25, 1.5]))
            b = a if kind == "flat" else a + 0.75
        lower.append(a)
        upper.append(b)
    return Box(lower, upper)


@settings(max_examples=60, deadline=None)
@given(boxes())
@example(Box([-0.0, 0.0], [0.0, 1.0]))
@example(Box(np.zeros(16), np.ones(16)))
def test_box_vertices_match_the_product_and_unique_corners(box):
    got, expected = box.vertices(), box_vertices_reference(box)
    assert got.shape == expected.shape and np.array_equal(got, expected)
    # a flat axis keeps its lower bound's bits.  The reference keeps them
    # too wherever its bits are defined: its sort of the 2^n product rows
    # is numpy's insertion sort up to 16 rows; past that, on a flat axis
    # with bounds -0.0 and 0.0, which equal rows survive np.unique depends
    # on the unstable sort, and a column can mix the two signs
    flat = box.lower == box.upper
    assert_same_bits(got[:, flat], np.broadcast_to(box.lower[flat], got[:, flat].shape))
    mixed_zeros = flat & (np.signbit(box.lower) != np.signbit(box.upper))
    if 2 ** box.dim <= 16 or not mixed_zeros.any():
        assert_same_bits(got, expected)


@pytest.mark.parametrize("scale", [1.0, 1e-5, 1e3])
def test_polyhedron_vertices_do_not_depend_on_row_scale(scale):
    # at 1e-5 the raw rows have det 1e-15, but the unit rows have det 1
    cube = Polyhedron(scale * np.vstack([np.eye(3), -np.eye(3)]),
                      scale * np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]))
    corners = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
    assert np.array_equal(cube.vertices(), corners)



@pytest.mark.parametrize("scale", [1.0, 1e-5, 1e3])
def test_polyhedron_membership_does_not_depend_on_row_scale(scale):
    # slack is measured on unit rows: at 1e-5 the raw slack of the point
    # 2e-9 outside is 2e-14, far inside TAU_FEAS
    cube = Polyhedron(scale * np.vstack([np.eye(3), -np.eye(3)]),
                      scale * np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]))
    assert cube.contains_many([[1 + 2e-9, 0.5, 0.5], [1 + 5e-11, 0.5, 0.5]],
                              TAU_FEAS).tolist() == [False, True]

@settings(max_examples=40, deadline=None)
@given(coords(2))
def test_polyhedron_projection_properties(x):
    region = Polyhedron([[1.0, 1.0]], [1.5], lower=np.zeros(2),
                        upper=np.ones(2))
    y = region.project(x)
    assert region.contains(y, tol=1e-9)
    assert np.linalg.norm(region.project(y) - y) <= 1e-8
    for z in region.vertices():
        assert (np.asarray(x) - y) @ (z - y) <= 1e-8


def test_polyhedron_projection_matches_qp_solver():
    # independent route: solve the projection QP with SLSQP and compare
    from scipy.optimize import minimize

    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(12):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 5))
        A = rng.normal(size=(m, n))
        center = rng.uniform(0.2, 0.8, size=n)
        b = A @ center + rng.uniform(0.05, 0.5, size=m)
        try:
            region = Polyhedron(A, b, lower=np.zeros(n), upper=np.ones(n))
        except ValueError:
            continue
        for _ in range(3):
            x = rng.uniform(-1.5, 2.5, size=n)
            y = region.project(x)
            qp = minimize(
                lambda z: 0.5 * np.sum((z - x) ** 2),
                region.feasible_point(),
                jac=lambda z: z - x,
                constraints=[{"type": "ineq",
                              "fun": lambda z: region.b - region.A @ z,
                              "jac": lambda z: -region.A}],
                method="SLSQP", options={"maxiter": 300, "ftol": 1e-14})
            assert np.sum((y - x) ** 2) <= np.sum((qp.x - x) ** 2) + 1e-9
            assert np.linalg.norm(y - qp.x) <= 1e-4
            checked += 1
    assert checked >= 20


@st.composite
def polyhedron_cases(draw):
    """A nonempty polyhedron around a random center, and a point to project.

    Rows are random normals through or beyond the center; an opposite row
    pair makes the set flat.  Bounds are either drawn, with a zero width
    that pins a coordinate, or a box of half-width 20 * scale around the
    center, which keeps the set bounded and is never active: the point
    lies within 5 sqrt(3) scale of the center, so its projection lies
    within twice that.  Row
    entries are multiples of 1/8, so distinct normals are never nearly
    parallel: at an angle of 1e-8 the multipliers reach 1e8 and the NNLS
    result loses the accuracy the KKT check asks for.
    """
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.floats(-2.0, 3.0))
    unit = st.integers(-8, 8).map(lambda k: k / 8)
    A = np.array(draw(st.lists(st.lists(unit, min_size=n, max_size=n),
                               min_size=m, max_size=m)))
    assume(np.all(np.any(A != 0, axis=1)))
    center = scale * np.array(draw(coords(n, 0.0, 1.0)))
    slack = scale * np.array(draw(coords(m, 0.0, 1.0)))
    b = A @ center + slack
    if draw(st.booleans()):  # flat: a.z <= a.c and -a.z <= -a.c
        A = np.vstack([A, A[0], -A[0]])
        b = np.concatenate([b, [A[0] @ center, -A[0] @ center]])
    width = np.full(n, 20.0 * scale)
    if draw(st.booleans()):
        width = scale * np.array(draw(coords(n, 0.0, 1.0)))
        width[draw(st.integers(0, n - 1))] = 0.0  # lower == upper
    lower, upper = center - width, center + width
    x = center + scale * np.array(draw(coords(n, -5.0, 5.0)))
    return Polyhedron(A, b, lower=lower, upper=upper), x, scale


def assert_box_and_anchor_match_lp(region, lower, upper):
    """The region's box equals the LP box, and its anchor is a feasible
    vertex that attains min x_0.

    The box tolerance covers the basic points that ``vertices`` accepts
    within its feasibility allowance of 1e-9 on unit rows: on a flat set,
    one such point off the set by a few 1e-9 stretches the box that much.
    A missed vertex would be off by the set's own scale.
    """
    scale = max(1.0, float(np.abs(region.b).max()))
    lo, hi = region.bounding_box()
    assert_allclose(lo, lower, rtol=0, atol=1e-7 * scale)
    assert_allclose(hi, upper, rtol=0, atol=1e-7 * scale)
    anchor = region._anchor
    assert region.contains(anchor, tol=1e-9)
    assert anchor[0] == lo[0]
    slack = region._unit_b - region._unit_A @ anchor
    active = region._unit_A[np.abs(slack) <= 1e-9 * scale]
    assert np.linalg.matrix_rank(active) == region.dim


@settings(max_examples=150, deadline=None)
@given(polyhedron_cases())
def test_polyhedron_box_and_anchor_match_lp(case):
    region = case[0]
    status, lower, upper = polyhedron_lp_reference(region.A, region.b)
    assert status == "bounded"
    assert_box_and_anchor_match_lp(region, lower, upper)


@st.composite
def polyhedron_systems(draw):
    """A system A x <= b on the 1/8 grid, dim 1-3, that may be empty,
    unbounded or bounded: random rows and right-hand sides, sometimes an
    opposite row pair that makes the set flat, sometimes axis bounds, with
    lower == upper where a drawn width is 0."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 7))

    def eighths(lo, hi, size):
        return np.array(draw(st.lists(st.integers(8 * lo, 8 * hi), min_size=size,
                                      max_size=size))) / 8

    A = np.array([eighths(-1, 1, n) for _ in range(m)])
    assume(np.all(np.any(A != 0, axis=1)))
    b = eighths(-1, 3, m)
    if draw(st.booleans()):  # flat: a.x <= b_0 and -a.x <= -b_0
        A, b = np.vstack([A, -A[0]]), np.append(b, -b[0])
    if draw(st.booleans()):
        lower = eighths(-2, 2, n)
        upper = lower + eighths(0, 2, n)
        A = np.vstack([A, -np.eye(n), np.eye(n)])
        b = np.concatenate([b, -lower, upper])
    return A, b


@settings(max_examples=300, deadline=None)
@given(polyhedron_systems())
@example(CONE)
@example(RAY)
@example(HALF_LINE)
def test_polyhedron_decision_matches_lp(system):
    # without an LP: vertices decide emptiness, extreme rays boundedness
    status, lower, upper = polyhedron_lp_reference(*system)
    try:
        region = Polyhedron(*system)
    except ValueError as exc:
        reason = str(exc)
        assert reason.startswith("polyhedron must be nonempty and bounded")
        assert status != "bounded", reason
        if system[1].size <= system[0].shape[1]:
            assert "fewer than" in reason
        if "no point satisfies" in reason:
            assert status == "empty"
        if "A d <= 0" in reason:
            assert status == "unbounded"
        return
    assert status == "bounded"
    assert_box_and_anchor_match_lp(region, lower, upper)


@pytest.mark.parametrize("slope", [1e-6, 1e-10])
def test_thin_triangle_is_bounded(slope):
    # x >= 0 and |y| <= 1 - slope x reach x = 1 / slope; each candidate
    # recession direction fails A d <= 0 by at most 2 slope
    region = Polyhedron([[-1.0, 0.0], [slope, 1.0], [slope, -1.0]],
                        [0.0, 1.0, 1.0])
    lo, hi = region.bounding_box()
    assert_allclose(lo, [0.0, -1.0], rtol=0, atol=1e-12)
    assert_allclose(hi, [1 / slope, 1.0], rtol=1e-12)


@settings(max_examples=150, deadline=None)
@given(polyhedron_cases())
def test_polyhedron_projection_satisfies_kkt(case):
    region, x, scale = case
    y = region.project(x)
    tol = 1e-8 * max(1.0, scale)
    assert projection_kkt_residual(region.A, region.b, x, y, tol) <= tol


def test_polyhedron_projection_at_scale_100():
    A = [[-1.409, 0.855, 0.706], [-0.15, -1.71, -0.371],
         [-0.679, 0.637, 2.258], [0.217, -0.779, -1.171],
         [-0.056, -0.177, -1.152]]
    b = [170.4993, -681.1295, 652.6341, -427.0314, -365.9103]
    region = Polyhedron(A, b, lower=np.zeros(3), upper=np.full(3, 395.621))
    x = [-484.378, 226.426, -610.138]
    y = region.project(x)
    assert_allclose(y, [205.0279, 324.3998, 257.8212], atol=1e-4)
    assert projection_kkt_residual(region.A, region.b, x, y, 1e-6) <= 1e-6


@st.composite
def nnls_cases(draw):
    """A small quarter-integer matrix, sometimes with an opposite or
    duplicate column, and a right-hand side."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    entry = st.integers(-4, 4).map(lambda k: k / 4)
    A = np.array(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows)))
    if cols > 1 and draw(st.booleans()):  # opposite or duplicate column
        A[:, -1] = A[:, 0] * draw(st.sampled_from([-1.0, 1.0]))
    return A, np.array(draw(coords(rows, -2.0, 2.0)))


def _exact_residual(A, x, b) -> float:
    """||A x - b||, its sum of squares exact in ``Fraction`` and rounded once."""
    return math.sqrt(sum((sum(Fraction(a) * Fraction(v) for a, v in zip(row, x))
                          - Fraction(r)) ** 2
                         for row, r in zip(A.tolist(), b.tolist())))


@settings(max_examples=200, deadline=None)
@given(nnls_cases())
# bvls answers about 1.16e14 on both opposite columns: its float residual
# reads 1.0945 while its exact one is 1.10083, above nnls's optimum 1.10070
@example((np.array([[0.25, -0.25], [1.0, -1.0], [0.0, -0.0], [0.75, -0.75]]),
          np.array([0.0, 0.5, 0.0, -1.0])))
def test_nnls_matches_bounded_least_squares(case):
    from scipy.optimize import lsq_linear

    from walras_vi.regions import nnls

    A, b = case
    x = nnls(A, b)
    reference = lsq_linear(A, b, bounds=(0.0, np.inf), method="bvls",
                           tol=1e-15).x
    assert np.all(x >= 0.0)
    assert _exact_residual(A, x, b) <= _exact_residual(A, reference, b) + 1e-12


def test_nnls_turns_away_dependent_columns():
    # opposite unit columns with zero last entries, as a flat constraint
    # pair gives; scipy.optimize.nnls returns a residual of 1.0 here while
    # reporting 0.0, against the true optimum 0.99254
    E = np.array([[0, -0.5 ** 0.5, 1, 0, 0, -1, 0, 0],
                  [0, 0, 0, 1, 0, 0, -1, 0],
                  [-1, -0.5 ** 0.5, 0, 0, 1, 0, 0, -1],
                  [0, 0, 0, 0.12280209292403048, 0, 0, -1, 0]])
    e = np.array([0.0, 0.0, 0.0, 1.0])
    from walras_vi.regions import nnls

    assert np.linalg.norm(E @ nnls(E, e) - e) == pytest.approx(0.9925440466151525)


@st.composite
def lstsq_cases(draw):
    """A quarter-integer system of up to 4 x 4, k <= m columns, whose last
    column may copy the first, oppose it, be zero, or, with the first's
    last entry zeroed, oppose it as a flat constraint pair does."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, rows))
    entry = st.integers(-4, 4).map(lambda k: k / 4)
    A = np.array(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows)))
    kind = draw(st.sampled_from(["none", "duplicate", "opposite", "zero", "flat"]))
    if cols > 1 and kind != "none":
        if kind == "flat":
            A[-1, 0] = 0.0
        A[:, -1] = {"duplicate": 1.0, "zero": 0.0}.get(kind, -1.0) * A[:, 0]
    return np.asfortranarray(A), np.array(draw(coords(rows, -2.0, 2.0)))


@settings(max_examples=300, deadline=None)
@given(lstsq_cases())
def test_lstsq_matches_gelsy(case):
    # the residual, exact in Fraction, is gelsy's up to rounding; a
    # rank-deficient system gets gelsy's minimum-norm solution
    A, b = case
    z = np.array(regions._lstsq(A.T.tolist(), b.tolist()))
    reference = _lstsq_reference(A, b)
    assert _exact_residual(A, z, b) <= _exact_residual(A, reference, b) + 1e-12
    if np.linalg.matrix_rank(A) < A.shape[1]:
        assert np.linalg.norm(z) == pytest.approx(np.linalg.norm(reference),
                                                  rel=1e-12, abs=1e-12)


def _same_bits_or_same_error(fast, reference):
    """``fast()`` returns the bytes ``reference()`` returns, or raises the
    same exception type, with the same best point and residual when it is a
    ``ProjectionBudgetError``."""
    try:
        expected = reference()
    except Exception as exc:  # noqa: BLE001 - compared below
        with pytest.raises(type(exc)) as excinfo:
            fast()
        if isinstance(exc, ProjectionBudgetError):
            assert excinfo.value.best.tobytes() == exc.best.tobytes()
            assert excinfo.value.achieved == exc.achieved
        return
    got = fast()
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(nnls_cases())
def test_nnls_matches_reference_bit_for_bit(case):
    from walras_vi.regions import nnls

    A, b = case
    _same_bits_or_same_error(lambda: nnls(A, b), lambda: nnls_reference(A, b))
    # the least-distance shape Polyhedron.project builds: [A^T; c^T], e_{n+1}
    E = np.vstack((A.T, b))
    e = np.eye(E.shape[0])[-1]
    _same_bits_or_same_error(lambda: nnls(E, e), lambda: nnls_reference(E, e))


@settings(max_examples=300, deadline=None)
@given(polyhedron_cases())
def test_polyhedron_projection_matches_reference_bit_for_bit(case):
    region, x, _ = case
    _same_bits_or_same_error(lambda: region.project(x),
                             lambda: polyhedron_project_reference(region, x))


@settings(max_examples=100, deadline=None)
@given(polyhedron_cases())
def test_kept_polyhedron_vertices_match_the_enumeration(case):
    region, _, _ = case
    assert_same_bits(region.vertices(), polyhedron_vertices_reference(region))


@pytest.mark.parametrize("A, b, upper", [
    # a vertex basis and an extreme-ray minor whose LU meets a subnormal
    # entry: det raised the divide flag, an error in this suite
    ([[0.0, 2.225073858507e-311, 1.0]], [0.5], [1.0, 1.0, 0.5]),
    ([[0.0, 1.0, 0.0], [2.225073858507e-311, 0.0, 1.0]], [1.0, 1.0], [2.0, 1.0, 1.0]),
])
def test_polyhedron_with_a_subnormal_coefficient(A, b, upper):
    region = Polyhedron(A, b, lower=np.zeros(3), upper=np.full(3, max(upper)))
    assert region.vertices().shape == (8, 3)
    assert_allclose(region.bounding_box(), (np.zeros(3), upper))


def test_polyhedron_vertices_cannot_change_the_region():
    region = Polyhedron([[1.0, 1.0, 1.0]], [2.0], lower=np.zeros(3), upper=np.ones(3))
    before = region.vertices().copy()
    with pytest.raises(ValueError, match="read-only"):
        region.vertices()[0, 0] = 5.0
    assert_same_bits(region.vertices(), before)
    assert np.array_equal(region.bounding_box(), (np.zeros(3), np.ones(3)))


@st.composite
def project_many_cases(draw):
    """A polyhedron of ``polyhedron_cases`` (flat ones included) and rows
    to project: its vertices and edge midpoints, each coordinate moved by
    up to 4 ulps either way, so that rows sit on, just inside and just
    outside facets; the vertex mean; the drawn point; a point far outside;
    and all of them again in reverse order, as duplicates."""
    region, x, scale = draw(polyhedron_cases())
    verts = region.vertices()
    near = np.vstack([verts, (verts + np.roll(verts, 1, axis=0)) / 2])
    ulps = draw(st.lists(st.integers(-4, 4), min_size=near.size, max_size=near.size))
    near = near + np.reshape(ulps, near.shape) * np.spacing(near)
    mean = verts.mean(axis=0)
    rows = np.vstack([near, mean, x, mean + 100.0 * scale])
    return region, np.vstack([rows, rows[::-1]])


@settings(max_examples=150, deadline=None)
@given(project_many_cases())
def test_polyhedron_project_many_matches_row_by_row_project(case):
    # rows the interior screen passes must be the rows project returns
    # unchanged; a failing row raises as the row-by-row loop raises
    region, rows = case
    _same_bits_or_same_error(lambda: region.project_many(rows),
                             lambda: project_many_reference(region, rows))


def test_project_many_screens_no_row_of_a_region_with_equality_rows():
    # (0.2, 0.2, 0.2) meets the simplex's sum row by far as an inequality,
    # but not as the equality it is
    simplex, rows = Simplex(3), np.array([[0.2, 0.2, 0.2], [0.5, 0.25, 0.25]])
    assert_same_bits(regions.ConvexRegion.project_many(simplex, rows),
                     project_many_reference(simplex, rows))


def test_polyhedron_projection_matches_reference_on_a_pinned_flat_set():
    # repeated and opposite rows pin x_1 and x_3; a row-major copy of the
    # column-major least-distance matrix took another BLAS path here and
    # moved the last bits of the projection
    A = np.vstack([[[0.0, 0.0, 0.125]] * 3, [[0.0, 0.125, 0.0], [0.0, 0.125, 0.125]],
                   -np.eye(3), np.eye(3)])
    b = [0.0, 0.0, 0.0, 0.13892807890929085, 0.13892807890929085, -0.0,
         -1.1114246312743268, -0.0, 0.0, 1.1114246312743268, 0.0]
    region = Polyhedron(A, b)
    x = np.array([0.0, 2.8897040413132498, 1.1256703294558041])
    _same_bits_or_same_error(lambda: region.project(x),
                             lambda: polyhedron_project_reference(region, x))


NEAR_PARALLEL = Polyhedron([[1.0, 1.0], [1.0, 1.0 + 1e-8]], [1.0, 1.0],
                           lower=[-5.0, -5.0], upper=[5.0, 5.0])


@pytest.mark.parametrize("x, raises", [
    ([3.0, 3.0], True), ([4.0, -1.0], False), ([0.7, 0.4], False),
    ([-2.0, 4.5], True), ([1.0, 1.0], True), ([0.6, 0.6], False),
    ([10.0, -3.0], True),
])
def test_polyhedron_projection_raises_where_the_reference_raises(monkeypatch, x,
                                                                 raises):
    # with no KKT slack, both kernels refuse every projection on nearly
    # parallel normals whose residual is not exactly 0, and report the same
    # best point and residual
    import conftest
    import walras_vi.regions as regions_module

    monkeypatch.setattr(regions_module, "TAU_PROJ", 0.0)
    monkeypatch.setattr(conftest, "TAU_PROJ", 0.0)
    _same_bits_or_same_error(lambda: NEAR_PARALLEL.project(x),
                             lambda: polyhedron_project_reference(NEAR_PARALLEL, x))
    if raises:
        with pytest.raises(ProjectionBudgetError):
            NEAR_PARALLEL.project(x)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: coords(n, -1e3, 1e3)))
def test_simplex_projection_matches_reference_bit_for_bit(x):
    # the second vector duplicates an entry, a tie at the threshold
    for v in (np.array(x), np.array(x + x[:1])):
        _same_bits_or_same_error(lambda: project_onto_simplex(v),
                                 lambda: project_onto_simplex_reference(v))


def test_simplex_projection_refuses_a_threshold_lost_to_rounding():
    # 1e17 - 1.0 rounds to 1e17, so no k passes the threshold test; the
    # numpy version raised IndexError here, which escaped the CLI
    with pytest.raises(ValueError, match="rounding"):
        Simplex(3).project([1e17, 0.0, 0.0])


def test_polyhedron_projection_budget_reports_best_iterate(monkeypatch):
    import walras_vi.regions as regions_module
    from walras_vi.regions import ProjectionBudgetError

    def iteration_cap(E, e):
        raise RuntimeError("Maximum number of iterations reached.")

    def wrong_multipliers(E, e):
        return np.full(E.shape[1], 0.5)

    region = Polyhedron([[1.0, 1.0]], [1.5], lower=np.zeros(2),
                        upper=np.ones(2))
    for fake in (iteration_cap, wrong_multipliers):
        monkeypatch.setattr(regions_module, "nnls", fake)
        with pytest.raises(ProjectionBudgetError) as excinfo:
            region.project([1.0, 3.0])
        assert excinfo.value.best.shape == (2,)
        assert excinfo.value.achieved > 0
        assert np.isfinite(excinfo.value.achieved)


def test_projection_failure_is_a_value_error():
    # the CLI reports every input failure, this one included, as a ValueError
    from walras_vi.regions import ProjectionBudgetError

    error = ProjectionBudgetError(np.zeros(2), 1.0)
    assert isinstance(error, ValueError)
    assert "KKT" in str(error)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        Simplex(3).project([1.0, 0.0])
    with pytest.raises(ValueError):
        Box([0.0], [1.0]).project([1.0, 0.0])
    with pytest.raises(ValueError):
        UNIT_SQUARE_POLY.project([1.0])


# ---------------------------------------------------------------------------
# membership


def test_contains_examples():
    assert Simplex(3).contains(np.full(3, 1 / 3))
    assert not Simplex(2).contains([0.6, 0.6])
    assert Box([0.0, 0.0], [1.0, 1.0]).contains([0.0, 0.5])


def _contains_by_definition(region, p, tol):
    """The defining constraints of each kind, one row at a time."""
    if isinstance(region, Simplex):
        return bool(np.all(p >= -tol) and abs(p.sum() - 1.0) <= tol)
    if isinstance(region, Box):
        return bool(np.all(p >= region.lower - tol) and np.all(p <= region.upper + tol))
    norms = np.linalg.norm(region.A, axis=1)
    A, b = region.A / norms[:, None], region.b / norms    # unit rows
    return bool(np.all(A @ p - b <= tol * np.maximum(1.0, np.abs(b))))


MEMBERSHIP_REGIONS = [
    Simplex(1), Simplex(2), Simplex(3),
    Box([0.0, 0.5], [1.0, 2.5]), Box([0.25], [0.25]),
    Box([0.0, 1.0, 0.0], [2.0, 2.0, 2.0]),
    UNIT_SQUARE_POLY,
    Polyhedron([[1.0, 1.0, 1.0]], [2.0], np.zeros(3), np.ones(3)),
    # flat: the segment from (1, 0) to (0, 1); the upper rows are redundant
    # but give it an id distinct from the unit square's
    Polyhedron([[1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0], np.zeros(2), np.ones(2)),
]


@pytest.mark.parametrize("region", MEMBERSHIP_REGIONS, ids=repr)
@settings(max_examples=50, deadline=None)
@given(data=st.data(), tol=st.sampled_from([1e-9, TAU_FEAS, 1e-3]))
def test_contains_many_matches_rowwise_contains(region, data, tol):
    # rows built from bounding-box values moved by at most two
    # tolerances, so many sit within +-tol of a constraint
    lo, hi = region.bounding_box()
    levels = np.stack([lo, hi, 0.5 * (lo + hi), lo - 1.0, hi + 1.0])
    cell = st.tuples(st.integers(0, 4), st.sampled_from([-2.0, -0.5, 0.0, 0.5, 2.0]))
    rows = data.draw(st.lists(st.lists(cell, min_size=region.dim,
                                       max_size=region.dim),
                              min_size=1, max_size=8))
    pts = np.array([[levels[k, j] + off * tol for j, (k, off) in enumerate(row)]
                    for row in rows])
    mask = region.contains_many(pts, tol)
    assert mask.dtype == bool and mask.shape == (pts.shape[0],)
    assert mask.tolist() == [region.contains(p, tol) for p in pts]
    assert mask.tolist() == [_contains_by_definition(region, p, tol) for p in pts]


def test_first_distinct_keeps_first_occurrences_greedily():
    # 0.6 is within 1 of the kept 0.0 and dropped; 1.2 is within 1 only
    # of the dropped 0.6, so it stays, as in a loop over kept rows
    pts = np.array([[0.0], [0.6], [1.2], [0.0], [2.5]])
    assert first_distinct(pts, 1.0).tolist() == [True, False, True, False, True]


@pytest.mark.parametrize("dim", [1, 2, 3, 9, 40])
def test_distance_blocks_match_the_full_tensor_bit_for_bit(monkeypatch, dim):
    # thresholds at exact pair distances put ties in the mask, which would
    # flip if a block summed a pair's squares in another order
    rng = np.random.default_rng(dim)
    pts = rng.standard_normal((37, dim)) * 0.117
    full = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
    for entries in (1, dim * 37 + 1, 5 * dim * 37, 1 << 20):
        monkeypatch.setattr(regions, "_BLOCK_ENTRIES", entries)
        for dist in full[rng.integers(0, 37, 6), rng.integers(0, 37, 6)]:
            assert np.array_equal(within_distance(pts, dist), full <= dist)


def _full_mask_first_distinct(pts, dist):
    """``first_distinct`` by the full N x N mask of ``within_distance``."""
    near = within_distance(pts, dist)
    keep = np.ones(len(pts), dtype=bool)
    for i in range(len(pts)):
        if keep[i]:
            keep[i + 1:] &= ~near[i, i + 1:]
    return keep


@st.composite
def near_duplicates(draw):
    """(rows, dist): a few centres, each repeated at distances around dist
    along one axis, ties at dist included, in a drawn order."""
    dim = draw(st.integers(1, 4))
    dist = draw(st.sampled_from([1e-9, 0.117, 1.0]))
    centres = draw(st.lists(st.lists(st.sampled_from([-1.0, 0.0, 0.3, 1e5]),
                                     min_size=dim, max_size=dim), min_size=1, max_size=4))
    scales = st.sampled_from([0.0, 0.5, 1.0, 1.0 - 2.0 ** -40, 1.0 + 2.0 ** -40, 2.0])
    rows = draw(st.lists(st.tuples(st.integers(0, len(centres) - 1),
                                   st.integers(0, dim - 1), scales,
                                   st.sampled_from([-1.0, 1.0])), min_size=1, max_size=40))
    pts = np.array([centres[k] for k, *_ in rows])
    for i, (_, axis, scale, sign) in enumerate(rows):
        pts[i, axis] += sign * scale * dist
    return pts, dist


@settings(max_examples=80, deadline=None)
@given(near_duplicates(), st.sampled_from([1, 3, 16, 100, 1 << 20]))
def test_first_distinct_blocks_keep_the_full_masks_rows(case, entries):
    # small blocks split the kept rows and the rows compared with them
    pts, dist = case
    full = _full_mask_first_distinct(pts, dist)
    with mock.patch.object(regions, "_BLOCK_ENTRIES", entries):
        got = first_distinct(pts, dist)
    assert got.tolist() == full.tolist() == first_distinct_reference(pts, dist).tolist()


def _pyramid(faces: int):
    """A pyramid over a regular ``faces``-gon: every lateral row through the
    apex (0, 0, 1), and z >= 0."""
    t = [2 * math.pi * k / faces for k in range(faces)]
    A = [[round(math.cos(a), 6), round(math.sin(a), 6), 1.0] for a in t] + [[0.0, 0.0, -1.0]]
    return A, [1.0] * faces + [0.0]


def test_a_many_faced_pyramid_dedupes_its_apex_in_little_memory():
    # 9,920 basic feasible points, 9,880 of them the apex: the full mask
    # alone took 94 MiB, and construction peaked at 115.6 MiB
    tracemalloc.start()
    try:
        region = Polyhedron(*_pyramid(40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20
    assert region.vertices().shape == (41, 3)
    assert region.vertices().tobytes() == polyhedron_vertices_reference(region).tobytes()


def test_contains_many_validates_rows():
    square = Box([0.0, 0.0], [1.0, 1.0])
    assert square.contains_many(np.empty((0, 2))).shape == (0,)
    with pytest.raises(ValueError, match="dimension"):
        square.contains_many([[0.5, 0.5, 0.5]])
    with pytest.raises(ValueError, match="finite"):
        square.contains_many([[0.5, np.nan]])


def test_batched_membership_callers_keep_their_messages():
    square = Box([0.0, 0.0], [1.0, 1.0])
    inside = np.array([[0.5, 0.5], [0.0, 1.0]])
    outside = np.vstack([inside, [[1.5, 0.5]]])
    model = linear_economy(np.eye(2), -np.ones(2))
    assert is_positive(model, SamplePlan(square, inside))
    with pytest.raises(ValueError, match="^plan base points must lie in the region$"):
        SamplePlan(square, outside)


# ---------------------------------------------------------------------------
# sampling and feasible points


@pytest.mark.parametrize("region", [
    Simplex(3),
    Box([0.0, 0.5], [1.0, 2.0]),
    Polyhedron([[1.0, 1.0]], [1.5], lower=np.zeros(2), upper=np.ones(2)),
])
def test_samples_are_feasible_and_deterministic(region):
    pts = region.sample(32)
    assert pts.shape == (32, region.dim)
    for row in pts:
        assert region.contains(row, tol=1e-8)
    assert_allclose(pts, region.sample(32))
    assert region.contains(region.feasible_point(), tol=1e-8)


@pytest.mark.parametrize("dim", range(1, 13))
@pytest.mark.parametrize("count", [1, 24, 64, 500])
def test_halton_matches_scipy_engine(dim, count):
    from scipy.stats import qmc

    engine = qmc.Halton(d=dim, scramble=False)
    engine.fast_forward(1)
    assert np.array_equal(_halton(count, dim), engine.random(count))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5000), st.integers(1, 16))
@example(1, 1)
@example(4096, 16)  # one more base-2 digit than 4095 needs
@example(np.int64(64), 10)  # a numpy count, as a library caller may pass
def test_halton_matches_the_axis_by_axis_digit_loop(count, dim):
    assert_same_bits(_halton(count, dim), halton_reference(count, dim))


@pytest.mark.parametrize("region", [
    Simplex(3),
    Box([0.0, 0.5, 0.2], [1.0, 0.5, 2.0]),
    UNIT_SQUARE_POLY,
    Polyhedron([[1.0, 1.0, 1.0]], [2.0], lower=np.zeros(3), upper=np.ones(3)),
], ids=["simplex", "box", "square", "poly3"])
def test_constraints_describe_the_region(region):
    # (A, b, n_eq) as the crossover reads them: every point the region
    # holds meets each row, and every point it refuses breaks one by far
    A, b, n_eq = region.constraints()
    assert A.shape == (b.size, region.dim) and 0 <= n_eq <= b.size
    inside = np.vstack([region.vertices(), region.sample(20)])
    lo, hi = region.bounding_box()
    rng = np.random.default_rng(7)
    outside = region.project_many(rng.uniform(lo - 1, hi + 1, (40, region.dim)))
    outside += rng.choice([-0.5, 0.5], outside.shape)
    for p in np.vstack([inside, outside]):
        slack = b - A @ p
        holds = (np.abs(slack[:n_eq]).max(initial=0.0) <= 1e-12
                 and slack[n_eq:].min() >= -1e-12)
        assert holds == region.contains(p), p
    assert not region.contains_many(outside).all()
