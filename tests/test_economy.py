import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial import ConvexHull

from conftest import box_grid, final_balance, payment_by_bisection
from walras_vi.economy import (
    ExcessDemandModel,
    Fixture,
    MortgageTerms,
    affine_rate_cap_region,
    default_catalog,
    linear_economy,
    mortgage_payment,
    mortgage_payment_slope,
    mortgage_region,
    scalar_catalog,
)
from walras_vi.monotonicity import SamplePlan, is_positive
from walras_vi.regions import Box, Simplex


# ---------------------------------------------------------------------------
# model constructors


def test_fixture_dimensions_must_match():
    # refused when built, not at the first field evaluation on the region
    with pytest.raises(ValueError, match="^fixture 'bad': model dimension 2 does "
                                         "not match region dimension 1$"):
        Fixture("bad", linear_economy(np.eye(2), [0.5, 0.5]), Box([0.0], [1.0]), 0.1)


def test_linear_economy_zero_of_field():
    model = linear_economy(np.eye(2), [0.3, 0.7])
    assert_allclose(model([0.3, 0.7]), [0.0, 0.0])


def test_linear_economy_constant_field():
    model = linear_economy(np.zeros((2, 2)), [-1.0, 0.0])
    assert_allclose(model([0.2, 0.9]), [1.0, 0.0])
    assert_allclose(model([0.7, 0.1]), [1.0, 0.0])


def test_linear_economy_rotation_field():
    model = linear_economy([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0])
    t = 0.3
    assert_allclose(model([t, 1 - t]), [1 - t, -t])


def test_linear_economy_batch_evaluation():
    model = linear_economy([[2.0, 0.0], [0.0, 3.0]], [1.0, 1.0])
    pts = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert_allclose(model(pts), [[1.0, 2.0], [-1.0, -1.0]])


@pytest.mark.parametrize("name, field", [
    ("negslope_half", lambda t: 0.5 - t),
    ("posslope_half", lambda t: t - 0.5),
    ("affine_positive", lambda t: t + 0.1),
], ids=["negslope_half", "posslope_half", "affine_positive"])
def test_scalar_catalog_matches_its_scalar_fields(name, field):
    # the 1-D linear models give the bits of the scalar formulas they
    # replace: one product by +-1 is exact, and x - (-y) rounds as x + y
    t = np.concatenate([np.linspace(0.0, 1.0, 1001), [0.1, 0.3, 0.7, 1e-300]])
    model = scalar_catalog()[name]
    assert model(t[:, None]).tobytes() == field(t[:, None]).tobytes()
    assert model(t[:1]).shape == (1,)
    assert model(t[:1]).tobytes() == field(t[:1]).tobytes()


def test_model_rejects_bad_shapes():
    model = linear_economy(np.eye(2), [0.0, 0.0])
    with pytest.raises(ValueError):
        model([1.0, 2.0, 3.0])


@pytest.mark.parametrize("M, c, message", [
    (np.ones((2, 2, 2)), [0.0, 0.0], "square"),        # 3-D M
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.0, 0.0], "square"),
    (np.eye(2), [0.0, 0.0, 0.0], "square"),            # c of another size
    (np.eye(2), [[0.0, 0.0]], "square"),               # 2-D c
    ([[1.0, np.nan], [0.0, 1.0]], [0.0, 0.0], "finite"),
    (np.eye(2), [np.inf, 0.0], "finite"),
], ids=["3d-M", "non-square-M", "mismatched-c", "2d-c", "nan-M", "inf-c"])
def test_model_refuses_malformed_data_when_built(M, c, message):
    with pytest.raises(ValueError, match=message):
        ExcessDemandModel(M, c)
    with pytest.raises(ValueError, match=message):
        linear_economy(M, c)


@pytest.mark.parametrize("p", [[1e300, -1e300], [[0.5, 1e300], [1e300, 0.5]],
                               [np.nan, 0.0], [[0.5, 0.5], [np.inf, 1.0]]])
def test_model_tests_each_entry_past_an_overflowing_sum(p):
    # M has no zero entry, so an infinite price gives no inf * 0
    model = linear_economy([[1.0, 1e-300], [1e-300, 1.0]], [0.0, 0.0])
    if np.isfinite(p).all():
        assert np.isfinite(model(p)).all()
    else:
        with pytest.raises(ValueError, match="excess demand must be finite"):
            model(p)


def test_model_holds_read_only_copies_of_its_data():
    A, c = np.eye(2), np.zeros(2)
    model = linear_economy(A, c)
    A[0, 0] = 5.0
    c[1] = 1.0
    assert model([1.0, 0.0]).tolist() == [1.0, 0.0]
    for arr in (model.M, model.c):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 2.0
    assert (model.dim, model.label) == (2, "linear[2]")


def test_model_copy_keeps_the_input_layout():
    # a Fortran-ordered M stays Fortran-ordered, so p @ M.T takes the BLAS
    # path the caller's array would take
    A = np.asfortranarray(np.arange(9.0).reshape(3, 3) / 7.0)
    model = ExcessDemandModel(A, [0.1, 0.2, 0.3])
    assert model.M.flags.f_contiguous and not model.M.flags.c_contiguous
    p = np.linspace(0.0, 1.0, 12).reshape(4, 3)
    assert model(p).tobytes() == (p @ A.T - np.array([0.1, 0.2, 0.3])).tobytes()


# ---------------------------------------------------------------------------
# mortgage payment


def test_zero_rate_payment_is_principal_over_periods():
    assert mortgage_payment(MortgageTerms(1200, 12, 0.0)) == pytest.approx(100.0)


def test_payment_matches_bisection_oracle():
    # oracle: simulate the balance recursion and solve for the zeroing payment
    a = mortgage_payment(MortgageTerms(100000, 12, 0.01))
    assert a == pytest.approx(payment_by_bisection(100000, 12, 0.01), abs=1e-6)
    assert a == pytest.approx(8884.878867834173, abs=1e-6)


def test_simulated_balance_reaches_zero():
    rng = np.random.default_rng(42)
    for _ in range(50):
        principal = float(rng.uniform(1e3, 5e5))
        periods = int(rng.integers(1, 360))
        # keep (1+r)^N representable at the comparison scale
        rate_cap = min(0.05, float(np.expm1(18.0 / periods)))
        rate = float(rng.uniform(0.0, rate_cap))
        a = mortgage_payment(MortgageTerms(principal, periods, rate))
        assert abs(final_balance(principal, periods, rate, a)) <= 1e-6 * principal


def test_payment_continuous_at_zero_rate():
    for rate in (1e-6, 1e-9):
        a = mortgage_payment(MortgageTerms(1200, 12, rate))
        assert abs(a - 100.0) / 100.0 <= 1e-4


def test_payment_strictly_increasing_in_rate():
    rates = [0.001, 0.004, 0.01, 0.02, 0.07]
    payments = [mortgage_payment(MortgageTerms(10000, 24, r)) for r in rates]
    assert all(b > a for a, b in zip(payments, payments[1:]))
    assert payments[0] > mortgage_payment(MortgageTerms(10000, 24, 0.0))


def test_payment_slope_matches_finite_differences():
    for rate in (0.0, 0.002, 0.03):
        terms = MortgageTerms(50000, 24, rate)
        h = 1e-6
        bumped = MortgageTerms(50000, 24, rate + h)
        fd = (mortgage_payment(bumped) - mortgage_payment(terms)) / h
        assert mortgage_payment_slope(terms) == pytest.approx(fd, rel=1e-4)


def test_terms_validation():
    with pytest.raises(ValueError):
        MortgageTerms(0.0, 12, 0.01)
    with pytest.raises(ValueError):
        MortgageTerms(1000.0, 0, 0.01)
    with pytest.raises(ValueError):
        MortgageTerms(1000.0, 12, -0.1)
    with pytest.raises(ValueError):
        MortgageTerms(1000.0, 12, 0.01, down_payment=-5.0)


# ---------------------------------------------------------------------------
# mortgage region


def grid_hull_vertex_oracle(region, spacing=0.01):
    """Convex hull of a fine feasible mesh; independent of the solver path."""
    lo, hi = region.bounding_box()
    mesh = box_grid(lo, hi, spacing)
    feasible = mesh[[region.contains(p, tol=1e-9) for p in mesh]]
    hull = ConvexHull(feasible)
    return feasible[hull.vertices]


def test_affine_cap_region_vertices_match_hull_oracle():
    # p1 <= p2 - 1 on [0,1] x [1,2]: triangle (0,1), (0,2), (1,2)
    region = affine_rate_cap_region(-1.0, 1.0, [0.0, 1.0], [1.0, 2.0])
    verts = region.vertices()
    assert_allclose(verts, [[0.0, 1.0], [0.0, 2.0], [1.0, 2.0]], atol=1e-9)
    oracle = grid_hull_vertex_oracle(region)
    for v in verts:
        assert np.linalg.norm(oracle - v, axis=1).min() <= 0.02
    for v in oracle:
        assert np.linalg.norm(verts - v, axis=1).min() <= 0.02


def test_constant_cap_reduces_to_box():
    # slope 0 cap: the rate is capped by a constant, so the set is a box
    region = affine_rate_cap_region(0.75, 0.0, [0.0, 1.0], [1.0, 2.0])
    lo, hi = region.bounding_box()
    assert_allclose(lo, [0.0, 1.0], atol=1e-9)
    assert_allclose(hi, [0.75, 2.0], atol=1e-9)
    assert region.contains([0.75, 1.5])
    assert not region.contains([0.76, 1.5])


def test_mortgage_region_from_terms_is_nonempty():
    terms = MortgageTerms(0.4, 10, 0.03, down_payment=0.2)
    region = mortgage_region(terms, lower=[0.0, 0.0], upper=[0.2, 2.0])
    point = region.feasible_point()
    assert region.contains(point, tol=1e-9)
    # the cap binds: larger rates require pricier property
    cap_value = terms.down_payment + terms.periods * mortgage_payment(terms)
    assert region.contains([terms.rate, cap_value + 1e-9], tol=1e-9)


def test_mortgage_region_infeasible_bounds_error():
    terms = MortgageTerms(0.4, 10, 0.03)
    with pytest.raises(ValueError):
        mortgage_region(terms, lower=[0.0, 2.0], upper=[0.2, 1.0])


def test_mortgage_region_requires_bounded_bounds():
    terms = MortgageTerms(0.4, 10, 0.03)
    with pytest.raises(ValueError):
        mortgage_region(terms, lower=[0.0, 0.0], upper=[np.inf, 2.0])


# ---------------------------------------------------------------------------
# positivity


def test_is_positive_constant_field():
    model = linear_economy(np.zeros((2, 2)), [-1.0, -1.0])
    square = Box([0.0, 0.0], [1.0, 1.0])
    assert is_positive(model, SamplePlan(square, square.vertices()))


def test_is_positive_zero_component_fails():
    model = linear_economy(np.eye(2), [0.5, 0.5])
    square = Box([0.0, 0.0], [1.0, 1.0])
    samples = np.vstack([square.vertices(), [[0.5, 0.5]]])
    assert not is_positive(model, SamplePlan(square, samples))


def test_is_positive_shifted_identity_on_simplex():
    model = linear_economy(np.eye(3), [-0.1, -0.1, -0.1])
    simplex = Simplex(3)
    assert is_positive(model, SamplePlan(simplex, simplex.vertices()))


# ---------------------------------------------------------------------------
# catalog


def test_catalog_labels_and_dimensions():
    catalog = default_catalog()
    assert set(scalar_catalog()) == {"negslope_half", "posslope_half",
                                     "affine_positive"}
    for label, fixture in catalog.items():
        assert fixture.label == label
        assert fixture.model.dim == fixture.region.dim
        assert fixture.lipschitz > 0
        assert fixture.region.is_bounded
