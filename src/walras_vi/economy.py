"""Excess-demand models and fixture economies.

An excess-demand model E(p) = -D(p) + S(p) is affine, E(p) = M p - c, and
is kept as its data M and c.  The module also builds the mortgage-market
feasible region: the periodic payment on a loan couples the interest rate
(price of credit) to the property price through

    A = P * r (1 + r)^N / ((1 + r)^N - 1),
    property price >= down payment + N * A,

and linearizing the right-hand side at a reference rate turns the coupled
constraint into an affine cap on the rate, so the feasible set is a
polyhedron.

Fixture economies with known monotonicity behaviour live in a named
catalog used by the CLI and the theorem harness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .regions import Box, ConvexRegion, FloatArray, Polyhedron, Simplex

__all__ = [
    "ExcessDemandModel",
    "linear_economy",
    "MortgageTerms",
    "mortgage_payment",
    "mortgage_payment_slope",
    "affine_rate_cap_region",
    "mortgage_region",
    "Fixture",
    "CATALOG_LABELS",
    "catalog_fixture",
    "default_catalog",
    "scalar_catalog",
]


@dataclass(frozen=True, eq=False)
class ExcessDemandModel:
    """Affine excess-demand map E(p) = M p - c on R^n, labelled ``linear[n]``
    by default.  Construction checks that M is square, matches c and is
    finite, and keeps read-only copies in the input's memory layout.  A call
    takes an array of shape (n,) or (m, n) and returns the same shape.
    """

    M: FloatArray
    c: FloatArray
    label: Optional[str] = None

    def __post_init__(self):
        M = np.atleast_2d(np.array(self.M, dtype=float, order="K"))
        c = np.atleast_1d(np.array(self.c, dtype=float, order="K"))
        if M.ndim != 2 or c.ndim != 1 or M.shape != (c.size, c.size):
            raise ValueError("M must be square and match c")
        if not (np.all(np.isfinite(M)) and np.all(np.isfinite(c))):
            raise ValueError("M and c must be finite")
        M.flags.writeable = c.flags.writeable = False
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "label", self.label or f"linear[{c.size}]")

    @property
    def dim(self) -> int:
        return self.c.size

    def __call__(self, p) -> FloatArray:
        out = np.asarray(p, dtype=float) @ self.M.T - self.c
        if not (math.isfinite(np.vdot(out, out)) or np.isfinite(out).all()):
            raise ValueError(f"{self.label}: excess demand must be finite")
        return out


def linear_economy(M, c, label: Optional[str] = None) -> ExcessDemandModel:
    """Affine field E(p) = M p - c.

    Positive-definite M gives a strictly monotone fixture, M = 0 a
    constant field, skew M a rotation field.
    """
    return ExcessDemandModel(M, c, label)


@dataclass(frozen=True)
class MortgageTerms:
    """Loan parameters: principal, period count, periodic rate, down payment."""

    principal: float
    periods: int
    rate: float
    down_payment: float = 0.0

    def __post_init__(self):
        if not self.principal > 0:
            raise ValueError("principal must be positive")
        if int(self.periods) != self.periods or self.periods < 1:
            raise ValueError("periods must be an integer >= 1")
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")
        if self.down_payment < 0:
            raise ValueError("down payment must be nonnegative")


def mortgage_payment(terms: MortgageTerms) -> float:
    """Periodic payment A = P r (1+r)^N / ((1+r)^N - 1).

    The zero-rate case is the removable limit A = P / N.  Uses expm1/log1p
    so tiny rates do not cancel catastrophically.
    """
    if terms.rate == 0.0:
        return terms.principal / terms.periods
    growth = np.exp(terms.periods * np.log1p(terms.rate))
    denom = np.expm1(terms.periods * np.log1p(terms.rate))
    return float(terms.principal * terms.rate * growth / denom)


def mortgage_payment_slope(terms: MortgageTerms) -> float:
    """dA/dr at the terms' rate (P and N fixed).

    For r > 0:  A = P r q / (q - 1) with q = (1+r)^N, so
    dA/dr = P [ q/(q-1) - r N (1+r)^(N-1) / (q-1)^2 ].
    At r = 0 the series limit is P (N + 1) / (2 N).
    """
    P, N, r = terms.principal, terms.periods, terms.rate
    if r == 0.0:
        return P * (N + 1) / (2.0 * N)
    q = np.exp(N * np.log1p(r))
    qm1 = np.expm1(N * np.log1p(r))
    dq = N * np.exp((N - 1) * np.log1p(r))
    return float(P * (q / qm1 + r * dq / qm1 - r * q * dq / qm1**2))


def affine_rate_cap_region(intercept: float, slope: float, lower, upper) -> Polyhedron:
    """Polyhedron {p : 0 <= p_1 <= intercept + slope * p_2, a <= p <= b}.

    ``lower``/``upper`` give bounds for every coordinate; the rate cap only
    ties the first two.  Construction fails if the region is empty.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.size
    if n < 2:
        raise ValueError("rate-cap region needs at least two commodities")
    if upper.shape != lower.shape:
        raise ValueError("bound arrays must have equal length")
    if np.any(lower < 0):
        raise ValueError("price lower bounds must be nonnegative")
    if np.any(upper < lower):
        raise ValueError("need a_j <= b_j")
    cap = np.zeros(n)
    cap[0] = 1.0
    cap[1] = -slope
    return Polyhedron(cap[None, :], np.array([intercept]), lower=lower, upper=upper)


def mortgage_region(terms: MortgageTerms, lower, upper, n: int = 2,
                    reference_rate: Optional[float] = None) -> Polyhedron:
    """Feasible prices for the mortgage market as a polyhedron.

    Coordinate 1 is the periodic rate, coordinate 2 the property price.
    The payoff constraint  p_2 >= B + N * A(p_1)  is linearized at
    ``reference_rate`` (default: the rate stored in ``terms``), which
    keeps the set convex and the projections exact:

        p_1 <= g(p_2) = (p_2 - beta_0) / beta_1,

    where beta_0 + beta_1 * p_1 is the tangent of B + N * A(p_1).
    """
    if n < 2:
        raise ValueError("need n >= 2 commodities")
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValueError("bound arrays must have one entry per commodity")
    r0 = terms.rate if reference_rate is None else float(reference_rate)
    ref = MortgageTerms(terms.principal, terms.periods, r0, terms.down_payment)
    value_at_ref = terms.down_payment + terms.periods * mortgage_payment(ref)
    slope = terms.periods * mortgage_payment_slope(ref)
    beta0 = value_at_ref - slope * r0
    # p_2 >= beta0 + slope * p_1  <=>  p_1 <= (p_2 - beta0) / slope
    return affine_rate_cap_region(-beta0 / slope, 1.0 / slope, lower, upper)


@dataclass(frozen=True, eq=False)
class Fixture:
    """Catalog entry: a model, its region, and oracle calibration data.

    ``lipschitz`` scales the solution-set oracle's verification tolerance
    (tol = grid spacing * lipschitz) and is calibrated per fixture.  The
    model and the region must have one dimension.
    """

    label: str
    model: ExcessDemandModel
    region: ConvexRegion
    lipschitz: float

    def __post_init__(self):
        if self.model.dim != self.region.dim:
            raise ValueError(f"fixture {self.label!r}: model dimension "
                             f"{self.model.dim} does not match region dimension "
                             f"{self.region.dim}")


def scalar_catalog() -> dict[str, ExcessDemandModel]:
    """Named one-commodity economies referenced from problem files: the
    affine fields 0.5 - t, t - 0.5 and t + 0.1."""
    return {
        "negslope_half": linear_economy([[-1.0]], [-0.5], label="negslope_half"),
        "posslope_half": linear_economy([[1.0]], [0.5], label="posslope_half"),
        "affine_positive": linear_economy([[1.0]], [-0.1], label="affine_positive"),
    }


# label -> builder of the fixture's (model, region, lipschitz), in catalog order
_FIXTURE_PARTS = {
    "linear_identity": lambda: (
        linear_economy(np.eye(2), [0.5, 0.5], label="linear_identity"),
        Box([0.0, 0.0], [1.0, 1.0]), 0.1),
    "constant_field": lambda: (
        linear_economy(np.zeros((2, 2)), [-1.0, 0.0], label="constant_field"),
        Box([0.0, 0.0], [1.0, 1.0]), 0.25),
    "constant_positive": lambda: (
        linear_economy(np.zeros((2, 2)), [-1.0, -1.0], label="constant_positive"),
        Box([0.0, 0.0], [1.0, 1.0]), 0.25),
    "rotation": lambda: (
        linear_economy([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0], label="rotation"),
        Box([0.0, 0.0], [1.0, 1.0]), 0.25),
    "scalar_negslope": lambda: (
        scalar_catalog()["negslope_half"], Box([0.0], [1.0]), 0.25),
    "scalar_posslope": lambda: (
        scalar_catalog()["posslope_half"], Box([0.0], [1.0]), 0.02),
    "scalar_positive": lambda: (
        scalar_catalog()["affine_positive"], Box([0.0], [1.0]), 0.05),
    "simplex_positive": lambda: (
        linear_economy(np.eye(2), [-0.1, -0.1], label="simplex_positive"),
        Simplex(2), 0.02),
    "mortgage_linear": lambda: (
        linear_economy(np.eye(2), [0.5, 2.5], label="mortgage_linear"),
        affine_rate_cap_region(-1.0, 1.0, np.array([0.0, 1.0]),
                               np.array([2.0, 4.0])),
        0.1),
}

# the default fixture labels, in catalog order
CATALOG_LABELS = _FIXTURE_PARTS.keys()


@functools.cache
def catalog_fixture(label: str) -> Fixture:
    """The default fixture ``label``, built on first use and kept.

    Each label builds only its own fixture, so a problem file naming one
    does not pay for the others: the ``mortgage_linear`` polyhedron
    enumerates its vertices and projects the origin when constructed.
    Fixtures are immutable, so every caller shares the one object.
    """
    return Fixture(label, *_FIXTURE_PARTS[label]())


def default_catalog() -> dict[str, Fixture]:
    """Fixture economies with known monotonicity classes, keyed by label.

    Solutions of the monotone fixtures sit on the default oracle grids
    (multiples of 0.01, 0.02 and 0.5), so the per-fixture ``lipschitz``
    constants can stay small and the solution-set estimates stay tight.
    Each call returns a new dict of the ``catalog_fixture`` objects.
    """
    return {label: catalog_fixture(label) for label in CATALOG_LABELS}
