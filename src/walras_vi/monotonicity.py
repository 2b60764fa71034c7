"""Finite-witness checkers for generalized monotonicity classes.

Five classes are checked: pseudomonotone, strictly pseudomonotone,
properly quasimonotone (primal form: every convex combination of every
sampled tuple admits a member with a nonnegative pairing), its dual form
(every tuple admits one combination satisfying all pairings at once), and
strict-properly quasimonotone (the primal form with strict pairings and
combinations distinct from all tuple members).

The checkers are falsifiers, not provers: "refuted" ships a concrete
witness that replays against the definition (the dual form's only against
the weight grid), while "holds_on_samples" claims nothing beyond the
scanned evidence.  Universal quantifiers over the region are discretized
by a deterministic sample plan (region vertices plus low-discrepancy
points); quantifiers over convex weights become a uniform grid on the
weight simplex.  Scans run in a fixed order (tuple size ascending, index
combinations and weight compositions lexicographic; the two primal
combination classes share one tuple scan), and each class reports its
own first violation, so reports are reproducible.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property, reduce
from math import comb
from typing import Optional

import numpy as np

from .constants import (DISTINCT_DIST, GRID_POINT_LIMIT, PLAN_PAIR_LIMIT,
                        PLAN_POINT_LIMIT, TAU_FEAS, HarnessConfig)
from .economy import ExcessDemandModel
from .regions import (ConvexRegion, FloatArray, first_distinct, simplex_lattice,
                      within_distance)

__all__ = [
    "CLASS_NAMES",
    "SamplePlan",
    "build_plan",
    "Witness",
    "MonotonicityReport",
    "check_tuple_classes",
    "check_class",
    "replay_witness",
    "is_positive",
]

CLASS_NAMES = (
    "pseudo",
    "strict_pseudo",
    "proper_quasi",
    "proper_quasi_dual",
    "strict_proper_quasi",
)

# The combination classes that one tuple scan reports together.
_PRIMAL_CLASSES = ("proper_quasi", "strict_proper_quasi")

HOLDS = "holds_on_samples"
REFUTED = "refuted"

_SCAN_PAIRS = 1 << 17  # entries per scan buffer: m = 3 rows 3,640 (dual 1,985) wide


@dataclass(frozen=True, eq=False)
class SamplePlan:
    """Deterministic discretization of the checkers' quantifiers over a region.

    Construction checks that there is at least one base point, that the
    points have the region's dimension and that they lie in it at TAU_FEAS,
    and that the tuple scan, counted exactly in integers, pairs at most
    PLAN_PAIR_LIMIT (tuple, weight) pairs on weight grids of at most
    GRID_POINT_LIMIT rows; the region itself is not kept.  ``config``
    supplies the tuple size, weight grid and eps_strict every check on the
    plan reads.
    """

    region: InitVar[ConvexRegion]
    base_points: FloatArray
    config: HarnessConfig = HarnessConfig()

    def __post_init__(self, region: ConvexRegion):
        pts = np.atleast_2d(np.asarray(self.base_points, dtype=float))
        if pts.shape[0] < 1:
            raise ValueError("plan needs at least one base point")
        if pts.shape[1] != region.dim:
            raise ValueError("plan dimension does not match the region")
        if not region.contains_many(pts, tol=TAU_FEAS).all():
            raise ValueError("plan base points must lie in the region")
        r, pairs = self.config.weight_grid_resolution, 0
        for m in range(1, min(self.config.tuple_size_max, len(pts)) + 1):
            rows = comb(r + m - 2, m - 1)        # simplex_lattice(m, r - 1)
            pairs += comb(len(pts), m) * rows
            if rows > GRID_POINT_LIMIT:
                raise ValueError(f"the weight grid of {m}-tuples would hold more "
                                 f"than {GRID_POINT_LIMIT} rows; use a smaller "
                                 f"weight_resolution")
            if pairs > PLAN_PAIR_LIMIT:
                raise ValueError(f"the tuple scan up to {m}-tuples would pair more "
                                 f"than {PLAN_PAIR_LIMIT} (tuple, weight) pairs; use "
                                 f"fewer plan points, a smaller m_max or a smaller "
                                 f"weight_resolution")
        object.__setattr__(self, "base_points", pts)

    @property
    def size(self) -> int:
        return self.base_points.shape[0]

    def _repr_pretty_(self, printer, cycle):  # a region field could not be read back
        printer.text(repr(self))

    @cached_property
    def tuple_sizes(self) -> tuple:
        """(m, tuples, weight grid, interior rows mask) for m = 1 ..
        tuple_size_max, up to the plan size: larger tuples do not exist.
        The tuples, lexicographic, are kept in the least unsigned type that
        holds a point index (a byte up to 256 points), so a run that keeps
        its plans keeps little; readers take an intp copy.  Computed once."""
        out, combos = [], np.arange(self.size)[:, None]
        for m in range(1, min(self.config.tuple_size_max, self.size) + 1):
            combos = _extend_combinations(combos, self.size) if m > 1 else combos
            W = simplex_lattice(m, self.config.weight_grid_resolution - 1)
            out.append((m, combos.astype(np.min_scalar_type(self.size - 1)), W,
                        (W > 0).all(axis=1)))
        return tuple(out)

    @cached_property
    def strict_exclusions(self) -> dict:
        """Per tuple size m >= 2, sorted flat indices t * Wi + w of the (tuple,
        interior weight) pairs the strict class excludes; computed once."""
        return _strict_exclusions(self)


def build_plan(region: ConvexRegion,
               config: HarnessConfig = HarnessConfig()) -> SamplePlan:
    """Region vertices plus ``config.num_points`` projected Halton points,
    deduplicated, in a plan that carries ``config``."""
    points = region.probe_points(config.num_points)
    if points.shape[0] == 0:
        raise ValueError("sample plan is empty: the region's vertices cannot be "
                         "enumerated, so plan.points must be at least 1")
    if points.shape[0] > PLAN_POINT_LIMIT:      # before first_distinct pairs them
        raise ValueError(f"the region's vertices and plan.points give "
                         f"{points.shape[0]} plan points, more than the limit "
                         f"of {PLAN_POINT_LIMIT}")
    return SamplePlan(region, points[first_distinct(points, DISTINCT_DIST)],
                      config)


def is_positive(model: ExcessDemandModel, plan: SamplePlan) -> bool:
    """True iff every component of E is > ``plan.config.eps_strict`` at every
    plan point; the plan guarantees the points are nonempty and in the region."""
    return bool(np.all(model(plan.base_points) > plan.config.eps_strict))


@dataclass(frozen=True, eq=False)
class Witness:
    """Concrete refutation data: replaying it reproduces the violation."""

    points: FloatArray
    dot_products: FloatArray
    weights: Optional[FloatArray] = None
    combined: Optional[FloatArray] = None
    indices: tuple = ()
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    class_checked: str
    verdict: str
    samples_used: int
    margin: float
    witness: Optional[Witness] = None

    @property
    def refuted(self) -> bool:
        return self.verdict == REFUTED

    def to_dict(self) -> dict:
        out = {
            "class_checked": self.class_checked,
            "verdict": self.verdict,
            "samples_used": self.samples_used,
            "margin": None if not np.isfinite(self.margin) else self.margin,
            "witness": None,
        }
        if self.witness is not None:
            w = self.witness
            out["witness"] = {
                "points": w.points.tolist(),
                "dot_products": w.dot_products.tolist(),
                "weights": None if w.weights is None else w.weights.tolist(),
                "combined": None if w.combined is None else w.combined.tolist(),
                "indices": list(w.indices),
                "extra": w.extra,
            }
        return out


def _pairings(model: ExcessDemandModel, plan: SamplePlan):
    """The base points P and all inner products G[i, k] = E(p_i) . p_k, with
    their diagonal g."""
    P = plan.base_points
    Ev = model(P)
    return P, Ev @ P.T, np.einsum("ij,ij->i", Ev, P)


def _pair_scan(name: str, model: ExcessDemandModel, plan: SamplePlan,
               bound: float, strict: bool) -> MonotonicityReport:
    """Scan ordered sample pairs: E(x).(y-x) >= -TAU_FEAS => E(y).(y-x) vs ``bound``.

    The conclusion fails below ``bound``, or also at it when ``strict``;
    strict scans skip every pair closer than the distinctness tolerance,
    the others only the diagonal.
    """
    P, G, g = _pairings(model, plan)
    premise = G - g[:, None]          # premise[i, j] = E(p_i).(p_j - p_i)
    conclusion = g[None, :] - G.T     # conclusion[i, j] = E(p_j).(p_j - p_i)
    if strict:
        off = ~within_distance(P, DISTINCT_DIST)
        fails = conclusion <= bound
    else:
        off = ~np.eye(plan.size, dtype=bool)
        fails = conclusion < bound
    checked = off & (premise >= -TAU_FEAS)
    samples = int(off.sum())
    hit = _first(checked & fails)
    if hit is not None:
        i, j = hit
        witness = Witness(
            points=P[[i, j]],
            dot_products=np.array([premise[i, j], conclusion[i, j]]),
            indices=(i, j),
            extra={"premise": float(premise[i, j]),
                   "conclusion": float(conclusion[i, j])},
        )
        margin = float(bound - conclusion[i, j])
        return MonotonicityReport(name, REFUTED, samples, margin, witness)
    slack = conclusion[checked] - bound
    margin = float(slack.min()) if slack.size else float("inf")
    return MonotonicityReport(name, HOLDS, samples, margin)


def _first(mask) -> Optional[tuple]:
    """Index of the first True entry in C order, or None."""
    found = np.argwhere(mask)
    return tuple(int(i) for i in found[0]) if found.size else None


def _extend_combinations(combos, n: int):
    """The (m+1)-subsets of range(n) from the m-subsets, both lexicographic."""
    counts = n - 1 - combos[:, -1]              # larger indices left per row
    rows = np.repeat(combos, counts, axis=0)
    offsets = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.column_stack([rows, rows[:, -1] + 1 + offsets])


def _member_dots(G, g, combos, j, Wt, bufs):
    """E(p_j).(p_j - c) of member j of each tuple, as (weight row, tuple) in bufs[0].

    E(p_j).c = Σ_k G[j, k] w_k is summed in k order, from the k = 0 product;
    ``bufs`` holds two scratch arrays of at least (len(Wt[0]), len(combos)).
    """
    cj = combos[:, j]
    out, prod = bufs[:, :, :len(combos)]
    np.multiply(Wt[0][:, None], G[cj, combos[:, 0]], out=out)
    for k in range(1, combos.shape[1]):
        np.multiply(Wt[k][:, None], G[cj, combos[:, k]], out=prod)
        np.add(out, prod, out=out)
    return np.subtract(g[cj], out, out=out)


def _tuple_dots(G, g, combo, Wt):
    """All pairings dots[j, w] of one tuple, for its witness."""
    bufs = np.empty((2, Wt.shape[1], 1))
    return np.array([_member_dots(G, g, combo[None], j, Wt, bufs)[:, 0].copy()
                     for j in range(len(combo))])


def _allowance(P, m: int) -> float:
    """Rounding allowance of ``_certified`` and ``_ratio_kept`` on m-tuples
    of P; inf, certifying nothing, for m >= 4."""
    allowance = (16 * (m + P.shape[1] + 4) * np.sqrt(P.shape[1])
                 * np.finfo(float).eps * np.abs(P).max())
    return allowance if m <= 3 else np.inf


def _dot(xs, ys):
    """Σ_q x_q y_q of coordinate columns, summed in q order: numpy sums a
    row of fewer than 8 entries in that order too."""
    return reduce(np.add, map(np.multiply, xs, ys))


def _certified(P, combos, steps: int):
    """(T, m) mask of the members no interior combination comes near.

    For interior weights c - p_j = (1 - w_j)(c' - p_j) with c' in the hull
    of the other members, and 1 - w_j >= (m - 1)/steps, so ||c - p_j|| is at
    least (m - 1)/steps times the distance from p_j to that hull: the other
    point for m = 2, the segment of the other two for m = 3.  A member is
    certified when that bound, less ``_allowance`` for rounding in the bound
    and in the float test, exceeds 2 DISTINCT_DIST: the float test then
    passes for every interior weight.  The distances are computed in
    coordinate columns (P[:, q] gathered per member), every sum in q order,
    which is the arithmetic of the row form (T, m, n) below 8 dims.
    """
    T, m = combos.shape
    # u = eps/2, L = max |P|: the computed distance exceeds the true one by at
    # most about 4 √n (3n + 10) u L (the clipped projection parameter is off
    # by a few n u), the combination by √n (m + 1) u L: under half the
    # allowance, whatever its size next to DISTINCT_DIST.
    allowance = _allowance(P, m)
    if allowance == np.inf:
        return np.zeros((T, m), dtype=bool)
    X = [col[combos.T] for col in P.T]          # X[q][k]: coordinate q of member k
    if m == 2:
        d = [x[0] - x[1] for x in X]
        dist = np.sqrt(_dot(d, d))[None, :].repeat(2, axis=0)
    else:
        dist = np.empty((3, T))
        with np.errstate(divide="ignore", invalid="ignore"):  # a == b: NaN
            for j, (a, b) in enumerate(((1, 2), (0, 2), (0, 1))):
                x = [col[j] - col[a] for col in X]
                d = [col[b] - col[a] for col in X]
                s = np.clip(_dot(x, d) / _dot(d, d), 0.0, 1.0)
                r = [xq - s * dq for xq, dq in zip(x, d)]
                dist[j] = np.sqrt(_dot(r, r))
    return ((m - 1) / steps * dist - allowance > 2 * DISTINCT_DIST).T


def _line_offsets(P, combos, j: int, allowance: float):
    """Offsets s (2, T) of the other members a < b of 3-tuples ``combos``
    from member j along v = p_b - p_a, s_k = (p_k - p_j)·v, and the limit
    (T,) of ``_ratio_kept``'s line filter, (2 DISTINCT_DIST + allowance)
    times the computed ||v||; every sum runs in q order."""
    a, b = [k for k in range(3) if k != j]
    X = [col[combos.T] for col in P.T]          # X[q][k]: coordinate q of member k
    v = [x[b] - x[a] for x in X]
    s = np.array([_dot([x[k] - x[j] for x in X], v) for k in (a, b)])
    return s, (2 * DISTINCT_DIST + allowance) * np.sqrt(_dot(v, v))


def _ratio_kept(s, limit, Wi, steps: int):
    """(T,) mask of the 3-tuple members whose offsets s = (s_a, s_b) and
    limit (``_line_offsets``) may meet the line filter at some interior
    weight of the others; the float test passes at every interior weight
    of the rest.  Wi holds the interior 3-tuple weights.

    The line filter drops a weight where the computed |w_a s_a + w_b s_b|,
    products summed in k order, exceeds the limit.  With x_k = p_k - p_j,
    u = eps/2 and L = max |P|, for any v ||c - p_j|| ||v|| >=
    |w_a x_a·v + w_b x_b·v| - √n u L ||v||, as the float weights sum to 1
    within u.  The differences x_k round by u |x_k| and the n-term sums s_k
    by γ_n, and the products and their sum add γ_2 max |s_k|
    (w_a + w_b < 1), so the computed sum errs by at most
    2√n (n + 4) u L ||v||; the norm and the limit's product by (n + 3) u
    relative, and the float test's distance by √n (m + n + 4) u L.  The
    allowance is over twice their sum, so the float test passes at every
    weight the filter drops.  These errors scale with L, as the allowance
    does: neither this bound nor ``_certified``'s needs it below
    DISTINCT_DIST.

    The ratio bound.  Interior weights are (i_a, i_b)/steps with
    i_a, i_b >= 1 and i_a + i_b <= steps - 1, and the lattice is symmetric
    in (i_a, i_b).  Name the offsets so that |s'| >= |s|, and let
    ρ = -s/s' (|ρ| <= 1) and r = i'/i.  Then
    |i s + i' s'| = i |s'| |r - ρ| >= |s'| |r - ρ|, so a weight the filter
    keeps has |r - ρ| <= B = steps · limit / |s'| up to rounding: the
    nearest lattice ratio, one of the two around ρ among the sorted distinct
    ratios (between -inf and inf), is within B of ρ.

    The rounding slack.  With u = eps/2: the filter's computed sum is at
    least (1 - u)(E - γ_2 |s'| - η), where E = |i s + i' s'| / steps is
    exact and η the least subnormal, since i + i' < steps.  The ratios r
    and ρ round by u |r| and u, and the gap by u, so the true
    |r - ρ| >= (1 - 2u) gap - 2u; the computed B is at least
    (1 - u)^2 B - η.  So the filter drops every weight when
    gap > B (1 + 6u) + 3u (steps + 1) + 2 steps η / |s'|.  The test keeps
    where gap <= B + 8 eps (B + steps), which computes to at least
    B (1 + 14u) + 15u steps: more than those terms once |s'| is normal
    (η / |s'| <= 2u, steps >= 3).  It keeps every member whose |s'| is not
    normal, so also s = s' = 0, and NaN.
    """
    swap = np.abs(s[0]) > np.abs(s[1])
    small, big = np.where(swap, s[1], s[0]), np.where(swap, s[0], s[1])
    with np.errstate(divide="ignore", invalid="ignore"):       # s' = 0
        rho = -small / big
        bound = steps * limit / np.abs(big)
    counts = np.rint(Wi[:, :2] * steps)          # the (i, i') of the lattice
    ratios = np.concatenate([[-np.inf], np.unique(counts[:, 1] / counts[:, 0]),
                             [np.inf]])
    k = np.searchsorted(ratios, rho).clip(1, len(ratios) - 1)
    gap = np.minimum(ratios[k] - rho, rho - ratios[k - 1])
    slack = 8 * np.finfo(float).eps * (bound + steps)
    return ~(gap > bound + slack) | ~(np.abs(big) >= np.finfo(float).tiny)


def _combine(W, Pc):
    """Combinations c = Σ_k w_k p_k, summed in k order, of weight rows W
    (rows, m) and tuples Pc (T, m, n), as (T, rows, n)."""
    out = W[:, 0, None] * Pc[:, None, 0]
    for k in range(1, W.shape[1]):
        out += W[:, k, None] * Pc[:, None, k]
    return out


def _combination_hit(P, G, g, combo, weights, threshold):
    """Margin and witness of a violating (tuple, interior weights) pair."""
    dots = _tuple_dots(G, g, combo, weights[:, None])[:, 0]
    combined = _combine(weights[None], P[combo][None])[0, 0]
    witness = Witness(points=P[combo], dot_products=dots, weights=weights,
                      combined=combined, indices=tuple(int(i) for i in combo))
    return float(threshold - dots.max()), witness


def _near_weights(P, combos, members, Wi):
    """The strict class's float test: the (T, len(Wi)) mask of the interior
    weights whose c = Σ_k w_k p_k fails ||c - p_j|| > DISTINCT_DIST at some
    member j of tuples ``combos`` that ``members`` (T, m) marks.  c comes
    from ``_combine`` and the squares are summed in q order, one coordinate
    column (T, len(Wi)) at a time, as in ``_certified``.  A member marked
    on every tuple, as every member of a 4-tuple is, is read as a slice
    rather than gathered."""
    X = [col[combos] for col in P.T]            # X[q][:, k]: coordinate q of member k
    C = [_combine(Wi, x[:, :, None])[..., 0] for x in X]
    near = np.zeros(C[0].shape, dtype=bool)
    for j in range(combos.shape[1]):
        sel = slice(None) if members[:, j].all() else np.flatnonzero(members[:, j])
        d = [c[sel] - x[sel, j, None] for c, x in zip(C, X)]
        near[sel] |= ~(np.sqrt(_dot(d, d)) > DISTINCT_DIST)
    return near


def _strict_exclusions(plan: SamplePlan) -> dict:
    """Per tuple size m, the flat indices t * len(Wi) + w, ascending, of the
    (tuple, interior weight) pairs that fail the float test
    (``_near_weights``) at some member.

    ``_certified``, then for 3-tuples ``_ratio_kept``, clear members whose
    float test passes at every interior weight, in batches of
    _SCAN_PAIRS // len(Wi).  The float test runs on the tuples left, at
    every interior weight and their uncertain members only, a quarter of
    such a batch per coordinate at a time: at every member of a 4-tuple,
    which no bound certifies.
    """
    P, steps = plan.base_points, plan.config.weight_grid_resolution - 1
    out = {m: np.empty(0, np.intp) for m, *_ in plan.tuple_sizes}
    for m, all_combos, W, interior in plan.tuple_sizes[1:steps]:  # 1 < m <= steps
        Wi, found = W[interior], [out[m]]
        combos, step = all_combos.astype(np.intp), max(1, _SCAN_PAIRS // len(Wi))
        uncertain = np.concatenate([~_certified(P, combos[lo:lo + step], steps)
                                    for lo in range(0, len(combos), step)])
        for j in range(m if m == 3 else 0):
            members = np.flatnonzero(uncertain[:, j])
            for t in (members[lo:lo + step] for lo in range(0, len(members), step)):
                s, limit = _line_offsets(P, combos[t], j, _allowance(P, 3))
                uncertain[t, j] = _ratio_kept(s, limit, Wi, steps)
        rows = np.flatnonzero(uncertain.any(axis=1))
        tested = max(1, step // (4 * P.shape[1]))
        for r in (rows[lo:lo + tested] for lo in range(0, len(rows), tested)):
            t, w = np.nonzero(_near_weights(P, combos[r], uncertain[r], Wi))
            found.append(r[t] * len(Wi) + w)
        out[m] = np.concatenate(found)
    return out


def _fold(G, g, combos, Wt, bufs, ufunc):
    """Member pairings at the weight columns Wt, folded over members by
    ``ufunc`` into bufs[2]; bufs[:2] is ``_member_dots``'s scratch."""
    acc = bufs[2, :, :len(combos)]
    for j in range(combos.shape[1]):
        dots = _member_dots(G, g, combos, j, Wt, bufs[:2])
        ufunc(acc, dots, out=acc) if j else np.copyto(acc, dots)
    return acc


def _member_columns(D, combos):
    """A[j][k] = D[c_j, c_k] = g_j - G[c_j, c_k], each (T,): member j of each
    tuple pairs Σ_k w_k A_jk at weights w with Σ_k w_k = 1."""
    return [[D.take(row + ck) for ck in combos.T] for row in combos.T * len(D)]


def _vertex_bound(D, combos, scale: float):
    """vlb, (T,), a lower bound on each tuple's dual ``achieved``; -inf where
    ``scale`` is not finite.  At a vertex row e_k the scan only
    multiplies by 0 and 1, so it pairs the float A_jk (``_member_columns``)
    bit for bit: ``achieved``, a max over rows that include e_k, is at least
    vlb = max_k min_j A_jk, exactly."""
    if not np.isfinite(scale):
        return np.full(len(combos), -np.inf)
    return reduce(np.maximum, [reduce(np.minimum, col)
                               for col in zip(*_member_columns(D, combos))])


def _interior_bound(D, combos, steps: int, scale: float):
    """lb, (T,), a lower bound on each tuple's interior ``maxdots``.  Interior
    weights have w_k >= 1/s (s = steps >= m), and a linear function on
    {w >= 1/s, Σ w = 1} is least at a vertex (1/s, ..., 1 - (m - 1)/s, ...,
    1/s), so member j pairs at least L_j = (Σ_k A_jk + (s - m) min_k A_jk) / s
    (``_member_columns``) at every interior weight, and ``maxdots`` is at
    least max_j L_j.

    lb is the float max_j L_j less an allowance for rounding.  With
    u = eps/2, Γ = max |g| + max |G| (``scale``) and w_k = i_k/s: the
    weight rows round by u w_k, which costs u max|G|; the k-order sum of
    m products errs by γ_m (1 + u) max|G|, and the final g_j - S by
    u (|g_j| + |S|), so a scan entry is off by at most (m + 3) u Γ.  The
    float L_j: the A_jk round by u Γ each, the (m - 1)-term sum by
    γ_{m-1} m Γ, and the product by s - m, the sum and the division by s
    by u s Γ each before the division, which s >= m turns into at most
    (m + 4) u Γ on L_j.  Subtracting the allowance rounds by u (Γ + it).
    Underflow adds at most η/2 (η the least subnormal) at each of the
    m + 2 products and divisions.  The allowance, (2m + 9)(eps Γ + η), is
    twice the at most (2m + 9) u Γ + (m + 2) η / 2 these sum to.  lb is
    -inf where there are no interior weights (s < m) or 4 s Γ overflows.
    """
    T, m = combos.shape
    if steps < m or not np.isfinite(4 * steps * scale):
        return np.full(T, -np.inf)
    lb = reduce(np.maximum, [(reduce(np.add, row)                 # in k order
                              + (steps - m) * reduce(np.minimum, row)) / steps
                             for row in _member_columns(D, combos)])
    tiny = np.finfo(float)
    return lb - (2 * m + 9) * (tiny.eps * scale + tiny.smallest_subnormal)


def check_tuple_classes(model: ExcessDemandModel, plan: SamplePlan,
                        names: tuple = _PRIMAL_CLASSES) -> dict:
    """Reports of the primal combination classes in ``names`` from one scan.

    Members pair only with the interior weight rows (all weights positive),
    since a boundary combination of a tuple is an interior one of a
    sub-tuple.  Tuples of each size m come in lexicographic order, in
    chunks of ``_SCAN_PAIRS`` pairings per buffer (numpy 2.4's broadcast
    multiply is about four times slower per element on rows under about
    3,000 tuples).  Each chunk is first bounded by ``_interior_bound``, and
    only the tuples some class still needs are scored.  A class needs none
    once it has its first violation, and otherwise the tuples whose lb is
    not above its least score so far: that least is not below its
    threshold, so a tuple above it can neither lower it nor violate.
    Scored tuples stay in lexicographic order, so each class keeps its
    first violation and exact least score, whatever else ``names`` holds;
    ``samples_used`` counts every pair of the plan.  Pairings are summed in
    k order; the strict class skips ``SamplePlan.strict_exclusions``.
    """
    P, G, g = _pairings(model, plan)
    D = g[:, None] - G                       # D[j, k] = E(p_j).(p_j - p_k)
    scale = float(np.abs(G).max() + np.abs(g).max())
    eps, steps = plan.config.eps_strict, plan.config.weight_grid_resolution - 1
    strict = "strict_proper_quasi" in names
    samples = dict.fromkeys(_PRIMAL_CLASSES, 0)
    least = dict.fromkeys(_PRIMAL_CLASSES, float("inf"))    # least score so far
    hits: dict = {}                          # class name -> (margin, witness)
    for m, all_combos, W, interior in plan.tuple_sizes[:steps]:
        Wi = int(interior.sum())        # m-tuples have interior weights iff m <= steps
        all_combos, step = all_combos.astype(np.intp), max(1, _SCAN_PAIRS // Wi)
        bufs = np.empty((3, Wi, min(len(all_combos), step)))
        for lo in range(0, len(all_combos), step):
            chunk = all_combos[lo:lo + step]
            samples["proper_quasi"] += len(chunk) * Wi
            if strict and m > 1:                 # no strict class for 1-tuples
                ex = plan.strict_exclusions[m]
                span = np.searchsorted(ex, (lo * Wi, (lo + len(chunk)) * Wi))
                t, w = np.divmod(ex[span[0]:span[1]] - lo * Wi, Wi)
                samples["strict_proper_quasi"] += len(chunk) * Wi - len(t)
            lb = _interior_bound(D, chunk, steps, scale)
            keep = np.zeros(len(chunk), dtype=bool)
            for name in _PRIMAL_CLASSES[:m]:
                if name in names and name not in hits:
                    keep |= ~(lb > least[name])
            kept = np.flatnonzero(keep)
            if not kept.size:
                continue
            combos = chunk[kept]
            maxdots = _fold(G, g, combos, W[interior].T, bufs, np.maximum)  # (Wi, T)

            low = float(maxdots.min(initial=np.inf))
            least["proper_quasi"] = min(least["proper_quasi"], low)
            if ("proper_quasi" not in hits and not low >= -TAU_FEAS
                    and (hit := _first(maxdots.T < -TAU_FEAS))):
                hits["proper_quasi"] = _combination_hit(
                    P, G, g, combos[hit[0]], W[interior][hit[1]], -TAU_FEAS)

            if strict and m > 1:  # excluded pairs score +inf, which no test selects
                scored = keep[t]
                maxdots[w[scored], np.searchsorted(kept, t[scored])] = np.inf
                low = float(maxdots.min(initial=np.inf))
                least["strict_proper_quasi"] = min(least["strict_proper_quasi"], low)
                if ("strict_proper_quasi" not in hits and not low > eps
                        and (hit := _first(maxdots.T <= eps))):
                    hits["strict_proper_quasi"] = _combination_hit(
                        P, G, g, combos[hit[0]], W[interior][hit[1]], eps)
    best = {"proper_quasi": least["proper_quasi"] + TAU_FEAS,
            "strict_proper_quasi": least["strict_proper_quasi"] - eps}
    return {name: MonotonicityReport(name, REFUTED, samples[name], *hits[name])
            if name in hits else
            MonotonicityReport(name, HOLDS, samples[name], best[name])
            for name in names}


def _dual_scan(model: ExcessDemandModel, plan: SamplePlan) -> MonotonicityReport:
    """The dual class's report: each tuple's ``achieved``, the max over all
    weight rows of the min over members, must be at least -TAU_FEAS.

    Tuples come as in ``check_tuple_classes``, and only those whose vlb
    (``_vertex_bound``, at most ``achieved``) is below max(-TAU_FEAS, least
    ``achieved`` so far) are scored: no other can lower that least or
    violate.  ``samples_used`` counts every (tuple, weight row) pair.
    """
    P, G, g = _pairings(model, plan)
    D = g[:, None] - G                       # D[j, k] = E(p_j).(p_j - p_k)
    scale = float(np.abs(G).max() + np.abs(g).max())
    steps = plan.config.weight_grid_resolution - 1
    samples = sum(len(combos) * len(W) for _, combos, W, _ in plan.tuple_sizes)
    least = float("inf")
    for _, all_combos, W, _ in plan.tuple_sizes:
        all_combos, step = all_combos.astype(np.intp), max(1, _SCAN_PAIRS // len(W))
        bufs = np.empty((3, len(W), min(len(all_combos), step)))
        for lo in range(0, len(all_combos), step):
            chunk = all_combos[lo:lo + step]
            vlb = _vertex_bound(D, chunk, scale)
            combos = chunk[~(vlb >= max(-TAU_FEAS, least))]
            if not len(combos):
                continue
            mindots = _fold(G, g, combos, W.T, bufs, np.minimum)     # (W, T)
            achieved = mindots.max(axis=0, initial=-np.inf)
            low = float(achieved.min(initial=np.inf))
            least = min(least, low)
            if not low >= -TAU_FEAS and (hit := _first(achieved < -TAU_FEAS)):
                combo, worst = combos[hit[0]], float(achieved[hit[0]])
                dots = _tuple_dots(G, g, combo, W.T)
                mins = dots.min(axis=0)
                per_comb = [{"weights": W[w].tolist(), "min_dot": float(mins[w]),
                             "failing_index": int(dots[:, w].argmin())}
                            for w in range(W.shape[0])]
                return MonotonicityReport(
                    "proper_quasi_dual", REFUTED, samples, -TAU_FEAS - worst,
                    Witness(points=P[combo], dot_products=dots[:, mins.argmax()],
                            indices=tuple(int(i) for i in combo),
                            extra={"per_combination": per_comb,
                                   "best_achieved": worst}))
    return MonotonicityReport("proper_quasi_dual", HOLDS, samples,
                              least + TAU_FEAS)


def check_class(name: str, model: ExcessDemandModel,
                plan: SamplePlan) -> MonotonicityReport:
    """Check one monotonicity class by name.

    pseudo: E(x).(y-x) >= 0 => E(y).(y-x) >= 0 on ordered sample pairs;
    strict_pseudo: the same scan with E(y).(y-x) > eps for y != x.  The
    dual combination class runs its own scan, and the two primal ones read
    their report from ``check_tuple_classes``.
    """
    if name not in CLASS_NAMES:
        raise ValueError(
            f"unknown monotonicity class {name!r}; expected one of {CLASS_NAMES}")
    if name == "pseudo":
        return _pair_scan(name, model, plan, -TAU_FEAS, strict=False)
    if name == "strict_pseudo":
        return _pair_scan(name, model, plan, plan.config.eps_strict, strict=True)
    if name == "proper_quasi_dual":
        return _dual_scan(model, plan)
    return check_tuple_classes(model, plan, (name,))[name]


def replay_witness(model: ExcessDemandModel, report: MonotonicityReport,
                   plan: SamplePlan) -> float:
    """Re-evaluate a refutation witness from scratch.

    ``plan`` is the plan the report was checked on; the strict classes
    replay at its ``config.eps_strict``.  Returns the recomputed violation
    margin; a genuine witness reproduces at least the recorded margin (up
    to floating-point noise).
    """
    if report.witness is None:
        raise ValueError("report carries no witness")
    w, eps_strict = report.witness, plan.config.eps_strict
    cls = report.class_checked
    if cls in ("pseudo", "strict_pseudo"):
        x, y = w.points
        premise = float(model(x) @ (y - x))
        if premise < -TAU_FEAS:
            raise ValueError("witness premise does not hold on replay")
        conclusion = float(model(y) @ (y - x))
        threshold = eps_strict if cls == "strict_pseudo" else -TAU_FEAS
        return threshold - conclusion
    evals = model(w.points)
    if cls in ("proper_quasi", "strict_proper_quasi"):
        dots = np.einsum("jn,jn->j", evals, w.points - w.combined[None, :])
        threshold = eps_strict if cls == "strict_proper_quasi" else -TAU_FEAS
        return float(threshold - dots.max())
    if cls == "proper_quasi_dual":
        achieved = -np.inf
        for entry in w.extra["per_combination"]:
            weights = np.asarray(entry["weights"], dtype=float)
            combined = weights @ w.points
            dots = np.einsum("jn,jn->j", evals, w.points - combined[None, :])
            achieved = max(achieved, float(dots.min()))
        return -TAU_FEAS - achieved
    raise ValueError(f"unknown class in report: {cls}")
