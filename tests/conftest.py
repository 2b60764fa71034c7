"""Shared independent oracles for the test suite.

Everything here is deliberately written from the definitions, without
reusing the library's own grid or scan machinery, so the tests cross
two independent routes wherever the library computes something nontrivial.
The exceptions are the reference pair and tuple scans, the reference
strict exclusions and line filter, the reference clusterings, the two-pass
Minty scan and the Minty cascade, the projection and solver references,
and the simplex grid and dual gap at the end: they are the library's
earlier pair checkers, its earlier per-class scans, its earlier fused
scan, its earlier strict exclusions and line filter, its earlier
union-find and k-d tree clusterings, its earlier dual scan, its cascade
before its chunks shared a buffer, its earlier simplex projection, NNLS,
polyhedral projection and extragradient loop, its earlier ``Simplex.grid`` and
``minty_gap``, its earlier probe set (Halton digits, box corners,
polyhedron vertices and row-by-row ``project_many``), its earlier qhull
hull vertices and the Stampacchia minimum over them, and its oracle before
the cell filter, kept verbatim apart
from the fused scan's sums, which run in k order as the library's do, and
from the NNLS reference's least squares, which is the library's ``_lstsq``
(checked against LAPACK's gelsy, ``_lstsq_reference``).  The
pair checkers, ``check_tuple_classes``, the dual class's own scan,
``SamplePlan.strict_exclusions``, ``cluster_members`` and the Minty
rejection cascade must agree with them
byte for byte (the per-class scans and the two-pass Minty scan on grids
where every pairing is exact; elsewhere up to BLAS rounding); the
projections, the solver, the simplex grid, the dual gap, the probe set and
the earlier cascade must agree bit for bit, and the oracle's masks must be
the unfiltered ones.  The qhull minimum is the one
reference kept to pin where it was wrong: it missed hull vertices whose
coordinates round off their face.
"""

from __future__ import annotations

import functools
import itertools
import math
from contextlib import suppress

import numpy as np
from scipy.linalg import lapack

from walras_vi.constants import DISTINCT_DIST, TAU_FEAS, TAU_PROJ
from walras_vi.economy import ExcessDemandModel
from walras_vi.monotonicity import (_SCAN_PAIRS, HOLDS, REFUTED,
                                    MonotonicityReport, SamplePlan, Witness,
                                    _allowance, _combine)
from walras_vi.regions import (_BLOCK_ENTRIES, Box, FloatArray, Polyhedron,
                               ProjectionBudgetError, Simplex, _axis_mesh,
                               _check_grid_size, _lstsq,
                               _row_subsets, as_price_vector)
from walras_vi.vi_core import (MemberClusters, SolutionSetEstimate, _cascade,
                               _extreme_points, residual)


# ---------------------------------------------------------------------------
# brute-force quadratic-projection oracles


def box_grid(lower, upper, spacing) -> np.ndarray:
    axes = [np.linspace(lo, hi, int(round((hi - lo) / spacing)) + 1)
            for lo, hi in zip(lower, upper)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                    axis=-1)


def simplex_lattice(n, resolution) -> np.ndarray:
    pts = [np.array(c, dtype=float) / resolution
           for c in itertools.product(range(resolution + 1), repeat=n)
           if sum(c) == resolution]
    return np.array(pts)


def nearest_grid_point(grid, x) -> np.ndarray:
    return grid[np.argmin(np.linalg.norm(grid - np.asarray(x, float), axis=1))]


def projection_kkt_residual(A, b, x, y, active_tol) -> float:
    """How far ``y`` is from being the projection of ``x`` onto {A z <= b}.

    From the optimality conditions: y is feasible, and x - y is a
    nonnegative combination of the normals of the constraints active at y
    (slack at most ``active_tol`` on unit rows).  The multipliers come from
    scipy's bounded-variable least squares, not from the library's solver.
    Returns the larger of the worst violation and the distance of x - y
    from that cone.
    """
    from scipy.optimize import lsq_linear

    A = np.asarray(A, float)
    norms = np.linalg.norm(A, axis=1)
    unit_A = A / norms[:, None]
    slack = np.asarray(b, float) / norms - unit_A @ y
    d = np.asarray(x, float) - y
    active = slack <= active_tol
    if active.any():
        lam = lsq_linear(unit_A[active].T, d, bounds=(0.0, np.inf),
                         method="bvls").x
        cone = float(np.linalg.norm(unit_A[active].T @ lam - d))
    else:
        cone = float(np.linalg.norm(d))
    return max(float(-slack.min()), 0.0, cone)


# HiGHS's default feasibility tolerances are 1e-7; its box could then
# exceed the exact one by that much
TIGHT_HIGHS = {"primal_feasibility_tolerance": 1e-10,
               "dual_feasibility_tolerance": 1e-10}


def polyhedron_lp_reference(A, b):
    """("empty" | "unbounded" | "bounded", lower, upper) for {x : A x <= b},
    decided by HiGHS LPs as the library once did for every polyhedron.

    One LP decides feasibility; the recession cone {d : A d <= 0} inside
    the unit box decides boundedness (some max +-d_j is positive iff the
    cone is not {0}); then the 2n bounding-box LPs give the box.  Deciding
    the cone apart keeps the status exact, since HiGHS's presolve can call
    a box LP over an unbounded set infeasible.  The box is None unless the
    set is bounded.
    """
    from scipy.optimize import linprog

    A, b = np.asarray(A, float), np.asarray(b, float)
    n = A.shape[1]
    axes = np.vstack((np.eye(n), -np.eye(n)))

    def lp(c, rhs, bound):
        res = linprog(c, A_ub=A, b_ub=rhs, bounds=[bound] * n, method="highs",
                      options=TIGHT_HIGHS)
        assert res.status in (0, 2), res.message
        return res

    if lp(np.zeros(n), b, (None, None)).status == 2:
        return "empty", None, None
    if min(lp(-c, np.zeros(b.size), (-1.0, 1.0)).fun for c in axes) < -1e-9:
        return "unbounded", None, None
    box = np.array([lp(c, b, (None, None)).x[k % n] for k, c in enumerate(axes)])
    return "bounded", box[:n], box[n:]


# ---------------------------------------------------------------------------
# amortization schedule oracle


def final_balance(principal, periods, rate, payment) -> float:
    balance = principal
    for _ in range(periods):
        balance = balance * (1.0 + rate) - payment
    return balance


def payment_by_bisection(principal, periods, rate) -> float:
    lo, hi = 0.0, principal * (1.0 + rate) ** periods
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if final_balance(principal, periods, rate, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# direct double-loop solution-set scans (independent of vi_core internals)


def stampacchia_members_bruteforce(model, grid, tol) -> np.ndarray:
    members = []
    for x in grid:
        ex = model(x)
        if min(float(ex @ (p - x)) for p in grid) >= -tol:
            members.append(x)
    return np.array(members) if members else np.empty((0, grid.shape[1]))


def minty_members_bruteforce(model, grid, tol) -> np.ndarray:
    members = []
    evals = [model(p) for p in grid]
    for x in grid:
        if min(float(ep @ (p - x)) for ep, p in zip(evals, grid)) >= -tol:
            members.append(x)
    return np.array(members) if members else np.empty((0, grid.shape[1]))


# ---------------------------------------------------------------------------
# reference tuple scans: the three per-class scans that preceded
# monotonicity.check_tuple_classes, kept verbatim (one scan per class, each
# recomputing the pairings) as the reference for the fused scan


_TUPLE_CHUNK = 4096


def _weight_grid(parts: int, resolution: int, interior: bool) -> FloatArray:
    """Uniform grid on the weight simplex, lexicographic order."""
    steps = resolution - 1
    minimum = 1 if interior else 0
    if parts == 1:
        return np.array([[1.0]])
    combos = list(_compositions(steps, parts, minimum))
    return np.asarray(combos, dtype=float) / steps


def _compositions(total: int, parts: int, minimum: int):
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def _pairings(model: ExcessDemandModel, plan: SamplePlan):
    """Precompute E at base points and all inner products E(p_i) . p_k."""
    P = plan.base_points
    Ev = model(P)
    G = Ev @ P.T
    g = np.einsum("ij,ij->i", Ev, P)
    return P, Ev, G, g


def _tuple_scan(model, plan, sizes, interior, tau_feas):
    """Yield (indices, weights, combined, dots) blocks in canonical order."""
    P, Ev, G, g = _pairings(model, plan)
    n = plan.size
    for m in sizes:
        W = _weight_grid(m, plan.config.weight_grid_resolution, interior)
        all_combos = list(itertools.combinations(range(n), m))
        for lo in range(0, len(all_combos), _TUPLE_CHUNK):
            if W.ndim != 2:
                raise ValueError(f"no weights for the tuples of size {m}")
            combos = np.asarray(all_combos[lo:lo + _TUPLE_CHUNK], dtype=int)
            gsub = g[combos]                                   # (T, m)
            Gsub = G[combos[:, :, None], combos[:, None, :]]   # (T, m, m)
            Pc = P[combos]                                     # (T, m, n)
            # sums over the members in k order, as the scan documents; an
            # einsum may take them in another order and differ in the last bit
            paired = Gsub[:, :, None, 0] * W[:, 0]             # (T, m, W)
            combined = W[None, :, 0, None] * Pc[:, None, 0]    # (T, W, n)
            for k in range(1, m):
                paired = paired + Gsub[:, :, None, k] * W[:, k]
                combined = combined + W[None, :, k, None] * Pc[:, None, k]
            yield combos, W, combined, gsub[:, :, None] - paired


def check_properly_quasimonotone(model: ExcessDemandModel, plan: SamplePlan,
                                 tau_feas: float = TAU_FEAS) -> MonotonicityReport:
    """Every combination of every tuple needs one E(p_j).(p_j - p) >= 0.

    Interior weight grids suffice: a boundary combination of a tuple is an
    interior combination of one of its sub-tuples, and all tuple sizes up
    to the plan maximum are scanned.
    """
    P = plan.base_points
    samples = 0
    best = float("inf")
    hit = None
    for combos, W, combined, dots in _tuple_scan(
            model, plan, range(1, plan.config.tuple_size_max + 1), True, tau_feas):
        maxdots = dots.max(axis=1)                 # (T, W)
        samples += maxdots.size
        if hit is None:
            viol = maxdots < -tau_feas
            if viol.any():
                t, w = map(int, np.argwhere(viol)[0])
                hit = (combos[t], W[w], combined[t, w], dots[t, :, w])
        best = min(best, float(maxdots.min() + tau_feas))
    if hit is not None:
        idx, wts, comb, dd = hit
        witness = Witness(points=P[idx], dot_products=dd, weights=wts,
                          combined=comb, indices=tuple(int(i) for i in idx))
        margin = float(-tau_feas - dd.max())
        return MonotonicityReport("proper_quasi", REFUTED, samples, margin, witness)
    return MonotonicityReport("proper_quasi", HOLDS, samples, best)


def check_properly_quasimonotone_dual(model: ExcessDemandModel,
                                      plan: SamplePlan,
                                      tau_feas: float = TAU_FEAS) -> MonotonicityReport:
    """Every tuple needs one combination with all pairings >= 0 at once.

    The existential ranges over the closed hull, so the weight grid here
    includes boundary weights (tuple members themselves are candidates).
    """
    P = plan.base_points
    samples = 0
    best = float("inf")
    hit = None
    for combos, W, combined, dots in _tuple_scan(
            model, plan, range(1, plan.config.tuple_size_max + 1), False, tau_feas):
        mindots = dots.min(axis=1)                 # (T, W)
        samples += mindots.size
        achieved = mindots.max(axis=1)             # best combination per tuple
        if hit is None:
            viol = achieved < -tau_feas
            if viol.any():
                t = int(np.argwhere(viol)[0][0])
                per_comb = [
                    {"weights": W[w].tolist(),
                     "min_dot": float(mindots[t, w]),
                     "failing_index": int(dots[t, :, w].argmin())}
                    for w in range(W.shape[0])
                ]
                hit = (combos[t], float(achieved[t]), per_comb,
                       dots[t, :, mindots[t].argmax()])
        best = min(best, float(achieved.min() + tau_feas))
    if hit is not None:
        idx, ach, per_comb, dd = hit
        witness = Witness(points=P[idx], dot_products=np.asarray(dd),
                          indices=tuple(int(i) for i in idx),
                          extra={"per_combination": per_comb,
                                 "best_achieved": ach})
        margin = float(-tau_feas - ach)
        return MonotonicityReport("proper_quasi_dual", REFUTED, samples, margin,
                                  witness)
    return MonotonicityReport("proper_quasi_dual", HOLDS, samples, best)


def check_strict_properly_quasimonotone(model: ExcessDemandModel,
                                        plan: SamplePlan,
                                        tau_feas: float = TAU_FEAS) -> MonotonicityReport:
    """Strict variant: combinations distinct from all members need a > 0 pairing.

    Combinations closer than the distinctness tolerance to any tuple member
    are excluded, matching the definition's p != p_i side condition.
    """
    P = plan.base_points
    eps = plan.config.eps_strict
    samples = 0
    best = float("inf")
    hit = None
    for combos, W, combined, dots in _tuple_scan(
            model, plan, range(2, plan.config.tuple_size_max + 1), True, tau_feas):
        member_pts = P[combos]                     # (T, m, n)
        gaps = np.linalg.norm(
            combined[:, :, None, :] - member_pts[:, None, :, :], axis=-1)
        distinct = np.all(gaps > DISTINCT_DIST, axis=2)   # (T, W)
        maxdots = dots.max(axis=1)
        samples += int(distinct.sum())
        if hit is None:
            viol = distinct & (maxdots <= eps)
            if viol.any():
                t, w = map(int, np.argwhere(viol)[0])
                hit = (combos[t], W[w], combined[t, w], dots[t, :, w])
        if distinct.any():
            best = min(best, float(maxdots[distinct].min() - eps))
    if hit is not None:
        idx, wts, comb, dd = hit
        witness = Witness(points=P[idx], dot_products=dd, weights=wts,
                          combined=comb, indices=tuple(int(i) for i in idx))
        margin = float(eps - dd.max())
        return MonotonicityReport("strict_proper_quasi", REFUTED, samples,
                                  margin, witness)
    return MonotonicityReport("strict_proper_quasi", HOLDS, samples, best)


REFERENCE_TUPLE_CHECKERS = {
    "proper_quasi": check_properly_quasimonotone,
    "proper_quasi_dual": check_properly_quasimonotone_dual,
    "strict_proper_quasi": check_strict_properly_quasimonotone,
}


# ---------------------------------------------------------------------------
# reference pair scans: the two pair checkers that preceded their shared
# scan body, kept verbatim


def check_pseudomonotone(model: ExcessDemandModel, plan: SamplePlan,
                         tau_feas: float = TAU_FEAS) -> MonotonicityReport:
    """Scan ordered sample pairs for E(x).(y-x) >= 0 => E(y).(y-x) >= 0."""
    P, Ev, G, g = _pairings(model, plan)
    n = plan.size
    premise = G - g[:, None]          # premise[i, j] = E(p_i).(p_j - p_i)
    conclusion = g[None, :] - G.T     # conclusion[i, j] = E(p_j).(p_j - p_i)
    off = ~np.eye(n, dtype=bool)
    checked = off & (premise >= -tau_feas)
    violating = checked & (conclusion < -tau_feas)
    samples = int(off.sum())
    if violating.any():
        i, j = map(int, np.argwhere(violating)[0])
        witness = Witness(
            points=P[[i, j]],
            dot_products=np.array([premise[i, j], conclusion[i, j]]),
            indices=(i, j),
            extra={"premise": float(premise[i, j]),
                   "conclusion": float(conclusion[i, j])},
        )
        margin = float(-tau_feas - conclusion[i, j])
        return MonotonicityReport("pseudo", REFUTED, samples, margin, witness)
    slack = conclusion[checked] + tau_feas
    margin = float(slack.min()) if slack.size else float("inf")
    return MonotonicityReport("pseudo", HOLDS, samples, margin)


def check_strictly_pseudomonotone(model: ExcessDemandModel, plan: SamplePlan,
                                  tau_feas: float = TAU_FEAS) -> MonotonicityReport:
    """Same pair scan with the strict conclusion E(y).(y-x) > eps for y != x."""
    P, Ev, G, g = _pairings(model, plan)
    eps = plan.config.eps_strict
    n = plan.size
    premise = G - g[:, None]
    conclusion = g[None, :] - G.T
    dist = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=-1)
    off = dist > DISTINCT_DIST
    checked = off & (premise >= -tau_feas)
    violating = checked & (conclusion <= eps)
    samples = int(off.sum())
    if violating.any():
        i, j = map(int, np.argwhere(violating)[0])
        witness = Witness(
            points=P[[i, j]],
            dot_products=np.array([premise[i, j], conclusion[i, j]]),
            indices=(i, j),
            extra={"premise": float(premise[i, j]),
                   "conclusion": float(conclusion[i, j])},
        )
        margin = float(eps - conclusion[i, j])
        return MonotonicityReport("strict_pseudo", REFUTED, samples, margin, witness)
    slack = conclusion[checked] - eps
    margin = float(slack.min()) if slack.size else float("inf")
    return MonotonicityReport("strict_pseudo", HOLDS, samples, margin)


REFERENCE_PAIR_CHECKERS = {
    "pseudo": check_pseudomonotone,
    "strict_pseudo": check_strictly_pseudomonotone,
}


# ---------------------------------------------------------------------------
# reference fused scan: the check_tuple_classes that preceded the chunked
# member folds and the certified distinctness prefilter, kept verbatim
# (helpers renamed) but for its two sums over members, now explicit loops in
# k order, as the reference for the current scan


def _boundary_weight_grid(parts: int, resolution: int) -> FloatArray:
    """Uniform grid on the weight simplex, zeros included, lexicographic."""
    steps = resolution - 1
    return np.asarray(list(_compositions(steps, parts, 0)), dtype=float) / steps


def _first(mask):
    """Index of the first True entry in C order, or None."""
    found = np.argwhere(mask)
    return tuple(int(i) for i in found[0]) if found.size else None


def _combination_hit(P, combos, hit, weights, combined, dots, threshold):
    """Margin and witness of a violating (tuple, interior weights) pair."""
    t, w = hit
    witness = Witness(points=P[combos[t]], dot_products=dots[t, :, w],
                      weights=weights[w], combined=combined[t, w],
                      indices=tuple(int(i) for i in combos[t]))
    return float(threshold - dots[t, :, w].max()), witness


def fused_tuple_scan(model: ExcessDemandModel, plan: SamplePlan,
                     tau_feas: float = TAU_FEAS) -> dict:
    """Reports of the three combination classes from one scan, by class name."""
    P, Ev, G, g = _pairings(model, plan)
    eps = plan.config.eps_strict
    names = tuple(REFERENCE_TUPLE_CHECKERS)
    samples = dict.fromkeys(names, 0)
    best = dict.fromkeys(names, float("inf"))
    hits: dict = {}                          # class name -> (margin, witness)
    for m in range(1, plan.config.tuple_size_max + 1):
        W = _boundary_weight_grid(m, plan.config.weight_grid_resolution)
        inner = np.flatnonzero((W > 0).all(axis=1))
        all_combos = np.array(list(itertools.combinations(range(plan.size), m)),
                              dtype=int).reshape(-1, m)
        for lo in range(0, len(all_combos), _TUPLE_CHUNK):
            combos = all_combos[lo:lo + _TUPLE_CHUNK]
            Pc = P[combos]                                     # (T, m, n)
            Gsub = G[combos[:, :, None], combos[:, None, :]]   # (T, m, m)
            Wi = W[inner]
            dotc = Gsub[:, :, 0, None] * W[:, 0]               # (T, m, W)
            combined = Wi[:, 0, None] * Pc[:, None, 0]         # (T, Wi, n)
            for k in range(1, m):
                dotc = dotc + Gsub[:, :, k, None] * W[:, k]
                combined = combined + Wi[:, k, None] * Pc[:, None, k]
            dots = g[combos][:, :, None] - dotc
            maxdots = dots.max(axis=1)[:, inner]               # (T, Wi)
            mindots = dots.min(axis=1)                         # (T, W)
            achieved = mindots.max(axis=1)     # best combination per tuple

            samples["proper_quasi"] += maxdots.size
            best["proper_quasi"] = min(best["proper_quasi"], float(
                maxdots.min(initial=np.inf) + tau_feas))
            if "proper_quasi" not in hits and (hit := _first(maxdots < -tau_feas)):
                hits["proper_quasi"] = _combination_hit(
                    P, combos, hit, W[inner], combined, dots[:, :, inner], -tau_feas)

            samples["proper_quasi_dual"] += mindots.size
            best["proper_quasi_dual"] = min(best["proper_quasi_dual"],
                                            float(achieved.min() + tau_feas))
            if ("proper_quasi_dual" not in hits
                    and (hit := _first(achieved < -tau_feas))):
                t = hit[0]
                per_comb = [{"weights": W[w].tolist(),
                             "min_dot": float(mindots[t, w]),
                             "failing_index": int(dots[t, :, w].argmin())}
                            for w in range(W.shape[0])]
                witness = Witness(
                    points=P[combos[t]], dot_products=dots[t, :, mindots[t].argmax()],
                    indices=tuple(int(i) for i in combos[t]),
                    extra={"per_combination": per_comb,
                           "best_achieved": float(achieved[t])})
                hits["proper_quasi_dual"] = (float(-tau_feas - achieved[t]), witness)

            if m < 2:                 # strict: members themselves are excluded
                continue
            distinct = np.ones(maxdots.shape, dtype=bool)
            for j in range(m):
                # summed in q order: the row norm bit for bit below 8 dims
                d = combined - Pc[:, None, j, :]
                sq = d[..., 0] ** 2
                for q in range(1, d.shape[-1]):
                    sq = sq + d[..., q] ** 2
                distinct &= np.sqrt(sq) > DISTINCT_DIST
            samples["strict_proper_quasi"] += int(distinct.sum())
            best["strict_proper_quasi"] = min(best["strict_proper_quasi"], float(
                maxdots[distinct].min(initial=np.inf) - eps))
            if ("strict_proper_quasi" not in hits
                    and (hit := _first(distinct & (maxdots <= eps)))):
                hits["strict_proper_quasi"] = _combination_hit(
                    P, combos, hit, W[inner], combined, dots[:, :, inner], eps)
    return {name: MonotonicityReport(name, REFUTED, samples[name], *hits[name])
            if name in hits else
            MonotonicityReport(name, HOLDS, samples[name], best[name])
            for name in names}


# reference strict exclusions: the library's earlier _strict_exclusions,
# which takes the float distinctness test at every interior weight of every
# member ``certified_reference`` leaves, kept verbatim (apart from reading
# the plan's tuples, and a mode that certifies nothing, which takes the test
# at every member, so that it does not rest on the library's ``_allowance``)
# as the reference for the certificate and the ratio bound; the library's
# earlier row-form ``_certified``, kept verbatim as the reference for the
# column form; and its earlier line filter ``_line_kept``, kept verbatim, as
# the ratio bound's soundness is stated against it


def certified_reference(P, combos, steps: int):
    """(T, m) mask of the members no interior combination comes near.

    For interior weights c - p_j = (1 - w_j)(c' - p_j) with c' in the hull
    of the other members, and 1 - w_j >= (m - 1)/steps, so ||c - p_j|| is at
    least (m - 1)/steps times the distance from p_j to that hull: the other
    point for m = 2, the segment of the other two for m = 3.  A member is
    certified when that bound, less ``_allowance`` for rounding in the bound
    and in the float test, exceeds 2 DISTINCT_DIST: the float test then
    passes for every interior weight.
    """
    T, m = combos.shape
    # u = eps/2, L = max |P|: the computed distance exceeds the true one by at
    # most about 4 √n (3n + 10) u L (the clipped projection parameter is off
    # by a few n u), the combination by √n (m + 1) u L: under half the allowance.
    allowance = _allowance(P, m)
    if allowance == np.inf:
        return np.zeros((T, m), dtype=bool)
    Pc = P[combos]
    if m == 2:
        dist = np.linalg.norm(Pc[:, 0] - Pc[:, 1], axis=1)
        dist = np.column_stack([dist, dist])
    else:
        dist = np.empty((T, 3))
        with np.errstate(divide="ignore", invalid="ignore"):  # a == b: NaN
            for j, (a, b) in enumerate(((1, 2), (0, 2), (0, 1))):
                x = Pc[:, j] - Pc[:, a]
                d = Pc[:, b] - Pc[:, a]
                s = np.clip((x * d).sum(axis=1) / (d * d).sum(axis=1), 0.0, 1.0)
                dist[:, j] = np.linalg.norm(x - s[:, None] * d, axis=1)
    return (m - 1) / steps * dist - allowance > 2 * DISTINCT_DIST


def line_filter_reference(s, limit, Wo):
    """(T, W) mask of the interior weights whose combination may come near
    the member of ``_line_offsets``' (s, limit); the float test passes
    elsewhere.  Wo (m - 1, W) holds the weights of the other members.

    With x_k = p_k - p_j, u = eps/2 and L = max |P|, for any v
    ||c - p_j|| ||v|| >= |Σ_{k≠j} w_k x_k·v| - √n u L ||v||, as the float
    weights sum to 1 within u.  A weight is dropped where the computed
    |Σ w_k s_k|, products summed in k order, exceeds the limit.  The
    differences x_k round by u |x_k| and the n-term sums s_k by γ_n, and
    the products and their sum add γ_2 max |s_k| (Σ_{k≠j} w_k < 1), so the
    computed sum errs by at most 2√n (n + 4) u L ||v||; the norm and the
    limit's product by (n + 3) u relative, and the float test's distance
    by √n (m + n + 4) u L.  The allowance is over twice their sum.
    """
    acc = functools.reduce(np.add, [w[None, :] * sk[:, None]
                                    for w, sk in zip(Wo, s)])
    return ~(np.abs(acc) > limit[:, None])


def strict_exclusions_reference(plan: SamplePlan, certify: bool = True) -> dict:
    """(tuple, interior weight) pairs whose c = Σ_k w_k p_k (``_combine``)
    fails ||c - p_j|| > DISTINCT_DIST (squares summed in coordinate order)
    at a member j that ``certified_reference`` leaves, or at any member j
    unless ``certify``."""
    P, steps, out = plan.base_points, plan.config.weight_grid_resolution - 1, {}
    for m, all_combos, W, interior in plan.tuple_sizes:
        Wi, found = W[interior], [np.empty(0, dtype=np.intp)]
        step = max(1, _SCAN_PAIRS // max(1, len(Wi)))
        for lo in range(0, len(all_combos) if m > 1 else 0, step):
            combos = all_combos[lo:lo + step].astype(np.intp)
            uncertain = (~certified_reference(P, combos, steps) if certify
                         else np.ones(combos.shape, dtype=bool))
            rows = np.flatnonzero(uncertain.any(axis=1))
            combined = _combine(Wi, P[combos[rows]])
            near = np.zeros((rows.size, len(Wi)), dtype=bool)
            for j in range(m):
                sel = np.flatnonzero(uncertain[rows, j])
                # summed in q order: the row norm bit for bit below 8 dims
                d = combined[sel] - P[combos[rows[sel], j]][:, None, :]
                sq = d[..., 0] ** 2
                for q in range(1, d.shape[-1]):
                    sq = sq + d[..., q] ** 2
                near[sel] |= ~(np.sqrt(sq) > DISTINCT_DIST)
            t, w = np.nonzero(near)
            found.append((lo + rows[t]) * len(Wi) + w)
        out[m] = np.concatenate(found)
    return out


# ---------------------------------------------------------------------------
# reference clustering: the library's earlier union-find and diameter loop,
# and its k-d tree clustering


def single_linkage_clusters(points, threshold: float) -> list[np.ndarray]:
    """Index sets of single-linkage clusters at the given link distance."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k = pts.shape[0]
    if k == 0:
        return []
    parent = np.arange(k)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        diffs = pts[i + 1:] - pts[i]
        close = np.flatnonzero(np.linalg.norm(diffs, axis=1) <= threshold)
        for j in close + i + 1:
            ri, rj = find(i), find(int(j))
            if ri != rj:
                parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return [np.asarray(v) for v in sorted(groups.values(), key=lambda g: g[0])]


def cluster_centroids(points, threshold: float) -> FloatArray:
    """Centroid of each single-linkage cluster, in first-member order."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.array([pts[idx].mean(axis=0)
                     for idx in single_linkage_clusters(pts, threshold)])


def set_diameter(points) -> float:
    """Largest pairwise distance in a point set (0 for <= 1 point)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] <= 1:
        return 0.0
    best = 0.0
    for i in range(pts.shape[0] - 1):
        best = max(best, float(np.linalg.norm(pts[i + 1:] - pts[i], axis=1).max()))
    return best


def cluster_members_reference(points, threshold: float) -> MemberClusters:
    """The library's earlier ``cluster_members``, verbatim: scipy's k-d tree
    proposes the pairs and ``scipy.sparse.csgraph`` labels the components."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k = pts.shape[0]
    if k == 0:
        return MemberClusters(0, [], np.array([]), 0.0)
    i, j = cKDTree(pts).query_pairs(threshold * (1 + 1e-9), output_type="ndarray").T
    near = np.linalg.norm(pts[j] - pts[i], axis=1) <= threshold
    links = coo_matrix((np.ones(near.sum()), (i[near], j[near])), shape=(k, k))
    labels = connected_components(links, directed=False)[1]
    key = np.unique(labels, return_index=True)[1][labels]  # each cluster's first row
    order = np.argsort(key, kind="stable")
    clusters = np.split(order, np.flatnonzero(np.diff(key[order])) + 1)
    centroids = np.array([pts[idx].mean(axis=0) for idx in clusters])
    hull = _extreme_points(pts).T                       # (dim, candidates)
    step = max(1, _BLOCK_ENTRIES // hull.size)
    diameter = float(np.sqrt(max(
        sum((x[lo:lo + step, None] - x) ** 2 for x in hull).max()  # in axis order
        for lo in range(0, hull.shape[1], step))))
    return MemberClusters(k, clusters, centroids, diameter)


# ---------------------------------------------------------------------------
# reference Minty scan: the library's earlier two-pass _minty_values


_ROW_CHUNK = 16_384


def minty_values_two_pass(grid: FloatArray, evals: FloatArray, diag: FloatArray,
                          tol: float) -> FloatArray:
    """min over j of E(p_j).(p_j - p_i) for every grid point i.

    Two passes: a strided probe subset rejects most candidates, then the
    survivors are scored against the full grid, which reproduces the
    exact full-probe minimum.
    """
    G = grid.shape[0]
    stride = max(1, G // 1024)
    sub = np.arange(0, G, stride)
    vals = np.full(G, np.inf)
    for lo in range(0, G, _ROW_CHUNK):
        block = grid[lo:lo + _ROW_CHUNK]
        partial = (diag[sub][None, :] - block @ evals[sub].T).min(axis=1)
        vals[lo:lo + block.shape[0]] = partial
    survivors = np.flatnonzero(vals >= -tol)
    for lo in range(0, survivors.size, 1024):
        idx = survivors[lo:lo + 1024]
        full = np.full(idx.size, np.inf)
        for glo in range(0, G, _ROW_CHUNK):
            probe_evals = evals[glo:glo + _ROW_CHUNK]
            probe_diag = diag[glo:glo + _ROW_CHUNK]
            part = (probe_diag[None, :] - grid[idx] @ probe_evals.T).min(axis=1)
            np.minimum(full, part, out=full)
        vals[idx] = full
    return vals


def minty_values_reference(grid: FloatArray, evals: FloatArray, diag: FloatArray,
                           tol: float, chunk_pairs: int) -> FloatArray:
    """The rejection cascade as it was before its chunks shared one buffer:
    each chunk's pairings are a fresh product of at most ``chunk_pairs``
    entries (``vi_core._MINTY_PAIRS``)."""
    G = grid.shape[0]
    vals = np.full(G, np.inf)
    rows = np.arange(G)
    fresh = np.ones(G, dtype=bool)
    for level in (16, 256, 4096, G):
        cols = np.arange(0, G, max(1, G // level))
        cols = cols[fresh[cols]]
        fresh[cols] = False
        if cols.size:
            probe_evals, probe_diag = evals[cols].T, diag[cols]
            step = max(1, chunk_pairs // cols.size)
            for lo in range(0, rows.size, step):
                idx = rows[lo:lo + step]
                pairs = grid[idx] @ probe_evals
                np.subtract(probe_diag, pairs, out=pairs)
                vals[idx] = np.minimum(vals[idx], pairs.min(axis=1))
        rows = rows[vals[rows] >= -tol]
    return vals


# ---------------------------------------------------------------------------
# the projection kernels and the solver loop as they were before their
# per-call overhead was cut: numpy reductions, a vstack per projection, and
# a second field evaluation per iterate inside ``residual``


def project_onto_simplex_reference(v: FloatArray) -> FloatArray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    positive = u - css / ks > 0
    rho = np.nonzero(positive)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _lstsq_reference(A: FloatArray, b: FloatArray) -> FloatArray:
    """Minimum-norm least squares by LAPACK's gelsy at rcond 1e-13, the
    kernel NNLS called before ``regions._lstsq``."""
    k = A.shape[1]
    return lapack.dgelsy(A, b, np.zeros(k, np.int32), 1e-13, 4 * k + 1)[1][:k]


def nnls_reference(A: FloatArray, b: FloatArray) -> FloatArray:
    m, n = A.shape
    passive, coef = [], np.zeros(0)
    tol = 10.0 * np.finfo(float).eps * max(m, n) * max(1.0, float(np.abs(A).max()))
    w = A.T @ b
    for _ in range(3 * n):
        if passive:
            w[passive] = -np.inf
        j = int(w.argmax())
        if w[j] <= tol or len(passive) == m:
            x = np.zeros(n)
            x[passive] = coef
            return x
        trial = passive + [j]
        cols = A[:, trial]
        z = np.array(_lstsq(cols.T.tolist(), b.tolist()))
        if z[-1] <= 0.0:
            w[j] = -np.inf
            continue
        xp = np.append(coef, 0.0)
        while z.min() <= 0.0:  # step toward z until a coefficient hits zero
            neg = np.flatnonzero(z <= 0.0)
            ratios = xp[neg] / (xp[neg] - z[neg])
            k = int(ratios.argmin())
            xp = xp + ratios[k] * (z - xp)
            xp[neg[k]] = 0.0
            trial = [i for i, v in zip(trial, xp) if v > 0.0]
            xp = xp[xp > 0.0]
            cols = A[:, trial]
            z = np.array(_lstsq(cols.T.tolist(), b.tolist()))
        passive, coef = trial, z
        w = A.T @ (b - cols @ z)
    raise RuntimeError("Maximum number of iterations reached.")


def polyhedron_project_reference(region, x) -> FloatArray:
    """``Polyhedron.project`` on ``region``'s unit rows and anchor."""
    p = as_price_vector(x, region.dim)
    h = region._unit_A @ p - region._unit_b
    worst = float(h.max())
    if worst <= 0.0:
        return p
    d = p - region._anchor
    s = max(1.0, worst, -float(h.min()), math.sqrt(d @ d))
    c = h / s
    e = np.zeros(region.dim + 1)
    e[-1] = 1.0
    try:
        u = nnls_reference(np.vstack((region._unit_A.T, c)), e)
    except RuntimeError:  # iteration cap
        raise ProjectionBudgetError(p, worst) from None
    gap = 1.0 - float(c @ u)  # -r[n]; positive iff the program is feasible
    if not gap > 0.0:
        raise ProjectionBudgetError(p, worst)
    lam = s / gap * u
    y = p - region._unit_A.T @ lam
    slack = region._unit_b - region._unit_A @ y
    achieved = max(-float(lam.min()), -float(slack.min()),
                   float(np.minimum(lam, np.abs(slack)).max()))
    if not achieved <= TAU_PROJ * s:
        raise ProjectionBudgetError(y, achieved)
    return y


def extragradient_reference(problem, start, config):
    """(solution, trace, iterations) of the loop that calls ``residual``,
    and so evaluates E(x_k) a second time, every iteration."""
    region, model = problem.region, problem.model
    x = region.feasible_point() if start is None else as_price_vector(start,
                                                                      problem.dim)
    step, tol = config.step, config.tol_solve
    trace = [residual(problem, x)]
    iterations = 0
    while trace[-1] > tol and iterations < config.budget:
        y = region.project(x - step * model(x))
        x = region.project(x - step * model(y))
        trace.append(residual(problem, x))
        iterations += 1
    return x, np.asarray(trace), iterations


# ---------------------------------------------------------------------------
# the simplex grid and the dual gap as they were before one lattice builder
# and one probe set served them: an n == 2 stack and an n == 3 meshgrid, and
# the Halton samples ahead of the vertices


def simplex_grid_reference(self, spacing: float) -> FloatArray:
    """``Simplex.grid`` of simplex ``self``."""
    if spacing <= 0:
        raise ValueError("grid spacing must be positive")
    if self.n > 3:
        raise ValueError("grid enumeration is desk-scale only (dim <= 3)")
    if self.n == 1:
        return np.array([[1.0]])
    _check_grid_size(1.0 / spacing)  # < k + 1, the points on one edge
    k = max(1, round(1.0 / spacing))
    _check_grid_size(math.comb(k + self.n - 1, self.n - 1))
    if self.n == 2:
        i = np.arange(k + 1)
        return np.stack([i, k - i], axis=-1) / k
    i, j = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
    keep = i + j <= k
    i, j = i[keep], j[keep]
    return np.stack([i, j, k - i - j], axis=-1) / k


def grid_reference(region, spacing: float) -> FloatArray:
    """``region.grid`` as it was before ``lattice``: the axis mesh's rows that
    pass a row-wise ``np.all`` membership test, taken by a boolean index."""
    if isinstance(region, Simplex):
        return simplex_grid_reference(region, spacing)
    lo, hi = region.bounding_box()
    axes = [_axis_mesh(lo[j], hi[j], spacing) for j in range(region.dim)]
    mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    if isinstance(region, Box):
        inside = np.all((mesh >= region.lower - 1e-9) & (mesh <= region.upper + 1e-9),
                        axis=1)
    else:
        A, b, _ = region.constraints()
        inside = np.all(mesh @ A.T - b <= 1e-9 * np.maximum(1.0, np.abs(b)), axis=1)
    return mesh[inside]


def minty_gap_reference(problem, x) -> float:
    """max of E(p).(x - p) over 64 Halton points and the region's vertices,
    both built by the references below."""
    p = as_price_vector(x, problem.dim)
    pts = [sample_reference(problem.region, 64)]
    try:
        pts.append(vertices_reference(problem.region))
    except ValueError:
        pass
    pts = np.vstack(pts)
    evals = problem.model(pts)
    return float(np.einsum("ij,ij->i", evals, p[None, :] - pts).max())


# ---------------------------------------------------------------------------
# the probe set as it was before it was made cheap: corners by product and
# np.unique, polyhedron vertices enumerated on every call, one projection per
# sample row, and Halton digits one axis at a time; and the distinct rows of
# a point set by their definition


def halton_reference(count: int, dim: int) -> FloatArray:
    """``_halton``."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < dim:
        if all(candidate % q for q in primes):
            primes.append(candidate)
        candidate += 1
    out = np.zeros((count, dim))
    for axis, base in enumerate(primes):
        digits, scale = np.arange(1, count + 1), 1.0
        while digits.any():
            scale /= base
            out[:, axis] += scale * (digits % base)
            digits //= base
    return out


def box_vertices_reference(self) -> FloatArray:
    """``Box.vertices`` of box ``self``."""
    if self.dim > 16:
        raise ValueError("vertex enumeration limited to dim <= 16")
    corners = itertools.product(*zip(self.lower, self.upper))
    return np.unique(np.array(list(corners), dtype=float), axis=0)


def first_distinct_reference(points, dist: float) -> np.ndarray:
    """``first_distinct`` from its definition, row by row: a row stays when
    no row kept before it is within ``dist``, by the norm of the kept row
    minus the row."""
    kept: list[int] = []
    for j, p in enumerate(points):
        if not (np.linalg.norm(points[kept] - p, axis=-1) <= dist).any():
            kept.append(j)
    keep = np.zeros(len(points), dtype=bool)
    keep[kept] = True
    return keep


def polyhedron_vertices_reference(self) -> FloatArray:
    """``Polyhedron.vertices`` of polyhedron ``self``."""
    if self.dim > 3:
        raise ValueError("vertex enumeration is desk-scale only (dim <= 3)")
    rows = _row_subsets(self.b.size, self.dim)
    rows = rows[np.abs(np.linalg.det(self._unit_A[rows])) >= 1e-12]
    if rows.shape[0] == 0:
        raise ValueError(f"the constraint normals span fewer than "
                         f"{self.dim} dimensions")
    pts = np.linalg.solve(self.A[rows], self.b[rows][..., None])[..., 0]
    pts = pts[self.contains_many(pts, tol=1e-9)]
    if pts.shape[0] == 0:
        raise ValueError("no point satisfies A x <= b")
    pts = pts[first_distinct_reference(pts, 1e-9)]
    return pts[np.lexsort(pts.T[::-1])]


def vertices_reference(region) -> FloatArray:
    """``region.vertices()`` by the references above."""
    if isinstance(region, Box):
        return box_vertices_reference(region)
    if isinstance(region, Polyhedron):
        return polyhedron_vertices_reference(region)
    return region.vertices()  # the simplex's identity rows


def project_many_reference(self, points) -> FloatArray:
    """``ConvexRegion.project_many`` of region ``self``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.vstack([self.project(row) for row in pts])


def sample_reference(region, count: int) -> FloatArray:
    """``ConvexRegion.sample``; the simplex and the box keep their own
    ``project_many``."""
    lo, hi = region.bounding_box()
    rows = lo + halton_reference(count, region.dim) * (hi - lo)
    if isinstance(region, Polyhedron):
        return project_many_reference(region, rows)
    return region.project_many(rows)


# ---------------------------------------------------------------------------
# the Stampacchia minimum as it was before the hull candidates came from
# axis-line endpoints: qhull in the principal coordinates of the grid's
# affine hull, with an SVD rank test, a QhullError ladder and a two-endpoint
# fallback at rank <= 1, and the minimum over every grid point's field taken
# as one (vertices x grid) product


def extreme_points_reference(grid: FloatArray) -> FloatArray:
    """Grid rows that include every vertex of the grid's convex hull.

    qhull runs in the principal coordinates of the grid's affine hull, in
    one fewer each time it finds the points flat within its rounding; rank
    <= 1 (a point or a segment) gives the two endpoints.  Centering on the
    first row keeps a coordinate that is constant over the grid exactly 0.
    """
    from scipy.spatial import ConvexHull, QhullError

    centered = grid - grid[0]
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(s > s.max() * max(centered.shape) * np.finfo(float).eps))
    for r in range(rank, 1, -1):
        with suppress(QhullError):
            return grid[ConvexHull(centered @ vt[:r].T).vertices]
    t = centered @ vt[0]
    return grid[[t.argmin(), t.argmax()]]


def stampacchia_mask_reference(grid: FloatArray, evals: FloatArray,
                               diag: FloatArray, tol: float) -> np.ndarray:
    """The earlier ``enumerate_solutions`` Stampacchia mask."""
    linmin = (extreme_points_reference(grid) @ evals.T).min(axis=0)
    return (linmin - diag) >= -tol


# ---------------------------------------------------------------------------
# the oracle before its cell filter: both cascades over every row, the Minty
# one over every column


def enumerate_solutions_reference(problem, grid_spacing: float,
                                  lipschitz_scale: float) -> SolutionSetEstimate:
    """The library's earlier ``enumerate_solutions``, without ``_cell_filter``."""
    if not (np.isfinite(lipschitz_scale) and lipschitz_scale > 0):
        raise ValueError(f"lipschitz_scale must be positive and finite, got "
                         f"{lipschitz_scale!r}")
    grid = grid_reference(problem.region, grid_spacing)
    evals = problem.model(grid)
    diag = np.einsum("ij,ij->i", evals, grid)
    tol = grid_spacing * lipschitz_scale
    primal = _cascade(evals, _extreme_points(grid), -diag, 0.0, tol)
    np.negative(evals, out=evals)  # exact, and no second (G, n) array
    return SolutionSetEstimate(
        grid_points=grid,
        stampacchia_mask=primal >= -tol,
        minty_mask=_cascade(grid, evals, 0.0, diag, tol) >= -tol,
        grid_spacing=grid_spacing,
        tolerance=tol,
    )
