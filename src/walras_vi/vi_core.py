"""Variational inequality problems, solvers, and desk-scale oracles.

A problem pairs an excess-demand map E with a bounded convex region X.
Two solution notions are handled throughout:

* primal (Stampacchia): find x* with E(x*).(p - x*) >= 0 for all p in X;
* dual (Minty), the stationary price vectors: E(p).(p - x*) >= 0 for all p.

The solver is the extragradient method (two projections per iteration),
which also handles rotation-like fields where plain projected iteration
cycles.  Convergence is measured by the natural-map residual
||x - Pi_X(x - E(x))||, which vanishes exactly at primal solutions.  Every
field is affine, E(x) = M x - c, so on a face {A_I x = b_I} of the region
the primal solution solves one linear KKT system; an active-set crossover
(Burke and More 1988; Megiddo 1991) solves it on the face active at
Pi_X(x - E(x)) every few iterations and stops the solver there once that
point passes the residual test an iterate must pass.

``enumerate_solutions`` is the independent oracle: it classifies every
feasible grid point against both definitions with the full grid as probe
set.  A linear functional on a finite set is minimized at a vertex of the
set's convex hull, so the primal test's min_p E(p_i).p is taken exactly
over the grid's hull vertices (qhull), whatever the region kind.  The dual
test has no such shortcut (for a positive-definite linear field every
lifted point (E(p), -E(p).p) is a hull vertex).  It runs a rejection
cascade: strided probe levels of growing size drop most grid points after
a few pairings each, and a point that survives every level has been
paired with every grid point exactly once, so members get the exact
full-grid minimum.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .constants import HarnessConfig
from .economy import ExcessDemandModel
from .regions import ConvexRegion, FloatArray, as_price_vector

__all__ = [
    "CONVERGED",
    "BUDGET_EXHAUSTED",
    "VIProblem",
    "VISolveResult",
    "SolutionSetEstimate",
    "solve_extragradient",
    "residual",
    "minty_gap",
    "enumerate_solutions",
    "MemberClusters",
    "cluster_members",
]

CONVERGED = "converged"
BUDGET_EXHAUSTED = "budget_exhausted"

_MINTY_PAIRS = 1 << 22
_CROSSOVER_EVERY = 8     # extragradient steps between crossover tries
_FACE_SLACK = 1e-12      # relative slack of a row counted active


@dataclass(frozen=True, eq=False)
class VIProblem:
    """A bounded variational inequality instance VI[E, X]."""

    model: ExcessDemandModel
    region: ConvexRegion

    def __post_init__(self):
        if self.model.dim != self.region.dim:
            raise ValueError(
                f"model dimension {self.model.dim} does not match region "
                f"dimension {self.region.dim}"
            )

    @property
    def dim(self) -> int:
        return self.model.dim


def _natural_map(problem: VIProblem, x: FloatArray):
    """(E(x), z, ||x - z||) with z = Pi_X(x - E(x)): one field evaluation
    for x's residual, its face and the next y-step."""
    ex = problem.model(x)
    z = problem.region.project(x - ex)
    return ex, z, float(np.linalg.norm(x - z))


def residual(problem: VIProblem, x) -> float:
    """Natural-map residual ||x - Pi_X(x - E(x))||; zero iff x is primal."""
    return _natural_map(problem, as_price_vector(x, problem.dim))[2]


def minty_gap(problem: VIProblem, x) -> float:
    """max of E(p).(x - p) over ``probe_points(64)``: the region's vertices and
    64 Halton points, projected unless inside by far; <= 0: dual-consistent there."""
    p = as_price_vector(x, problem.dim)
    pts = problem.region.probe_points(64)
    evals = problem.model(pts)
    return float(np.einsum("ij,ij->i", evals, p[None, :] - pts).max())


@dataclass(frozen=True, eq=False)
class VISolveResult:
    solution: FloatArray
    residual: float
    minty_gap: float
    iterations: int
    trace: FloatArray
    status: str

    def to_dict(self) -> dict:
        return {
            "solution": self.solution.tolist(),
            "residual": self.residual,
            "minty_gap": self.minty_gap,
            "iterations": self.iterations,
            "status": self.status,
        }


def _face_point(problem: VIProblem, z: FloatArray):
    """The point the affine problem fixes on the face of the region active
    at ``z``, or None where it gives none.

    The face is the region's equality rows and the rows A_i x <= b_i with
    slack at most _FACE_SLACK * max(1, |b_i|) at z.  On it the primal
    solution of E(x) = M x - c solves [M A_I^T; A_I 0][x; lam] = [c; b_I]
    with lam >= 0 on the inequality rows.  None when that system is
    singular, its solution is not finite, an inequality multiplier is
    negative or x lies outside the region.  The caller still tests x's
    residual, so a wrong face costs a try and never an answer.
    """
    region, model = problem.region, problem.model
    A, b, n_eq = region.constraints()
    face = b - A @ z <= _FACE_SLACK * np.maximum(1.0, np.abs(b))
    face[:n_eq] = True
    rows, n = A[face], problem.dim
    kkt = np.block([[model.M, rows.T], [rows, np.zeros((rows.shape[0],) * 2)]])
    try:
        sol = np.linalg.solve(kkt, np.concatenate((model.c, b[face])))
    except np.linalg.LinAlgError:
        return None
    x = sol[:n] + 0.0  # no -0.0 in the emitted point
    if not np.isfinite(sol).all() or (sol[n + n_eq:] < 0).any() or not region.contains(x):
        return None
    return x


def _crossover(problem: VIProblem, z: FloatArray, tol: float):
    """(x, E(x), Pi(x - E(x)), residual) of ``_face_point``'s point at z if
    that residual is at most ``tol``, else None."""
    x = _face_point(problem, z)
    if x is None:
        return None
    crossed = (x, *_natural_map(problem, x))
    return crossed if crossed[-1] <= tol else None


def solve_extragradient(problem: VIProblem, start=None,
                        config: HarnessConfig = HarnessConfig()) -> VISolveResult:
    """Two-projection extragradient iteration with an active-set crossover,
    with ``config``'s step, budget and tol_solve.

    Each step takes y = Pi(x - step E(x)) then x = Pi(x - step E(y)).
    Before the step, at iteration 0 and every _CROSSOVER_EVERY iterations
    after, the crossover tries the point ``_face_point`` solves on the face
    active at z = Pi(x - E(x)).  It becomes the next iterate only if its
    natural-map residual, computed as an iterate's, is at most
    ``tol_solve``; a failed try changes no iterate.  Stops when the
    residual drops to ``tol_solve`` or the budget is spent; budget
    exhaustion is a status, not an error, and the best iterate is still
    returned.  Residuals per iteration are recorded in the trace (index 0
    is the starting residual); an accepted crossover is one iteration and
    the trace's last row.  E(x_k) is evaluated once, for x_k's residual
    and the next y-step: 2k + 2 field calls for k steps, plus one per
    crossover point that reaches the residual test.
    """
    region, model = problem.region, problem.model
    if start is None:
        x = region.feasible_point()
    else:
        x = as_price_vector(start, problem.dim)
        if not region.contains(x, tol=1e-8):
            raise ValueError("start point must lie in the region")
    step, tol = config.step, config.tol_solve
    ex, z, r = _natural_map(problem, x)
    trace = [r]
    iterations = 0
    while trace[-1] > tol and iterations < config.budget:
        crossed = None if iterations % _CROSSOVER_EVERY else _crossover(problem, z, tol)
        if crossed is None:
            y = region.project(x - step * ex)
            x = region.project(x - step * model(y))
            ex, z, r = _natural_map(problem, x)
        else:
            x, ex, z, r = crossed
        trace.append(r)
        iterations += 1
    status = CONVERGED if trace[-1] <= tol else BUDGET_EXHAUSTED
    return VISolveResult(
        solution=x,
        residual=trace[-1],
        minty_gap=minty_gap(problem, x),
        iterations=iterations,
        trace=np.asarray(trace),
        status=status,
    )


@dataclass(frozen=True, eq=False)
class SolutionSetEstimate:
    """Grid classification of both solution sets.

    Dual membership inside primal membership is *not* an invariant here;
    each set is certified independently against its own definition, and
    the continuum containment is only checked (with relaxed tolerance) by
    the test suite.
    """

    grid_points: FloatArray
    stampacchia_mask: FloatArray
    minty_mask: FloatArray
    grid_spacing: float
    tolerance: float

    @property
    def stampacchia_members(self) -> FloatArray:
        return self.grid_points[self.stampacchia_mask]

    @property
    def minty_members(self) -> FloatArray:
        return self.grid_points[self.minty_mask]

    def to_dict(self, include_grid: bool = True) -> dict:
        out = {
            "grid_spacing": self.grid_spacing,
            "tolerance": self.tolerance,
            "grid_point_count": int(self.grid_points.shape[0]),
            "stampacchia_members": self.stampacchia_members.tolist(),
            "minty_members": self.minty_members.tolist(),
        }
        if include_grid:
            out["grid_points"] = self.grid_points.tolist()
        return out


def _extreme_points(grid: FloatArray) -> FloatArray:
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


def _minty_values(grid: FloatArray, evals: FloatArray, diag: FloatArray,
                  tol: float) -> FloatArray:
    """min over j of E(p_j).(p_j - p_i) for every grid point i kept to the end.

    Probe levels of 16, 256 and 4,096 strided columns, then all G, each
    score only the rows that survived the level before, and only against
    the columns no earlier level scored; the running value folds them in
    with ``np.minimum``.  A row leaves after the first level that gives it
    a pairing below ``-tol``, with the minimum over the columns scored so
    far.  A row that reaches the end has seen every column exactly once, so
    its value is the full-grid minimum.  Rows come in chunks of at most
    ``_MINTY_PAIRS`` pairings (one row when a row alone has more), each
    paired and reduced in place in a prefix of one buffer per call.

    Pairings are BLAS products, whose last bit can depend on where a column
    falls in a block; where coordinates and field values round, another
    blocking of the same scan may differ from this one by that rounding.
    """
    G = grid.shape[0]
    vals = np.full(G, np.inf)
    rows = np.arange(G)
    fresh = np.ones(G, dtype=bool)
    buf = np.empty(min(G * G, max(_MINTY_PAIRS, G)))
    for level in (16, 256, 4096, G):
        cols = np.arange(0, G, max(1, G // level))
        cols = cols[fresh[cols]]
        fresh[cols] = False
        if cols.size:
            probe_evals, probe_diag = evals[cols].T, diag[cols]
            step = max(1, _MINTY_PAIRS // cols.size)
            for lo in range(0, rows.size, step):
                idx = rows[lo:lo + step]
                pairs = buf[:idx.size * cols.size].reshape(idx.size, cols.size)
                np.matmul(grid[idx], probe_evals, out=pairs)
                np.subtract(probe_diag, pairs, out=pairs)
                vals[idx] = np.minimum(vals[idx], pairs.min(axis=1))
        rows = rows[vals[rows] >= -tol]
    return vals


def enumerate_solutions(problem: VIProblem, grid_spacing: float,
                        lipschitz_scale: float) -> SolutionSetEstimate:
    """Classify every feasible grid point against both solution notions.

    Membership tolerance is grid_spacing * lipschitz_scale; the scale is
    fixture-specific because exact membership on a grid is ill-posed.  The
    primal minimum runs over the grid's hull vertices; the dual test is the
    rejection cascade of ``_minty_values``, exact on every member.
    Desk-scale only (dim <= 3).
    """
    if not (np.isfinite(lipschitz_scale) and lipschitz_scale > 0):
        raise ValueError(f"lipschitz_scale must be positive and finite, got "
                         f"{lipschitz_scale!r}")
    grid = problem.region.grid(grid_spacing)
    evals = problem.model(grid)
    diag = np.einsum("ij,ij->i", evals, grid)
    tol = grid_spacing * lipschitz_scale
    linmin = (_extreme_points(grid) @ evals.T).min(axis=0)
    return SolutionSetEstimate(
        grid_points=grid,
        stampacchia_mask=(linmin - diag) >= -tol,
        minty_mask=_minty_values(grid, evals, diag, tol) >= -tol,
        grid_spacing=grid_spacing,
        tolerance=tol,
    )


@dataclass(frozen=True, eq=False)
class MemberClusters:
    """Single-linkage clusters of a point set, with its centroids and diameter.

    ``clusters`` holds ascending index arrays in first-member order, and
    ``centroids`` their means in the same order.
    """

    member_count: int
    clusters: list
    centroids: FloatArray
    diameter: float

    def is_single(self, max_diameter: float) -> bool:
        """True iff the set is one cluster of diameter at most ``max_diameter``."""
        return len(self.clusters) == 1 and self.diameter <= max_diameter + 1e-12

    def to_dict(self) -> dict:
        return {
            "member_count": self.member_count,
            "cluster_count": len(self.clusters),
            "cluster_centroids": self.centroids.tolist(),
            "diameter": self.diameter,
        }


def cluster_members(points, threshold: float) -> MemberClusters:
    """Single-linkage clusters at link distance ``threshold``.

    A k-d tree proposes pairs within ``threshold * (1 + 1e-9)``; a pair
    i < j links when ||p_j - p_i|| <= threshold.  The diameter is the
    largest such norm between the hull vertices of ``_extreme_points``.
    """
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
    hull = _extreme_points(pts)
    diameter = float(np.linalg.norm(hull[:, None] - hull, axis=2).max())
    return MemberClusters(k, clusters, centroids, diameter)
