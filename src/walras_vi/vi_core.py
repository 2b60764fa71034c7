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
set, both by one rejection cascade (``_cascade``).  The primal test's
min_p E(p_i).p is a linear functional, minimized at a hull vertex, so its
columns are the hull candidates of ``ConvexRegion.lattice``.  The dual test
has no such shortcut (for a positive-definite linear field every lifted
point (E(p), -E(p).p) is a hull vertex), so its columns are the whole grid.
In front of both, ``_cell_filter`` bounds whole cells of the grid against a
static rounding bound and drops the rows those bounds reject and the dual
columns that can reject no row left, which changes no mask beyond the
blocking-dependent last bit of the pairings still scored; its field-free
part is a ``GridLattice``, which fixtures on one region can share.
Nothing here imports scipy: ``cluster_members`` links by a cell list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import HarnessConfig
from .economy import ExcessDemandModel
from .regions import _BLOCK_ENTRIES, ConvexRegion, FloatArray, as_price_vector

__all__ = [
    "CONVERGED",
    "BUDGET_EXHAUSTED",
    "VIProblem",
    "VISolveResult",
    "SolutionSetEstimate",
    "solve_extragradient",
    "residual",
    "minty_gap",
    "GridLattice",
    "enumerate_solutions",
    "MemberClusters",
    "cluster_members",
]

CONVERGED = "converged"
BUDGET_EXHAUSTED = "budget_exhausted"

_MINTY_PAIRS = 1 << 22
_BLOCK_PAIRS = 1 << 16   # pairings per cascade row block: 512 KiB
_CROSSOVER_EVERY = 8     # extragradient steps between crossover tries
_FACE_SLACK = 1e-12      # relative slack of a row counted active
_CELL_STEPS = 8          # grid steps per cell side, doubled until cells <= G
_CELL_PROBES = 256       # strided columns each row cell is bounded against
_CELL_PAIRS = 1 << 12    # cell bounds per block: 32 KiB


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
    iterations: int
    trace: FloatArray
    status: str

    def to_dict(self, problem: VIProblem) -> dict:
        """The ``solve`` JSON, with ``minty_gap(problem, solution)``."""
        return {
            "solution": self.solution.tolist(),
            "residual": self.residual,
            "minty_gap": minty_gap(problem, self.solution),
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
    and the next y-step: 2k + 1 field calls for k steps, plus one per
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
    return VISolveResult(solution=x, residual=trace[-1], iterations=iterations,
                         trace=np.asarray(trace), status=status)


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


def _extreme_points(points: FloatArray) -> FloatArray:
    """Rows that include every vertex of the points' convex hull: those whose
    coordinate along every axis is the least or the greatest on its axis
    line (the rows whose other coordinates equal its own).  A row strictly
    inside its axis line lies between two others, so it is no vertex.  Rows
    compare by value, so duplicates stay, whatever the set and its flatness.
    For any point set; a region's grid has these rows from ``lattice``.
    """
    keep = np.ones(points.shape[0], dtype=bool)
    for a in range(points.shape[1]):
        rest = np.delete(points, a, axis=1)
        order = np.lexsort((points[:, a], *rest.T[::-1]))  # by axis line, then a
        new = np.r_[True, (rest[order[1:]] != rest[order[:-1]]).any(axis=1)]
        line, v = np.cumsum(new) - 1, points[order, a]
        ends = np.r_[np.flatnonzero(new)[1:], v.size] - 1
        keep[order] &= (v == v[new][line]) | (v == v[ends][line])
    return points[keep]


def _cascade(X: FloatArray, Y: FloatArray, a, b, tol: float) -> FloatArray:
    """a_i + min over j of X_i.Y_j + b_j for every row i of X kept to the end.

    Probe levels of 16, 256 and 4,096 strided rows of Y, then all, each
    score the rows of X left by the level before against the columns no
    earlier level scored.  A row leaves once a_i plus its minimum is below
    ``-tol``; a row that reaches the end has seen every column once, so its
    value is the full minimum, +inf when Y has no rows.  Rows come in
    chunks of at most ``_MINTY_PAIRS`` pairings (one row when a row alone
    has more), a chunk of 2 or more in ``np.array_split`` blocks of 2 or
    more rows and about ``_BLOCK_PAIRS`` pairings, each reduced in place in
    a prefix of ``buf``, which min(RC, max(_BLOCK_PAIRS, 3C)) entries fit.
    Minty: (grid, -E(grid), 0, diag), by exact negation E(p_j).(p_j - p_i);
    Stampacchia: (E(grid), the lattice's hull rows, -diag, 0), that is
    E(p_i).(p_j - p_i).

    Pairings are BLAS products, whose last bit can depend on where a column
    falls in a block and, under OpenBLAS's SkylakeX kernels, on the row
    count, so another blocking of the same scan may differ by that rounding;
    no block is a lone row (gemv) unless its chunk is, and none splits columns.
    """
    R, C = X.shape[0], Y.shape[0]
    a, b = np.broadcast_to(a, R), np.broadcast_to(b, C)
    buf = np.empty(min(R * C, max(_BLOCK_PAIRS, 3 * C)))
    vals = np.full(R, np.inf)
    rows = np.arange(R)
    fresh = np.ones(C, dtype=bool)
    for level in (16, 256, 4096, max(C, 1)):
        cols = np.arange(0, C, max(1, C // level))
        cols = cols[fresh[cols]]
        fresh[cols] = False
        if cols.size:
            probe, probe_b = Y[cols].T, b[cols]
            step = max(1, _MINTY_PAIRS // cols.size)
            per = max(2, _BLOCK_PAIRS // cols.size)
            for chunk in np.split(rows, range(step, rows.size, step)):
                n = chunk.size
                for idx in np.array_split(chunk, max(1, min(-(-n // per), n // 2))):
                    pairs = buf[:idx.size * cols.size].reshape(idx.size, cols.size)
                    np.matmul(X[idx], probe, out=pairs)
                    np.add(probe_b, pairs, out=pairs)
                    vals[idx] = np.minimum(vals[idx], pairs.min(axis=1))
        rows = rows[vals[rows] + a[rows] >= -tol]
    return vals + a


def _blocks(rows: int, cols: int):
    """Slices of ``rows`` rows, each of about _CELL_PAIRS bounds with ``cols``."""
    step = max(1, _CELL_PAIRS // max(1, cols))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _cell_bound(model: ExcessDemandModel, reach: FloatArray, tol: float) -> float:
    """B, a static bound on the rounding of every cascade value and cell
    bound of ``_cell_filter``, whose boxes satisfy |x_a| + r_a <= reach_a;
    inf where F P (below) is above 2^1000 or not finite.

    Write u = 2^-53, gamma_k = k u / (1 - k u), n <= 3 the dimension,
    e(y) = M y - c exactly, F = max_a (|M| reach + |c|)_a and P = sum(reach),
    so |e(y)|_a <= F and (|e(x)| + |M| r)_a <= F on every box, and |y|_1 <= P
    there.  Every bound below holds in any summation order, with or without
    FMA (Higham 2002, ch. 3); below 2^-1022 each product adds at most
    2^-1074, fewer than 2^6 of them per value.
      * A cascade value is a float sum of two float pairings, diag_j or
        -diag_i and a product of length n.  E = fl(p M^T - c) errs by at most
        gamma_{n+1} F per entry, diag and the product by gamma_n F P (1 +
        gamma_{n+1}) each, their sum by 2 u F P (1 + 3 gamma_n), so the value
        is within (4n + 5) u F P of the exact e(p_j).(p_j - p_i) (Minty) or
        e(p_i).(p_j - p_i) (Stampacchia).
      * A cell bound is a float sum of at most 4n products, of operands
        within gamma_{n+1} F (fields), gamma_n F (|M| r) or u |d| (a
        difference d) of exact, whose magnitudes sum to at most 3 F P; it
        errs by at most (gamma_{4n} + gamma_{n+1} + gamma_n + 3 u) 3 F P
        <= (18n + 13) u F P from the exact bound.
    Their sum is below B0 = 2^-46 F P = 128 u F P for n <= 3.  With
    B = 2 B0 + 2^-50 tol + 2^-1000, B less the true error exceeds
    u (tol + B), the rounding of fl(-tol -+ B).  So a float bound below
    fl(-tol - B) puts the value it bounds below -tol, and one at or above
    fl(-tol + B) puts it at or above -tol, as ``_cascade`` computes it.
    F P <= 2^1000 also keeps every magnitude above finite.
    """
    scale = float((np.abs(model.M) @ reach + np.abs(model.c)).max() * reach.sum())
    if not scale <= 2.0 ** 1000:
        return np.inf
    return 2.0 ** -45 * scale + 2.0 ** -50 * tol + 2.0 ** -1000


class GridLattice:
    """A region's grid at one spacing with what the oracle derives from it
    alone: ``hull``, the candidate rows of ``region.lattice(spacing)``, and
    the cells of ``_cell_filter``: each row's ``cell``, the cell ``centres``,
    their ``radius`` and the ``reach``.  ``grid`` is read-only.

    Cells (dual-tree pruning, Gray and Moore 2001).  With lo and hi the
    grid's least and greatest coordinates, a row's cell on axis a is
    k_a = floor(fl(fl(p_a - lo_a) / w)), w being _CELL_STEPS grid steps,
    doubled until the box of cells holds at most G of them, so every cell
    array is O(G) and no row is sorted.  Cell k is the box of centre
    x = fl(lo + fl((k + 1/2) w)) and radius r = w/2 + 2^-48 (|lo| + |hi| + w)
    + 2^-1000 on each axis.  With u = 2^-53 and E = hi - lo, the quotient
    errs by at most 2.01 u E / w, so p - lo lies in [(k - d) w, (k + 1 + d) w]
    with d w <= 2.01 u E, and x errs from lo + (k + 1/2) w by at most
    1.01 u (|lo| + 2 E + 2 w) (plus 2^-1074 per operation under underflow):
    the box holds every row of its cell, and |x_a| + r_a <= reach_a =
    max(|lo_a|, |hi_a|) + 2 r_a.
    """

    def __init__(self, region: ConvexRegion, spacing: float):
        grid, hull = region.lattice(spacing)
        grid.flags.writeable = False
        self.grid, self.hull = grid, np.compress(hull, grid, axis=0)
        with np.errstate(all="ignore"):  # an infinite radius makes B infinite
            G, n = grid.shape
            # column by column: numpy reduces a (G, n) array over axis 0 slowly
            lo, hi = (np.array([f(v) for v in grid.T]) for f in (np.min, np.max))
            width = _CELL_STEPS * spacing
            while np.prod(np.floor((hi - lo) / width) + 1) > G:
                width *= 2
            r = 0.5 * width + 2.0 ** -48 * (np.abs(lo) + np.abs(hi) + width) + 2.0 ** -1000
            self.radius, self.reach = r, np.maximum(np.abs(lo), np.abs(hi)) + 2 * r
            spans = (np.floor((hi - lo) / width) + 1).astype(np.intp)
            key = np.zeros(G, dtype=np.intp)
            for a in range(n):
                key *= spans[a]
                key += np.floor((grid[:, a] - lo[a]) / width).astype(np.intp)
            counts = np.bincount(key, minlength=int(np.prod(spans)))
            self.cell = np.take(np.cumsum(counts > 0) - 1, key)
            self.centres = lo + (np.stack(np.unravel_index(np.flatnonzero(counts), spans),
                                          axis=1) + 0.5) * width


def _cell_filter(problem: VIProblem, lattice: GridLattice, evals: FloatArray,
                 diag: FloatArray, tol: float):
    """Boolean masks over the grid: the Stampacchia rows, the Minty rows and
    the Minty columns that a certified cell filter leaves to ``_cascade``.

    Bounds, over the cells of ``GridLattice``.  With e(y) = M y - c, a cell
    X = x +- r and rho = |M| r, e(X) lies in e(x) +- rho.  Against
    B = ``_cell_bound`` at the lattice's reach (which prunes nothing when it
    is not finite):
      * a Stampacchia row cell leaves when, for some strided hull candidate
        h, e(x).(h - x) + (|e(x)| + rho).r + rho.|h - x| < -tol - B;
      * a Minty row cell leaves when, for some strided grid column j,
        diag_j + |E_j|.r - E_j.x < -tol - B;
      * a Minty column cell y stays only when, for some live Minty row cell
        x, e(y).(y - x) - (|e(y)| + rho).2r - rho.|y - x| < -tol + B.
    A row in a cell that leaves has a cascade value below -tol, so
    ``_cascade`` would reject it, and a column in a skipped cell gives no
    live row a value below -tol, under every kernel and every blocking.
    Bounds come in blocks of about _CELL_PAIRS.
    """
    with np.errstate(all="ignore"):  # the CLI raises on overflow; here B is inf
        G, n = evals.shape
        bound = _cell_bound(problem.model, lattice.reach, tol)
        if not bound < np.inf:
            keep = np.ones(G, dtype=bool)
            return keep, keep, keep
        drop, skip = -tol - bound, -tol + bound
        x, radius, cell, hull = lattice.centres, lattice.radius, lattice.cell, lattice.hull
        M, c = problem.model.M, problem.model.c
        ex, rho = x @ M.T - c, np.abs(M) @ radius
        K = len(x)
        stamp = np.ones(K, dtype=bool)  # against strided hull candidates
        h = hull[::max(1, len(hull) // _CELL_PROBES)]
        base = (np.abs(ex) + rho) @ radius - np.einsum("ij,ij->i", ex, x)
        for s in _blocks(K, len(h)):
            ub = ex[s] @ h.T + base[s, None]
            for a in range(n):
                ub += rho[a] * np.abs(h[:, a] - x[s, a, None])
            stamp[s] = ~(ub < drop).any(axis=1)
        minty = np.ones(K, dtype=bool)  # against strided grid columns
        cols = np.arange(0, G, max(1, G // _CELL_PROBES))
        e = evals[cols]
        top = diag[cols] + np.abs(e) @ radius
        for s in _blocks(K, len(cols)):
            minty[s] = ~(top - x[s] @ e.T < drop).any(axis=1)
        need = np.zeros(K, dtype=bool)  # against the live Minty row cells
        live = x[minty]
        own = np.einsum("ij,ij->i", ex, x) - (np.abs(ex) + rho) @ (2 * radius)
        for s in _blocks(len(live), K):
            lb = own - live[s] @ ex.T
            for a in range(n):
                lb -= rho[a] * np.abs(x[:, a] - live[s, a, None])
            need |= ~(lb >= skip).all(axis=0)
        return stamp[cell], minty[cell], need[cell]


def enumerate_solutions(problem: VIProblem, grid_spacing: float,
                        lipschitz_scale: float,
                        lattice: GridLattice | None = None) -> SolutionSetEstimate:
    """Classify every feasible grid point against both solution notions.

    Membership tolerance is grid_spacing * lipschitz_scale; the scale is
    fixture-specific because exact membership on a grid is ill-posed.  Both
    tests are ``_cascade`` scans, exact on every member: the primal one over
    ``lattice.hull``, the dual one over ``lattice.grid``, where ``lattice``,
    built here when None, is ``GridLattice(problem.region, grid_spacing)``.
    ``_cell_filter`` first drops the rows that a certified cell bound rejects
    and the dual columns that can reject no row left, so each scan sees only
    the rest.  Desk-scale only (dim <= 3).
    """
    if not (np.isfinite(lipschitz_scale) and lipschitz_scale > 0):
        raise ValueError(f"lipschitz_scale must be positive and finite, got "
                         f"{lipschitz_scale!r}")
    lattice = GridLattice(problem.region, grid_spacing) if lattice is None else lattice
    grid, hull = lattice.grid, lattice.hull
    evals = problem.model(grid)
    diag = np.einsum("ij,ij->i", evals, grid)
    tol = grid_spacing * lipschitz_scale
    stamp, minty, cols = _cell_filter(problem, lattice, evals, diag, tol)
    primal = np.zeros(len(grid), dtype=bool)
    primal[stamp] = _cascade(evals[stamp], hull, -diag[stamp], 0.0, tol) >= -tol
    np.negative(evals, out=evals)  # exact, in place
    dual = np.zeros(len(grid), dtype=bool)
    dual[minty] = _cascade(grid[minty], evals[cols], 0.0, diag[cols], tol) >= -tol
    return SolutionSetEstimate(
        grid_points=grid,
        stampacchia_mask=primal,
        minty_mask=dual,
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


def _cell_pairs(pts: FloatArray, threshold: float):
    """Row pairs, each unordered pair once, in equal or neighbouring cells of a
    cell list (Hockney and Eastwood 1988), which hold every pair of float norm
    at most ``threshold``.  A row's cell on axis a is floor(q), with
    q = fl(fl(p_a - lo_a) / w), lo the least coordinates, t = max(threshold,
    0), E the largest axis extent and w = t (1 + 1e-9) + 8 eps E + 2^-500.

    Proof, with u = 2^-53 and d = fl(p_ja - p_ia): the norm, a rounded root of
    a rounded sum of rounded squares, is at least fl(sqrt(fl(d^2))) by
    monotone rounding; a normal d^2 then gives |p_ja - p_ia| <= |d| / (1 - u)
    <= t (1 + 3u), a subnormal one < 2^-510.  q errs from (p_a - lo_a) / w by
    at most 2.01 u E / w, so two q differ by less than
    (t (1 + 3u) + 2^-510 + 4.1 u E) / w < 1 (float w too), their floors by at
    most 1.  So q < 2^49: int64 keys hold the cells on the leading m <= 3 axes
    whose spans multiply to below 2^62.  One ``searchsorted`` finds each row's
    later cell-mates and its half-stencil: 3^m offsets, first nonzero one +1.
    """
    lo = pts.min(axis=0)
    width = (max(threshold, 0.0) * (1 + 1e-9) + 2.0 ** -500
             + 8 * np.finfo(float).eps * float((pts.max(axis=0) - lo).max()))
    cells = np.floor((pts - lo) / width).astype(np.int64) + 1  # c - 1 >= 0
    spans = cells.max(axis=0) + 2
    m = int(np.sum(np.cumprod(spans[:3].astype(float)) < 2.0 ** 62))
    strides = np.cumprod(np.r_[1, spans[m - 1:0:-1]])[::-1]
    order = np.argsort(key := cells[:, :m] @ strides, kind="stable")
    key = key[order]
    half = np.indices((3,) * m).reshape(m, -1).T[3 ** m // 2:] - 1
    query = key[:, None] + half @ strides
    start, stop = np.searchsorted(key, np.stack((query, query + 1)))
    start[:, 0] = np.arange(1, key.size + 1)  # own cell: the rows after
    counts = (stop - start).ravel()
    dst = np.repeat(start.ravel() + counts - np.cumsum(counts), counts)
    return np.repeat(order, (stop - start).sum(axis=1)), order[dst + np.arange(dst.size)]


def cluster_members(points, threshold: float) -> MemberClusters:
    """Single-linkage clusters at link distance ``threshold``: a ``_cell_pairs``
    pair links when the ``np.linalg.norm`` of its difference is at most
    ``threshold``.  Hook and jump (Shiloach and Vishkin 1982) labels each row
    with its component's least row.  The diameter is the largest pair norm
    over ``_extreme_points``, squares summed in axis order, in row blocks of
    _BLOCK_ENTRIES.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k = pts.shape[0]
    if k == 0:
        return MemberClusters(0, [], np.array([]), 0.0)
    i, j = _cell_pairs(pts, threshold)
    near = np.linalg.norm(np.take(pts, j, 0) - np.take(pts, i, 0), axis=1) <= threshold
    i, j = i[near], j[near]
    labels = np.arange(k)
    while not np.array_equal(a := labels[i], b := labels[j]):
        np.minimum.at(labels, np.r_[a, b], np.r_[b, a])
        while not np.array_equal(up := labels[labels], labels):
            labels = up
    order = np.argsort(labels, kind="stable")
    clusters = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    centroids = np.array([pts[idx].mean(axis=0) for idx in clusters])
    hull = _extreme_points(pts).T                       # (dim, candidates)
    step = max(1, _BLOCK_ENTRIES // hull.size)
    diameter = float(np.sqrt(max(
        sum((x[lo:lo + step, None] - x) ** 2 for x in hull).max()  # in axis order
        for lo in range(0, hull.shape[1], step))))
    return MemberClusters(k, clusters, centroids, diameter)
