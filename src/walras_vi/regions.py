"""Convex feasible regions and Euclidean projections onto them.

Three region kinds are supported: the unit price simplex, per-commodity
price boxes, and polyhedra given by half-space systems A x <= b.  Every
region is nonempty and bounded when built (construction raises
otherwise), immutable after construction, and every operation is a pure
function, so fixtures share regions freely.  A polyhedron of dim <= 3 is
certified from its vertices; a larger one, or one with too many row
subsets to enumerate, by linear programs.  scipy is imported only for
those programs, and only in this module: a simplex, a box or a polyhedron
of dim <= 3 loads none of it, since a projection's least squares run in
Python floats (``_lstsq``).

Projections are exact for the simplex (sort-and-threshold) and the box
(componentwise clamp); a polyhedral projection is one nonnegative
least-squares solve (Lawson and Hanson's least-distance reduction) whose
result is verified against the KKT conditions to ``TAU_PROJ``.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from contextlib import suppress
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .constants import GRID_POINT_LIMIT, TAU_FEAS, TAU_PROJ, VERTEX_SUBSET_LIMIT

FloatArray = NDArray[np.float64]

__all__ = [
    "as_price_vector",
    "ConvexRegion",
    "Simplex",
    "Box",
    "Polyhedron",
    "project_onto_simplex",
    "ProjectionBudgetError",
]


def as_price_vector(x, dim: Optional[int] = None) -> FloatArray:
    """Validate and return ``x`` as a finite 1-D float64 price vector."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"price vector must be 1-D, got shape {p.shape}")
    if p.size < 1:
        raise ValueError("price vector must have at least one entry")
    # a finite sum of squares means finite entries; vdot never warns on overflow
    if not (math.isfinite(np.vdot(p, p)) or np.isfinite(p).all()):
        raise ValueError("price vector entries must be finite")
    if dim is not None and p.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {p.size}")
    return p


def _price_rows(points, dim: int) -> FloatArray:
    """Validate and return ``points`` as a finite (m, dim) float64 array."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != dim or not np.isfinite(pts).all():
        raise ValueError(f"need finite price rows of dimension {dim}, got {pts.shape}")
    return pts


_EPS = np.finfo(float).eps
_BLOCK_ENTRIES = 1 << 20    # coordinate differences per row block: 8 MiB


def within_distance(points: FloatArray, dist: float,
                    other: Optional[FloatArray] = None) -> NDArray[np.bool_]:
    """(N, M) mask of the pairs of a row of ``points`` and a row of ``other``
    (default ``points``) at most ``dist`` apart, in blocks of rows of at most
    _BLOCK_ENTRIES coordinate differences, each by the same per-pair norm, so
    the mask does not depend on the block size and memory stays O(NM) bits."""
    other = points if other is None else other
    step = max(1, _BLOCK_ENTRIES // max(1, other.size))
    near = np.empty((len(points), len(other)), dtype=bool)
    for lo in range(0, len(points), step):
        block = points[lo:lo + step, None] - other[None]
        near[lo:lo + step] = np.linalg.norm(block, axis=-1) <= dist
    return near


def first_distinct(points: FloatArray, dist: float) -> NDArray[np.bool_]:
    """Mask of the rows farther than ``dist`` from every earlier kept row.

    Blocks of rows, each pairing at most _BLOCK_ENTRIES coordinates, meet the
    rows kept so far in ``within_distance``, a kept row minus a block row as
    in the full N x N mask, and then keep greedily within the block, so
    memory is O(_BLOCK_ENTRIES), not O(N^2).
    """
    keep = np.zeros(len(points), dtype=bool)
    cap = max(1, math.isqrt(_BLOCK_ENTRIES // max(1, points.shape[1])))
    lo = 0
    while lo < len(points):
        kept = points[keep]
        hi = lo + min(cap, max(1, _BLOCK_ENTRIES // max(1, kept.size)))
        rows = lo + np.flatnonzero(~within_distance(kept, dist, points[lo:hi]).any(axis=0))
        near = within_distance(points[rows], dist)
        keep[rows] = True
        for i, row in enumerate(rows):  # first occurrence wins
            if keep[row]:
                keep[rows[i + 1:]] &= ~near[i, i + 1:]
        lo = hi
    return keep


class ProjectionBudgetError(ValueError):
    """A polyhedral projection could not be verified.

    Raised when the NNLS solve hits its iteration cap or its result fails
    the KKT check, which happens for input the kernel cannot resolve (such
    as nearly parallel constraint normals), so it is a ``ValueError`` like
    every other input failure.  Carries the best point found and the KKT
    residual it achieved, so callers can inspect how far the projection got.
    """

    def __init__(self, best: FloatArray, achieved: float):
        super().__init__(
            f"projection failed its KKT check (achieved residual {achieved:.3e})"
        )
        self.best = best
        self.achieved = achieved


def project_onto_simplex(v: FloatArray) -> FloatArray:
    """Euclidean projection of ``v`` onto {x >= 0, sum(x) = 1}.

    Sort-and-threshold algorithm, O(n log n), in Python floats: theta is
    (s_k - 1) / k for the last k at which the k-th largest entry exceeds it,
    s_k the running sum of the k largest.  Ties at the threshold are
    resolved by that arithmetic itself; a ValueError means rounding left no
    such k, which takes entries of magnitude 2**53 or more.
    """
    total, theta = 0.0, None
    for k, u in enumerate(sorted(v.tolist(), reverse=True), 1):
        total += u
        t = (total - 1.0) / k
        if u - t > 0:
            theta = t
    if theta is None:
        raise ValueError("simplex projection threshold lost to rounding")
    return np.maximum(v - theta, 0.0)


def _lstsq(cols: list, b: list) -> list:
    """Minimum-norm least squares over Python floats: the z minimizing
    ||sum_j z[j] cols[j] - b||, each column a list as long as ``b``.

    Householder QR with column pivoting (Businger and Golub, 1965): each
    pivot is the remaining column of largest norm, taken afresh by
    ``math.hypot``, and a pivot norm at most 1e-13 of the first, gelsy's
    rcond, ends the factorization.  The columns left over are dependent;
    the basic solution then loses its projection onto the null space of
    [R11 R12], which leaves the minimum-norm solution.  Every sum runs in
    one fixed order, so no BLAS kernel can change a bit.
    """
    a, r = [list(c) for c in cols], list(b)
    k, m = len(a), len(r)
    order, rank, top = list(range(k)), 0, 0.0
    for i in range(min(m, k)):
        norms = [math.hypot(*c[i:]) for c in a[i:]]
        nrm = max(norms)
        p = i + norms.index(nrm)
        a[i], a[p], order[i], order[p] = a[p], a[i], order[p], order[i]
        x, top = a[i], top or nrm
        if nrm <= 1e-13 * top:
            break
        alpha = -math.copysign(nrm, x[i])
        v0 = x[i] - alpha   # v = x - alpha e_i and H y = y + v (v.y) / (alpha v0)
        for y in a[i + 1:] + [r]:
            f = (v0 * y[i] + sum(x[l] * y[l] for l in range(i + 1, m))) / (alpha * v0)
            y[i] += f * v0
            for l in range(i + 1, m):
                y[l] += f * x[l]
        x[i], rank = alpha, i + 1

    def solve(rhs):     # R11^-1 rhs[:rank], zero past the rank
        z = [0.0] * k
        for i in reversed(range(rank)):
            z[i] = (rhs[i] - sum(a[j][i] * z[j] for j in range(i + 1, rank))) / a[i][i]
        return z

    z, basis = solve(r), []
    for d in range(rank, k):    # z loses each null direction, by Gram-Schmidt
        v = solve([-t for t in a[d]])
        v[d] = 1.0
        for q in basis:
            f = sum(s * t for s, t in zip(q, v))
            v = [t - f * s for s, t in zip(q, v)]
        norm = math.hypot(*v)
        basis.append([t / norm for t in v])
        f = sum(s * t for s, t in zip(basis[-1], z))
        z = [t - f * s for s, t in zip(basis[-1], z)]
    return [z[order.index(j)] for j in range(k)]


def nnls(A: FloatArray, b: FloatArray) -> FloatArray:
    """argmin ||A x - b|| over x >= 0 by Lawson and Hanson's active set.

    Raises RuntimeError after 3 * A.shape[1] iterations.  A column enters
    only if its gradient exceeds rounding level and its coefficient comes
    out positive, which turns away columns that depend on the passive ones
    (duplicate, opposite or flat constraints).  ``scipy.optimize.nnls``
    can return a wrong x with a zero reported residual on such input.  Each
    least-squares step is ``_lstsq`` on the columns as Python lists, and a
    step whose coefficients all come out positive skips the ratio loop.
    """
    m, n = A.shape
    At, bl = A.T.tolist(), b.tolist()
    passive, coef = [], np.zeros(0)
    tol = 10.0 * _EPS * max(m, n) * max(1.0, float(np.abs(A).max()))
    w = A.T @ b
    for _ in range(3 * n):
        for i in passive:
            w[i] = -np.inf
        j = int(w.argmax())
        if w[j] <= tol or len(passive) == m:
            x = np.zeros(n)
            x[passive] = coef
            return x
        trial = passive + [j]
        zl = _lstsq([At[i] for i in trial], bl)
        if zl[-1] <= 0.0:
            w[j] = -np.inf
            continue
        z = np.array(zl)
        if min(zl) <= 0.0:  # step toward z until a coefficient hits zero
            xp = np.concatenate((coef, (0.0,)))
            while z.min() <= 0.0:
                neg = np.flatnonzero(z <= 0.0)
                ratios = xp[neg] / (xp[neg] - z[neg])
                k = int(ratios.argmin())
                xp = xp + ratios[k] * (z - xp)
                xp[neg[k]] = 0.0
                trial = [i for i, v in zip(trial, xp) if v > 0.0]
                xp = xp[xp > 0.0]
                z = np.array(_lstsq([At[i] for i in trial], bl))
        passive, coef = trial, z
        w = A.T @ (b - A[:, trial] @ z)
    raise RuntimeError("Maximum number of iterations reached.")


class ConvexRegion(ABC):
    """Common surface of the feasible-region kinds."""

    dim: int

    @abstractmethod
    def project(self, x) -> FloatArray:
        """Euclidean projection of ``x`` onto the region."""

    @abstractmethod
    def contains(self, x, tol: float = TAU_FEAS) -> bool:
        """True iff all defining constraints hold within ``tol``."""

    @abstractmethod
    def contains_many(self, points, tol: float = TAU_FEAS) -> NDArray[np.bool_]:
        """Row-wise ``contains`` of an (m, dim) array, as a boolean mask."""

    @abstractmethod
    def bounding_box(self) -> tuple[FloatArray, FloatArray]:
        """Per-axis (lower, upper) bounds."""

    @abstractmethod
    def vertices(self) -> FloatArray:
        """Extreme points, shape (k, dim)."""

    @abstractmethod
    def constraints(self) -> tuple[FloatArray, FloatArray, int]:
        """(A, b, n_eq): the region is {x : A x = b on the first n_eq rows,
        A x <= b on the rest}."""

    @property
    def is_bounded(self) -> bool:
        lo, hi = self.bounding_box()
        return bool(np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)))

    def feasible_point(self) -> FloatArray:
        """A canonical interior-ish point of the region."""
        lo, hi = self.bounding_box()
        return self.project(0.5 * (lo + hi))

    def project_many(self, points) -> FloatArray:
        """Row-wise projection of an (m, dim) array.  A row with slack at most
        -1e-9 max(1, |A||p| + |b|) on every inequality row, far past the
        rounding of any order of that sum, is its own projection; the other
        rows, and all rows of a region with equality rows, go to ``project``.
        Rows must be finite and of the region's dimension, as in ``project``."""
        pts = _price_rows(points, self.dim)
        A, b, n_eq = self.constraints()
        with np.errstate(all="ignore"):  # an overflowing row fails the screen
            margin = 1e-9 * np.maximum(1.0, np.abs(pts) @ np.abs(A).T + np.abs(b))
            inside = np.all(pts @ A.T - b + margin <= 0.0, axis=1) & (n_eq == 0)
        out = pts.copy()
        for i in np.flatnonzero(~inside):
            out[i] = self.project(pts[i])
        return out

    def grid(self, spacing: float) -> FloatArray:
        """Deterministic feasible mesh with the given nominal spacing:
        ``lattice(spacing)[0]``.  Desk-scale only: guarded to dim <= 3."""
        return self.lattice(spacing)[0]

    def lattice(self, spacing: float) -> tuple[FloatArray, NDArray[np.bool_]]:
        """(points, hull): the feasible rows of the axis mesh in mesh order, and
        the mask of the rows at an end of their axis line along every axis, which
        hold every hull vertex.  Axis meshes hold both box ends and never decrease, so
        a line ends at the values of its first and last occupied positions."""
        if spacing <= 0:
            raise ValueError("grid spacing must be positive")
        if self.dim > 3:
            raise ValueError("grid enumeration is desk-scale only (dim <= 3)")
        lo, hi = self.bounding_box()
        # each axis holds floor((hi - lo) / spacing + 1e-9) + 1 or + 2 points
        _check_grid_size(math.prod((b - a) / spacing + 2.0
                                   for a, b in zip(lo.tolist(), hi.tolist())))
        axes = [_axis_mesh(lo[j], hi[j], spacing) for j in range(self.dim)]
        mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        inside = self.contains_many(mesh, tol=1e-9)
        pts = np.compress(inside, mesh, axis=0)
        if pts.shape[0] == 0:
            raise ValueError("grid produced no feasible points")
        occupied = inside.reshape([len(v) for v in axes])
        ends = occupied.copy()
        for a, line in enumerate(axes):
            first, last = (np.expand_dims(np.argmax(o, axis=a), a)
                           for o in (occupied, np.flip(occupied, a)))
            v = line.reshape([-1 if b == a else 1 for b in range(self.dim)])
            ends &= (v == line[first]) | (v == line[::-1][last])
        return pts, np.compress(inside, ends.ravel())

    def probe_points(self, count: int) -> FloatArray:
        """The region's vertices, where ``vertices`` has them (closed form or
        kept from construction), then ``count`` points of ``sample``."""
        chunks = [np.empty((0, self.dim))]
        with suppress(ValueError):
            chunks.append(self.vertices())
        if count > 0:
            chunks.append(self.sample(count))
        return np.vstack(chunks)

    def sample(self, count: int) -> FloatArray:
        """Deterministic low-discrepancy points inside the region.

        Halton points in the bounding box, projected by ``project_many``.
        """
        if count < 1:
            raise ValueError("sample count must be positive")
        lo, hi = self.bounding_box()
        return self.project_many(lo + _halton(count, self.dim) * (hi - lo))


def _halton(count: int, dim: int) -> FloatArray:
    """Unscrambled Halton points 1..count in [0, 1)^dim, one prime base per axis.

    Point i has coordinate sum_k d_k b^-(k+1) on the axis of base b, where
    d_k are the base-b digits of i (the radical inverse).  Point 0, the
    origin, is skipped.  Each pass takes one digit on every axis; an axis out
    of digits adds +0.0, so each axis sums its digits in its own order.
    """
    primes: list[int] = []
    candidate = 2
    while len(primes) < dim:
        if all(candidate % q for q in primes):
            primes.append(candidate)
        candidate += 1
    bases = np.array(primes)
    digits = np.arange(1, count + 1)[:, None]
    scale, out = np.ones(dim), np.zeros((count, dim))
    for _ in range(int(count).bit_length()):
        scale /= bases
        digits, rem = np.divmod(digits, bases)
        out += scale * rem
    return out


def _check_grid_size(points: float) -> None:
    """Refuse a grid of more than GRID_POINT_LIMIT points before it is built;
    ``points`` is its size or an upper bound on it, infinite included."""
    if not points <= GRID_POINT_LIMIT:
        raise ValueError(f"grid would hold {points:.4g} points, more than "
                         f"the limit of {GRID_POINT_LIMIT}; use a coarser spacing")


def _row_subsets(m: int, k: int) -> NDArray[np.intp]:
    """The k-subsets of range(m) as rows, lexicographic; refused before any
    is built when there are more than VERTEX_SUBSET_LIMIT of them."""
    count = math.comb(m, k)
    if count > VERTEX_SUBSET_LIMIT:
        raise ValueError(f"vertex enumeration would solve {count} row subsets, "
                         f"more than the limit of {VERTEX_SUBSET_LIMIT}")
    subsets = itertools.combinations(range(m), k)
    return np.array(list(subsets), dtype=np.intp).reshape(count, k)


def simplex_lattice(parts: int, steps: int) -> FloatArray:
    """Rows of ``parts`` weights w >= 0 with sum 1 and steps * w integral, zeros
    included, lexicographic: each pass splits a last count r into j, r - j."""
    counts = np.full((1, 1), steps, dtype=np.intp)
    for _ in range(parts - 1):
        reps = counts[:, -1] + 1
        j = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        counts = np.insert(np.repeat(counts, reps, axis=0), -1, j, axis=1)
        counts[:, -1] -= j
    return counts / steps


def _axis_mesh(lo: float, hi: float, spacing: float) -> FloatArray:
    n_steps = int(math.floor((hi - lo) / spacing + 1e-9))
    axis = lo + spacing * np.arange(n_steps + 1)
    if hi - axis[-1] > spacing * 1e-6:
        axis = np.append(axis, hi)
    return axis


@dataclass(frozen=True)
class Simplex(ConvexRegion):
    """Unit price simplex: x_j >= 0 and sum_j x_j = 1."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("simplex dimension must be >= 1")

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self.n

    def project(self, x) -> FloatArray:
        return project_onto_simplex(as_price_vector(x, self.n))

    def project_many(self, points) -> FloatArray:
        pts = _price_rows(points, self.n)
        u = np.sort(pts, axis=1)[:, ::-1]
        css = np.cumsum(u, axis=1) - 1.0
        ks = np.arange(1, self.n + 1)
        positive = u - css / ks > 0
        if not positive.any(axis=1).all():
            raise ValueError("simplex projection threshold lost to rounding")
        rho = self.n - 1 - np.argmax(positive[:, ::-1], axis=1)
        theta = css[np.arange(pts.shape[0]), rho] / (rho + 1.0)
        return np.maximum(pts - theta[:, None], 0.0)

    def contains(self, x, tol: float = TAU_FEAS) -> bool:
        return bool(self.contains_many(as_price_vector(x, self.n), tol)[0])

    def contains_many(self, points, tol: float = TAU_FEAS) -> NDArray[np.bool_]:
        p = _price_rows(points, self.n)
        return np.all(p >= -tol, axis=1) & (np.abs(p.sum(axis=1) - 1.0) <= tol)

    def bounding_box(self):
        return np.zeros(self.n), np.ones(self.n)

    def vertices(self) -> FloatArray:
        return np.eye(self.n)

    def constraints(self):
        """The sum row as the equality, then -x <= 0."""
        A = np.vstack((np.ones(self.n), -np.eye(self.n)))
        return A, np.concatenate(((1.0,), np.zeros(self.n))), 1

    def feasible_point(self) -> FloatArray:
        return np.full(self.n, 1.0 / self.n)

    def grid(self, spacing: float) -> FloatArray:
        if spacing <= 0:
            raise ValueError("grid spacing must be positive")
        if self.n > 3:
            raise ValueError("grid enumeration is desk-scale only (dim <= 3)")
        if self.n == 1:
            return np.array([[1.0]])
        _check_grid_size(1.0 / spacing)  # < k + 1, the points on one edge
        k = max(1, round(1.0 / spacing))
        _check_grid_size(math.comb(k + self.n - 1, self.n - 1))
        return simplex_lattice(self.n, k)

    def lattice(self, spacing: float) -> tuple[FloatArray, NDArray[np.bool_]]:
        """Every row marked: n - 1 coordinates fix the last, one row per line."""
        pts = self.grid(spacing)
        return pts, np.ones(len(pts), dtype=bool)


@dataclass(frozen=True, eq=False)
class Box(ConvexRegion):
    """Per-commodity price bounds 0 <= a_j <= x_j <= b_j, all finite, held
    as read-only copies."""

    lower: FloatArray
    upper: FloatArray

    def __init__(self, lower, upper):
        lo = np.array(lower, dtype=float)
        hi = np.array(upper, dtype=float)
        if lo.ndim != 1 or hi.shape != lo.shape:
            raise ValueError("lower and upper bounds must be 1-D and equal length")
        if lo.size < 1:
            raise ValueError("box needs at least one coordinate")
        if not np.all(np.isfinite(lo)):
            raise ValueError("lower bounds must be finite")
        if np.any(lo < 0):
            raise ValueError("lower price bounds must be nonnegative")
        if not np.all(np.isfinite(hi)) or np.any(hi < lo):
            raise ValueError("upper bounds must be finite and satisfy b_j >= a_j")
        lo.flags.writeable = hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self.lower.size

    def project(self, x) -> FloatArray:
        p = as_price_vector(x, self.dim)
        return np.minimum(np.maximum(p, self.lower), self.upper)

    def project_many(self, points) -> FloatArray:
        return np.clip(_price_rows(points, self.dim), self.lower, self.upper)

    def contains(self, x, tol: float = TAU_FEAS) -> bool:
        return bool(self.contains_many(as_price_vector(x, self.dim), tol)[0])

    def contains_many(self, points, tol: float = TAU_FEAS) -> NDArray[np.bool_]:
        p = _price_rows(points, self.dim)
        return np.all((p >= self.lower - tol) & (p <= self.upper + tol), axis=1)

    def bounding_box(self):
        return self.lower.copy(), self.upper.copy()

    def vertices(self) -> FloatArray:
        """The distinct corners, lexicographic; a flat axis gives its lower bound."""
        if self.dim > 16:
            raise ValueError("vertex enumeration limited to dim <= 16")
        lo, hi = self.lower.tolist(), self.upper.tolist()
        axes = [(a,) if a == b else (a, b) for a, b in zip(lo, hi)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)

    def constraints(self):
        """x <= upper, then -x <= -lower."""
        eye = np.eye(self.dim)
        return np.vstack((eye, -eye)), np.concatenate((self.upper, -self.lower)), 0


class Polyhedron(ConvexRegion):
    """Half-space intersection {x : A x <= b}, certified nonempty and bounded.

    At dim <= 3, with at most VERTEX_SUBSET_LIMIT row subsets, construction
    enumerates the vertices, and keeps them: the bounding box is their min and
    max, and the lexicographically first, which attains min x_0, is the anchor.
    Otherwise it solves the 2n bounding-box LPs and raises unless every one
    has an optimum; the first optimum is the anchor.  Optional finite
    per-axis lower/upper bounds are folded in as extra rows; the resulting
    ``A`` and ``b`` are read-only.
    """

    def __init__(self, A, b, lower=None, upper=None):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
            raise ValueError("need A of shape (m, n) and b of shape (m,)")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("constraint data must be finite")
        n = A.shape[1]
        rows = [A]
        rhs = [b]
        for name, bound, sign in (("lower", lower, -1.0), ("upper", upper, 1.0)):
            if bound is None:
                continue
            v = np.asarray(bound, dtype=float)
            if v.shape != (n,):
                raise ValueError(f"{name} bounds must have one entry per axis")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} bounds must be finite")
            rows.append(sign * np.eye(n))
            rhs.append(sign * v)
        self.A = np.vstack(rows)
        self.b = np.concatenate(rhs)
        self.A.flags.writeable = self.b.flags.writeable = False
        norms = np.linalg.norm(self.A, axis=1)
        if np.any(norms == 0):
            raise ValueError("zero constraint rows are not allowed")
        self._unit_A = self.A / norms[:, None]
        self._unit_b = self.b / norms
        self._unit_A.flags.writeable = self._unit_b.flags.writeable = False
        self._dim = n
        # project's least-distance matrix [A_u^T; c^T], c written per call
        self._lsd = np.vstack((self._unit_A.T, np.zeros_like(self.b)))
        self._e = np.eye(n + 1)[n]
        self._vertices: Optional[FloatArray] = None
        if n <= 3 and math.comb(self.b.size, n) <= VERTEX_SUBSET_LIMIT:
            self._bound_by_vertices()
        else:
            self._bound_by_lp()
        self._feasible = self.project(np.zeros(n))

    def _bound_by_vertices(self) -> None:
        """Vertices, box and anchor; raises if the set is empty or unbounded.

        Fewer than n + 1 rows cannot bound it.  An n-subset of rows is a
        basis when its unit rows have |det| >= 1e-12, so the test does not
        depend on how the rows are scaled; each basic point is solved from
        the rows as given, and the feasible ones, deduplicated and sorted,
        are the vertices.  With unit rows of rank n, the set is empty iff it
        has no vertex, and bounded iff {d : A d <= 0} = {0} (Gordan's
        alternative).  That cone is then pointed, so it is {0} iff it has no
        extreme ray, and an extreme ray is orthogonal to n - 1 independent
        rows: it is one of the two null directions of an (n - 1)-subset, the
        subset's generalized cross product and its negative.
        """
        n, m = self.dim, self.b.size
        fail = "polyhedron must be nonempty and bounded ({})".format
        if m <= n:
            raise ValueError(fail(f"fewer than {n + 1} constraints"))
        # a subnormal entry can leave a zero LU pivot whose log raises the
        # divide flag inside det; that det is then 0, as it should be
        with np.errstate(divide="ignore"):
            rows = _row_subsets(m, n)
            rows = rows[np.abs(np.linalg.det(self._unit_A[rows])) >= 1e-12]
            if rows.shape[0] == 0:
                raise ValueError(fail(f"the constraint normals span fewer than "
                                      f"{n} dimensions"))
            pts = np.linalg.solve(self.A[rows], self.b[rows][..., None])[..., 0]
            pts = pts[self.contains_many(pts, tol=1e-9)]
            if pts.shape[0] == 0:
                raise ValueError(fail("no point satisfies A x <= b"))
            pts = pts[first_distinct(pts, 1e-9)]
            pts = pts[np.lexsort(pts.T[::-1])]
            rows = self._unit_A[_row_subsets(m, n - 1)]
            d = np.stack([(-1) ** j * np.linalg.det(np.delete(rows, j, axis=2))
                          for j in range(n)], axis=-1)
        norm = np.linalg.norm(d, axis=1)
        d = d[norm >= 1e-12] / norm[norm >= 1e-12, None]
        rays = np.vstack((d, -d))
        rays = rays[np.all(rays @ self._unit_A.T <= 1e-12, axis=1)]
        if rays.shape[0]:
            raise ValueError(fail(f"A d <= 0 at d = {(rays[0] + 0.0).tolist()}"))
        self._lower, self._upper = pts.min(axis=0), pts.max(axis=0)
        self._anchor, self._vertices = pts[0], pts
        pts.flags.writeable = False

    def _bound_by_lp(self) -> None:
        """Box and anchor from the 2n bounding-box LPs; raises unless every
        one has an optimum."""
        from scipy.optimize import linprog

        n = self.dim
        box = np.empty(2 * n)
        for k, c in enumerate(np.vstack((np.eye(n), -np.eye(n)))):
            res = linprog(c, A_ub=self.A, b_ub=self.b, bounds=[(None, None)] * n,
                          method="highs")
            if res.status != 0:
                raise ValueError(
                    f"polyhedron must be nonempty and bounded ({res.message})")
            box[k] = res.x[k % n]
            if k == 0:
                self._anchor = res.x
        self._lower, self._upper = box[:n], box[n:]

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self._dim

    def feasible_point(self) -> FloatArray:
        return self._feasible.copy()

    def contains(self, x, tol: float = TAU_FEAS) -> bool:
        return bool(self.contains_many(as_price_vector(x, self.dim), tol)[0])

    def contains_many(self, points, tol: float = TAU_FEAS) -> NDArray[np.bool_]:
        """Slack on the unit rows up to tol * max(1, |b_u|), so scaling a row does
        not change membership; by columns, as numpy reduces short rows slowly."""
        p = _price_rows(points, self.dim)
        limit = tol * np.maximum(1.0, np.abs(self._unit_b))
        return reduce(np.logical_and, [s - b <= t for s, b, t in
                                       zip((p @ self._unit_A.T).T, self._unit_b, limit)])

    def project(self, x) -> FloatArray:
        """Exact projection by one least-distance NNLS, KKT-verified.

        On the unit rows, z = y - x solves min ||z|| s.t. -A_u z >= h with
        h = A_u x - b_u.  Lawson and Hanson (1974, ch. 23) reduce that to
        u = argmin_{u >= 0} ||E u - e_{n+1}||, E = [A_u^T; c^T], c = h / s
        (the sign of the top block does not change the objective).  The
        region holds E with a zero c row and e_{n+1}, built once; a call
        copies E, column-major as ``np.vstack`` made it, and writes its c.  Then
        lambda = s u / (1 - c.u) and y = x - A_u^T lambda, so stationarity
        holds by construction.  The scale
        s = max(1, max|h|, ||x - f||), f feasible, bounds ||z|| from above;
        a scale far below ||z|| costs y a factor (||z|| / s)^2 in precision.
        Feasibility, lambda >= 0 and complementarity, as
        max_i min(lambda_i, |slack_i|), are checked to TAU_PROJ * s.
        """
        p = as_price_vector(x, self.dim)
        h = self._unit_A @ p - self._unit_b
        hl = h.tolist()
        worst = max(hl)
        if worst <= 0.0:
            return p
        d = p - self._anchor
        s = max(1.0, worst, -min(hl), math.sqrt(d @ d))
        c = h / s
        E = self._lsd.copy(order="K")  # the layout sets the BLAS path
        E[-1] = c
        try:
            u = nnls(E, self._e)
        except RuntimeError:  # iteration cap
            raise ProjectionBudgetError(p, worst) from None
        gap = 1.0 - float(c @ u)  # -r[n]; positive iff the program is feasible
        if not gap > 0.0:
            raise ProjectionBudgetError(p, worst)
        lam = s / gap * u
        y = p - self._unit_A.T @ lam
        slack = self._unit_b - self._unit_A @ y
        lam_, slack_ = lam.tolist(), slack.tolist()
        residual = max(-min(lam_), -min(slack_), max(map(min, lam_, map(abs, slack_))))
        if not residual <= TAU_PROJ * s:
            raise ProjectionBudgetError(y, residual)
        return y

    def bounding_box(self):
        return self._lower.copy(), self._upper.copy()

    def constraints(self):
        """The unit rows, on which ``contains`` measures slack."""
        return self._unit_A, self._unit_b, 0

    def vertices(self) -> FloatArray:
        """The vertices kept, read-only, from construction; a polyhedron that
        LPs certified has none kept, and raises."""
        if self._vertices is None:
            raise ValueError(f"vertices are kept only within the limits of dim <= 3 "
                             f"and {VERTEX_SUBSET_LIMIT} row subsets")
        return self._vertices

    def __repr__(self) -> str:
        return f"Polyhedron(m={self.A.shape[0]}, n={self.dim})"
