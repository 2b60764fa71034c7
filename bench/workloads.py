"""Workload inputs: the generated catalog and problem files, and op schedules.

Inputs depend only on the workload name and the seed.  They are written
with fixed JSON formatting, so one seed always gives byte-identical files.
Nothing here imports walras_vi: the program receives only the files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The nine fixtures of the default catalog, in catalog order.
DEFAULT_FIXTURES = (
    "linear_identity", "constant_field", "constant_positive", "rotation",
    "scalar_negslope", "scalar_posslope", "scalar_positive",
    "simplex_positive", "mortgage_linear",
)

PLAN_POINTS = 64

# Start points drawn per region on solve_sweep; one pass solves each once.
STARTS_PER_REGION = 4

# Starts lie within this distance (per coordinate) of the region's anchor,
# so every start costs about the same and the seed barely moves latency.
START_JITTER = 0.05

_BOX_LOWER = np.linspace(0.0, 0.9, 10)
_BOX_UPPER = np.linspace(1.0, 2.8, 10)


@dataclass(frozen=True)
class SolveRegion:
    """One solve_sweep region with a linear economy E(p) = alpha p - c.

    ``c = alpha * (solution + normal)`` where ``normal`` lies in the normal
    cone of the region at ``solution``, so ``solution`` is the exact and
    unique equilibrium and lies on the boundary: projections stay active.
    ``anchor`` is an interior point the seeded starts scatter around.
    """

    name: str
    spec: dict
    alpha: float
    solution: tuple
    normal: tuple
    anchor: tuple

    @property
    def dim(self) -> int:
        return len(self.solution)

    def economy(self) -> dict:
        c = self.alpha * (np.asarray(self.solution) + np.asarray(self.normal))
        return {"kind": "linear",
                "M": (self.alpha * np.eye(self.dim)).tolist(),
                "c": c.tolist()}


def _box_solution():
    x = 0.5 * (_BOX_LOWER + _BOX_UPPER)
    x[:3] = _BOX_UPPER[:3]
    x[3:6] = _BOX_LOWER[3:6]
    normal = np.zeros(10)
    normal[:3] = 0.5
    normal[3:6] = -0.5
    return tuple(x.tolist()), tuple(normal.tolist())


_BOX_X, _BOX_N = _box_solution()

SOLVE_REGIONS = (
    # Unit simplex in R^10; the solution has five zero prices.
    SolveRegion(
        "simplex10", {"kind": "simplex", "n": 10}, 0.35,
        (0.3, 0.25, 0.2, 0.15, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0),
        (0.1,) * 5 + (-0.2,) * 5, (0.1,) * 10),
    # 10-D box; three prices at the upper bound, three at the lower.
    SolveRegion(
        "box10", {"kind": "box", "lower": _BOX_LOWER.tolist(),
                  "upper": _BOX_UPPER.tolist()}, 1.0, _BOX_X, _BOX_N,
        tuple((0.5 * (_BOX_LOWER + _BOX_UPPER)).tolist())),
    # The criterion-1 polyhedron {x1 + x2 + x3 <= 2, 0 <= x <= 1}; the
    # solution sits on the edge where x1 = 1 and the sum cap both bind.
    SolveRegion(
        "poly3", {"kind": "polyhedron", "A": [[1.0, 1.0, 1.0]], "b": [2.0],
                  "lower": [0.0, 0.0, 0.0], "upper": [1.0, 1.0, 1.0]}, 1.0,
        (1.0, 0.6, 0.4), (0.5, 0.3, 0.3), (0.4, 0.4, 0.4)),
    # The mortgage rate cap p1 <= p2 - 1 on [0, 2] x [1, 4]; the solution
    # lies inside the cap face.
    SolveRegion(
        "mortgage", {"kind": "polyhedron", "A": [[1.0, -1.0]], "b": [-1.0],
                     "lower": [0.0, 1.0], "upper": [2.0, 4.0]}, 1.0,
        (1.5, 2.5), (0.5, -0.5), (0.5, 2.5)),
)

REGIONS_BY_NAME = {r.name: r for r in SOLVE_REGIONS}


def _draw_start(rng: np.random.Generator, region: SolveRegion) -> np.ndarray:
    """The anchor plus seeded jitter; on the simplex the jitter sums to 0."""
    jitter = rng.uniform(-START_JITTER, START_JITTER, region.dim)
    if region.spec["kind"] == "simplex":
        jitter -= jitter.mean()
    return np.asarray(region.anchor) + jitter


def solve_starts(seed: int) -> dict[str, list[np.ndarray]]:
    """STARTS_PER_REGION start points per region, drawn from the seed."""
    rng = np.random.default_rng(seed)
    return {r.name: [_draw_start(rng, r) for _ in range(STARTS_PER_REGION)]
            for r in SOLVE_REGIONS}


@dataclass(frozen=True)
class Op:
    """One CLI invocation: a key naming its input, and its argv."""

    key: str
    argv: tuple


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n")


def generate(workload: str, seed: int, directory: Path) -> list[Op]:
    """Write the workload's input files into ``directory``; return one pass.

    A pass lists every distinct operation once, in the fixed order the
    benchmark repeats.  solve_sweep interleaves the regions start by start.
    """
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "harness_grid":
        return [Op("harness", ("harness", "--grid", "0.01"))]
    if workload == "harness_plan":
        path = directory / "catalog.json"
        _write(path, {
            "plan": {"points": PLAN_POINTS},
            "fixtures": [{"label": label,
                          "economy": {"kind": "catalog", "name": label}}
                         for label in DEFAULT_FIXTURES],
        })
        return [Op("harness", ("harness", "--catalog", str(path),
                               "--grid", "0.02"))]
    if workload == "solve_sweep":
        starts = solve_starts(seed)
        ops = []
        for k in range(STARTS_PER_REGION):
            for region in SOLVE_REGIONS:
                key = f"{region.name}-{k:02d}"
                path = directory / f"{key}.json"
                _write(path, {"economy": region.economy(),
                              "region": region.spec,
                              "solver": {"start": starts[region.name][k].tolist()}})
                ops.append(Op(key, ("solve", str(path))))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def region_of(key: str) -> str:
    """The region name of a solve_sweep op key such as ``poly3-07``."""
    return key.rsplit("-", 1)[0]
