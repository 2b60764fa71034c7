"""Command-line front end.

Subcommands: ``solve`` (extragradient on a problem file), ``check``
(monotonicity class falsification), ``harness`` (theorem checks over a
fixture catalog), ``oracle`` (direct solution-set enumeration dump).

All structured output is JSON; iteration traces are CSV because they feed
external plotting.  Floats are serialized with Python's shortest
round-tripping representation, so every emitted number re-parses to the
identical double.  Exit codes: 0 success, 1 input error, 2 solver budget
exhausted, 3 monotonicity class refuted, 4 harness failure event.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import click
import numpy as np

from .constants import (
    DEFAULT_BUDGET,
    DEFAULT_M_MAX,
    DEFAULT_SAMPLE_COUNT,
    DEFAULT_STEP,
    DEFAULT_WEIGHT_RESOLUTION,
    EPS_STRICT,
    TAU_SOLVE,
)
from .economy import (
    ExcessDemandModel,
    Fixture,
    default_catalog,
    linear_economy,
    scalar_catalog,
)
from .harness import (
    HarnessConfig,
    failure_events,
    run_catalog_with_evidence,
    summary_table,
)
from .monotonicity import CLASS_NAMES, build_plan, check_class
from .regions import (Box, ConvexRegion, Polyhedron, ProjectionBudgetError,
                      Simplex)
from .vi_core import VIProblem, enumerate_solutions, solve_extragradient

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_BUDGET = 2
EXIT_REFUTED = 3
EXIT_HARNESS_FAILURE = 4


class ProblemFileError(ValueError):
    """Malformed or inconsistent problem/catalog description."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProblemFileError(message)


def parse_region(spec: dict) -> ConvexRegion:
    _require(isinstance(spec, dict) and "kind" in spec,
             "region spec must be an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "simplex":
            return Simplex(_integer(spec["n"]))
        if kind == "box":
            upper = [np.inf if u is None else float(u) for u in spec["upper"]]
            return Box(spec["lower"], upper)
        if kind == "polyhedron":
            return Polyhedron(spec["A"], spec["b"], lower=spec.get("lower"),
                              upper=spec.get("upper"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFileError(f"invalid {kind} region: {exc}") from exc
    raise ProblemFileError(f"unknown region kind {kind!r}")


def parse_economy(spec: dict) -> tuple[ExcessDemandModel, Optional[Fixture]]:
    _require(isinstance(spec, dict) and "kind" in spec,
             "economy spec must be an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "linear":
            return linear_economy(spec["M"], spec["c"]), None
        if kind == "scalar":
            models = scalar_catalog()
            _require(spec.get("name") in models,
                     f"unknown scalar economy {spec.get('name')!r}; "
                     f"known: {sorted(models)}")
            return models[spec["name"]], None
        if kind == "catalog":
            catalog = default_catalog()
            _require(spec.get("name") in catalog,
                     f"unknown catalog fixture {spec.get('name')!r}; "
                     f"known: {sorted(catalog)}")
            fixture = catalog[spec["name"]]
            return fixture.model, fixture
    except ProblemFileError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFileError(f"invalid {kind} economy: {exc}") from exc
    raise ProblemFileError(f"unknown economy kind {kind!r}")


def _integer(value) -> int:
    """``int`` that refuses to truncate: booleans and fractions are errors."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


# Coerced entries per input-file section: (file key, field name, cast).
_SECTION_FIELDS = {
    "plan": (("eps_strict", "eps_strict", float), ("points", "num_points", _integer),
             ("m_max", "tuple_size_max", _integer),
             ("grid_spacing", "grid_spacing", float),
             ("weight_resolution", "weight_grid_resolution", _integer)),
    "solver": (("step", "step", float), ("budget", "budget", _integer),
               ("tol", "tol", float)),
    "oracle": (("grid_spacing", "grid_spacing", float),
               ("lipschitz", "lipschitz", float)),
    "fixture": (("lipschitz", "lipschitz", float),),
}


def parse_section(name: str, section) -> dict:
    """Coerce the present entries of a section; plan keys map to ``HarnessConfig``."""
    _require(isinstance(section, dict), f"'{name}' must be an object")
    out = {}
    for key, field, cast in _SECTION_FIELDS[name]:
        if key in section:
            try:
                out[field] = cast(section[key])
            except (TypeError, ValueError) as exc:
                raise ProblemFileError(
                    f"invalid {name} entry {key!r}: {exc}") from exc
    return out


@dataclass(frozen=True, eq=False)
class ProblemFile:
    problem: VIProblem
    start: Optional[np.ndarray]
    step: float
    budget: int
    tol_solve: float
    plan_points: int
    plan_m_max: int
    plan_resolution: int
    eps_strict: float
    grid_spacing: float
    lipschitz: float


def _read_json(path: str, what: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ProblemFileError(f"cannot read {what} file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{what} file is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), f"{what} file must be a JSON object")
    return raw


def load_problem(path: str) -> ProblemFile:
    raw = _read_json(path, "problem")
    _require("economy" in raw and "region" in raw,
             "problem file needs 'economy' and 'region' entries")
    model, fixture = parse_economy(raw["economy"])
    region = parse_region(raw["region"])
    _require(model.dim == region.dim,
             f"economy dimension {model.dim} does not match region "
             f"dimension {region.dim}")
    solver = parse_section("solver", raw.get("solver", {}))
    plan = parse_section("plan", raw.get("plan", {}))
    oracle = parse_section("oracle", raw.get("oracle", {}))
    _require("grid_spacing" not in plan,
             "set the grid spacing as 'oracle.grid_spacing', not under 'plan'")

    step = solver.get("step", DEFAULT_STEP)
    budget = solver.get("budget", DEFAULT_BUDGET)
    tol_solve = solver.get("tol", TAU_SOLVE)
    start = raw.get("solver", {}).get("start")
    eps_strict = plan.get("eps_strict", EPS_STRICT)
    plan_points = plan.get("num_points", DEFAULT_SAMPLE_COUNT)
    plan_m_max = plan.get("tuple_size_max", DEFAULT_M_MAX)
    plan_resolution = plan.get("weight_grid_resolution", DEFAULT_WEIGHT_RESOLUTION)
    default_lip = fixture.lipschitz if fixture is not None else 1.0
    grid_spacing = oracle.get("grid_spacing", 0.02)
    lipschitz = oracle.get("lipschitz", default_lip)

    _require(step > 0, "solver step must be positive")
    _require(budget >= 0, "solver budget must be nonnegative")
    _require(tol_solve > 0, "solver tolerance must be positive")
    _require(eps_strict > 0, "eps_strict must be positive")
    _require(plan_points >= 0, "plan points must be nonnegative")
    _require(plan_m_max >= 2, "plan m_max must be >= 2")
    _require(plan_resolution >= 3, "weight resolution must be >= 3")
    _require(grid_spacing > 0, "grid spacing must be positive")
    _require(lipschitz > 0, "lipschitz scale must be positive")

    try:
        problem = VIProblem(model, region)
        start_arr = None
        if start is not None:
            start_arr = np.asarray(start, dtype=float)
            _require(start_arr.shape == (region.dim,),
                     "solver start must match the region dimension")
            _require(region.contains(start_arr, tol=1e-8),
                     "solver start must lie in the region")
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(str(exc)) from exc
    return ProblemFile(problem, start_arr, step, budget, tol_solve, plan_points,
                       plan_m_max, plan_resolution, eps_strict, grid_spacing,
                       lipschitz)


def load_catalog_file(path: str) -> tuple[dict, dict]:
    """Read a catalog file: {'plan': {...}, 'fixtures': [...]}; the plan
    comes back as ``HarnessConfig`` fields."""
    raw = _read_json(path, "catalog")
    overrides = parse_section("plan", raw.get("plan", {}))
    entries = raw.get("fixtures", [])
    _require(isinstance(entries, list), "'fixtures' must be a list")
    fixtures = {}
    for entry in entries:
        _require(isinstance(entry, dict) and isinstance(entry.get("label"), str),
                 "each fixture needs a string 'label'")
        label = entry["label"]
        _require(label not in fixtures, f"duplicate fixture label {label!r}")
        _require("economy" in entry, f"fixture {label!r} needs an 'economy'")
        model, base = parse_economy(entry["economy"])
        if "region" in entry:
            region = parse_region(entry["region"])
        elif base is not None:
            region = base.region
        else:
            raise ProblemFileError(f"fixture {label!r} needs a region")
        _require(model.dim == region.dim,
                 f"fixture {label!r} has mismatched dimensions")
        lipschitz = parse_section("fixture", entry).get(
            "lipschitz", base.lipschitz if base is not None else 1.0)
        _require(lipschitz > 0, "lipschitz scale must be positive")
        positive = entry.get("positive", False)
        _require(isinstance(positive, bool),
                 f"fixture {label!r}: 'positive' must be true or false")
        fixtures[label] = Fixture(label=label, model=model, region=region,
                                  lipschitz=lipschitz, positive=positive)
    _require(len(fixtures) > 0, "catalog file defines no fixtures")
    return fixtures, overrides


def _emit_json(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        click.echo(text)


def _write_trace_csv(path: Path, trace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "residual"])
        for i, r in enumerate(np.asarray(trace).tolist()):
            writer.writerow([i, repr(r)])


@click.group()
@click.option("--seed", type=int, default=None,
              help="Reserved; all plans are deterministic.")
def main(seed):
    """Walrasian equilibrium problems as variational inequalities."""


@main.command()
@click.argument("problem_file", type=click.Path())
@click.option("--out", type=click.Path(), default=None,
              help="Write the JSON result here instead of stdout.")
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="Write the residual trace as CSV (iteration, residual).")
@click.pass_context
def solve(ctx, problem_file, out, trace_path):
    """Run the extragradient solver on a problem file."""
    try:
        spec = load_problem(problem_file)
        result = solve_extragradient(spec.problem, start=spec.start,
                                     step=spec.step, budget=spec.budget,
                                     tol=spec.tol_solve)
    except (ProblemFileError, ValueError, ProjectionBudgetError) as exc:
        click.echo(f"error: {exc}", err=True)
        ctx.exit(EXIT_INPUT_ERROR)
    _emit_json(result.to_dict(), out)
    if trace_path:
        _write_trace_csv(Path(trace_path), result.trace)
    ctx.exit(EXIT_OK if result.status == "converged" else EXIT_BUDGET)


@main.command()
@click.argument("problem_file", type=click.Path())
@click.option("--class", "class_name", required=True,
              help=f"Monotonicity class: one of {', '.join(CLASS_NAMES)}.")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def check(ctx, problem_file, class_name, out):
    """Falsify a monotonicity class on a problem's field and region."""
    try:
        if class_name not in CLASS_NAMES:
            raise ProblemFileError(
                f"unknown class {class_name!r}; expected one of {CLASS_NAMES}")
        spec = load_problem(problem_file)
        plan = build_plan(spec.problem.region, num_points=spec.plan_points,
                          tuple_size_max=spec.plan_m_max,
                          weight_grid_resolution=spec.plan_resolution,
                          eps_strict=spec.eps_strict)
        report = check_class(class_name, spec.problem.model,
                             spec.problem.region, plan)
    except (ProblemFileError, ValueError, ProjectionBudgetError) as exc:
        click.echo(f"error: {exc}", err=True)
        ctx.exit(EXIT_INPUT_ERROR)
    _emit_json(report.to_dict(), out)
    ctx.exit(EXIT_REFUTED if report.refuted else EXIT_OK)


@main.command()
@click.option("--catalog", "catalog_src", default="default",
              help="'default' or a path to a catalog JSON file.")
@click.option("--grid", "grid_spacing", type=float, default=None,
              help="Oracle grid spacing; overrides a catalog's "
                   "plan.grid_spacing (default 0.02).")
@click.option("--out", type=click.Path(), default=None,
              help="Write the JSON summary here instead of stdout.")
@click.option("--trace-dir", type=click.Path(), default=None,
              help="Write per-fixture solver residual CSVs into this directory.")
@click.pass_context
def harness(ctx, catalog_src, grid_spacing, out, trace_dir):
    """Check the theorem statements across a fixture catalog.

    The plain-text fixture-by-theorem table goes to stderr; the JSON
    summary goes to stdout (or --out).
    """
    try:
        overrides: dict = {}
        catalog = None
        if catalog_src != "default":
            catalog, overrides = load_catalog_file(catalog_src)
        if grid_spacing is not None:
            overrides["grid_spacing"] = float(grid_spacing)
        try:
            config = HarnessConfig(**overrides)
        except ValueError as exc:
            raise ProblemFileError(f"invalid harness configuration: {exc}") from exc
        results, evidence = run_catalog_with_evidence(catalog, config)
    except (ProblemFileError, ValueError, ProjectionBudgetError) as exc:
        click.echo(f"error: {exc}", err=True)
        ctx.exit(EXIT_INPUT_ERROR)
    events = failure_events(results)
    payload = {
        "grid_spacing": config.grid_spacing,
        "results": [r.to_dict() for r in results],
        "failure_events": [r.to_dict() for r in events],
    }
    _emit_json(payload, out)
    click.echo(summary_table(results), err=True)
    if trace_dir:
        directory = Path(trace_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for label, ev in evidence.items():
            _write_trace_csv(directory / f"{label}.csv", ev.solve.trace)
    ctx.exit(EXIT_HARNESS_FAILURE if events else EXIT_OK)


@main.command()
@click.argument("problem_file", type=click.Path())
@click.option("--grid", "grid_spacing", type=float, default=None,
              help="Override the problem file's oracle grid spacing.")
@click.option("--no-grid-points", is_flag=True,
              help="Omit the full grid from the dump (members only).")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def oracle(ctx, problem_file, grid_spacing, no_grid_points, out):
    """Dump the desk-scale solution-set enumeration for a problem."""
    try:
        spec = load_problem(problem_file)
        spacing = spec.grid_spacing if grid_spacing is None else float(grid_spacing)
        estimate = enumerate_solutions(spec.problem, spacing, spec.lipschitz)
    except (ProblemFileError, ValueError, ProjectionBudgetError) as exc:
        click.echo(f"error: {exc}", err=True)
        ctx.exit(EXIT_INPUT_ERROR)
    _emit_json(estimate.to_dict(include_grid=not no_grid_points), out)
    ctx.exit(EXIT_OK)


if __name__ == "__main__":
    main()
