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
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from math import isfinite
from pathlib import Path
from typing import Optional

import click
import numpy as np

from .economy import (
    CATALOG_LABELS,
    ExcessDemandModel,
    Fixture,
    catalog_fixture,
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
from .regions import Box, ConvexRegion, Polyhedron, Simplex
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
            return Box(_reals(spec["lower"], "lower"), _reals(spec["upper"], "upper"))
        if kind == "polyhedron":
            return Polyhedron(_reals(spec["A"], "A"), _reals(spec["b"], "b"),
                              lower=_reals(spec.get("lower"), "lower"),
                              upper=_reals(spec.get("upper"), "upper"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFileError(f"invalid {kind} region: {exc}") from exc
    raise ProblemFileError(f"unknown region kind {kind!r}")


def parse_economy(spec: dict) -> tuple[ExcessDemandModel, Optional[Fixture]]:
    _require(isinstance(spec, dict) and "kind" in spec,
             "economy spec must be an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "linear":
            return linear_economy(_reals(spec["M"], "M"), _reals(spec["c"], "c")), None
        if kind == "scalar":
            models = scalar_catalog()
            _require(spec.get("name") in models,
                     f"unknown scalar economy {spec.get('name')!r}; "
                     f"known: {sorted(models)}")
            return models[spec["name"]], None
        if kind == "catalog":
            _require(spec.get("name") in CATALOG_LABELS,
                     f"unknown catalog fixture {spec.get('name')!r}; "
                     f"known: {sorted(CATALOG_LABELS)}")
            fixture = catalog_fixture(spec["name"])
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


def _real(value) -> float:
    """``float`` that refuses booleans, as ``_integer`` does."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _reals(value, name: str):
    """Array entry ``name`` as given, once no item at any depth of its lists
    is a boolean, which numpy would read as 1.0 or 0.0."""
    items = [value]
    while items:
        item = items.pop()
        if isinstance(item, bool):
            raise ValueError(f"entry {name!r}: expected numbers, got {item!r}")
        items.extend(item if isinstance(item, list) else ())
    return value


# Coerced entries per input-file section: (file key, field name, cast).
# Every field but ``lipschitz`` is a ``HarnessConfig`` field.
_SECTION_FIELDS = {
    "plan": (("eps_strict", "eps_strict", _real), ("points", "num_points", _integer),
             ("m_max", "tuple_size_max", _integer),
             ("grid_spacing", "grid_spacing", _real),
             ("weight_resolution", "weight_grid_resolution", _integer)),
    "solver": (("step", "step", _real), ("budget", "budget", _integer),
               ("tol", "tol_solve", _real)),
    "oracle": (("grid_spacing", "grid_spacing", _real),
               ("lipschitz", "lipschitz", _real)),
    "fixture": (("lipschitz", "lipschitz", _real),),
}


def parse_section(name: str, section) -> dict:
    """Coerce the present entries of a section, keyed by field name."""
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
    lipschitz: float
    config: HarnessConfig


def _config(base: HarnessConfig = HarnessConfig(), **settings) -> HarnessConfig:
    """``base`` with ``settings`` replaced; a range error is an input error."""
    try:
        return replace(base, **settings)
    except ValueError as exc:
        raise ProblemFileError(f"invalid run configuration: {exc}") from exc


def _lipschitz(entries: dict, default: float) -> float:
    """Take the oracle's lipschitz scale out of parsed section entries."""
    lipschitz = entries.pop("lipschitz", default)
    _require(isfinite(lipschitz) and lipschitz > 0,
             "lipschitz scale must be positive and finite")
    return lipschitz


def _read_json(path: str, what: str) -> dict:
    def nonfinite(name):
        raise ProblemFileError(f"{what} file holds {name}; numbers must be finite")

    try:
        raw = json.loads(Path(path).read_text(), parse_constant=nonfinite)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {what} file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{what} file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ProblemFileError(f"{what} file is nested too deeply") from exc
    _require(isinstance(raw, dict), f"{what} file must be a JSON object")
    return raw


def load_problem(path: str) -> ProblemFile:
    raw = _read_json(path, "problem")
    _require("economy" in raw and "region" in raw,
             "problem file needs 'economy' and 'region' entries")
    model, fixture = parse_economy(raw["economy"])
    region = parse_region(raw["region"])
    solver = parse_section("solver", raw.get("solver", {}))
    plan = parse_section("plan", raw.get("plan", {}))
    oracle = parse_section("oracle", raw.get("oracle", {}))
    _require("grid_spacing" not in plan,
             "set the grid spacing as 'oracle.grid_spacing', not under 'plan'")
    lipschitz = _lipschitz(oracle, fixture.lipschitz if fixture is not None else 1.0)
    config = _config(**solver, **plan, **oracle)
    start = raw.get("solver", {}).get("start")
    try:
        problem = VIProblem(model, region)
        start_arr = None
        if start is not None:
            start_arr = np.asarray(_reals(start, "solver.start"), dtype=float)
            _require(start_arr.shape == (region.dim,),
                     "solver start must match the region dimension")
            _require(region.contains(start_arr, tol=1e-8),
                     "solver start must lie in the region")
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(str(exc)) from exc
    return ProblemFile(problem, start_arr, lipschitz, config)


def load_catalog_file(path: str) -> tuple[dict, HarnessConfig]:
    """Read a catalog file: {'plan': {...}, 'fixtures': [...]}; the plan
    comes back as a ``HarnessConfig``."""
    raw = _read_json(path, "catalog")
    config = _config(**parse_section("plan", raw.get("plan", {})))
    entries = raw.get("fixtures", [])
    _require(isinstance(entries, list), "'fixtures' must be a list")
    fixtures = {}
    for entry in entries:
        _require(isinstance(entry, dict) and isinstance(entry.get("label"), str),
                 "each fixture needs a string 'label'")
        label = entry["label"]
        _require(label not in ("", ".", "..") and not set("/\\\0") & set(label),
                 f"fixture label {label!r} is not a file name")
        _require(label not in fixtures, f"duplicate fixture label {label!r}")
        _require("economy" in entry, f"fixture {label!r} needs an 'economy'")
        model, base = parse_economy(entry["economy"])
        if "region" in entry:
            region = parse_region(entry["region"])
        elif base is not None:
            region = base.region
        else:
            raise ProblemFileError(f"fixture {label!r} needs a region")
        lipschitz = _lipschitz(parse_section("fixture", entry),
                               base.lipschitz if base is not None else 1.0)
        fixtures[label] = Fixture(label=label, model=model, region=region,
                                  lipschitz=lipschitz)
    _require(len(fixtures) > 0, "catalog file defines no fixtures")
    return fixtures, config


@contextmanager
def _writing(what: str):
    """Turn a failed write of ``what`` into an input error."""
    try:
        yield
    except OSError as exc:
        raise ProblemFileError(f"cannot write {what}: {exc}") from exc


def _open_output(files: ExitStack, path, what: str, newline=None):
    """Open ``path``, if given, for writing in ``files``; commands open every
    output before their run, so an unwritable one fails before any print."""
    if not path:
        return None
    with _writing(what):
        return files.enter_context(open(path, "w", newline=newline))


def _emit_json(payload: dict, out) -> None:
    """Print ``payload`` as JSON, or write it into the open file ``out``."""
    with _writing("output file" if out else "standard output"):
        click.echo(json.dumps(payload, indent=2), file=out)


def _write_trace_csv(fh, trace) -> None:
    with _writing("trace file"):
        writer = csv.writer(fh)
        writer.writerow(["iteration", "residual"])
        for i, r in enumerate(np.asarray(trace).tolist()):
            writer.writerow([i, repr(r)])
        fh.flush()


@contextmanager
def _command(ctx):
    """A command's scope: the outputs it opens close on leaving it, numpy
    overflow and invalid operations raise, and a ``ValueError`` or
    ``FloatingPointError`` becomes one ``error:`` line on stderr and exit 1."""
    try:
        with ExitStack() as files, np.errstate(over="raise", invalid="raise"):
            yield files
    except (ValueError, FloatingPointError) as exc:
        click.echo(f"error: {exc}", err=True)
        ctx.exit(EXIT_INPUT_ERROR)


@click.group()
def main():
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
    with _command(ctx) as files:
        spec = load_problem(problem_file)
        out_fh = _open_output(files, out, "output file")
        trace_fh = _open_output(files, trace_path, "trace file", newline="")
        result = solve_extragradient(spec.problem, start=spec.start,
                                     config=spec.config)
        _emit_json(result.to_dict(spec.problem), out_fh)
        if trace_fh:
            _write_trace_csv(trace_fh, result.trace)
    ctx.exit(EXIT_OK if result.status == "converged" else EXIT_BUDGET)


@main.command()
@click.argument("problem_file", type=click.Path())
@click.option("--class", "class_name", required=True,
              help=f"Monotonicity class: one of {', '.join(CLASS_NAMES)}.")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def check(ctx, problem_file, class_name, out):
    """Falsify a monotonicity class on a problem's field and region."""
    with _command(ctx) as files:
        if class_name not in CLASS_NAMES:
            raise ProblemFileError(
                f"unknown class {class_name!r}; expected one of {CLASS_NAMES}")
        spec = load_problem(problem_file)
        out_fh = _open_output(files, out, "output file")
        plan = build_plan(spec.problem.region, spec.config)
        report = check_class(class_name, spec.problem.model, plan)
        _emit_json(report.to_dict(), out_fh)
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
    with _command(ctx) as files:
        if catalog_src == "default":
            catalog, config = default_catalog(), HarnessConfig()
        else:
            catalog, config = load_catalog_file(catalog_src)
        if grid_spacing is not None:
            config = _config(config, grid_spacing=grid_spacing)
        out_fh = _open_output(files, out, "output file")
        traces = {}
        if trace_dir:
            with _writing("trace directory"):
                Path(trace_dir).mkdir(parents=True, exist_ok=True)
            traces = {label: _open_output(files, Path(trace_dir) / f"{label}.csv",
                                          "trace file", newline="")
                      for label in catalog}
        results, evidence = run_catalog_with_evidence(catalog, config)
        events = failure_events(results)
        payload = {
            "grid_spacing": config.grid_spacing,
            "results": [r.to_dict() for r in results],
            "failure_events": [r.to_dict() for r in events],
        }
        _emit_json(payload, out_fh)
        click.echo(summary_table(results), err=True)
        for label, fh in traces.items():
            _write_trace_csv(fh, evidence[label].solve.trace)
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
    with _command(ctx) as files:
        spec = load_problem(problem_file)
        config = spec.config
        if grid_spacing is not None:
            config = _config(config, grid_spacing=grid_spacing)
        out_fh = _open_output(files, out, "output file")
        estimate = enumerate_solutions(spec.problem, config.grid_spacing,
                                       spec.lipschitz)
        _emit_json(estimate.to_dict(include_grid=not no_grid_points), out_fh)
    ctx.exit(EXIT_OK)


if __name__ == "__main__":
    main()
