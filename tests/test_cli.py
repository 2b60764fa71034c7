import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import walras_vi
from walras_vi import vi_core
from walras_vi.cli import load_problem, main, parse_region
from walras_vi.harness import HarnessConfig, run_catalog_with_evidence
from walras_vi.monotonicity import CLASS_NAMES
from walras_vi.vi_core import minty_gap, solve_extragradient

LINEAR_PROBLEM = {
    "economy": {"kind": "linear", "M": [[1.0, 0.0], [0.0, 1.0]], "c": [1.5, 0.5]},
    "region": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "solver": {"step": 0.1, "budget": 100000, "tol": 1e-8},
    "oracle": {"grid_spacing": 0.01, "lipschitz": 3.0},
}

# the criterion-1 polyhedron {x1 + x2 + x3 <= 2, 0 <= x <= 1}, E(p) = p - c,
# from a start on the sum cap
POLY3_PROBLEM = {
    "economy": {"kind": "linear", "M": np.eye(3).tolist(), "c": [1.5, 0.9, 0.7]},
    "region": {"kind": "polyhedron", "A": [[1.0, 1.0, 1.0]], "b": [2.0],
               "lower": [0.0, 0.0, 0.0], "upper": [1.0, 1.0, 1.0]},
    "solver": {"start": [1.0, 0.5, 0.5]},
}

NEGSLOPE_PROBLEM = {
    "economy": {"kind": "scalar", "name": "negslope_half"},
    "region": {"kind": "box", "lower": [0.0], "upper": [1.0]},
    "oracle": {"grid_spacing": 0.01, "lipschitz": 0.25},
}


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# solve


def test_solve_linear_box(runner, tmp_path):
    path = write(tmp_path, "problem.json", LINEAR_PROBLEM)
    result = runner.invoke(main, ["solve", path])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert_allclose(payload["solution"], [1.0, 0.5], atol=1e-7)
    assert payload["status"] == "converged"


def test_solve_json_roundtrips_bit_exactly(runner, tmp_path):
    path = write(tmp_path, "problem.json", LINEAR_PROBLEM)
    result = runner.invoke(main, ["solve", path])
    payload = json.loads(result.output)
    spec = load_problem(path)
    reference = solve_extragradient(spec.problem, config=spec.config)
    assert payload["solution"] == reference.solution.tolist()
    assert payload["residual"] == reference.residual
    assert payload["minty_gap"] == minty_gap(spec.problem, reference.solution)
    # serialize-parse is the identity on the emitted values
    assert json.loads(json.dumps(payload)) == payload


def test_only_the_solve_command_computes_a_minty_gap(runner, tmp_path, monkeypatch):
    # the harness reads no gap, so its solves compute none; solve emits one
    points, gap = [], vi_core.minty_gap
    monkeypatch.setattr(vi_core, "minty_gap", lambda problem, x:
                        points.append(x) or gap(problem, x))
    run_catalog_with_evidence()
    assert points == []
    path = write(tmp_path, "problem.json", LINEAR_PROBLEM)
    result = runner.invoke(main, ["solve", path])
    assert result.exit_code == 0 and len(points) == 1
    assert json.loads(result.output)["minty_gap"] == gap(load_problem(path).problem,
                                                         points[0])


def test_solve_trace_csv_roundtrip(runner, tmp_path):
    path = write(tmp_path, "problem.json", LINEAR_PROBLEM)
    trace_path = tmp_path / "trace.csv"
    result = runner.invoke(main, ["solve", path, "--trace", str(trace_path)])
    assert result.exit_code == 0
    spec = load_problem(path)
    reference = solve_extragradient(spec.problem, config=spec.config)
    with open(trace_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "residual"]
    values = [float(r[1]) for r in rows[1:]]
    assert values == reference.trace.tolist()


def test_solve_budget_exhaustion_exit_code(runner, tmp_path):
    # a field whose face system is singular, so no crossover ends the solve
    problem = {
        "economy": {"kind": "catalog", "name": "constant_field"},
        "region": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "solver": {"budget": 1, "start": [0.8, 0.3]},
    }
    path = write(tmp_path, "problem.json", problem)
    result = runner.invoke(main, ["solve", path])
    assert result.exit_code == 2
    payload = json.loads(result.output)
    assert payload["status"] == "budget_exhausted"
    assert len(payload["solution"]) == 2


@pytest.mark.parametrize("name", ["rotation", "constant_positive"])
def test_solve_emits_no_negative_zero(runner, tmp_path, name):
    # the crossover's face solve gives -0.0 at these corners
    problem = {
        "economy": {"kind": "catalog", "name": name},
        "region": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    }
    result = runner.invoke(main, ["solve", write(tmp_path, "problem.json", problem)])
    assert result.exit_code == 0
    assert "-0.0" not in result.output


def test_solve_malformed_json(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"economy": broken')
    result = runner.invoke(main, ["solve", str(path)])
    assert result.exit_code == 1


def test_solve_missing_file(runner):
    result = runner.invoke(main, ["solve", "/nonexistent/problem.json"])
    assert result.exit_code == 1


def test_solve_dimension_mismatch(runner, tmp_path):
    bad = dict(LINEAR_PROBLEM, region={"kind": "box", "lower": [0.0],
                                       "upper": [1.0]})
    path = write(tmp_path, "problem.json", bad)
    result = runner.invoke(main, ["solve", path])
    assert result.exit_code == 1
    assert result.stderr == ("error: model dimension 2 does not match region "
                             "dimension 1\n")


@pytest.mark.parametrize("region", [
    pytest.param({"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, None]},
                 id="box-null"),
    pytest.param({"kind": "polyhedron", "A": [[1, 1]], "b": [5],
                  "lower": [0, 0], "upper": [None, 1]}, id="polyhedron-null-upper"),
    pytest.param({"kind": "polyhedron", "A": [[1, 1]], "b": [5],
                  "lower": [None, 0], "upper": [1, 1]}, id="polyhedron-null-lower"),
    pytest.param({"kind": "polyhedron", "A": [[1, 1]], "b": [5]},
                 id="halfplane"),
])
def test_solve_unbounded_region_rejected(runner, tmp_path, region):
    path = write(tmp_path, "problem.json", dict(LINEAR_PROBLEM, region=region))
    result = runner.invoke(main, ["solve", path])
    _assert_one_error_line(result)
    assert result.stdout == ""


def test_problem_file_rejects_nonpositive_tolerances(runner, tmp_path):
    bad = dict(NEGSLOPE_PROBLEM, plan={"eps_strict": -1.0})
    path = write(tmp_path, "problem.json", bad)
    result = runner.invoke(main, ["check", path, "--class", "pseudo"])
    assert result.exit_code == 1
    bad = dict(NEGSLOPE_PROBLEM, solver={"tol": 0.0})
    path = write(tmp_path, "problem.json", bad)
    result = runner.invoke(main, ["solve", path])
    assert result.exit_code == 1


# ---------------------------------------------------------------------------
# check


def test_check_refuted_exit_code_and_witness(runner, tmp_path):
    path = write(tmp_path, "problem.json", NEGSLOPE_PROBLEM)
    result = runner.invoke(main, ["check", path, "--class", "proper_quasi"])
    assert result.exit_code == 3
    payload = json.loads(result.output)
    assert payload["verdict"] == "refuted"
    witness = payload["witness"]
    assert len(witness["points"]) >= 2
    assert all(d < 0 for d in witness["dot_products"])


def test_check_holds_exit_code(runner, tmp_path):
    problem = dict(NEGSLOPE_PROBLEM,
                   economy={"kind": "scalar", "name": "posslope_half"})
    path = write(tmp_path, "problem.json", problem)
    result = runner.invoke(main, ["check", path, "--class",
                                  "strict_proper_quasi"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["verdict"] == "holds_on_samples"
    assert payload["witness"] is None


ONE_POINT_REGIONS = {
    "simplex-1": ({"kind": "linear", "M": [[1.0]], "c": [0.5]},
                  {"kind": "simplex", "n": 1}),
    "box-point": (LINEAR_PROBLEM["economy"],
                  {"kind": "box", "lower": [0.25, 0.5], "upper": [0.25, 0.5]}),
}


@pytest.mark.parametrize("class_name", CLASS_NAMES)
@pytest.mark.parametrize("region", sorted(ONE_POINT_REGIONS))
def test_check_on_one_point_region(runner, tmp_path, region, class_name):
    economy, spec = ONE_POINT_REGIONS[region]
    path = write(tmp_path, "problem.json", {"economy": economy, "region": spec})
    result = runner.invoke(main, ["check", path, "--class", class_name])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["verdict"] == "holds_on_samples"


def test_check_on_an_empty_plan_is_one_error_line(runner, tmp_path):
    # a 17-coordinate box has no vertex enumeration, so no plan points
    # leave the plan empty
    n = 17
    problem = {"economy": {"kind": "linear", "M": np.eye(n).tolist(), "c": [0.5] * n},
               "region": {"kind": "box", "lower": [0.0] * n, "upper": [1.0] * n},
               "plan": {"points": 0}}
    path = write(tmp_path, "problem.json", problem)
    result = runner.invoke(main, ["check", path, "--class", "pseudo"])
    _assert_one_error_line(result)
    assert "plan.points" in result.stderr
    assert result.stdout == ""


def _box_problem(n, **plan):
    return {"economy": {"kind": "linear", "M": np.eye(n).tolist(), "c": [0.5] * n},
            "region": {"kind": "box", "lower": [0.0] * n, "upper": [1.0] * n},
            "plan": plan}


@pytest.mark.parametrize("problem, class_name, message", [
    # 65,536 vertices, refused before plan points are paired
    (_box_problem(16), "pseudo", "give 65560 plan points, more than the limit of 1024"),
    (_box_problem(2, points=100_000), "pseudo", "plan points must be at most 1024"),
    (_box_problem(2, weight_resolution=100_000), "proper_quasi",
     "the weight grid of 3-tuples would hold more than 4194304 rows"),
    (_box_problem(2, m_max=14), "proper_quasi",
     "the tuple scan up to 5-tuples would pair more than 67108864"),
], ids=["box16", "points", "weight_resolution", "m_max"])
def test_oversized_plans_are_refused_before_they_are_built(runner, tmp_path, problem,
                                                           class_name, message):
    path = write(tmp_path, "problem.json", problem)
    start = time.perf_counter()
    result = runner.invoke(main, ["check", path, "--class", class_name])
    elapsed = time.perf_counter() - start
    _assert_one_error_line(result)
    assert message in result.stderr
    assert result.stdout == ""
    assert elapsed < 1.0


def test_oversized_catalog_plan_is_refused(runner, tmp_path):
    catalog = {"plan": {"points": 100_000}, "fixtures": [
        {"label": "square", "economy": {"kind": "catalog", "name": "linear_identity"}}]}
    result = runner.invoke(main, ["harness", "--catalog",
                                  write(tmp_path, "catalog.json", catalog)])
    _assert_one_error_line(result)
    assert "plan points must be at most 1024" in result.stderr


def test_catalog_fixture_dimensions_must_match(runner, tmp_path):
    catalog = {"fixtures": [{"label": "bad", "region": {"kind": "box", "lower": [0.0],
                                                        "upper": [1.0]},
                             "economy": {"kind": "linear", "M": np.eye(2).tolist(),
                                         "c": [0.5, 0.5]}}]}
    result = runner.invoke(main, ["harness", "--catalog",
                                  write(tmp_path, "catalog.json", catalog)])
    _assert_one_error_line(result)
    assert result.stderr == ("error: fixture 'bad': model dimension 2 does not "
                             "match region dimension 1\n")


def test_check_unknown_class(runner, tmp_path):
    path = write(tmp_path, "problem.json", NEGSLOPE_PROBLEM)
    result = runner.invoke(main, ["check", path, "--class", "frobnicate"])
    assert result.exit_code == 1


# ---------------------------------------------------------------------------
# harness


def test_harness_default_catalog(runner, tmp_path):
    out = tmp_path / "summary.json"
    trace_dir = tmp_path / "traces"
    result = runner.invoke(main, ["harness", "--grid", "0.1",
                                  "--out", str(out),
                                  "--trace-dir", str(trace_dir)])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["failure_events"] == []
    assert len(payload["results"]) == 5 * 9
    # table goes to stderr
    assert "fixture" in result.output
    csvs = sorted(p.name for p in trace_dir.iterdir())
    assert "linear_identity.csv" in csvs
    assert len(csvs) == 9


def test_harness_coarse_grid_still_passes(runner):
    result = runner.invoke(main, ["harness", "--grid", "0.5"])
    assert result.exit_code == 0


def test_harness_custom_catalog_file(runner, tmp_path):
    catalog = {
        "fixtures": [
            {"label": "pos", "economy": {"kind": "scalar",
                                         "name": "affine_positive"},
             "region": {"kind": "box", "lower": [0.0], "upper": [1.0]},
             "lipschitz": 0.05, "positive": True},
        ],
    }
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog))
    out = tmp_path / "summary.json"
    result = runner.invoke(main, ["harness", "--catalog", str(path),
                                  "--grid", "0.1", "--out", str(out)])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert len(payload["results"]) == 5


def test_harness_corrupted_tolerance_rejected(runner, tmp_path):
    catalog = {
        "plan": {"eps_strict": -1.0},
        "fixtures": [
            {"label": "pos", "economy": {"kind": "catalog",
                                         "name": "scalar_positive"}},
        ],
    }
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog))
    result = runner.invoke(main, ["harness", "--catalog", str(path)])
    assert result.exit_code == 1


_SOLVE = "from walras_vi.cli import main\nmain.main(['solve', {path!r}], " \
         "standalone_mode=False)"
_ORACLE = _SOLVE.replace("'solve', {path!r}", "'oracle', {path!r}, '--grid', '0.05'")
_START_UPS = {
    "import": ("import walras_vi.cli", ("scipy",)),
    "solve-box": (_SOLVE, ("scipy",)),
    # a catalog economy builds its own fixture, not the mortgage polyhedron
    "solve-catalog": (_SOLVE.replace("{path!r}", "{catalog_path!r}"), ("scipy",)),
    # the hull candidates come from comparisons, with no qhull
    "oracle-box": (_ORACLE, ("scipy",)),
    "oracle-simplex": (_ORACLE.replace("{path!r}", "{catalog_path!r}"), ("scipy",)),
    # the origin is a vertex, so construction projects nothing
    "polyhedron-2d": ("from walras_vi.regions import Polyhedron\n"
                      "Polyhedron([[1.0, 1.0]], [1.0], lower=[0, 0], upper=[1, 1])",
                      ("scipy.optimize",)),
    # clusters come from a cell list and label jumping, and the mortgage
    # projections' least squares run in Python floats
    "harness": ("from walras_vi.cli import main\n"
                "main.main(['harness', '--grid', '0.05'], standalone_mode=False)",
                ("scipy",)),
    # the first step leaves the sum cap, so the solver projects from there on
    "solve-poly3": (_SOLVE.replace("{path!r}", "{poly3_path!r}"), ("scipy",)),
}


@pytest.mark.parametrize("case", sorted(_START_UPS))
def test_start_up_loads_no_scipy(tmp_path, case):
    # importing scipy once cost two thirds of every CLI start-up
    code, prefixes = _START_UPS[case]
    code = code.format(
        path=write(tmp_path, "problem.json", LINEAR_PROBLEM),
        catalog_path=write(tmp_path, "catalog.json", {
            "economy": {"kind": "catalog", "name": "simplex_positive"},
            "region": {"kind": "simplex", "n": 2}}),
        poly3_path=write(tmp_path, "poly3.json", POLY3_PROBLEM))
    code += (f"\nimport sys\nprint([m for m in sys.modules if any("
             f"(m + '.').startswith(p + '.') for p in {prefixes!r})])")
    src = str(Path(walras_vi.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("region", sorted(ONE_POINT_REGIONS))
def test_harness_on_one_point_region(runner, tmp_path, region):
    economy, spec = ONE_POINT_REGIONS[region]
    catalog = {"fixtures": [{"label": region, "economy": economy, "region": spec}]}
    path = write(tmp_path, "catalog.json", catalog)
    result = runner.invoke(main, ["harness", "--catalog", path, "--grid", "0.1"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert len(payload["results"]) == 5
    assert payload["failure_events"] == []


def test_harness_catalog_parse_failure(runner, tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text("[1, 2")
    result = runner.invoke(main, ["harness", "--catalog", str(path)])
    assert result.exit_code == 1


# ---------------------------------------------------------------------------
# oracle


def test_oracle_dump(runner, tmp_path):
    path = write(tmp_path, "problem.json", NEGSLOPE_PROBLEM)
    result = runner.invoke(main, ["oracle", path, "--grid", "0.01"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["grid_spacing"] == 0.01
    stamps = [p[0] for p in payload["stampacchia_members"]]
    assert_allclose(sorted(stamps), [0.0, 0.5, 1.0])
    assert payload["minty_members"] == []
    assert payload["grid_point_count"] == len(payload["grid_points"])


def test_oracle_without_grid_points(runner, tmp_path):
    path = write(tmp_path, "problem.json", NEGSLOPE_PROBLEM)
    result = runner.invoke(main, ["oracle", path, "--no-grid-points"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert "grid_points" not in payload


def test_oracle_on_flat_box(runner, tmp_path):
    # three grid points whose rounded mean lies off their line: qhull used
    # to reject the mean-centered grid as a flat simplex
    problem = {"economy": LINEAR_PROBLEM["economy"],
               "region": {"kind": "box", "lower": [0.1, 0], "upper": [0.1, 0.04]},
               "oracle": {"lipschitz": 0.1}}
    path = write(tmp_path, "problem.json", problem)
    result = runner.invoke(main, ["oracle", path, "--grid", "0.02"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["grid_point_count"] == 3
    assert payload["stampacchia_members"] == [[0.1, 0.04]]


def test_oracle_at_grid_0_001_stays_in_its_memory_pin(runner, tmp_path):
    # 1,002,001 rows: grid, field and diagonal are 38 MiB; the hull
    # candidates come from the mesh occupancy, with no sort of the grid
    import tracemalloc

    problem = {"economy": {"kind": "catalog", "name": "linear_identity"},
               "region": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}}
    path = write(tmp_path, "problem.json", problem)
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["oracle", path, "--grid", "0.001",
                                      "--no-grid-points"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["grid_point_count"] == 1001 ** 2
    assert peak < 72 << 20


def test_oracle_bad_grid(runner, tmp_path):
    path = write(tmp_path, "problem.json", NEGSLOPE_PROBLEM)
    result = runner.invoke(main, ["oracle", path, "--grid", "-0.5"])
    assert result.exit_code == 1


# ---------------------------------------------------------------------------
# numerical failures inside the polyhedron code


def _poly_argv(command, tmp_path, lower, upper=(1.0, 1.0)):
    region = {"kind": "polyhedron", "A": [[1.0] * len(lower)], "b": [1.5],
              "lower": lower, "upper": list(upper)}
    economy = {"kind": "linear", "M": np.eye(len(lower)).tolist(),
               "c": [1.5, 0.5, 0.5, 0.5][:len(lower)]}
    if command == "harness":
        catalog = {"fixtures": [{"label": "poly", "economy": economy,
                                 "region": region}]}
        return ["harness", "--catalog", write(tmp_path, "catalog.json", catalog),
                "--grid", "0.1"]
    path = write(tmp_path, "problem.json", {"economy": economy, "region": region})
    return {"solve": ["solve", path], "oracle": ["oracle", path],
            "check": ["check", path, "--class", "pseudo"]}[command]


def _nnls_iteration_cap(E, e):
    raise RuntimeError("Maximum number of iterations reached.")


def _lp_numerical_failure(*args, **kwargs):
    return SimpleNamespace(status=4, success=False,
                           message="numerical difficulties")


def _assert_one_error_line(result):
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("command", ["solve", "check", "harness", "oracle"])
@pytest.mark.parametrize("target, fake, lower", [
    # the origin lies outside, so construction projects it onto the region
    pytest.param("walras_vi.regions.nnls", _nnls_iteration_cap, [0.2, 0.2],
                 id="nnls"),
    # at dim 4 construction certifies the region by LP
    pytest.param("scipy.optimize.linprog", _lp_numerical_failure, [0.2] * 4,
                 id="linprog"),
])
def test_region_construction_failure_is_one_error_line(
        runner, tmp_path, monkeypatch, command, target, fake, lower):
    monkeypatch.setattr(target, fake)
    result = runner.invoke(main, _poly_argv(command, tmp_path, lower,
                                            upper=[1.0] * len(lower)))
    _assert_one_error_line(result)
    assert ("KKT" if fake is _nnls_iteration_cap
            else "numerical difficulties") in result.stderr


@pytest.mark.parametrize("command", ["solve", "check", "harness", "oracle"])
def test_empty_polyhedron_is_one_error_line(runner, tmp_path, command):
    # x + y <= 1.5 with x, y >= 1: the vertex enumeration finds no point
    result = runner.invoke(main, _poly_argv(command, tmp_path, [1.0, 1.0],
                                            upper=[2.0, 2.0]))
    _assert_one_error_line(result)
    assert "nonempty" in result.stderr


def test_check_on_polyhedron_beyond_vertex_limit(runner, tmp_path):
    # 2,006 rows: C(2006, 3) = 1.3e9 row subsets, about 300 GB if vertex
    # enumeration built them; LPs certify the region, and the plan has no
    # vertices.  The cube lies within sqrt(3) / 2 of its center, so every
    # drawn row is redundant.
    import tracemalloc

    normals = np.random.default_rng(5).normal(size=(2000, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    region = {"kind": "polyhedron", "A": normals.tolist(),
              "b": (normals @ np.full(3, 0.5) + 1.0).tolist(),
              "lower": [0.0] * 3, "upper": [1.0] * 3}
    economy = {"kind": "linear", "M": np.eye(3).tolist(), "c": [0.5, 0.25, 0.75]}
    path = write(tmp_path, "problem.json", {"economy": economy, "region": region})
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["check", path, "--class", "pseudo"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["verdict"] == "holds_on_samples"
    assert peak < 64 << 20
    polyhedron = parse_region(region)
    assert_allclose(polyhedron.bounding_box(), [np.zeros(3), np.ones(3)], atol=1e-9)
    with pytest.raises(ValueError, match="limit"):
        polyhedron.vertices()


@pytest.mark.parametrize("command", ["solve", "check", "harness"])
def test_projection_failure_mid_run_is_one_error_line(
        runner, tmp_path, monkeypatch, command):
    # the origin is feasible, so only the run itself calls nnls
    argv = _poly_argv(command, tmp_path, [0.0, 0.0])
    monkeypatch.setattr("walras_vi.regions.nnls", _nnls_iteration_cap)
    result = runner.invoke(main, argv)
    _assert_one_error_line(result)
    assert "KKT" in result.stderr


def test_harness_catalog_plan_values_are_coerced(runner, tmp_path):
    catalog = {
        "plan": {"points": "4", "eps_strict": "1e-9"},
        "fixtures": [{"label": "pos", "economy": {"kind": "catalog",
                                                  "name": "scalar_positive"}}],
    }
    path = write(tmp_path, "catalog.json", catalog)
    result = runner.invoke(main, ["harness", "--catalog", path, "--grid", "0.1"])
    assert result.exit_code == 0, result.output
    catalog["plan"]["points"] = "many"
    path = write(tmp_path, "catalog.json", catalog)
    result = runner.invoke(main, ["harness", "--catalog", path])
    _assert_one_error_line(result)
    assert "'points'" in result.stderr


@pytest.mark.parametrize("command, section, key", [
    ("solve", "solver", "step"),
    ("solve", "solver", "budget"),
    ("solve", "solver", "tol"),
    ("oracle", "oracle", "grid_spacing"),
    ("oracle", "oracle", "lipschitz"),
])
@pytest.mark.parametrize("value", [None, "fast", [1.0]], ids=["null", "string", "list"])
def test_problem_section_values_are_coerced(runner, tmp_path, command, section,
                                            key, value):
    problem = json.loads(json.dumps(LINEAR_PROBLEM))
    problem[section][key] = value
    result = runner.invoke(main, [command, write(tmp_path, "problem.json", problem)])
    _assert_one_error_line(result)
    assert f"invalid {section} entry {key!r}" in result.stderr


def test_problem_section_numeric_strings_are_coerced(runner, tmp_path):
    problem = json.loads(json.dumps(LINEAR_PROBLEM))
    problem["solver"].update(step="0.1", budget="100000", tol="1e-8")
    problem["oracle"].update(grid_spacing="0.1", lipschitz="3")
    path = write(tmp_path, "problem.json", problem)
    spec = load_problem(path)
    config = spec.config
    assert (config.step, config.budget, config.tol_solve) == (0.1, 100000, 1e-8)
    assert (config.grid_spacing, spec.lipschitz) == (0.1, 3.0)
    assert runner.invoke(main, ["solve", path]).exit_code == 0


@pytest.mark.parametrize("value", [None, "steep", [1.0], True],
                         ids=["null", "string", "list", "boolean"])
def test_catalog_fixture_lipschitz_is_coerced(runner, tmp_path, value):
    catalog = {"fixtures": [{"label": "pos", "lipschitz": value,
                             "economy": {"kind": "catalog", "name": "scalar_positive"}}]}
    path = write(tmp_path, "catalog.json", catalog)
    result = runner.invoke(main, ["harness", "--catalog", path, "--grid", "0.1"])
    _assert_one_error_line(result)
    assert "invalid fixture entry 'lipschitz'" in result.stderr


POS_FIXTURE = {"label": "pos", "economy": {"kind": "catalog", "name": "scalar_positive"}}


@pytest.mark.parametrize("fixtures, message", [
    ([{**POS_FIXTURE, "label": [1]}], "each fixture needs a string 'label'"),
    ([{**POS_FIXTURE, "label": 7}], "each fixture needs a string 'label'"),
    ([POS_FIXTURE, {**POS_FIXTURE, "lipschitz": 0.5}],
     "duplicate fixture label 'pos'"),
    ([{**POS_FIXTURE, "label": ""}], "fixture label '' is not a file name"),
    ([{**POS_FIXTURE, "label": "."}], "fixture label '.' is not a file name"),
    ([{**POS_FIXTURE, "label": ".."}], "fixture label '..' is not a file name"),
    ([{**POS_FIXTURE, "label": "a/b"}], "fixture label 'a/b' is not a file name"),
    ([{**POS_FIXTURE, "label": "../escaped"}],
     "fixture label '../escaped' is not a file name"),
    ([{**POS_FIXTURE, "label": "a\\b"}],
     "fixture label 'a\\\\b' is not a file name"),
    ([{**POS_FIXTURE, "label": "a\0b"}],
     "fixture label 'a\\x00b' is not a file name"),
], ids=["list", "number", "duplicate", "empty", "dot", "dot-dot", "slash",
        "parent", "backslash", "nul"])
def test_catalog_fixture_labels_are_checked(runner, tmp_path, fixtures, message):
    path = write(tmp_path, "catalog.json", {"fixtures": fixtures})
    trace_dir = tmp_path / "traces" / "run"
    result = runner.invoke(main, ["harness", "--catalog", path, "--grid", "0.1",
                                  "--trace-dir", str(trace_dir)])
    _assert_one_error_line(result)
    assert message in result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["catalog.json"]


@pytest.mark.parametrize("catalog, message", [
    ({"fixtures": [{"label": "a"}]}, "fixture 'a' needs an 'economy'"),
    ({"fixtures": "x"}, "'fixtures' must be a list"),
    ({"fixtures": {"pos": POS_FIXTURE}}, "'fixtures' must be a list"),
], ids=["economy-missing", "fixtures-string", "fixtures-object"])
def test_catalog_positive_and_fixtures_types_are_checked(runner, tmp_path,
                                                         catalog, message):
    path = write(tmp_path, "catalog.json", catalog)
    result = runner.invoke(main, ["harness", "--catalog", path, "--grid", "0.1"])
    _assert_one_error_line(result)
    assert message in result.stderr


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command, text", [
    ("solve", _DEEP),
    ("solve", json.dumps({**LINEAR_PROBLEM, "solver": {"start": "deep"}}).replace(
        '"deep"', _DEEP)),
    ("harness", _DEEP),
    ("harness", json.dumps({"fixtures": [{**POS_FIXTURE, "economy": "deep"}]})
     .replace('"deep"', _DEEP)),
], ids=["problem", "problem-start", "catalog", "catalog-economy"])
def test_deeply_nested_files_are_one_error_line(runner, tmp_path, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = ["solve", str(path)] if command == "solve" else [
        "harness", "--catalog", str(path)]
    result = runner.invoke(main, argv)
    _assert_one_error_line(result)
    assert "file is nested too deeply" in result.stderr


@pytest.mark.parametrize("argv, message", [
    (["harness", "--grid", "0.5", "--out", "{missing}/x.json"],
     "cannot write output file"),
    (["solve", "{problem}", "--trace", "{missing}/t.csv"], "cannot write trace file"),
    (["harness", "--grid", "0.5", "--trace-dir", "{problem}"],
     "cannot write trace directory"),
    (["harness", "--catalog", "{long_label}", "--grid", "0.5",
      "--trace-dir", "{traces}"], "cannot write trace file"),
], ids=["harness-out", "solve-trace", "trace-dir-is-a-file", "harness-long-label"])
def test_unwritable_outputs_are_one_error_line(runner, tmp_path, argv, message):
    # every output opens before the run, so a failed one prints nothing else
    long_label = {"fixtures": [{**POS_FIXTURE, "label": "x" * 300}]}
    paths = {"missing": tmp_path / "missing",
             "problem": write(tmp_path, "problem.json", LINEAR_PROBLEM),
             "long_label": write(tmp_path, "catalog.json", long_label),
             "traces": tmp_path / "traces"}
    result = runner.invoke(main, [a.format(**paths) for a in argv])
    _assert_one_error_line(result)
    assert message in result.stderr
    assert result.stdout == ""
    assert not paths["missing"].exists()


@pytest.mark.parametrize("command, section, key", [
    ("solve", "solver", "budget"),
    ("check", "plan", "points"),
    ("check", "plan", "m_max"),
    ("check", "plan", "weight_resolution"),
])
@pytest.mark.parametrize("value", [2.9, True, "2.9"],
                         ids=["fraction", "boolean", "fraction-string"])
def test_integer_entries_are_not_truncated(runner, tmp_path, command, section,
                                           key, value):
    problem = json.loads(json.dumps(LINEAR_PROBLEM))
    problem.setdefault(section, {})[key] = value
    argv = [command, write(tmp_path, "problem.json", problem)]
    result = runner.invoke(main, argv + (["--class", "pseudo"]
                                         if command == "check" else []))
    _assert_one_error_line(result)
    assert f"invalid {section} entry {key!r}" in result.stderr


@pytest.mark.parametrize("command, section, key", [
    ("solve", "solver", "step"),
    ("solve", "solver", "tol"),
    ("check", "plan", "eps_strict"),
    ("oracle", "oracle", "grid_spacing"),
    ("oracle", "oracle", "lipschitz"),
])
def test_float_entries_refuse_booleans(runner, tmp_path, command, section, key):
    # float(True) is 1.0, so these used to run with the value 1
    problem = json.loads(json.dumps(LINEAR_PROBLEM))
    problem.setdefault(section, {})[key] = True
    argv = [command, write(tmp_path, "problem.json", problem)]
    result = runner.invoke(main, argv + (["--class", "pseudo"]
                                         if command == "check" else []))
    _assert_one_error_line(result)
    assert f"invalid {section} entry {key!r}: expected a number, got True" in (
        result.stderr)


POLY_REGION = {"kind": "polyhedron", "A": [[1.0, 1.0]], "b": [1.5],
               "lower": [0.0, 0.0], "upper": [1.0, 1.0]}


@pytest.mark.parametrize("path, value, message", [
    (("economy", "M"), [[True, 0], [0, 1]], "invalid linear economy: entry 'M'"),
    (("economy", "c"), [0.5, False], "invalid linear economy: entry 'c'"),
    (("region", "lower"), [False, 0], "invalid box region: entry 'lower'"),
    (("region", "upper"), [True, 1], "invalid box region: entry 'upper'"),
    (("poly", "A"), [[1.0, True]], "invalid polyhedron region: entry 'A'"),
    (("poly", "b"), [True], "invalid polyhedron region: entry 'b'"),
    (("poly", "lower"), [0.0, False], "invalid polyhedron region: entry 'lower'"),
    (("poly", "upper"), [True, 1.0], "invalid polyhedron region: entry 'upper'"),
    (("solver", "start"), [0.5, True], "entry 'solver.start'"),
    (("economy", "M"), [[[True]], [0, 1]], "invalid linear economy: entry 'M'"),
], ids=["M", "c", "box-lower", "box-upper", "poly-A", "poly-b", "poly-lower",
        "poly-upper", "start", "nested"])
def test_array_entries_refuse_booleans(runner, tmp_path, path, value, message):
    # numpy reads true as 1.0 and false as 0.0, so these used to run
    problem = json.loads(json.dumps(LINEAR_PROBLEM))
    section, key = path
    if section == "poly":
        problem["region"], section = dict(POLY_REGION), "region"
    problem.setdefault(section, {})[key] = value
    result = runner.invoke(main, ["solve", write(tmp_path, "problem.json", problem)])
    _assert_one_error_line(result)
    assert message in result.stderr
    assert "expected numbers, got " in result.stderr


def test_catalog_fixture_arrays_refuse_booleans(runner, tmp_path):
    catalog = {"fixtures": [{"label": "lin", "economy": {
        "kind": "linear", "M": [[1.0]], "c": [0.5]},
        "region": {"kind": "box", "lower": [0.0], "upper": [True]}}]}
    path = write(tmp_path, "catalog.json", catalog)
    result = runner.invoke(main, ["harness", "--catalog", path, "--grid", "0.1"])
    _assert_one_error_line(result)
    assert "invalid box region: entry 'upper': expected numbers, got True" in (
        result.stderr)


def test_simplex_projection_lost_to_rounding_is_one_error_line(runner, tmp_path):
    # the first step lands near -3e16 on every axis, where the threshold
    # test rounds to 0 for every k; this used to end in an IndexError
    problem = {"economy": {"kind": "linear", "M": (1e18 * np.eye(3)).tolist(),
                           "c": [0.0, 0.0, 0.0]},
               "region": {"kind": "simplex", "n": 3}}
    result = runner.invoke(main, ["solve", write(tmp_path, "problem.json", problem)])
    _assert_one_error_line(result)
    assert "simplex projection threshold lost to rounding" in result.stderr


@pytest.mark.parametrize("M, c, message", [
    ("[[[1, 0], [0, 1]], [[1, 0], [0, 1]]]", "[0.5, 0.5]", "square"),
    ("[[1, 0, 0], [0, 1, 0]]", "[0.5, 0.5]", "square"),
    ("[[1, 0], [0, 1]]", "[0.5, 0.5, 0.5]", "square"),
    ("[[1e999, 0], [0, 1]]", "[0.5, 0.5]", "finite"),   # parses to inf
], ids=["3d-M", "non-square-M", "mismatched-c", "inf-M"])
def test_malformed_linear_economy_is_refused_when_loaded(runner, tmp_path, M, c,
                                                          message):
    path = tmp_path / "problem.json"
    path.write_text('{"economy": {"kind": "linear", "M": %s, "c": %s}, "region": '
                    '{"kind": "box", "lower": [0, 0], "upper": [1, 1]}}' % (M, c))
    result = runner.invoke(main, ["solve", str(path)])
    _assert_one_error_line(result)
    assert "invalid linear economy" in result.stderr and message in result.stderr


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_overflow_in_a_run_is_one_error_line(runner, tmp_path, sign):
    # on [0, 1e200]^2 the pairings E(p).q reach 1e400: with M = -I their
    # differences overflow, and with M = I they meet inf - inf
    problem = {"economy": {"kind": "linear", "M": [[sign, 0.0], [0.0, sign]],
                           "c": [0.0, 0.0]},
               "region": {"kind": "box", "lower": [0.0, 0.0],
                          "upper": [1e200, 1e200]},
               "plan": {"points": 4}}
    result = runner.invoke(main, ["check", write(tmp_path, "problem.json", problem),
                                  "--class", "pseudo"])
    _assert_one_error_line(result)
    assert result.stdout == ""


@pytest.mark.parametrize("upper, grid", [
    ([1e308, 1.0], []), ([1e12, 1.0], []), ([1.0, 1.0], ["--grid", "1e-320"]),
], ids=["box-1e308", "box-1e12", "grid-1e-320"])
def test_oversized_oracle_grid_is_one_error_line(runner, tmp_path, upper, grid):
    problem = dict(LINEAR_PROBLEM, region={"kind": "box", "lower": [0.0, 0.0],
                                           "upper": upper})
    result = runner.invoke(main, ["oracle", write(tmp_path, "problem.json", problem)]
                           + grid)
    _assert_one_error_line(result)
    assert "grid would hold" in result.stderr


def test_harness_at_grid_1e308_keeps_its_bytes(runner):
    # each grid is its region's corners and the oracle's cell bound
    # overflows, so it prunes nothing; scalar_negslope's T4_1 and
    # constant_positive's T4_3 fail at that grid, hence exit 4
    result = runner.invoke(main, ["harness", "--grid", "1e308"])
    assert result.exit_code == 4
    digests = [hashlib.sha256(stream.encode()).hexdigest()
               for stream in (result.stdout, result.stderr)]
    assert digests == [
        "c7bea1e41b0a354dd5ea52cc1803e918e037ae7e6f438e4df7bad87734dcf3a7",
        "46c495a8f505f9b8da41ff9bcb4d1a9245fdcd256a3bde49e81f14d93d49bd53"]


def test_integer_array_entries_still_run(runner, tmp_path):
    problem = json.loads(json.dumps(LINEAR_PROBLEM))
    problem["economy"]["M"] = [[1, 0], [0, 1]]
    problem["region"] = dict(POLY_REGION, A=[[1, 1]], lower=[0, 0], upper=[1, 1])
    problem["solver"]["start"] = [0, 1]
    result = runner.invoke(main, ["solve", write(tmp_path, "problem.json", problem)])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("plan, message", [
    ({"m_max": 3.9}, "invalid plan entry 'm_max'"),
    ({"points": -5}, "plan points must be nonnegative"),
])
def test_harness_catalog_plan_integers_are_checked(runner, tmp_path, plan, message):
    catalog = {"plan": plan,
               "fixtures": [{"label": "pos", "economy": {"kind": "catalog",
                                                         "name": "scalar_positive"}}]}
    path = write(tmp_path, "catalog.json", catalog)
    result = runner.invoke(main, ["harness", "--catalog", path, "--grid", "0.1"])
    _assert_one_error_line(result)
    assert message in result.stderr


@pytest.mark.parametrize("n, economy", [
    (2.9, LINEAR_PROBLEM["economy"]),
    (True, NEGSLOPE_PROBLEM["economy"]),
], ids=["fraction", "boolean"])
def test_simplex_dimension_is_not_truncated(runner, tmp_path, n, economy):
    # int() would load these as Simplex(2) and Simplex(1), matching the economy
    problem = {"economy": economy, "region": {"kind": "simplex", "n": n}}
    result = runner.invoke(main, ["solve", write(tmp_path, "problem.json", problem)])
    _assert_one_error_line(result)
    assert "invalid simplex region" in result.stderr


def test_harness_grid_flag_overrides_catalog_plan(runner, tmp_path):
    catalog = {"plan": {"grid_spacing": 0.25},
               "fixtures": [{"label": "pos", "economy": {"kind": "catalog",
                                                         "name": "scalar_positive"}}]}
    path = write(tmp_path, "catalog.json", catalog)
    result = runner.invoke(main, ["harness", "--catalog", path, "--grid", "0.1"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["grid_spacing"] == 0.1
    result = runner.invoke(main, ["harness", "--catalog", path])
    assert json.loads(result.stdout)["grid_spacing"] == 0.25


def test_problem_plan_grid_spacing_is_rejected(runner, tmp_path):
    problem = json.loads(json.dumps(LINEAR_PROBLEM))
    problem["plan"] = {"grid_spacing": 0.25}
    result = runner.invoke(main, ["oracle", write(tmp_path, "problem.json", problem)])
    _assert_one_error_line(result)
    assert "'oracle.grid_spacing'" in result.stderr


# ---------------------------------------------------------------------------
# non-finite numbers and the run configuration


@pytest.mark.parametrize("argv_tail, payload", [
    (["--grid", "0.25"],
     {"fixtures": [{**POS_FIXTURE, "lipschitz": float("inf")}]}),
    ([], {"plan": {"eps_strict": float("inf")}, "fixtures": [POS_FIXTURE]}),
    ([], {"plan": {"grid_spacing": float("nan")}, "fixtures": [POS_FIXTURE]}),
], ids=["fixture-lipschitz", "plan-eps-strict", "plan-grid-nan"])
def test_catalog_non_finite_literals_are_rejected(runner, tmp_path, argv_tail,
                                                  payload):
    # json.dumps writes inf and nan as the literals Infinity and NaN
    path = write(tmp_path, "catalog.json", payload)
    result = runner.invoke(main, ["harness", "--catalog", path] + argv_tail)
    _assert_one_error_line(result)
    assert "catalog file holds" in result.stderr


@pytest.mark.parametrize("command", ["solve", "check", "oracle"])
@pytest.mark.parametrize("section, key, value", [
    ("oracle", "lipschitz", float("inf")),
    ("solver", "step", float("nan")),
    ("plan", "eps_strict", float("-inf")),
], ids=["lipschitz-inf", "step-nan", "eps-strict-minus-inf"])
def test_problem_non_finite_literals_are_rejected(runner, tmp_path, command,
                                                  section, key, value):
    problem = json.loads(json.dumps(LINEAR_PROBLEM))
    problem.setdefault(section, {})[key] = value
    argv = [command, write(tmp_path, "problem.json", problem)]
    result = runner.invoke(main, argv + (["--class", "pseudo"]
                                         if command == "check" else []))
    _assert_one_error_line(result)
    assert "problem file holds" in result.stderr


@pytest.mark.parametrize("text, field", [
    ('{"plan": {"eps_strict": 1e999}, "fixtures": [%s]}', "eps_strict"),
    ('{"fixtures": [%s], "plan": {"grid_spacing": 1e999}}', "grid_spacing"),
    ('{"fixtures": [{"label": "pos", "lipschitz": 1e999, "economy": '
     '{"kind": "catalog", "name": "scalar_positive"}}]}', "lipschitz"),
], ids=["eps-strict", "grid-spacing", "lipschitz"])
def test_overflowing_numbers_are_rejected(runner, tmp_path, text, field):
    # 1e999 parses to inf without a NaN or Infinity literal
    path = tmp_path / "catalog.json"
    path.write_text(text.replace("%s", json.dumps(POS_FIXTURE)))
    result = runner.invoke(main, ["harness", "--catalog", str(path)])
    _assert_one_error_line(result)
    assert field in result.stderr


@pytest.mark.parametrize("command", ["harness", "oracle"])
@pytest.mark.parametrize("grid", ["inf", "nan", "-0.5", "0"])
def test_grid_flag_is_validated_as_grid_spacing(runner, tmp_path, command, grid):
    argv = [command] + ([write(tmp_path, "problem.json", NEGSLOPE_PROBLEM)]
                        if command == "oracle" else [])
    result = runner.invoke(main, argv + ["--grid", grid])
    _assert_one_error_line(result)
    assert "grid_spacing" in result.stderr


def test_problem_file_resolves_into_the_run_configuration(tmp_path):
    spec = load_problem(write(tmp_path, "problem.json", NEGSLOPE_PROBLEM))
    assert spec.config == HarnessConfig(grid_spacing=0.01)
    assert spec.lipschitz == 0.25
    problem = dict(NEGSLOPE_PROBLEM, plan={"points": 6, "m_max": 2,
                                           "weight_resolution": 5,
                                           "eps_strict": 1e-6},
                   solver={"step": 0.2, "budget": 7, "tol": 1e-4})
    spec = load_problem(write(tmp_path, "problem.json", problem))
    assert spec.config == HarnessConfig(
        grid_spacing=0.01, num_points=6, tuple_size_max=2,
        weight_grid_resolution=5, eps_strict=1e-6, step=0.2, budget=7,
        tol_solve=1e-4)


@pytest.mark.parametrize("plan, field", [
    ({"m_max": 1}, "tuple_size_max"),
    ({"weight_resolution": 2}, "weight_grid_resolution"),
    ({"eps_strict": 0}, "eps_strict"),
], ids=["m-max", "weight-resolution", "eps-strict"])
def test_catalog_and_problem_plans_share_one_validator(runner, tmp_path, plan,
                                                       field):
    catalog = write(tmp_path, "catalog.json",
                    {"plan": plan, "fixtures": [POS_FIXTURE]})
    problem = write(tmp_path, "problem.json", dict(NEGSLOPE_PROBLEM, plan=plan))
    for argv in (["harness", "--catalog", catalog],
                 ["check", problem, "--class", "pseudo"]):
        result = runner.invoke(main, argv)
        _assert_one_error_line(result)
        assert field in result.stderr


def test_catalog_positive_entry_is_ignored(runner, tmp_path):
    # positivity is measured on the plan, never declared
    plain = write(tmp_path, "plain.json", {"fixtures": [POS_FIXTURE]})
    flagged = write(tmp_path, "flagged.json",
                    {"fixtures": [{**POS_FIXTURE, "positive": "no"}]})
    outputs = [runner.invoke(main, ["harness", "--catalog", path, "--grid", "0.1"])
               for path in (plain, flagged)]
    assert [r.exit_code for r in outputs] == [0, 0]
    assert outputs[0].stdout == outputs[1].stdout


# ---------------------------------------------------------------------------
# schema fuzz: one mutation of a valid file never escapes as a traceback

FUZZ_PROBLEM = {
    "economy": {"kind": "linear", "M": [[1.0, 0.0], [0.0, 1.0]], "c": [1.5, 0.5]},
    "region": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "solver": {"step": 0.1, "budget": 50, "tol": 1e-8, "start": [0.5, 0.5]},
    "plan": {"points": 8, "m_max": 2, "weight_resolution": 3, "eps_strict": 1e-9},
    "oracle": {"grid_spacing": 0.25, "lipschitz": 3.0},
}

FUZZ_CATALOG = {
    "plan": {"points": 4, "m_max": 2, "weight_resolution": 3, "eps_strict": 1e-9,
             "grid_spacing": 0.25},
    "fixtures": [
        {"label": "lin",
         "economy": {"kind": "linear", "M": [[1.0, 0.0], [0.0, 1.0]],
                     "c": [0.5, 0.5]},
         "region": {"kind": "polyhedron", "A": [[1.0, 1.0]], "b": [1.5],
                    "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
         "lipschitz": 0.25},
        {**POS_FIXTURE, "lipschitz": 0.05},
    ],
}

# No value here can ask for a large grid, plan or budget; a dropped entry
# takes its default, which is a standard desk-scale size.
_POOL = (None, True, "x", "2.9", [], {}, [1.0], -1, 0, 2.9, float("nan"),
         float("inf"))
_DROP = object()


def _paths(node, prefix=()):
    """Every path into a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutate(document, path, value):
    """A copy of ``document`` with the entry at ``path`` dropped or replaced."""
    if not path:
        return value
    copy = json.loads(json.dumps(document))
    *head, last = path
    node = copy
    for key in head:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    return copy


@st.composite
def _mutated(draw, document):
    """``document`` with one entry dropped or replaced by a pool value."""
    path = draw(st.sampled_from(list(_paths(document))))
    droppable = bool(path) and isinstance(path[-1], str)
    return _mutate(document, path,
                   draw(st.sampled_from(_POOL + ((_DROP,) if droppable else ()))))


def _assert_clean_exit(result):
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        repr(result.exception))
    assert 0 <= result.exit_code <= 4
    if result.exit_code == 1:
        _assert_one_error_line(result)


_FUZZ = settings(max_examples=120, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(problem=_mutated(FUZZ_PROBLEM),
       command=st.sampled_from(["solve", "check", "oracle"]))
# an infinite step or grid spacing must be refused before numpy computes with it
@example(problem=_mutate(FUZZ_PROBLEM, ("solver", "step"), float("inf")),
         command="solve")
@example(problem=_mutate(FUZZ_PROBLEM, ("oracle", "grid_spacing"), float("inf")),
         command="oracle")
def test_mutated_problem_files_exit_cleanly(runner, tmp_path, problem, command):
    argv = [command, write(tmp_path, "problem.json", problem)]
    if command == "check":
        argv += ["--class", "strict_proper_quasi"]
    _assert_clean_exit(runner.invoke(main, argv))


@_FUZZ
@given(catalog=_mutated(FUZZ_CATALOG))
def test_mutated_catalog_files_exit_cleanly(runner, tmp_path, catalog):
    path = write(tmp_path, "catalog.json", catalog)
    _assert_clean_exit(runner.invoke(main, ["harness", "--catalog", path]))
