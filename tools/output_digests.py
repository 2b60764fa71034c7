"""Digest the outputs of a fixed matrix of CLI runs, to show that a change
keeps every emitted byte.

The runs go through the ``walras-vi`` command in process (click's test
runner), on input files written into a temporary directory:

* ``harness`` on the default catalog at grid 0.05, 0.02, 0.01 and 0.005;
* ``harness`` on the 64-point catalog of the ``harness_plan`` benchmark
  workload, at grid 0.02;
* ``solve`` on the 48 ``solve_sweep`` problem files of seeds 1-3, and
  ``oracle`` on the eight of seed 1 whose dimension is at most 3;
* ``check`` for each of the five classes, ``oracle`` and ``solve`` on one
  problem file per default fixture, with 24 and with 64 plan points;
* runs where the tuple scan's bounds keep tuples: ``check`` for the three
  combination classes with 4-tuples (24 plan points, ``m_max`` 4) on every
  default fixture and on three near-tie fields (the zero field, and
  rotations on a box and on the simplex line, whose pairings tie or nearly
  tie), and ``harness`` on a 64-point catalog of those three fields;
* ``check --class strict_proper_quasi`` with 64 plan points on a box whose
  coordinates reach 1e5, where the strict exclusions' rounding allowance
  exceeds the distinctness tolerance;
* ``oracle`` at grid 0.05 where the Stampacchia scan has many hull
  candidates: the identity and the zero field on the 3-simplex, whose
  tilted grid puts every point alone on its axis lines, and E = -(1, 1, 1)
  on the criterion-1 polyhedron, whose least face has points whose float
  coordinate sum is 2.0000000000000004;
* ``oracle`` on ``mortgage_linear`` at grid 0.0025, whose last Minty level
  pairs 1,117 rows with 637,219 columns in chunks of 6 rows, the last row
  alone;
* ``oracle`` runs where the cell filter in front of the cascades decides
  much: a positive-definite field on the unit cube at grid 0.05,
  ``rotation`` at 0.01, whose solution face no column cell can skip, the
  constant field at 0.005, and E(p) = p - (5e4, 5e4) on [0, 1e5]^2 at
  grid 1,000;
* ``solve`` on a pyramid of 40 lateral faces through one apex, whose
  9,920 basic feasible points hold 9,880 copies of the apex.

That is 234 runs.  The benchmark's input files come from
``bench/workloads.py``, which is only read.  The output is one JSON object,
case name -> sha256 of the run's stdout, stderr and exit code.

    python tools/output_digests.py > after.json
    python tools/output_digests.py --src ../parent/src > before.json
    python tools/output_digests.py --compare before.json after.json

``--compare`` lists the cases whose digests differ or that only one file
holds, and exits 1 if there are any.

The digests of this checkout are committed in ``tools/output_digests.json``
with the OpenBLAS core they were recorded under, and
``tests/test_output_digests.py`` requires every run to reproduce them.
BLAS kernels round differently, so the record also lists as
``kernel_dependent`` the cases whose digests differ under some other core
numpy's OpenBLAS can select; under another core the test compares the
rest.  The list is the union of ``--compare`` against the record over runs
under each core, selected for one process only:

    OPENBLAS_CORETYPE=Prescott python tools/output_digests.py > prescott.json
    python tools/output_digests.py --compare tools/output_digests.json prescott.json

OpenBLAS's thread count moves no digest: under ``OPENBLAS_NUM_THREADS=1``
every case reproduces the record, and ``tests/test_output_digests.py``
checks that on two cases.

A change that moves output on purpose re-records the file, which keeps the
list less the cases no longer run, and lists the changed cases:

    python tools/output_digests.py --record
    python tools/output_digests.py --compare before.json tools/output_digests.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tools" / "output_digests.json"
HARNESS_GRIDS = ("0.05", "0.02", "0.01", "0.005")
SOLVE_SEEDS = (1, 2, 3)
FIXTURE_POINTS = (24, 64)
TUPLE_CLASSES = ("proper_quasi", "proper_quasi_dual", "strict_proper_quasi")
UNIT_SQUARE = {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}
# E(p) = M (p - z): zero, and rotations about z = (0.6, 0.3) in the square
# and z = (0.25, 0.75) on the simplex line
NEAR_TIE_FIELDS = {
    "zero": ({"kind": "linear", "M": [[0.0, 0.0], [0.0, 0.0]], "c": [0.0, 0.0]},
             UNIT_SQUARE),
    "skew": ({"kind": "linear", "M": [[0.0, 0.117], [-0.117, 0.0]],
              "c": [0.0351, -0.0702]}, UNIT_SQUARE),
    "skew_line": ({"kind": "linear", "M": [[0.0, 0.117], [-0.117, 0.0]],
                   "c": [0.08775, -0.02925]}, {"kind": "simplex", "n": 2}),
}

# E(p) = p - (5e4, 5e4) on [0, 1e5]^2: coordinates large next to the
# distinctness tolerance
LARGE_BOX = {"economy": {"kind": "linear", "M": [[1.0, 0.0], [0.0, 1.0]],
                         "c": [5e4, 5e4]},
             "region": {"kind": "box", "lower": [0.0, 0.0], "upper": [1e5, 1e5]},
             "plan": {"points": 64}}

# oracle runs at grid 0.05 with many hull candidates
SIMPLEX_3 = {"kind": "simplex", "n": 3}
CRITERION_1 = {"kind": "polyhedron",
               "A": [[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                     [-1, 0, 0], [0, -1, 0], [0, 0, -1]],
               "b": [2, 1, 1, 1, 0, 0, 0]}
IDENTITY_3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
ZERO_3 = [[0.0] * 3] * 3
ORACLE_FIELDS = {
    "simplex3-identity": ({"kind": "linear", "M": IDENTITY_3, "c": [0.0] * 3},
                          SIMPLEX_3),
    "simplex3-zero": ({"kind": "linear", "M": ZERO_3, "c": [0.0] * 3}, SIMPLEX_3),
    "poly3-constant": ({"kind": "linear", "M": ZERO_3, "c": [1.0] * 3},
                       CRITERION_1),
}

# oracle runs where the cell filter prunes rows and columns, or cannot:
# (problem file, grid), and catalog fixtures at a grid.  On the cube the
# scale 1.17 keeps the tolerance off the pairing lattice of the 0.05 grid.
FILTER_PROBLEMS = {
    "cube3-pd-0.05": ({"economy": {"kind": "linear", "c": [1.0, 2.0, 1.5],
                                   "M": [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0],
                                         [0.0, 1.0, 2.0]]},
                       "region": {"kind": "box", "lower": [0.0] * 3,
                                  "upper": [1.0] * 3},
                       "oracle": {"lipschitz": 1.17}}, "0.05"),
    "large_box-1000": ({"economy": LARGE_BOX["economy"],
                        "region": LARGE_BOX["region"]}, "1000"),
}
FILTER_FIXTURES = {"rotation": "0.01", "constant_field": "0.005"}

# a pyramid over a regular 40-gon, apex (0, 0, 1), base z >= 0, and
# E(p) = p - c with c outside it
PYRAMID_40 = {
    "economy": {"kind": "linear", "M": IDENTITY_3, "c": [0.5, 0.25, 0.75]},
    "region": {"kind": "polyhedron",
               "A": [[round(math.cos(2 * math.pi * k / 40), 6),
                      round(math.sin(2 * math.pi * k / 40), 6), 1.0]
                     for k in range(40)] + [[0.0, 0.0, -1.0]],
               "b": [1.0] * 40 + [0.0]},
}


def _region_spec(region) -> dict:
    """A problem-file region entry that rebuilds ``region``."""
    from walras_vi.regions import Box, Simplex

    if isinstance(region, Simplex):
        return {"kind": "simplex", "n": region.n}
    if isinstance(region, Box):
        return {"kind": "box", "lower": region.lower.tolist(),
                "upper": region.upper.tolist()}
    return {"kind": "polyhedron", "A": region.A.tolist(), "b": region.b.tolist()}


def cases(directory: Path) -> dict:
    """Case name -> argv, with every input file written into ``directory``."""
    import workloads
    from walras_vi.economy import default_catalog

    out = {f"harness-grid-{grid}": ["harness", "--grid", grid]
           for grid in HARNESS_GRIDS}
    (op,) = workloads.generate("harness_plan", 1, directory / "harness_plan")
    out["harness_plan"] = list(op.argv)
    for seed in SOLVE_SEEDS:
        for op in workloads.generate("solve_sweep", seed, directory / f"seed{seed}"):
            out[f"solve-seed{seed}-{op.key}"] = list(op.argv)
            region = workloads.REGIONS_BY_NAME[workloads.region_of(op.key)]
            if seed == 1 and region.dim <= 3:
                out[f"oracle-seed{seed}-{op.key}"] = ["oracle", op.argv[1]]
    for label, fixture in default_catalog().items():
        for points in FIXTURE_POINTS:
            path = directory / f"{label}-{points}.json"
            path.write_text(json.dumps({
                "economy": {"kind": "catalog", "name": label},
                "region": _region_spec(fixture.region),
                "plan": {"points": points}}))
            for name in ("pseudo", "strict_pseudo", "proper_quasi",
                         "proper_quasi_dual", "strict_proper_quasi"):
                out[f"check-{label}-{points}-{name}"] = ["check", str(path),
                                                         "--class", name]
            out[f"oracle-{label}-{points}"] = ["oracle", str(path)]
            out[f"solve-{label}-{points}"] = ["solve", str(path)]
    problems = {label: ({"kind": "catalog", "name": label},
                        _region_spec(fixture.region))
                for label, fixture in default_catalog().items()}
    for label, (economy, region) in {**problems, **NEAR_TIE_FIELDS}.items():
        path = directory / f"{label}-24-m4.json"
        path.write_text(json.dumps({"economy": economy, "region": region,
                                    "plan": {"points": 24, "m_max": 4}}))
        for name in TUPLE_CLASSES:
            out[f"check-{label}-24-m4-{name}"] = ["check", str(path),
                                                  "--class", name]
    path = directory / "near-ties.json"
    path.write_text(json.dumps({
        "plan": {"points": 64},
        "fixtures": [{"label": label, "economy": economy, "region": region}
                     for label, (economy, region) in NEAR_TIE_FIELDS.items()]}))
    out["harness-near-ties"] = ["harness", "--catalog", str(path),
                                "--grid", "0.02"]
    path = directory / "large-box-64.json"
    path.write_text(json.dumps(LARGE_BOX))
    out["check-large_box-64-strict_proper_quasi"] = [
        "check", str(path), "--class", "strict_proper_quasi"]
    for name, (economy, region) in ORACLE_FIELDS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps({"economy": economy, "region": region}))
        out[f"oracle-{name}"] = ["oracle", str(path), "--grid", "0.05"]
    out["oracle-mortgage_linear-0.0025"] = [
        "oracle", str(directory / "mortgage_linear-24.json"), "--grid", "0.0025"]
    for name, (problem, grid) in FILTER_PROBLEMS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(problem))
        out[f"oracle-{name}"] = ["oracle", str(path), "--grid", grid]
    for label, grid in FILTER_FIXTURES.items():
        out[f"oracle-{label}-{grid}"] = [
            "oracle", str(directory / f"{label}-24.json"), "--grid", grid]
    path = directory / "pyramid40.json"
    path.write_text(json.dumps(PYRAMID_40))
    out["solve-pyramid40"] = ["solve", str(path)]
    return out


def digest(result, directory: Path) -> str:
    """sha256 of a run's stdout, stderr and exit code; the input directory
    is masked, and an exception other than the exit is part of the digest."""
    h = hashlib.sha256()
    for stream in (result.stdout, result.stderr):
        h.update(stream.replace(str(directory), "<dir>").encode())
        h.update(b"\0")
    h.update(str(result.exit_code).encode())
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        h.update(repr(result.exception).encode())
    return h.hexdigest()


def run_all() -> dict:
    from click.testing import CliRunner
    from walras_vi.cli import main

    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        return {name: digest(runner.invoke(main, argv), directory)
                for name, argv in cases(directory).items()}


def openblas_core():
    """The kernel core of numpy's OpenBLAS (``scipy_openblas_get_corename64_``),
    or None where it cannot be read: no ``/proc/self/maps``, or no loaded
    library exports that symbol."""
    import ctypes

    import numpy  # noqa: F401  (loads the library)

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        except OSError:
            continue
        if fn is not None:
            fn.restype = ctypes.c_char_p
            return fn().decode().strip()
    return None


def load_digests(path: Path) -> dict:
    """Case name -> digest from a file of this tool's output or a record."""
    data = json.loads(path.read_text())
    return data.get("digests", data)


def compare(before: dict, after: dict) -> list[str]:
    """One line per case whose digest differs or that only one side holds."""
    lines = [f"differs: {name}" for name in before
             if name in after and before[name] != after[name]]
    lines += [f"only in the first file: {name}" for name in before if name not in after]
    lines += [f"only in the second file: {name}" for name in after if name not in before]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the walras_vi package to run "
                             "(default: this checkout's src)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), type=Path,
                        help="compare two digest files instead of running")
    parser.add_argument("--record", action="store_true",
                        help="write the digests and the OpenBLAS core to "
                             "tools/output_digests.json, keeping its list of "
                             "kernel-dependent cases that still run, instead "
                             "of stdout")
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (load_digests(p) for p in args.compare)
        lines = compare(before, after)
        print("\n".join(lines) if lines else
              f"all {len(before)} cases identical")
        return 1 if lines else 0
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    digests = run_all()
    if args.record:
        kept = json.loads(RECORD.read_text()) if RECORD.exists() else {}
        RECORD.write_text(json.dumps({
            "openblas_core": openblas_core(), "digests": digests,
            "kernel_dependent": [name for name in kept.get("kernel_dependent", [])
                                 if name in digests]},
            indent=1, sort_keys=True) + "\n")
    else:
        print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
