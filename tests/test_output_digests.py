"""Byte identity as a gate: the fixed matrix of CLI runs in
``tools/output_digests.py`` must reproduce the digests committed in
``tools/output_digests.json``.

BLAS kernels round differently, so the digests the record lists as
``kernel_dependent`` hold only under the OpenBLAS core they were recorded
under; under another core the test compares every other case.  A change
that moves output on purpose re-records the file with
``python tools/output_digests.py --record``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "output_digests", ROOT / "tools" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digests_match_record(monkeypatch):
    tool = _tool()
    record = json.loads(tool.RECORD.read_text())
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # the workload inputs
    digests = tool.run_all()
    assert digests.keys() == record["digests"].keys()
    if tool.openblas_core() != record["openblas_core"]:
        for name in record["kernel_dependent"]:
            del digests[name], record["digests"][name]
    assert tool.compare(record["digests"], digests) == []


def test_record_keeps_the_kernel_dependent_cases(monkeypatch, tmp_path):
    tool = _tool()
    record = tmp_path / "output_digests.json"
    # "gone" left the matrix: kept, it would fail the gate under another core
    record.write_text(json.dumps({"digests": {"a": "0", "gone": "3"},
                                  "kernel_dependent": ["a", "gone"],
                                  "openblas_core": "Katmai"}))
    monkeypatch.setattr(tool, "RECORD", record)
    monkeypatch.setattr(tool, "run_all", lambda: {"a": "1", "b": "2"})
    monkeypatch.setattr(sys, "path", list(sys.path))      # main prepends src
    assert tool.main(["--record"]) == 0
    written = json.loads(record.read_text())
    assert written["digests"] == {"a": "1", "b": "2"}
    assert written["kernel_dependent"] == ["a"]
    assert written["openblas_core"] == tool.openblas_core()


# The largest BLAS products of the oracle, whose blocking could follow
# OpenBLAS's thread count, and an oracle run on its own
ONE_THREAD_CASES = ("harness-grid-0.01", "oracle-linear_identity-64")
_ONE_THREAD_RUN = """
import json, sys, tempfile
from pathlib import Path
sys.path[:0] = {paths!r}
import output_digests as tool
from click.testing import CliRunner
from walras_vi.cli import main
with tempfile.TemporaryDirectory() as tmp:
    argvs = tool.cases(Path(tmp))
    digests = {{name: tool.digest(CliRunner().invoke(main, argvs[name]), Path(tmp))
               for name in {names!r}}}
print(json.dumps({{"core": tool.openblas_core(), "digests": digests}}))
"""


def test_one_blas_thread_reproduces_the_record():
    paths = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tools")]
    code = _ONE_THREAD_RUN.format(paths=paths, names=ONE_THREAD_CASES)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    run = json.loads(out.stdout.splitlines()[-1])
    record = json.loads(_tool().RECORD.read_text())
    if run["core"] != record["openblas_core"]:
        pytest.skip(f"recorded under OpenBLAS core {record['openblas_core']}, "
                    f"running under {run['core']}")
    assert run["digests"] == {name: record["digests"][name]
                              for name in ONE_THREAD_CASES}
