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
import sys
from pathlib import Path

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
    record.write_text(json.dumps({"digests": {"a": "0"}, "kernel_dependent": ["a"],
                                  "openblas_core": "Katmai"}))
    monkeypatch.setattr(tool, "RECORD", record)
    monkeypatch.setattr(tool, "run_all", lambda: {"a": "1", "b": "2"})
    monkeypatch.setattr(sys, "path", list(sys.path))      # main prepends src
    assert tool.main(["--record"]) == 0
    written = json.loads(record.read_text())
    assert written["digests"] == {"a": "1", "b": "2"}
    assert written["kernel_dependent"] == ["a"]
    assert written["openblas_core"] == tool.openblas_core()
