"""Byte identity as a gate: the fixed matrix of CLI runs in
``tools/output_digests.py`` must reproduce the digests committed in
``tools/output_digests.json``.

BLAS kernels round differently, so the digests hold only under the
OpenBLAS core they were recorded under; under another core the test skips
and names both.  A change that moves output on purpose re-records the file
with ``python tools/output_digests.py --record``.
"""

import importlib.util
import json
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
    core = tool.openblas_core()
    if core != record["openblas_core"]:
        pytest.skip(f"digests recorded under OpenBLAS core "
                    f"{record['openblas_core']}; this run has {core}")
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # the workload inputs
    assert tool.compare(record["digests"], tool.run_all()) == []
