"""Every exported name resolves, so a deletion that forgets an export fails,
and the README's library example runs as printed."""

import importlib
import re
from pathlib import Path

import pytest
from numpy.testing import assert_allclose

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "walras_vi"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_package_imports():
    assert importlib.import_module("walras_vi").__version__


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"walras_vi.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_readme_library_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                        re.S)
    assert len(blocks) == 1
    scope: dict = {}
    exec(blocks[0], scope)
    assert scope["result"].status == "converged"
    assert_allclose(scope["result"].solution, [1.0, 0.5], atol=1e-7)
    assert scope["report"].class_checked == "proper_quasi"
