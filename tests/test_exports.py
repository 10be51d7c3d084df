"""Every name a module exports exists, and README's import example runs."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import prefnet

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ["prefnet"] + [f"prefnet.{m.name}" for m in pkgutil.iter_modules(prefnet.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    names = getattr(importlib.import_module(module), "__all__", [])
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert [name for name in names if name not in namespace] == []


def test_readme_import_block_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^from prefnet import \(\n.*?^\)$", text, re.M | re.S)
    assert block is not None
    exec(block.group(), {})
