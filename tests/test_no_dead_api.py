"""``src/prefnet`` holds no public name that only the tests use.

Every public module-level function and class must be used by some
``src/prefnet`` module other than ``__init__.py`` (as a name, an attribute
or an imported name, not in a docstring), or be named in README.md or in a
``bench/*.py`` file.  A name the tests alone need belongs in ``tests/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prefnet"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}


def _public_definitions() -> list[tuple[str, str]]:
    return [
        (module, node.name)
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _used_in_src() -> set[str]:
    used = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def _named_in(text: str, name: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


def test_every_public_name_has_a_caller_outside_tests():
    used = _used_in_src()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    bench = "\n".join(p.read_text(encoding="utf-8") for p in (ROOT / "bench").glob("*.py"))
    dead = [
        f"{module}.{name}"
        for module, name in _public_definitions()
        if name not in used and not _named_in(readme, name) and not _named_in(bench, name)
    ]
    assert dead == []


def test_probability_imports_no_model_layer():
    imported = set()
    for node in ast.walk(TREES["probability"]):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported & {".mlp", ".preferences", ".kb", "prefnet.mlp", "prefnet.preferences", "prefnet.kb"} == set()
