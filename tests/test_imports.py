"""Every name a package or test module imports is used in that module, and
every name the package exports exists.

No linter ships with the package's toolchain, so this walks the syntax tree
with ``ast``. A package ``__init__`` uses a name by listing it in
``__all__``.
"""

import ast
from pathlib import Path

import pytest

import mvprune

MODULES = sorted(Path(mvprune.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize(
    "path", MODULES + TESTS,
    ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TESTS])
def test_module_uses_every_import(path):
    assert unused_imports(path) == []


def test_every_export_resolves():
    missing = []
    for name in mvprune.__all__:
        try:
            getattr(mvprune, name)
        except AttributeError:
            missing.append(name)
    assert missing == []
