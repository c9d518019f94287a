"""Every name a package or test module imports is used in that module,
every name the package exports exists, and malformed input is mapped to the
error taxonomy only at the package's error boundaries.

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


# what core.parsing and bench._section map, with their bases, and the
# decode error of bytes that are not UTF-8; a bare except counts too
MAPPED = {"KeyError", "TypeError", "ValueError", "AttributeError",
          "OverflowError", "LookupError", "ArithmeticError", "Exception",
          "BaseException", "UnicodeDecodeError", "UnicodeError"}

# the two boundaries, plus handlers around one call whose failure they name
# exactly: bytes that are not UTF-8, text that is no JSON, a number too
# large for a float, an unreadable sidecar, a trace line that is no number,
# and an array too large to allocate
BOUNDARIES = {"core.parsing", "bench._section", "core.read_text",
              "core.loads_obj", "core._config_float",
              "core._read_sidecar", "predictor.load_trace",
              "bench.train_predictors", "synth._generate"}


def mapping_handlers(path):
    """The qualified name, ``module.[class.]function``, of the function
    around each ``except`` clause in ``path`` that catches one of MAPPED and
    raises ParseError or ConfigError."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.ExceptHandler):
            caught = {n.id for n in ast.walk(node.type) if isinstance(
                n, ast.Name)} if node.type is not None else {"BaseException"}
            raised = {r.exc.func.id for r in ast.walk(node)
                      if isinstance(r, ast.Raise)
                      and isinstance(r.exc, ast.Call)
                      and isinstance(r.exc.func, ast.Name)}
            if caught & MAPPED and raised & {"ParseError", "ConfigError"}:
                found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_input_errors_are_mapped_only_at_the_boundaries():
    found = set().union(*map(mapping_handlers, MODULES))
    # an entry that no longer matches is removed, so the list stays exact
    assert found == BOUNDARIES
