"""Package hygiene: exports resolve, and no module imports a name it never uses
or another metalab module's private name."""

import ast
from pathlib import Path

import pytest

import metalab
from metalab import harness

PACKAGE_DIR = Path(metalab.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


@pytest.mark.parametrize("module", [metalab, harness], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.{name}"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name listed in the module's `__all__` counts as read, since the
    package re-exports what it imports.
    """
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_unused_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_the_unused_import_scan_sees_one():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(pi)\n")
    assert _unused_imports(tree) == ["os (line 1)", "tau (line 2)"]


def _private_imports(tree: ast.Module, module: str) -> list[str]:
    """`from metalab.<other> import _name` statements: another module's private names.

    `module` is the scanned module's own name, whose private names it may import.
    """
    return sorted(f"{node.module}.{alias.name} (line {node.lineno})"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module
                  and node.module.startswith("metalab.") and node.module != f"metalab.{module}"
                  for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_name_of_another_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _private_imports(tree, path.stem) == []


def test_the_private_import_scan_sees_one():
    tree = ast.parse("from metalab.nets import forward, _layers\n"
                     "from metalab.learners import _train\nfrom os import _exit\n")
    assert _private_imports(tree, "learners") == ["metalab.nets._layers (line 1)"]
