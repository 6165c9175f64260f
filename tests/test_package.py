"""Package hygiene: exports resolve, and no module imports a name it never uses
or another metalab module's private name."""

import ast
import re
from pathlib import Path

import pytest

import metalab
from metalab import harness, refdata

PACKAGE_DIR = Path(metalab.__file__).parent
MODULES = sorted(PACKAGE_DIR.rglob("*.py"))


def _module_id(path: Path) -> str:
    """`path` relative to the package ("harness.py", "refdata/__init__.py")."""
    return path.relative_to(PACKAGE_DIR).as_posix()


def _module_name(path: Path) -> str:
    """`path`'s dotted name under the package ("harness", "refdata")."""
    parts = path.relative_to(PACKAGE_DIR).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@pytest.mark.parametrize("module", [metalab, harness, refdata], ids=lambda m: m.__name__)
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


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
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


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_module_imports_no_private_name_of_another_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _private_imports(tree, _module_name(path)) == []


def test_the_private_import_scan_sees_one():
    tree = ast.parse("from metalab.nets import forward, _layers\n"
                     "from metalab.learners import _train\nfrom os import _exit\n")
    assert _private_imports(tree, "learners") == ["metalab.nets._layers (line 1)"]


def _segment_name_builds(tree: ast.Module) -> list[str]:
    """f-strings that build a parameter segment name, `W{...}` or `b{...}`.

    Only `nets` knows how the layout names its segments; any other module
    reads them through `nets`' functions.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            for part, nxt in zip(node.values, node.values[1:]):
                if (isinstance(part, ast.Constant) and isinstance(nxt, ast.FormattedValue)
                        and re.search(r"(?<![\w])[Wb]$", part.value)):
                    found.append((node.lineno, ast.unparse(node)))
    return [f"{text} (line {line})" for line, text in sorted(found)]


@pytest.mark.parametrize("path", [p for p in MODULES if _module_name(p) != "nets"],
                         ids=_module_id)
def test_only_nets_builds_parameter_segment_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _segment_name_builds(tree) == []


def test_the_segment_name_scan_sees_one():
    tree = ast.parse('w = segs[f"W{i}"]\nb = f"b{i - 1}"\nok = f"sub{i}", f"{n}b", f"W"\n')
    assert _segment_name_builds(tree) == ["f'W{i}' (line 1)", "f'b{i - 1}' (line 2)"]
