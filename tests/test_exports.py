import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import pytest

import ordquant

MODULES = ["ordquant"] + [f"ordquant.{m.name}" for m in pkgutil.iter_modules(ordquant.__path__)]

# The program files whose code counts as a caller of a public name: the
# package's modules and the benchmark's scripts, not the tests.
CALLER_FILES = sorted(Path(ordquant.__file__).parent.glob("*.py")) + sorted(
    (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


@functools.cache
def referenced_names() -> set[str]:
    """Every name the caller files read, as a bare name or an attribute.

    Definitions, imports (so ``__init__`` re-exports) and the strings of
    ``__all__`` lists are not reads, so they do not count."""
    names = set()
    for path in CALLER_FILES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_has_a_caller(module):
    used = referenced_names()
    uncalled = [name for name in getattr(importlib.import_module(module), "__all__", []) if name not in used]
    assert not uncalled, f"{module} exports names that only tests call: {uncalled}"


def module_definitions(path: Path) -> list[str]:
    """The names a module's top-level statements define: its functions,
    classes and assigned names, dunder names aside."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


@pytest.mark.parametrize("path", sorted(Path(ordquant.__file__).parent.glob("*.py")), ids=lambda path: path.stem)
def test_every_definition_has_a_reader(path):
    used = referenced_names()
    orphans = [name for name in module_definitions(path) if name not in used]
    assert not orphans, f"{path.name} defines names that no program file reads: {orphans}"
