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


# Defaulted parameters that no program call has to pass: ``cli.main`` reads
# ``sys.argv`` when it is called without arguments, as the console script does.
UNPASSED_BY_DESIGN = {("main", "argv")}


@functools.cache
def program_calls() -> dict[str, list[ast.Call]]:
    """The calls in the caller files, by the called function's bare or attribute name."""
    calls = {}
    for path in CALLER_FILES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    return calls


def passes(call: ast.Call, index, name: str, bound: bool) -> bool:
    """Whether ``call`` passes the parameter ``name``, at ``index`` among the
    positional parameters (None for a keyword-only one); a method call's
    receiver fills ``self`` when ``bound``.  A starred argument may pass any."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) + bound > index


@pytest.mark.parametrize("path", sorted(Path(ordquant.__file__).parent.glob("*.py")), ids=lambda path: path.stem)
def test_every_defaulted_parameter_is_passed(path):
    unpassed = []
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for parent in ast.walk(tree):
        for func in ast.iter_child_nodes(parent):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = func.args
            positional = args.posonlyargs + args.args
            defaulted = [(i, p.arg) for i, p in enumerate(positional) if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            bound = isinstance(parent, ast.ClassDef) and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list)
            unpassed += [f"{func.name}({name}=)" for index, name in defaulted
                         if (func.name, name) not in UNPASSED_BY_DESIGN
                         and not any(passes(call, index, name, bound) for call in program_calls().get(func.name, []))]
    assert not unpassed, f"{path.name} has defaulted parameters that no program call passes: {unpassed}"
