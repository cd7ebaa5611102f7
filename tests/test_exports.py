import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import pytest

import ordquant

MODULES = ["ordquant"] + [f"ordquant.{m.name}" for m in pkgutil.iter_modules(ordquant.__path__)]

PACKAGE_FILES = sorted(Path(ordquant.__file__).parent.glob("*.py"))
BENCHMARK_FILES = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
# The program files whose code counts as a caller of a public name: the
# package's modules and the benchmark's scripts, not the tests.
CALLER_FILES = PACKAGE_FILES + BENCHMARK_FILES


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


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda path: path.stem)
def test_every_definition_has_a_reader(path):
    used = referenced_names()
    orphans = [name for name in module_definitions(path) if name not in used]
    assert not orphans, f"{path.name} defines names that no program file reads: {orphans}"


def test_no_two_modules_define_one_name():
    # The reader check above matches bare names, so a read of one module's
    # name would hide an orphan of the same name in another.
    owners = {}
    for path in PACKAGE_FILES:
        for name in set(module_definitions(path)):
            owners.setdefault(name, []).append(path.stem)
    shared = {name: stems for name, stems in owners.items() if len(stems) > 1}
    assert not shared, f"names defined by more than one module: {shared}"


# The CSV reader's parts, which only ``data`` may import.
READER_PARTS = {"csv", "_record_chunks", "_convert", "_fit_intp", "_line_of"}


@pytest.mark.parametrize("path", [p for p in PACKAGE_FILES if p.stem != "data"], ids=lambda path: path.stem)
def test_only_data_reads_csv(path):
    imported = {alias.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not imported & READER_PARTS, f"{path.name} imports CSV reader parts {sorted(imported & READER_PARTS)}"


@pytest.mark.parametrize("path", BENCHMARK_FILES, ids=lambda path: path.stem)
def test_every_benchmark_import_resolves(path):
    failures = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "ordquant":
            try:  # the statement itself, so a submodule imports as it does in the script
                exec(compile(ast.Module(body=[node], type_ignores=[]), str(path), "exec"), {})
            except ImportError as exc:
                failures.append(f"line {node.lineno}: {exc}")
    assert not failures, f"{path.name} imports names ordquant does not define: {failures}"


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


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda path: path.stem)
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


# The modules whose Gibbs blocks have one body, for a batch of chains, and
# the functions of them that may read how many chains a state holds: the
# entry shim, which views one chain's state as a K = 1 batch; the per-chain
# helpers, which take a K = 1 batch without their loop or stacking over
# chains (each chain's draws, inner products and x beta) or answer whether
# a state is one chunked chain; ``stack_specs``, which gives one spec the
# K = 1 batch that copies no index array; and the retry of a failed batch
# one chain at a time.
ONE_BODY_FILES = ("gibbs", "model", "distributions")
READS_CHAIN_COUNT = {"takes_one_chain", "_stacked", "_dots", "linear_predictor", "chunked", "stack_specs",
                     "sample_batch"}


def chain_count_tests(node: ast.AST) -> list[str]:
    """The tests of the chain count under ``node``: reads of ``.ndim``, and
    comparisons of a ``len(...)`` with 1 or of a ``.size`` with anything."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "ndim":
            found.append(f"line {sub.lineno}: .ndim")
        elif isinstance(sub, ast.Compare):
            operands = [sub.left, *sub.comparators]
            lengths = [o for o in operands if isinstance(o, ast.Call) and isinstance(o.func, ast.Name)
                       and o.func.id == "len"]
            ones = [o for o in operands if isinstance(o, ast.Constant) and o.value == 1]
            sizes = [o for o in operands if isinstance(o, ast.Attribute) and o.attr == "size"]
            if (lengths and ones) or sizes:
                found.append(f"line {sub.lineno}: {ast.unparse(sub)}")
    return found


@pytest.mark.parametrize("stem", ONE_BODY_FILES)
def test_the_chain_count_is_read_in_one_place(stem):
    path = Path(ordquant.__file__).parent / f"{stem}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = []
    for node in tree.body:
        if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in READS_CHAIN_COUNT):
            found += chain_count_tests(node)
    assert not found, f"{path.name} tests the chain count outside {sorted(READS_CHAIN_COUNT)}: {found}"
