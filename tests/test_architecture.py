"""Import boundaries between the packages under ``src/repro``.

Every module is parsed with :mod:`ast`, never imported, so a boundary
violation fails here even in a module no other test loads.
"""

import ast
import importlib
import pathlib

import pytest

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _package(module: list) -> str:
    """The top-level package under ``repro`` a dotted module path lies
    in, or ``""`` for a module directly under ``repro``."""
    if len(module) > 1 and (SOURCE / module[1]).is_dir():
        return module[1]
    return ""


def _imports():
    """``(path, lineno, importer package, imported module, names)`` for
    every import in the source tree; ``names`` is empty for a plain
    ``import``."""
    for path in sorted(SOURCE.rglob("*.py")):
        module = list(path.relative_to(SOURCE.parent).with_suffix("").parts)
        container = module[:-1]
        if module[-1] == "__init__":
            module.pop()
            container = module
        package = _package(module)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield path, node.lineno, package, alias.name.split("."), []
            elif isinstance(node, ast.ImportFrom):
                target = node.module.split(".") if node.module else []
                if node.level:
                    base = container[: len(container) - node.level + 1]
                    target = base + target
                names = [alias.name for alias in node.names]
                yield path, node.lineno, package, target, names


def _where(path, lineno) -> str:
    return f"{path.relative_to(SOURCE.parent)}:{lineno}"


def test_no_private_name_crosses_a_package_boundary():
    crossings = [
        f"{_where(path, lineno)} imports {'.'.join(target)}.{name}"
        for path, lineno, package, target, names in _imports()
        if target[0] == "repro" and _package(target) != package
        for name in names
        if name.startswith("_")
    ]
    assert crossings == []


def test_lint_never_imports_the_optimizer():
    offenders = [
        _where(path, lineno)
        for path, lineno, package, target, _ in _imports()
        if package == "lint" and target[:2] == ["repro", "opt"]
    ]
    assert offenders == []


def test_the_advisory_optimizer_package_is_gone():
    # repro.opt is the one optimizer package; its advisory twin is gone.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(".optimize", package="repro")


#: The modules an abstract call runs through: abstraction, lookup,
#: updateET, abstract unification and builtins, and the type lattice.
HOT_MODULES = (
    "analysis/aheap.py",
    "analysis/aunify.py",
    "analysis/builtins.py",
    "analysis/machine.py",
    "analysis/patterns.py",
    "analysis/table.py",
    "domain/lattice.py",
)


def test_no_import_inside_a_function_on_the_abstract_call_path():
    # A function-local import runs importlib's lookup on every call; in
    # these modules that is every abstract call.
    offenders = {}
    for name in HOT_MODULES:
        path = SOURCE / name
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk is breadth-first, so the innermost function names an
        # import last.
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        offenders[_where(path, node.lineno)] = function.name
    assert offenders == {}
