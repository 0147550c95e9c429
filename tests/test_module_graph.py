"""The package's import graph runs one way, with every import at module level."""

import ast
import graphlib
from pathlib import Path

import lockdownsched

PACKAGE = Path(lockdownsched.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _parse(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(), filename=f"{module}.py")


def _package_imports(tree):
    """(import node, package module it imports) for every import of a
    lockdownsched module in tree, relative or absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name.removeprefix("lockdownsched.")
                if alias.name.startswith("lockdownsched.") and name in MODULES:
                    yield node, name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "lockdownsched" and not module.startswith("lockdownsched."):
                    continue
                module = module.removeprefix("lockdownsched").lstrip(".")
            if module:
                yield node, module.split(".")[0]
            else:  # from . import a, b
                for alias in node.names:
                    if alias.name in MODULES:
                        yield node, alias.name


def _graph():
    return {
        module: {dep for _, dep in _package_imports(_parse(module)) if dep != module}
        for module in MODULES
    }


def test_the_parser_sees_every_import_form():
    source = (
        "import lockdownsched.dataset\n"
        "from lockdownsched.cli import main\n"
        "from . import simulator, __version__\n"
        "from .gp_tree import GpNode\n"
        "import numpy\n"
        "from numpy import ndarray\n"
    )
    found = sorted(dep for _, dep in _package_imports(ast.parse(source)))
    assert found == ["cli", "dataset", "gp_tree", "simulator"]


def test_no_package_import_inside_a_function():
    inside = []
    for module in sorted(MODULES):
        for func in ast.walk(_parse(module)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node, dep in _package_imports(func):
                    inside.append(f"{module}.py:{node.lineno} imports {dep}")
    assert inside == []


def test_the_module_graph_is_acyclic():
    order = list(graphlib.TopologicalSorter(_graph()).static_order())
    assert set(order) == MODULES


def test_the_kernel_imports_nothing_above_it():
    graph = _graph()
    assert graph["_simcore"] == {"dataset", "partial_infection", "full_infection"}
    assert not graph["gp_tree"] & {"simulator", "allocation"}
    # the infection models sit below both engines
    assert graph["partial_infection"] == set()
    assert graph["full_infection"] == set()
