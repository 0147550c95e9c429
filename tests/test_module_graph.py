"""The package's import graph runs one way, with every import at module level,
the package exports exactly its public names, and every function the
benchmark's tracer wraps exists."""

import ast
import graphlib
import importlib
import importlib.util
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
        "from .gp_tree import eval_tree\n"
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
    # program trees are a leaf: bounding a printed vector is the kernel's job
    assert graph["gp_tree"] == set()
    # the infection models sit below both engines
    assert graph["partial_infection"] == set()
    assert graph["full_infection"] == set()


PUBLIC_NAMES = {
    "AGE_GROUPS", "AllocationPlan", "Archive", "Dataset", "DatasetFormatError",
    "EncounterGroup", "ExperimentSpec", "GpConfig", "MODEL_FULL",
    "MODEL_PARTIAL", "Person", "PnTable", "SimOutcome", "SolutionRecord",
    "Status", "VisitRequest", "analytic_pn", "build_pn_table",
    "compare", "decode", "encounter_pressure", "eval_tree", "evolve_pir",
    "fitness_value", "g_factor", "generate_dataset", "load_dataset",
    "mark_apriori_infection", "parse_dataset", "parse_priors", "round_robin",
    "run_experiment", "run_from_manifest", "run_pirs", "save_dataset",
    "serialize_dataset", "simulate", "transmit", "write_plan_csv",
}


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 39
    assert sorted(lockdownsched.__all__) == sorted(PUBLIC_NAMES)
    namespace = {}
    # a listed name that does not resolve makes the star import raise
    exec("from lockdownsched import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC_NAMES


def test_every_traced_name_resolves():
    # the tracer wraps functions by name from outside the package, so a
    # renamed function would otherwise surface only in a benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"
    spec = importlib.util.spec_from_file_location("bench_trace", path)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    missing = []
    for module_name, attr, _ in bench_trace.TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:  # a method, which the tracer reads from the class __dict__
            cls_name, meth = attr.split(".")
            found = callable(vars(getattr(owner, cls_name, object)).get(meth))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert bench_trace.TARGETS and missing == []


def test_the_week_loops_read_no_rule():
    # each context turns its model's rules into per-person values once, so
    # neither loop looks up a rule table or the isolation health cap
    loops = {"_partial_week", "_full_week"}
    found = []
    for func in ast.walk(_parse("_simcore")):
        if isinstance(func, ast.FunctionDef) and func.name in loops:
            loops.remove(func.name)
            for node in ast.walk(func):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name in {"PARTIAL_RULES", "FULL_RULES", "ISOLATION_HEALTH_CAP"}:
                    found.append(f"{func.name}:{node.lineno} reads {name}")
    assert loops == set() and found == []
