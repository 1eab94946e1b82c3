"""The benchmark tracer's bindings resolve against the package.

`perfbench/tracer.py` wraps each function at the module attribute its
callers look up.  A refactor that drops one of those imports breaks the
traced benchmark; this test catches it without running the benchmark.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_bindings_resolve():
    tracer = load_tracer()
    assert tracer.BINDINGS
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _span, _observer in tracer.BINDINGS
        if not callable(getattr(module, attr, None))
    ]
    assert not missing, f"tracer bindings that no longer resolve: {missing}"


def test_package_imports_are_used():
    """Each name a package module imports is used there, or is a module
    binding the tracer wraps; a deletion that strands an import fails here."""
    bound = {
        (module.__name__.rsplit(".", 1)[-1], attr)
        for module, attr, _span, _observer in load_tracer().BINDINGS
    }
    unused = []
    for path in sorted((ROOT / "src" / "graphexplore").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and (path.stem, name) not in bound:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"imported but never used: {unused}"


def test_package_functions_read_their_locals():
    """Each name a package function binds is read somewhere in it, nested
    functions included; a deletion that strands a local fails here.
    Parameters, `_`-prefixed names and nonlocal or global names are exempt."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef)
    stranded = []
    for path in sorted((ROOT / "src" / "graphexplore").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, scopes):
                continue
            read, bound, exempt = set(), {}, set()
            for node in ast.walk(func):
                if isinstance(node, (ast.Nonlocal, ast.Global)):
                    exempt.update(node.names)
                elif isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Load):
                        read.add(node.id)
                    elif isinstance(node.ctx, ast.Store):
                        bound.setdefault(node.id, node.lineno)
                elif isinstance(node, ast.ExceptHandler) and node.name:
                    bound.setdefault(node.name, node.lineno)
                elif node is not func and isinstance(node, (*scopes, ast.ClassDef)):
                    bound.setdefault(node.name, node.lineno)
            stranded += [
                f"{path.name}:{line} {func.name}: {name}"
                for name, line in bound.items()
                if not name.startswith("_") and name not in read and name not in exempt
            ]
    assert not stranded, f"bound but never read: {stranded}"
