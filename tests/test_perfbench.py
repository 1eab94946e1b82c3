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
