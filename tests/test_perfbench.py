"""The benchmark tracer's bindings resolve against the package.

`perfbench/tracer.py` wraps each function at the module attribute its
callers look up.  A refactor that drops one of those imports breaks the
traced benchmark; this test catches it without running the benchmark.
"""

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
