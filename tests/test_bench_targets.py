"""The benchmark's tracer wraps package functions by name; each must still exist.

A name the package loses makes every traced benchmark operation fail, so
this resolves every target here first, without patching anything.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for span_name, module_name, path, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        *classes, name = path.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name)
        # the tracer patches a method on the class that defines it
        assert name in vars(owner), f"{span_name}: {module_name}.{path} is gone"
    formulas = importlib.import_module(tracer.FORMULAS_MODULE)
    assert any(not n.startswith("_") and callable(f) for n, f in vars(formulas).items())
