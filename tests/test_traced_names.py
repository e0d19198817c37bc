"""Every name the benchmark's tracer rebinds exists on the package.

perfbench/tracing.py wraps package functions by (module or class,
attribute) for the length of a traced pass.  A refactor that renames or
drops one of them breaks the traced benchmark run; this test catches it
first.
"""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    names = _tracing().traced_names()
    assert names
    for target, attr in names:
        if isinstance(target, type):
            found = target.__dict__.get(attr)
        else:
            found = getattr(target, attr, None)
        assert callable(found), "%s.%s does not resolve" % (target.__name__, attr)
