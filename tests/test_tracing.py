"""The benchmark's tracer wraps library names that exist.

perfbench/tracing.py times the layers by replacing module attributes of
the library; a name dropped or renamed in src/ makes its install fail.
This reads the tracer and changes nothing in perfbench.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = list(tracer._restore)
        assert wrapped
        for module, attr, orig in wrapped:
            assert callable(orig) and getattr(module, attr) is not orig, attr
    finally:
        tracer.uninstall()
    for module, attr, orig in wrapped:
        assert getattr(module, attr) is orig, attr
