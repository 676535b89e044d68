"""The traced benchmark run can wrap every layer function it names.

perfbench/tracer.py wraps ``(module, attribute)`` pairs where the program
calls them.  A refactor that drops such an import would break ``--trace 1``
only when the benchmark runs; this test catches it with the unit tests.
"""

import importlib
import importlib.util
import os

_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def test_tracer_wraps_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPS
    for module, attr, _, _ in tracer.WRAPS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
