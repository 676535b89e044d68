"""The benchmark tooling stays consistent with the program and its spec.

perfbench/tracer.py wraps ``(module, attribute)`` pairs where the program
calls them.  A refactor that drops such an import would break ``--trace 1``
only when the benchmark runs; the first test catches it with the unit tests.
The committed benchmark records (``BENCH_*.json`` at the root) must name
only workloads and metrics that ``BENCHMARK.json`` declares.
"""

import glob
import importlib
import importlib.util
import json
import os

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_TRACER = os.path.join(_ROOT, "perfbench", "tracer.py")


def test_tracer_wraps_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPS
    for module, attr, _, _ in tracer.WRAPS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_bench_records_name_declared_workloads_and_metrics():
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    records = glob.glob(os.path.join(_ROOT, "BENCH_*.json"))
    assert records
    for path in records:
        with open(path) as fh:
            record = json.load(fh)
        claim = record["claim"]
        assert claim["workload"] in workloads and claim["metric"] in end_to_end, path
        assert any(runs["workload"] == claim["workload"] for runs in record["runs"]), path
        for runs in record["runs"]:
            name = runs["workload"]
            assert name in workloads, (path, name)
            assert isinstance(runs["seed"], int), (path, name)
            assert len(runs["parent"]) == len(runs["change"]) == runs["pairs"] > 0, (path, name)
            for summary in runs["parent"] + runs["change"]:
                assert set(summary["metrics"]) <= end_to_end, (path, name)
