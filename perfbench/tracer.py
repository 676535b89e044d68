"""Traced job: the real command, with a span around each call into a layer.

Usage: python3 tracer.py ARGV_JSON TRACE_OUT SPAWNED_AT JOB_ID

ARGV_JSON is the job's interpreter arguments as the untraced run passes them:
``["-m", "trigvee.cli", ...]`` or ``["<dir>/assoc_job.py", ...]``.  The
tracer wraps the layers' public functions in the modules that call them (see
``WRAPS``), then calls ``trigvee.cli.main`` or ``assoc_job.main`` with the
job's own arguments.  The spans therefore time the program's own call tree.
Each span records name, start, end, parent span, job id and whether the call
raised.  Spans, counters and gauges stay in memory and are written to
TRACE_OUT as JSON at the end.  The job's output goes to stdout as the command
prints it, so the caller can compare the two byte for byte.

Runs in a fresh interpreter like the untraced job, so module caches start
empty; the tracer checks that and records it as ``cache_entries_at_start``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
import traceback

LOOKUP_REPEATS = 101


class Tracer:
    def __init__(self, job: str, spawned_at: float):
        self.job = job
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.duals_cfg = None  # the first configuration ``duals`` was called on
        self.root = self.open("job", spawned_at)

    def open(self, name: str, start: float) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "job": self.job,
            "parent": self.stack[-1] if self.stack else None,
            "start": start,
            "end": None,
            "raised": False,
        }
        self.spans.append(rec)
        self.stack.append(rec["id"])
        return rec

    def close(self, rec: dict) -> None:
        rec["end"] = time.monotonic()
        self.stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


# --- counters: called with the tracer, the call's arguments and its result ---


def _series(tr, args, result):
    tr.count("series.series", len(result))


def _residuals(tr, args, result):
    tr.count("veesystem.nonzero_residuals", sum(r.residual != 0 for r in result))


def _duals(tr, args, result):
    if tr.duals_cfg is None:
        tr.duals_cfg = args[0]


def _children(tr, args, result):
    tr.count("restriction.children")


def _flats(tr, args, result):
    tr.count("catalog.flats", sum(fc.class_size for fc in result))
    tr.count("catalog.flat_classes", len(result))


def _entries(tr, args, result):
    tr.count("catalog.entries", len(result.entries))


def _points(tr, args, result):
    tr.count("wdvv.points", len(result))


def _products(tr, args, result):
    tr.count("wdvv.product_calls")


# (module, attribute, span name or None for a counter only, counter or None).
# A function imported into several modules is wrapped where each one calls
# it; the function objects the modules import from stay unwrapped.
WRAPS = (
    ("trigvee.cli", "from_json_dict", "configuration.from_json", None),
    ("trigvee.configuration", "from_json_dict", "configuration.from_json", None),  # assoc_job
    ("trigvee.cli", "generate", "families.generate", None),
    ("trigvee.cli", "_emit", "cli.emit", None),
    ("trigvee.configuration", "invert", "exactla.invert", None),
    ("trigvee.veesystem", "duals", "configuration.duals", _duals),
    ("trigvee.catalog", "duals", "configuration.duals", _duals),
    ("trigvee.gamma", "duals", "configuration.duals", _duals),
    ("trigvee.wdvv", "duals", "configuration.duals", _duals),
    ("trigvee.veesystem", "series_with_signs", "series.series_with_signs", _series),
    ("trigvee.veesystem", "vee_residuals", "veesystem.vee_residuals", _residuals),
    ("trigvee.catalog", "vee_residuals", "veesystem.vee_residuals", _residuals),
    ("trigvee.veesystem", "g1", "veesystem.g1", None),
    ("trigvee.veesystem", "g2", "veesystem.g2", None),
    ("trigvee.veesystem", "lambda_sq", "veesystem.lambda_sq", None),
    ("trigvee.catalog", "lambda_sq", "veesystem.lambda_sq", None),
    ("trigvee.gamma", "lambda_sq", "veesystem.lambda_sq", None),
    ("trigvee.cli", "lambda_sq", "veesystem.lambda_sq", None),
    ("trigvee.veesystem", "c_delta_zero_warnings", "veesystem.c_delta_zero_warnings", None),
    ("trigvee.veesystem", "g2_positive_flip_invariant",
     "veesystem.g2_positive_flip_invariant", None),
    ("trigvee.cli", "vee_check", "veesystem.vee_check", None),
    ("trigvee.cli", "gamma_tilde_sq", "gamma.closed_forms", None),
    ("trigvee.cli", "gamma_tilde_sq_dual", "gamma.closed_forms", None),
    ("trigvee.cli", "gamma_sq_direct", "gamma.gamma_sq_direct", None),
    ("trigvee.cli", "build_catalog", "catalog.build_catalog", _entries),
    ("trigvee.catalog", "enumerate_flat_classes", "catalog.enumerate_flat_classes", _flats),
    ("trigvee.catalog", "canonical_digest", "catalog.canonical_digest", None),
    ("trigvee.catalog", "subsystem", "veesystem.subsystem", None),
    ("trigvee.catalog", "restrict", "restriction.restrict", _children),
    ("trigvee.wdvv", "sample_points", "wdvv.sample_points", _points),
    ("trigvee.wdvv", "wdvv_residual", "wdvv.wdvv_residual", None),
    ("trigvee.wdvv", "associativity_residual", "wdvv.associativity_residual", None),
    # thousands of calls per job: counted, its time stays in its caller's span
    ("trigvee.wdvv", "product", None, _products),
)


def wrap(tr: Tracer, fn, name: str | None, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if name is None:
            result = fn(*args, **kwargs)
        else:
            rec = tr.open(name, time.monotonic())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec["raised"] = True
                raise
            finally:
                tr.close(rec)
        if counter is not None:
            counter(tr, args, result)
        return result

    return traced


def install(tr: Tracer) -> None:
    for module, attr, name, counter in WRAPS:
        mod = importlib.import_module(module)
        setattr(mod, attr, wrap(tr, getattr(mod, attr), name, counter))


def lru_caches() -> list:
    """Every ``lru_cache`` in the loaded trigvee modules."""
    found: dict[int, object] = {}
    for name, mod in list(sys.modules.items()):
        if name == "trigvee" or name.startswith("trigvee."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_info", None)):
                    found[id(obj)] = obj
    return list(found.values())


def cache_entries(caches: list) -> int:
    return sum(fn.cache_info().currsize for fn in caches)


def lookup_gauges(tr: Tracer) -> None:
    """The job's first ``duals`` call against the median of repeat calls."""
    from trigvee.configuration import duals

    first = next(s for s in tr.spans if s["name"] == "configuration.duals")
    tr.gauges["configuration.first_call_us"] = (first["end"] - first["start"]) * 1e6
    times = []
    for _ in range(LOOKUP_REPEATS):
        t0 = time.perf_counter()
        duals(tr.duals_cfg)
        times.append(time.perf_counter() - t0)
    tr.gauges["configuration.cached_lookup_us"] = statistics.median(times) * 1e6


def run_job(argv: list[str]) -> int:
    if argv[:2] == ["-m", "trigvee.cli"]:
        import trigvee.cli

        return trigvee.cli.main(argv[2:])
    if os.path.basename(argv[0]) == "assoc_job.py":
        import assoc_job

        return assoc_job.main(argv[1:])
    raise ValueError("cannot trace the job %r" % argv)


def main(argv: list[str]) -> int:
    job_argv = json.loads(argv[0])
    out_path, spawned_at, job_id = argv[1], float(argv[2]), argv[3]
    tr = Tracer(job_id, spawned_at)
    rec = tr.open("cli.startup", spawned_at)
    import trigvee.cli  # noqa: F401 - the CLI's imports load every layer
    tr.close(rec)
    caches = lru_caches()
    result = {"job": job_id, "cache_entries_at_start": cache_entries(caches), "error": None}
    install(tr)
    try:
        result["exit_code"] = run_job(job_argv)
    except (Exception, SystemExit):  # noqa: BLE001 - reported to the caller as a failed job
        result["exit_code"] = None
        result["error"] = traceback.format_exc()
    sys.stdout.flush()
    tr.root["end"] = time.monotonic()
    result["cache_entries_at_end"] = cache_entries(caches)
    if job_id.endswith(":E8") and tr.duals_cfg is not None:
        lookup_gauges(tr)
    result.update(spans=tr.spans, counts=tr.counts, gauges=tr.gauges)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0 if result["error"] is None else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
