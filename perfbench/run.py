#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the trigvee command-line tool.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload check|wdvv|catalog|all \
        --seed N --seconds S --trace 0|1

Untraced (``--trace 0``): a closed loop with one client.  The workload's
job list runs one job at a time, each job in a fresh interpreter, in passes
for as long as another pass fits in S seconds (at least one pass).  Every
job's output is checked against the output recorded from the seed commit
(``expected.json``).  The end-to-end metrics are medians over the passes;
``slowest_job_s`` also counts the repeats of the slowest job that fill what
is left of S after the last pass.

Traced (``--trace 1``): each job runs twice, once as the real command (the
base of the tracing overhead) and once through ``tracer.py``, which runs the
same command with a span around each call into a layer.  The two outputs
must agree (the differential self-check).  Per-layer metrics are the
layers' self times and counters over the whole job list.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
report (environment, seed, per-job figures).  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_REPEATS = 15
BUDGET_S = 165.0  # every run must end well inside 180 s
JOB_TIMEOUT_S = 150.0

sys.path.insert(0, SRC)
import workloads  # noqa: E402 - needs SRC on the path for the closed forms

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}  # bounded
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# Printed and kept in the report but not bounded: a bounded metric must never
# be 0, and fail_ratio is 0 when all is well.
UNBOUNDED = {"fail_ratio": "ratio"}

# Where each per-layer metric comes from.  "span:NAME" sums the self time of
# that span over the job list, "count:NAME" sums a counter, "gauge:NAME"
# reads a gauge of the workload's E8 job, "derived" is computed in
# layer_metrics.  README.md maps each one to the end-to-end metric it should
# move.
SOURCES = {
    "cli.startup_s": "span:cli.startup",
    "configuration.from_json_s": "span:configuration.from_json",
    "families.generate_s": "span:families.generate",
    "cli.emit_s": "span:cli.emit",
    "configuration.duals_s": "span:configuration.duals",
    "exactla.invert_s": "span:exactla.invert",
    "configuration.first_call_us": "gauge:configuration.first_call_us",
    "configuration.cached_lookup_us": "gauge:configuration.cached_lookup_us",
    "series.series_with_signs_s": "span:series.series_with_signs",
    "series.series": "count:series.series",
    "veesystem.vee_residuals_s": "span:veesystem.vee_residuals",
    "veesystem.nonzero_residuals": "count:veesystem.nonzero_residuals",
    "veesystem.g1_s": "span:veesystem.g1",
    "veesystem.g2_s": "span:veesystem.g2",
    "veesystem.lambda_sq_s": "span:veesystem.lambda_sq",
    "veesystem.c_delta_zero_warnings_s": "span:veesystem.c_delta_zero_warnings",
    "veesystem.g2_positive_flip_invariant_s": "span:veesystem.g2_positive_flip_invariant",
    "gamma.gamma_sq_direct_s": "span:gamma.gamma_sq_direct",
    "gamma.closed_forms_s": "span:gamma.closed_forms",
    "veesystem.subsystem_s": "span:veesystem.subsystem",
    "restriction.restrict_s": "span:restriction.restrict",
    "restriction.children": "count:restriction.children",
    "catalog.enumerate_flat_classes_s": "span:catalog.enumerate_flat_classes",
    "catalog.flats": "count:catalog.flats",
    "catalog.flat_classes": "count:catalog.flat_classes",
    "catalog.classes_per_flat": "derived",
    "catalog.entries_per_class": "derived",
    "catalog.canonical_digest_s": "span:catalog.canonical_digest",
    "catalog.entries": "count:catalog.entries",
    "wdvv.sample_points_s": "span:wdvv.sample_points",
    "wdvv.wdvv_residual_s": "span:wdvv.wdvv_residual",
    "wdvv.associativity_residual_s": "span:wdvv.associativity_residual",
    "wdvv.points": "count:wdvv.points",
    "wdvv.product_calls": "count:wdvv.product_calls",
    "trace.overhead": "derived",
    "trace.base_s": "derived",
}


# --- processes -----------------------------------------------------------------


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    timed_out: bool


class Runner:
    """Runs interpreters one at a time through ``launcher.py``, within a time budget.

    Jobs are killed rather than allowed to overrun the budget.
    """

    def __init__(self, budget: float = BUDGET_S):
        self.start = time.perf_counter()
        self.budget = budget
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
        )

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def run(self, argv: list[str], out_path: str) -> Proc:
        """Run ``python3 ARGV`` to completion, stdout to out_path."""
        timeout = min(JOB_TIMEOUT_S, self.budget - self.elapsed())
        request = {"argv": [sys.executable, *argv], "out": out_path, "timeout": timeout}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher exited")
        return Proc(**json.loads(reply))


def read_text(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def stderr_tail(path: str) -> str:
    lines = read_text(path + ".err").strip().splitlines()
    return " | ".join(lines[-3:])


def warm_up(runner: Runner) -> None:
    """Import the program once untimed, so byte-code caches exist before timing."""
    runner.run(["-c", "import trigvee.cli"], os.path.join(WORK, "warmup.out"))


def job_error(job: workloads.Job, proc: Proc, out_path: str, expected: dict, seed: int):
    if proc.timed_out:
        return "timed out"
    text = read_text(out_path)
    err = workloads.check_output(job, proc.exit_code, text, expected, seed)
    if err and proc.exit_code not in (0, 1):
        err += ": " + stderr_tail(out_path)
    return err


# --- untraced run -------------------------------------------------------------------


def measure_setup(workload: str, runner: Runner, repeats: int) -> tuple[list[float], list[str]]:
    argv = [os.path.join(HERE, "setup_probe.py"), json.dumps(workloads.setup_spec(workload))]
    out = os.path.join(WORK, "setup.out")
    walls, errors = [], []
    for _ in range(repeats):
        proc = runner.run(argv, out)
        walls.append(proc.wall)
        if proc.exit_code != 0:
            errors.append("setup probe exited %d: %s" % (proc.exit_code, stderr_tail(out)))
    return walls, errors


def untraced(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    jobs = workloads.build_jobs(workload, seed)
    expected = workloads.load_expected()
    warm_up(runner)
    # set-up probes before and after the passes, so they see the same machine
    setup_walls, setup_errors = measure_setup(workload, runner, SETUP_REPEATS // 2 + 1)
    out = os.path.join(WORK, "job.out")
    passes: list[list[Proc]] = []
    errors: list[str] = []
    last_pass = 0.0
    measure_start = runner.elapsed()
    # start another pass only if one more like the last still fits in `seconds`
    while not passes or (
        runner.elapsed() - measure_start + last_pass <= seconds
        and runner.elapsed() + 1.5 * last_pass < runner.budget
    ):
        t_pass = runner.elapsed()
        runs = []
        for job in jobs:
            proc = runner.run(job.argv, out)
            runs.append(proc)
            err = job_error(job, proc, out, expected, seed)
            if err:
                errors.append("%s (pass %d): %s" % (job.id, len(passes) + 1, err))
        passes.append(runs)
        last_pass = runner.elapsed() - t_pass
    # The slowest job is one job a pass, so its median rests on few samples.
    # Fill what is left of `seconds` with repeats of it, so slowest_job_s
    # gets more samples without making the run longer.
    slowest = max(range(len(jobs)), key=lambda i: statistics.median(r[i].wall for r in passes))
    slowest_walls = [runs[slowest].wall for runs in passes]
    repeats = 0
    while (
        runner.elapsed() - measure_start + statistics.median(slowest_walls) <= seconds
        and runner.elapsed() + 1.5 * max(slowest_walls) < runner.budget
    ):
        job = jobs[slowest]
        proc = runner.run(job.argv, out)
        repeats += 1
        slowest_walls.append(proc.wall)
        err = job_error(job, proc, out, expected, seed)
        if err:
            errors.append("%s (repeat %d): %s" % (job.id, repeats, err))
    walls, errs = measure_setup(workload, runner, SETUP_REPEATS - len(setup_walls))
    setup_walls += walls
    setup_errors += errs
    attempted = len(jobs) * len(passes) + repeats
    failed = len(errors)
    metrics = {
        "wall_s": statistics.median(sum(p.wall for p in runs) for runs in passes),
        "slowest_job_s": statistics.median(slowest_walls),
        "cpu_s": statistics.median(sum(p.cpu for p in runs) for runs in passes),
        "peak_rss_mb": statistics.median(max(p.rss_mb for p in runs) for runs in passes),
        "setup_s": statistics.median(setup_walls),
    }
    return {
        "workload": workload,
        "trace": 0,
        "seed": seed,
        "seconds": seconds,
        "passes": len(passes),
        "slowest_job": {"id": jobs[slowest].id, "wall_s": slowest_walls},
        "correct": not errors and not setup_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "unbounded": {"fail_ratio": failed / attempted},
        "setup_samples_s": setup_walls,
        "jobs": {
            job.id: {
                "wall_s": [runs[i].wall for runs in passes],
                "cpu_s": [runs[i].cpu for runs in passes],
                "peak_rss_mb": [runs[i].rss_mb for runs in passes],
            }
            for i, job in enumerate(jobs)
        },
        "errors": setup_errors + errors,
    }


# --- traced run -----------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered.get(s["id"], 0.0) for s in spans}


def layer_metrics(traces: list[dict], base_s: float, traced_s: float) -> dict:
    span_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    for tr in traces:
        own = self_times(tr["spans"])
        for s in tr["spans"]:
            span_s[s["name"]] = span_s.get(s["name"], 0.0) + own[s["id"]]
        for k, v in tr["counts"].items():
            counts[k] = counts.get(k, 0) + v
    e8 = [tr["gauges"] for tr in traces if tr["job"].endswith(":E8") and tr["gauges"]]
    gauges = e8[0] if e8 else {}
    flats, classes = counts.get("catalog.flats", 0), counts.get("catalog.flat_classes", 0)
    # the root entry of each catalog is not a restriction
    entries = counts.get("catalog.entries", 0) - sum(1 for t in traces if t["job"].startswith("catalog:"))
    derived = {
        "catalog.classes_per_flat": classes / flats if flats else 0.0,
        "catalog.entries_per_class": entries / classes if classes else 0.0,
        "trace.overhead": traced_s / base_s,
        "trace.base_s": base_s,
    }
    out = {}
    for name in PER_LAYER:
        kind, _, key = SOURCES[name].partition(":")
        if kind == "span":
            out[name] = span_s.get(key, 0.0)
        elif kind == "count":
            out[name] = counts.get(key, 0)
        elif kind == "gauge":
            out[name] = gauges.get(key, 0.0)
        else:
            out[name] = derived[name]
    return out


def traced(runner: Runner, workload: str, seed: int) -> dict:
    jobs = workloads.build_jobs(workload, seed)
    expected = workloads.load_expected()
    warm_up(runner)
    real_out = os.path.join(WORK, "real.out")
    traced_out = os.path.join(WORK, "traced.out")
    trace_path = os.path.join(WORK, "trace.json")
    traces, errors, per_job = [], [], {}
    base_s = traced_s = 0.0
    for job in jobs:
        real = runner.run(job.argv, real_out)
        err = job_error(job, real, real_out, expected, seed)
        if os.path.exists(trace_path):
            os.remove(trace_path)
        spawned = time.monotonic()
        argv = [os.path.join(HERE, "tracer.py"), json.dumps(job.argv), trace_path, repr(spawned), job.id]
        proc = runner.run(argv, traced_out)
        base_s += real.wall
        traced_s += proc.wall
        tr = None
        if proc.timed_out or not os.path.exists(trace_path):
            err = err or "traced job died (exit %d): %s" % (proc.exit_code, stderr_tail(traced_out))
        else:
            with open(trace_path) as fh:
                tr = json.load(fh)
            traces.append(tr)
            if tr["error"]:
                err = err or "traced job raised: " + tr["error"].strip().splitlines()[-1]
            elif tr["cache_entries_at_start"] != 0:
                err = err or "caches held %d entries at job start" % tr["cache_entries_at_start"]
            elif tr["exit_code"] != real.exit_code:
                err = err or "traced exit %s, real command %d" % (tr["exit_code"], real.exit_code)
            elif read_text(traced_out) != read_text(real_out):
                err = err or "traced job output differs from the real command"
        if err:
            errors.append("%s: %s" % (job.id, err))
        per_job[job.id] = {
            "real_s": real.wall,
            "traced_s": proc.wall,
            "counts": tr["counts"] if tr else {},
            "gauges": tr["gauges"] if tr else {},
            "cache_entries_at_start": tr["cache_entries_at_start"] if tr else None,
            "cache_entries_at_end": tr["cache_entries_at_end"] if tr else None,
        }
    spans_path = os.path.join(WORK, "spans-%s-seed%d.json" % (workload, seed))
    with open(spans_path, "w") as fh:
        json.dump([s for tr in traces for s in tr["spans"]], fh)
    return {
        "workload": workload,
        "trace": 1,
        "seed": seed,
        "correct": not errors,
        "attempted": len(jobs),
        "failed": len(errors),
        "metrics": layer_metrics(traces, base_s, traced_s),
        "jobs": per_job,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "errors": errors,
    }


# --- reporting ---------------------------------------------------------------------------


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "trigvee")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def print_table(res: dict) -> None:
    print("workload %s  trace %d  seed %d  jobs attempted %d  failed %d"
          % (res["workload"], res["trace"], res["seed"], res["attempted"], res["failed"]))
    if res["trace"]:
        for name, value in res["metrics"].items():
            print("  %-40s %14.6f %s" % (name, value, PER_LAYER[name]))
    else:
        units = {**END_TO_END, **UNBOUNDED}
        for name, value in {**res["metrics"], **res["unbounded"]}.items():
            print("  %-16s %12.6f %s" % (name, value, units[name]))
    for err in res["errors"]:
        print("  FAILED %s" % err)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    with Runner() as runner:
        res = untraced(runner, workload, seed, seconds) if trace == 0 else traced(runner, workload, seed)
    print_table(res)
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "trigvee", "cli.py")):
        print("error: no trigvee sources under %s; run from a checkout" % SRC, file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    env = environment()
    for res in results:
        res["environment"] = env
        print("report " + json.dumps(res, sort_keys=True))

    def unit(name):
        return PER_LAYER[name] if args.trace else END_TO_END[name]

    def tagged(res):
        return {k: {"value": v, "unit": unit(k)} for k, v in res["metrics"].items()}

    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": tagged(results[0]) if len(results) == 1
        else {r["workload"]: tagged(r) for r in results},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
