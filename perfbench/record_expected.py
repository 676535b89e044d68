#!/usr/bin/env python3
"""Record the benchmark's inputs and expected outputs from the current code.

Usage, from the root of a checkout of the reference commit:

    python3 perfbench/record_expected.py

Writes ``inputs/*.json`` (configurations from ``trigvee gen``, plus a D8
with one multiplicity altered) and ``expected.json`` (the seed-independent
summary of every job's output, see ``workloads.summarize``).  Re-recording
on a later commit would let a behaviour change pass unnoticed, so do it only
when the reference outputs are meant to change, and say why.
"""

from __future__ import annotations

import json
import math
import os
import sys

import run
import workloads

RECORD_SEED = 0


def gen_inputs(runner: run.Runner) -> None:
    os.makedirs(workloads.INPUTS, exist_ok=True)
    for stem, (fam, rank, params) in workloads.SYSTEMS.items():
        argv = ["-m", "trigvee.cli", "gen", "--family", fam]
        if rank is not None:
            argv += ["--rank", str(rank)]
        for k, v in params.items():
            argv += ["--param", "%s=%s" % (k, v)]
        argv += ["-o", workloads.input_path(stem)]
        proc = runner.run(argv, os.path.join(run.WORK, "gen.out"))
        if proc.exit_code != 0:
            sys.exit("gen failed for %s: %s" % (stem, run.stderr_tail(os.path.join(run.WORK, "gen.out"))))
    with open(workloads.input_path("D8")) as fh:
        broken = json.load(fh)
    broken["multiplicities"][0] = "2"
    broken["name"] += " with multiplicity 0 set to 2"
    with open(workloads.input_path(workloads.BROKEN), "w") as fh:
        json.dump(broken, fh, indent=1)
        fh.write("\n")


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    expected = {}
    out = os.path.join(run.WORK, "record.out")
    with run.Runner(budget=math.inf) as runner:
        gen_inputs(runner)
        for workload in workloads.WORKLOADS:
            for job in workloads.build_jobs(workload, RECORD_SEED):
                proc = runner.run(job.argv, out)
                if proc.exit_code != job.expect_exit:
                    sys.exit("%s exited %d: %s" % (job.id, proc.exit_code, run.stderr_tail(out)))
                expected[job.id] = workloads.summarize(job, run.read_text(out))
                print("%-16s %8.3f s" % (job.id, proc.wall))
    for stem in workloads.SYSTEMS:
        got = expected["check:" + stem]["lambda_sq"]
        if got != workloads.closed_form_lambda_sq(stem):
            sys.exit("check:%s lambda^2 %s differs from the closed form" % (stem, got))
    if expected["catalog:E7"]["class_size_total"] != 11740:
        sys.exit("E7 catalog class sizes do not sum to 11740")
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
