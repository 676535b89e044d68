"""Workload definitions: the job lists, and how each job's output is checked.

A job is one user-level command, run in a fresh interpreter.  Its ``spec``
holds the job's inputs; ``argv`` turns them into the interpreter arguments
that both the untraced runner and the traced run (``tracer.py``) use, so the
two run the same command.  Inputs are the committed configuration files under
``inputs/`` plus the workload seed; nothing else varies between runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# The vee-systems of the check batch: input stem -> (family, rank, parameters).
SYSTEMS = {
    "E6": ("E6", None, {"t": "1"}),
    "E7": ("E7", None, {"t": "1"}),
    "E8": ("E8", None, {"t": "1"}),
    "F4": ("F4", None, {"r": "1", "s": "1"}),
    "BC8": ("BC", 8, {"r": "1", "s": "1", "q": "1/2"}),
    "D8": ("D", 8, {"t": "1"}),
}
# D8 with the multiplicity of covector 0 set to 2: not a vee-system, exit 1.
BROKEN = "D8_broken"

# Sample points per system for the float verifier, sized so the commutator
# sweep is most of each `wdvv` job: it costs more than interpreter start-up,
# reading the input and writing the report together.  The paired
# associativity job uses the same count.  E8 gets enough points that its
# associativity job is clearly the workload's slowest job, so the job that
# slowest_job_s follows does not change from run to run.
WDVV_SAMPLES = {"E6": 520, "E7": 370, "E8": 280, "F4": 1600, "BC8": 320, "D8": 370}

GAMMA_JOBS = (
    {"family": "E8", "t": "1"},
    {"family": "F4", "p": "1", "q": "2"},
)
CATALOG_FAMILIES = ("E7", "E8")
CATALOG_MAX_CORANK = 3

WORKLOADS = ("check", "wdvv", "catalog")  # each one's purpose is in BENCHMARK.json


@dataclass
class Job:
    id: str
    spec: dict
    expect_exit: int = 0

    @property
    def argv(self) -> list[str]:
        """Interpreter arguments of the untraced command."""
        s = self.spec
        kind = s["kind"]
        cli = ["-m", "trigvee.cli"]
        if kind == "check":
            return cli + ["check", s["config"], "--json", "--seed", str(s["seed"])]
        if kind == "gamma":
            extra = []
            for k in ("t", "p", "q"):
                if k in s:
                    extra += ["--" + k, s[k]]
            return cli + ["gamma", "--family", s["family"], *extra, "--json"]
        if kind == "wdvv":
            return cli + [
                "wdvv", s["config"], "--json", "--lambda-sq", s["lambda_sq"],
                "--samples", str(s["samples"]), "--seed", str(s["seed"]),
            ]
        if kind == "assoc":
            return [
                os.path.join(HERE, "assoc_job.py"), s["config"], s["lambda_sq"],
                str(s["samples"]), str(s["seed"]),
            ]
        if kind == "catalog":
            return cli + [
                "catalog", "--family", s["family"], "--max-corank", str(s["max_corank"]),
            ]
        raise ValueError("unknown job kind %r" % kind)


def input_path(stem: str) -> str:
    return os.path.join(INPUTS, stem + ".json")


def closed_form_lambda_sq(stem: str) -> str:
    """lambda^2 of a check-batch system from ``families.expected_lambda_sq``."""
    from fractions import Fraction

    from trigvee.families import expected_lambda_sq, family_spec

    fam, rank, params = SYSTEMS[stem]
    spec = family_spec(fam, rank, **{k: Fraction(v) for k, v in params.items()})
    return str(expected_lambda_sq(spec))


def build_jobs(workload: str, seed: int) -> list[Job]:
    if workload == "check":
        jobs = [
            Job("check:" + stem, {"kind": "check", "config": input_path(stem), "seed": seed})
            for stem in SYSTEMS
        ]
        jobs.append(
            Job("check:" + BROKEN,
                {"kind": "check", "config": input_path(BROKEN), "seed": seed}, expect_exit=1)
        )
        jobs += [Job("gamma:" + g["family"], {"kind": "gamma", **g}) for g in GAMMA_JOBS]
        return jobs
    if workload == "wdvv":
        jobs = []
        for stem in SYSTEMS:
            spec = {
                "config": input_path(stem),
                "lambda_sq": closed_form_lambda_sq(stem),
                "samples": WDVV_SAMPLES[stem],
                "seed": seed,
            }
            jobs.append(Job("wdvv:" + stem, {"kind": "wdvv", **spec}))
            jobs.append(Job("assoc:" + stem, {"kind": "assoc", **spec}))
        return jobs
    if workload == "catalog":
        return [
            Job("catalog:" + fam,
                {"kind": "catalog", "family": fam, "max_corank": CATALOG_MAX_CORANK})
            for fam in CATALOG_FAMILIES
        ]
    raise ValueError("unknown workload %r" % workload)


def setup_spec(workload: str) -> dict:
    """What ``setup_probe.py`` builds: the workload's input configurations."""
    if workload == "catalog":
        return {"families": [[fam, None, {"t": "1"}] for fam in CATALOG_FAMILIES]}
    stems = list(SYSTEMS) + ([BROKEN] if workload == "check" else [])
    return {"files": [input_path(s) for s in stems]}


# --- output checks -----------------------------------------------------------


def summarize(job: Job, text: str) -> dict:
    """The seed-independent facts of a job's output that must never change.

    Exact outputs (verdicts, lambda^2, residuals, catalog entries) are kept
    exactly; float residuals are reduced to their verdicts.
    """
    out = json.loads(text)
    kind = job.spec["kind"]
    if kind == "check":
        series = out["series"]
        residuals = [r for s in series.values() for r in s["residuals"]]
        summary = {
            "is_vee": out["is_vee"],
            "lambda_sq": out["lambda_sq"],
            "proportionality_ok": out["proportionality_ok"],
            "warnings": out["warnings"],
            "series": len(residuals),
            "nonzero_residuals": sum(r != "0" for r in residuals),
            "series_sha256": hashlib.sha256(
                json.dumps(series, sort_keys=True).encode()
            ).hexdigest(),
        }
        if out["is_vee"]:
            # the flip probes are seeded; only a vee-system's answer is seed-free
            summary["g2_positive_independent"] = out["g2_positive_independent"]
        return summary
    if kind == "gamma":
        return out
    if kind in ("wdvv", "assoc"):
        summary = {
            "passed": out["passed"],
            "points": out["points"],
            "below_tol": out["max_residual"] < out["tol"],
        }
        if kind == "wdvv":
            summary["lambda_sq"] = out["lambda_sq"]
        else:
            summary["agrees_with_wdvv"] = out["agrees_with_wdvv"]
        return summary
    if kind == "catalog":
        entries = out["entries"]
        return {
            "parent_lambda_sq": out["parent_lambda_sq"],
            "entries": [
                [e["corank"], e["child_dim"], e["digest"], e["lambda_sq"], e["class_size"]]
                for e in entries
            ],
            "class_size_total": sum(e["class_size"] for e in entries),
        }
    raise ValueError("unknown job kind %r" % kind)


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check_output(job: Job, exit_code: int, text: str, expected: dict, seed: int) -> str | None:
    """None if the job's result matches the recorded seed output, else why not."""
    if exit_code != job.expect_exit:
        return "exit code %d, expected %d" % (exit_code, job.expect_exit)
    want = expected.get(job.id)
    if want is None:
        return "no expected output recorded for %s" % job.id
    try:
        got = summarize(job, text)
        out = json.loads(text)
    except (ValueError, KeyError, TypeError) as e:
        return "unreadable output: %s" % e
    if got != want:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return "output differs from the recorded seed output in %s" % diff
    kind = job.spec["kind"]
    if kind == "check" and job.expect_exit == 0:
        stem = job.id.split(":", 1)[1]
        if out["lambda_sq"] != closed_form_lambda_sq(stem):
            return "lambda^2 %s differs from the closed form" % out["lambda_sq"]
    if kind == "gamma" and not (
        out["agree"]
        and out["gamma_sq_direct"] == out["gamma_tilde_sq_highest_root"]
        == out["gamma_tilde_sq_dual_root"]
    ):
        return "the three gamma routes disagree"
    if kind in ("wdvv", "assoc") and out["seed"] != seed:
        return "seed %r not used" % out["seed"]
    return None
