"""Library job: the associativity check of ``trigvee.wdvv`` on one configuration.

Usage: python3 assoc_job.py CONFIG.json LAMBDA_SQ SAMPLES SEED

Prints the report as JSON and exits 0 when the residual is below tolerance,
1 otherwise, mirroring ``trigvee wdvv``.
"""

from __future__ import annotations

import json
import sys

# One random product triple per sample point (the library default is 4), so
# the job costs 3 to 5 times the commutator sweep of the paired `wdvv` job
# rather than 6 to 18 times, and a pass of the workload fits in one run
# while each `wdvv` job's sweep still outweighs interpreter start-up.
TRIPLES = 1


def payload(report) -> dict:
    return {
        "max_residual": report.max_residual,
        "wdvv_max_residual": report.wdvv_max_residual,
        "tol": report.tol,
        "passed": report.passed,
        "agrees_with_wdvv": report.agrees_with_wdvv,
        "seed": report.seed,
        "points": report.points,
    }


def emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def main(argv: list[str]) -> int:
    from trigvee.configuration import from_json_dict
    from trigvee.exactla import rat
    from trigvee.wdvv import associativity_residual

    path, lam, samples, seed = argv
    with open(path) as fh:
        cfg = from_json_dict(json.load(fh))
    report = associativity_residual(
        cfg, rat(lam), points=int(samples), seed=int(seed), triples=TRIPLES
    )
    emit(payload(report))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
