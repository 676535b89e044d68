"""Set-up probe: import the CLI and build every input configuration, no checks.

Usage: python3 setup_probe.py SPEC_JSON

SPEC_JSON holds either ``{"files": [...]}`` (configurations read from JSON,
as ``check`` and ``wdvv`` do) or ``{"families": [[family, rank, params]]}``
(configurations built by ``families.generate``, as ``catalog`` does).  The
caller times the whole interpreter from spawn to exit.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    import trigvee.cli  # noqa: F401 - the import is part of what is timed
    from trigvee.configuration import from_json_dict
    from trigvee.exactla import rat
    from trigvee.families import family_spec, generate

    spec = json.loads(argv[0])
    built = []
    for path in spec.get("files", []):
        with open(path) as fh:
            built.append(from_json_dict(json.load(fh)))
    for fam, rank, params in spec.get("families", []):
        built.append(generate(family_spec(fam, rank, **{k: rat(v) for k, v in params.items()})))
    return 0 if built and all(len(cfg) for cfg in built) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
