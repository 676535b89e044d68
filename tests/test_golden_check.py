"""`check --json` output is byte-identical to the recorded fixtures.

The fixtures under tests/golden/check_*.json pin the exact vee-layer output
(series, residuals, lambda^2, warnings) on root systems and on one
configuration with nonzero residuals.  Re-record them deliberately with
`PYTHONPATH=src python tests/test_golden_check.py` and say why in CHANGES.md.
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from trigvee.cli import main
from trigvee.configuration import to_json_dict
from trigvee.families import family_spec, generate

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

_CASES = {
    "E6": (family_spec("E6", t=1), 0),
    "E7": (family_spec("E7", t=1), 0),
    "E8": (family_spec("E8", t=1), 0),
    "F4": (family_spec("F4", r=1, s=1), 0),
    "BC5": (family_spec("BC", 5, r=1, s=1, q=1), 0),
    "D8_broken": (family_spec("D", 8, t=1), 1),
}


def _config_json(name: str) -> dict:
    blob = to_json_dict(generate(_CASES[name][0]))
    if name == "D8_broken":
        blob["multiplicities"][0] = str(Fraction(2))
        blob["name"] += " with multiplicity 0 set to 2"
    return blob


def _check_output(name: str, directory: str) -> tuple[int, str]:
    path = os.path.join(directory, "%s.json" % name)
    with open(path, "w") as fh:
        json.dump(_config_json(name), fh)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["check", path, "--json"])
    return code, buf.getvalue()


def _fixture(name: str) -> str:
    return os.path.join(_GOLDEN, "check_%s.json" % name.lower())


@pytest.mark.parametrize("name", list(_CASES))
def test_check_json_matches_golden_fixture(name, tmp_path):
    code, out = _check_output(name, str(tmp_path))
    assert code == _CASES[name][1]
    with open(_fixture(name)) as fh:
        assert out == fh.read()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in _CASES:
            with open(_fixture(case), "w") as fh:
                fh.write(_check_output(case, tmp)[1])
            print("recorded", _fixture(case), file=sys.stderr)
