"""`check --json` output is byte-identical to the recorded fixtures.

The fixtures under tests/golden/check_*.json pin the exact vee-layer output
(series, residuals, lambda^2, warnings) on root systems, on one
configuration with nonzero residuals and on one with zero class sums and no
flip probe (non-empty ``warnings``, ``"g2_positive_independent": null``).
The check_*.txt fixtures pin the text report of ``check`` without ``--json``
on three of them.  Re-record them deliberately with
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

# name -> (family spec, exit code, extra ``check`` flags)
_CASES = {
    "E6": (family_spec("E6", t=1), 0, ()),
    "E7": (family_spec("E7", t=1), 0, ()),
    "E8": (family_spec("E8", t=1), 0, ()),
    "F4": (family_spec("F4", r=1, s=1), 0, ()),
    "BC5": (family_spec("BC", 5, r=1, s=1, q=1), 0, ()),
    "D8_broken": (family_spec("D", 8, t=1), 1, ()),
    # r = -4 cancels each short covector against its double: two zero class sums
    "BC2_zero_class": (family_spec("BC", 2, r=-4, s=1, q=1), 0, ("--probe-flips", "0")),
}
_TEXT_CASES = ("F4", "D8_broken", "BC2_zero_class")


def _config_json(name: str) -> dict:
    blob = to_json_dict(generate(_CASES[name][0]))
    if name == "D8_broken":
        blob["multiplicities"][0] = str(Fraction(2))
        blob["name"] += " with multiplicity 0 set to 2"
    return blob


def _check_output(name: str, directory: str, as_json: bool = True) -> tuple[int, str]:
    path = os.path.join(directory, "%s.json" % name)
    with open(path, "w") as fh:
        json.dump(_config_json(name), fh)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["check", path, *_CASES[name][2]] + (["--json"] if as_json else []))
    return code, buf.getvalue()


def _fixture(name: str, suffix: str = "json") -> str:
    return os.path.join(_GOLDEN, "check_%s.%s" % (name.lower(), suffix))


@pytest.mark.parametrize("name", list(_CASES))
def test_check_json_matches_golden_fixture(name, tmp_path):
    code, out = _check_output(name, str(tmp_path))
    assert code == _CASES[name][1]
    with open(_fixture(name)) as fh:
        assert out == fh.read()


@pytest.mark.parametrize("name", _TEXT_CASES)
def test_check_text_matches_golden_fixture(name, tmp_path):
    code, out = _check_output(name, str(tmp_path), as_json=False)
    assert code == _CASES[name][1]
    with open(_fixture(name, "txt")) as fh:
        assert out == fh.read()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in _CASES:
            with open(_fixture(case), "w") as fh:
                fh.write(_check_output(case, tmp)[1])
            print("recorded", _fixture(case), file=sys.stderr)
        for case in _TEXT_CASES:
            with open(_fixture(case, "txt"), "w") as fh:
                fh.write(_check_output(case, tmp, as_json=False)[1])
            print("recorded", _fixture(case, "txt"), file=sys.stderr)
