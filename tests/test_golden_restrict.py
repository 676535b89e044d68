"""`restrict --kernel-of` and `subsystem --span --json` output is byte-identical
to the recorded fixtures.

Both commands run through the exact span and kernel routines (`nullspace`,
`rref`, `rank`) and the choice of an independent subset of the given indices;
each span list below names one covector that depends on the others, so that
choice is pinned too.  The last case is an isotropic line of an indefinite
parent.  Re-record the fixtures deliberately with
`PYTHONPATH=src python tests/test_golden_restrict.py` and say why in CHANGES.md.
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

from trigvee.cli import main
from trigvee.configuration import configuration, to_json_dict
from trigvee.families import family_spec, generate

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _indefinite():
    """Gram form [[0,-1,0],[-1,0,0],[0,0,1]]: the line of e1 is isotropic."""
    return configuration(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 0, 1]],
                         [1, 1, -1, 1, 2], name="indefinite")


# name -> (configuration, indices, commands recorded)
_CASES = {
    "bc3": (lambda: generate(family_spec("BC", 3, r=1, s=1, q=1)), "3,0,6", ("restrict", "subsystem")),
    "e7": (lambda: generate(family_spec("E7", t=1)), "0,1,10,2", ("restrict", "subsystem")),
    "f4": (lambda: generate(family_spec("F4", r=1, s=1)), "16,0,4,1", ("restrict", "subsystem")),
    "indefinite": (_indefinite, "0", ("subsystem",)),
}

_PARAMS = [(name, cmd) for name, (_, _, cmds) in _CASES.items() for cmd in cmds]


def _output(name: str, command: str, directory: str) -> str:
    make, indices, _ = _CASES[name]
    path = os.path.join(directory, "%s.json" % name)
    with open(path, "w") as fh:
        json.dump(to_json_dict(make()), fh)
    argv = {
        "restrict": ["restrict", path, "--kernel-of", indices],
        "subsystem": ["subsystem", path, "--span", indices, "--json"],
    }[command]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def _fixture(name: str, command: str) -> str:
    return os.path.join(_GOLDEN, "%s_%s.json" % (command, name))


@pytest.mark.parametrize("name,command", _PARAMS)
def test_output_matches_golden_fixture(name, command, tmp_path):
    with open(_fixture(name, command)) as fh:
        assert _output(name, command, str(tmp_path)) == fh.read()


def test_indefinite_case_is_isotropic():
    with open(_fixture("indefinite", "subsystem")) as fh:
        assert json.load(fh)["is_isotropic"] is True


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, command in _PARAMS:
            with open(_fixture(name, command), "w") as fh:
                fh.write(_output(name, command, tmp))
            print("recorded", _fixture(name, command), file=sys.stderr)
