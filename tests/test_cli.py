import io
import json
import os
import subprocess
import sys
import warnings

import pytest

from trigvee.cli import main
from trigvee.configuration import from_json_dict, to_json_dict
from trigvee.families import PARAM_NAMES, family_spec, generate
from trigvee.veesystem import lambda_sq
from trigvee.wdvv import ResidualReport


_INPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_check_round_trip(tmp_path, capsys):
    path = tmp_path / "bc3.json"
    code, out, err = run(
        capsys, "gen", "--family", "BC", "--rank", "3",
        "--param", "r=1", "--param", "s=1", "--param", "q=1", "-o", str(path),
    )
    assert code == 0
    blob = json.loads(path.read_text())
    cfg = from_json_dict(blob)
    assert len(cfg) == 12
    # byte-identical round trip
    assert json.dumps(blob, sort_keys=True) == json.dumps(
        to_json_dict(from_json_dict(blob)), sort_keys=True
    )

    code, out, err = run(capsys, "check", str(path), "--json", "--probe-flips", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_vee"] is True
    assert payload["lambda_sq"] == "1458/11"

    named = tmp_path / "named.json"
    assert run(capsys, "gen", "--family", "G2", "--param", "p=1", "--param", "q=1",
               "--name", "hexagon", "-o", str(named)) == (0, "", "")
    assert from_json_dict(json.loads(named.read_text())).name == "hexagon"


def test_check_counterexample_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 2,
        "covectors": [["1", "0"], ["0", "1"], ["1", "2"]],
        "multiplicities": ["1", "1", "1"],
    }))
    code, out, err = run(capsys, "check", str(path), "--json", "--probe-flips", "0")
    assert code == 1


def test_check_malformed_exit_2(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dim": 2, "covectors": [], "multiplicities": []}))
    assert run(capsys, "check", str(path))[0] == 2
    path2 = tmp_path / "floats.json"
    path2.write_text(json.dumps({"dim": 1, "covectors": [[0.5]], "multiplicities": ["1"]}))
    assert run(capsys, "check", str(path2))[0] == 2
    assert run(capsys, "check", str(tmp_path / "missing.json"))[0] == 2


def test_check_non_string_name_exit_2(tmp_path, capsys):
    path = tmp_path / "named.json"
    path.write_text(json.dumps({
        "dim": 1, "covectors": [["1"]], "multiplicities": ["1"], "name": {"x": [1]},
    }))
    code, out, err = run(capsys, "restrict", str(path), "--kernel-of", "0")
    assert (code, out) == (2, "")
    assert "'name' must be a string" in err


def test_wdvv_command(tmp_path, capsys):
    path = tmp_path / "bc2.json"
    run(capsys, "gen", "--family", "BC", "--rank", "2",
        "--param", "r=1", "--param", "s=1", "--param", "q=1", "-o", str(path))
    code, out, err = run(capsys, "wdvv", str(path), "--samples", "8", "--seed", "42", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["lambda_sq"] == "686/9"
    assert set(payload) == {"lambda_sq"} | set(ResidualReport._fields)

    code, out, err = run(capsys, "wdvv", str(path), "--lambda-sq", "5", "--samples", "4", "--json")
    assert code == 1


def test_restrict_command(tmp_path, capsys):
    parent = tmp_path / "bc4.json"
    run(capsys, "gen", "--family", "BC", "--rank", "4",
        "--param", "r=1", "--param", "s=1", "--param", "q=1", "-o", str(parent))
    cfg = generate(family_spec("BC", 4, r=1, s=1, q=1))
    from trigvee.families import partition_span_indices

    span = partition_span_indices(cfg, "BC", (2, 2))
    out_path = tmp_path / "child.json"
    code, out, err = run(
        capsys, "restrict", str(parent), "--kernel-of", ",".join(map(str, span)), "-o", str(out_path)
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert "provenance" in payload and "basis" in payload
    child = from_json_dict({k: payload[k] for k in ("dim", "covectors", "multiplicities")})
    assert lambda_sq(child) == lambda_sq(cfg)


def test_subsystem_command(tmp_path, capsys):
    path = tmp_path / "bc3.json"
    run(capsys, "gen", "--family", "BC", "--rank", "3",
        "--param", "r=1", "--param", "s=1", "--param", "q=1", "-o", str(path))
    code, out, err = run(capsys, "subsystem", str(path), "--span", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_isotropic"] is False
    assert payload["eigenvalues"] == ["5/9"]


def test_subsystem_of_non_vee_parent_reports_eigenvalues_error(capsys):
    # D8 with covector 0 at multiplicity 2; covectors 1, 2 and 14 span a
    # non-isotropic subsystem whose duals are not eigenvectors
    broken = os.path.join(_INPUTS, "D8_broken.json")
    code, out, err = run(capsys, "subsystem", broken, "--span", "1,2", "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["is_isotropic"] is False and payload["members"] == [1, 2, 14]
    assert payload["eigenvalues_error"] == "dual of member 2 is not an eigenvector"
    assert "eigenvalues" not in payload
    code, out, _ = run(capsys, "subsystem", os.path.join(_INPUTS, "D8.json"), "--span", "1,2", "--json")
    assert code == 0 and json.loads(out)["eigenvalues"] == ["3/14"]


def test_negative_fraction_attached_with_equals(capsys):
    # argparse reads "-1/3" after a space as an option, so it must be attached
    code, out, err = run(capsys, "gamma", "--family", "F4", "--p", "1", "--q=-1/3", "--json")
    assert code == 0 and json.loads(out)["gamma_sq_direct"] == "-2/9"
    with pytest.raises(SystemExit) as exc:
        main(["gamma", "--family", "F4", "--p", "1", "--q", "-1/3"])
    assert exc.value.code == 2 and "expected one argument" in capsys.readouterr().err
    f4 = os.path.join(_INPUTS, "F4.json")
    code, out, err = run(capsys, "wdvv", f4, "--lambda-sq=-1/2", "--samples", "4", "--json")
    assert code == 1 and json.loads(out)["lambda_sq"] == "-1/2"


def test_gamma_command(capsys):
    code, out, err = run(capsys, "gamma", "--family", "F4", "--p", "1", "--q", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma_tilde_sq_highest_root"] == payload["gamma_tilde_sq_dual_root"]
    assert payload["gamma_tilde_sq_highest_root"] == payload["gamma_sq_direct"] == "-15"
    code, out, err = run(capsys, "gamma", "--family", "BC", "--rank", "3", "--p", "1", "--q", "1")
    assert code == 2 and out == ""
    assert err == (
        "error: family BC has no gamma route; gamma supports A, D, E6, E7, E8 (--t)"
        " and B, C, F4, G2 (--p, --q)\n"
    )


@pytest.mark.parametrize("family,t", [
    (["--family", "E8"], ["--t", "1"]),
    (["--family", "A", "--rank", "3"], ["--t", "2"]),
    (["--family", "D", "--rank", "4"], ["--t=-1/2"]),
], ids=["E8", "A3", "D4"])
def test_gamma_simply_laced_takes_t(family, t, capsys):
    code, out, err = run(capsys, "gamma", *family, *t, "--json")
    assert code == 0 and err == "" and json.loads(out)["agree"] is True
    assert run(capsys, "gamma", *family) == (2, "", "error: family %s takes --t\n" % family[1])


@pytest.mark.parametrize("family,flags", [
    ("A", ["--t", "1"]),
    ("B", ["--p", "1", "--q", "1"]),
    ("C", ["--p", "1", "--q", "1"]),
    ("D", ["--t", "1"]),
])
def test_gamma_without_rank_exit_2(family, flags, capsys):
    code, out, err = run(capsys, "gamma", "--family", family, *flags)
    assert code == 2 and out == ""
    assert err == "error: family %s needs a positive rank\n" % family


@pytest.mark.parametrize("span", ["99", "-1", "0,12"])
@pytest.mark.parametrize("command,flag", [("restrict", "--kernel-of"), ("subsystem", "--span")])
def test_span_index_out_of_range_exit_2(command, flag, span, tmp_path, capsys):
    path = tmp_path / "bc3.json"
    run(capsys, "gen", "--family", "BC", "--rank", "3",
        "--param", "r=1", "--param", "s=1", "--param", "q=1", "-o", str(path))
    code, out, err = run(capsys, command, str(path), flag, span)
    assert code == 2 and out == ""
    assert err == "error: span_indices must lie in [0, 12), got [%s]\n" % span.replace(",", ", ")


def test_catalog_command(tmp_path, capsys):
    out_path = tmp_path / "cat.json"
    code, out, err = run(
        capsys, "catalog", "--family", "F4", "--max-corank", "2", "-o", str(out_path)
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["parent_lambda_sq"] == "972/5"
    assert all(
        e["lambda_sq"] == "972/5" for e in payload["entries"] if e["lambda_verified"]
    )


_DEFAULT_FAMILIES = [
    ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("BC", 3),
    ("E6", None), ("E7", None), ("E8", None), ("F4", None), ("G2", None),
]


@pytest.mark.parametrize("family,rank", _DEFAULT_FAMILIES, ids=[f for f, _ in _DEFAULT_FAMILIES])
def test_catalog_parameters_default_to_1(family, rank, capsys):
    command = ["catalog", "--family", family, "--max-corank", "1"]
    if rank is not None:
        command += ["--rank", str(rank)]
    code, implicit, _ = run(capsys, *command)
    assert code == 0
    explicit = [arg for name in PARAM_NAMES[family] for arg in ("--param", name + "=1")]
    assert run(capsys, *command, *explicit) == (0, implicit, "")


def test_catalog_four_dim_needs_explicit_params(capsys):
    code, out, err = run(capsys, "catalog", "--family", "FourDim", "--max-corank", "1")
    assert code == 2 and out == ""
    assert err == "error: family FourDim needs explicit --param values\n"


def test_gen_unknown_family_exit_2(capsys):
    assert run(capsys, "gen", "--family", "H3", "--rank", "3")[0] == 2


@pytest.mark.parametrize("command", [
    ["gen", "--family", "F4"],
    ["catalog", "--family", "F4", "--max-corank", "1"],
])
def test_param_without_value_exit_2(command, capsys):
    code, out, err = run(capsys, *command, "--param", "r")
    assert code == 2 and out == ""
    assert err == "error: --param expects name=value, got 'r'\n"


def test_catalog_error_exit_1(monkeypatch, capsys):
    from trigvee import catalog

    real = catalog.enumerate_flat_classes

    def miscounted(cfg, max_corank):
        fc = real(cfg, max_corank)[0]
        return [catalog.FlatClass(fc.span_indices, fc.n_members + 1, fc.corank, fc.class_size)]

    monkeypatch.setattr(catalog, "enumerate_flat_classes", miscounted)
    code, out, err = run(capsys, "catalog", "--family", "F4", "--max-corank", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: flat spanned by [0]: the walk counts 2 members")
    assert "exact span closure 1" in err and "Traceback" not in err


def test_catalog_seed_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--family", "G2", "--max-corank", "1", "--seed", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("blob", [
    # strings are not rows: read as three covectors, this passed with lambda^2 = 36
    {"dim": 2, "covectors": ["10", "01", "11"], "multiplicities": "111"},
    {"dim": 2, "covectors": [["1", "0"], ["0", "1"]], "multiplicities": "11"},
    {"dim": 2, "covectors": "1001", "multiplicities": ["1", "1"]},
    # a bool passes the int check and was read as dimension 1
    {"dim": True, "covectors": [["1"], ["2"]], "multiplicities": ["1", "1"]},
    # valid JSON that is no object
    [],
    3,
    "E8",
])
def test_check_malformed_shapes_exit_2(blob, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "check", str(path), "--json")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read configuration")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_wdvv_without_points_exit_2(samples, tmp_path, capsys):
    path = tmp_path / "bc2.json"
    run(capsys, "gen", "--family", "BC", "--rank", "2",
        "--param", "r=1", "--param", "s=1", "--param", "q=1", "-o", str(path))
    code, out, err = run(capsys, "wdvv", str(path), "--samples", samples, "--json")
    assert code == 2 and out == ""
    assert "sample points must be positive" in err


def test_check_negative_probe_flips_exit_2(tmp_path, capsys):
    path = tmp_path / "bc2.json"
    run(capsys, "gen", "--family", "BC", "--rank", "2",
        "--param", "r=1", "--param", "s=1", "--param", "q=1", "-o", str(path))
    code, out, err = run(capsys, "check", str(path), "--probe-flips", "-3")
    assert code == 2 and out == ""
    assert "probe flips must not be negative" in err


def test_catalog_negative_corank_exit_2(capsys):
    code, out, err = run(capsys, "catalog", "--family", "F4", "--max-corank", "-2")
    assert code == 2 and out == ""
    assert err == "error: max_corank must lie in [0, dim)\n"


def test_restrict_zero_class_sum_exit_1(tmp_path, capsys):
    # the class {e1, 2e1} of BC3 with r + 4s = 0 has a vanishing weighted sum:
    # a failed hypothesis of the restriction, not malformed input
    path = tmp_path / "bc3.json"
    run(capsys, "gen", "--family", "BC", "--rank", "3",
        "--param", "r=-4", "--param", "s=1", "--param", "q=1", "-o", str(path))
    code, out, err = run(capsys, "restrict", str(path), "--kernel-of", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: collinearity class of spanning covector 0 has zero weighted sum")
    # the same refusal met inside the catalog's restrictions
    assert run(capsys, "catalog", "--family", "BC", "--rank", "3", "--param", "r=-4",
               "--param", "s=1", "--param", "q=1", "--max-corank", "1") == (
        1, "", "error: collinearity class of spanning covector 0 has zero weighted sum\n"
    )


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_wdvv_bad_tolerance_exit_2(tol, capsys):
    # a genuine solution: before the check, -1 and nan printed "-> FAIL" and exited 1
    f4 = os.path.join(_INPUTS, "F4.json")
    code, out, err = run(capsys, "wdvv", f4, "--samples", "3", "--tol", tol)
    assert code == 2 and out == ""
    assert "tolerance must be finite and positive" in err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_wdvv_seed_out_of_range_exit_2(seed, capsys):
    # before the check, -1 printed "error: expected non-negative integer", naming no seed
    f4 = os.path.join(_INPUTS, "F4.json")
    assert run(capsys, "wdvv", f4, "--samples", "3", "--seed", seed) == (
        2, "", "error: the seed must be an int in [0, 2**64), got %s\n" % seed
    )


@pytest.mark.parametrize("error,message", [
    (MemoryError("Unable to allocate 17.9 GiB"), "error: out of memory: Unable to allocate 17.9 GiB\n"),
    (MemoryError(), "error: out of memory\n"),
])
def test_wdvv_out_of_memory_exit_2(monkeypatch, error, message, capsys):
    # exit 1 means a failed check; before, a failed allocation ended in a traceback and exit 1
    import trigvee.wdvv as wdvv

    def exhausted(cfg, points, seed):
        raise error

    monkeypatch.setattr(wdvv, "sample_points", exhausted)
    f4 = os.path.join(_INPUTS, "F4.json")
    code, out, err = run(capsys, "wdvv", f4, "--samples", "3")
    assert (code, out, err) == (2, "", message)


def test_wdvv_samples_beyond_memory_exit_2_at_once(capsys):
    # the points are allocated as one array before any draw: 10^17 F4 points
    # ask for 3.2e18 bytes, which no address space holds
    f4 = os.path.join(_INPUTS, "F4.json")
    code, out, err = run(capsys, "wdvv", f4, "--samples", str(10**17))
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory: Unable to allocate")


def test_check_without_probe_reports_not_probed(capsys):
    f4 = os.path.join(_INPUTS, "F4.json")
    code, out, err = run(capsys, "check", f4, "--probe-flips", "0")
    assert code == 0
    assert "positive-system independent: not probed\n" in out
    code, out, err = run(capsys, "check", f4, "--probe-flips", "0", "--json")
    assert json.loads(out)["g2_positive_independent"] is None


def test_catalog_failed_reverification_exit_1(monkeypatch, capsys):
    from trigvee import catalog

    calls = []

    def shifted_lambda_sq(cfg):  # the parent's value, then a wrong one for every child
        calls.append(cfg)
        return lambda_sq(cfg) + (len(calls) > 1)

    monkeypatch.setattr(catalog, "lambda_sq", shifted_lambda_sq)
    code, out, err = run(capsys, "catalog", "--family", "F4", "--max-corank", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: flat spanned by [") and "the child's lambda^2 is" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "--family", "G2", "--max-corank", "1"],
        ["wdvv", os.path.join(_INPUTS, "F4.json"), "--samples", "5", "--json"],
    ],
    ids=["catalog", "wdvv"],
)
def test_closed_stdout_exits_141_without_traceback(argv):
    # as `trigvee ... | head -1` when head has gone: the command's first write
    # meets a pipe with no reader.  The read end is closed before the command
    # starts, so the write fails every time and no timing decides the test.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "trigvee.cli", *argv], stdout=w, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=path), timeout=120,
        )
    finally:
        os.close(w)
    assert b"Traceback" not in proc.stderr and proc.stderr == b""
    assert proc.returncode == 141


class _RecordedWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "G2", "--param", "p=1", "--param", "q=2"],
        ["catalog", "--family", "F4", "--max-corank", "2"],
    ],
    ids=["dict", "dumps"],
)
def test_output_is_one_write(argv, monkeypatch):
    # unbuffered, each write reaches the pipe on its own, and a reader that
    # stops after the first would make a second one fail: exit 141 by timing
    out = _RecordedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == 0
    [text] = out.writes
    assert text.endswith("}\n") and json.loads(text)


def test_output_without_stdout_is_skipped(capsys, monkeypatch):
    # a command started with stdout closed has sys.stdout None, as print allows
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["catalog", "--family", "G2", "--max-corank", "1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "G2", "--param", "p=1", "--param", "q=2"],
        ["restrict", os.path.join(_INPUTS, "F4.json"), "--kernel-of", "0"],
        ["catalog", "--family", "G2", "--max-corank", "1"],
    ],
    ids=["gen", "restrict", "catalog"],
)
def test_unwritable_output_exit_2(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "out.json"  # its directory does not exist
    code, out, err = run(capsys, *argv, "-o", str(path))
    assert code == 2 and out == ""
    assert err == "error: cannot write %s: No such file or directory\n" % path
    assert not path.exists()


@pytest.mark.parametrize("argv,message", [
    (["--family", "A", "--rank", "2", "--param", "t=1", "--partition", "1,1"],
     "family A takes no partition"),
    (["--family", "RestrictedBC", "--partition", "1,2", "--rank", "5",
      "--param", "r=1", "--param", "s=1", "--param", "q=1"],
     "family RestrictedBC has rank 2 from its partition, got 5"),
], ids=["partition", "rank"])
def test_gen_ignores_no_partition_or_rank_exit_2(argv, message, capsys):
    assert run(capsys, "gen", *argv) == (2, "", "error: %s\n" % message)


def test_zero_denominator_names_its_source(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 1, "covectors": [["1/0"]], "multiplicities": ["1"]}))
    assert run(capsys, "check", str(path)) == (
        2, "", "error: cannot read configuration %s: zero denominator in '1/0'\n" % path
    )
    assert run(capsys, "gen", "--family", "A", "--rank", "2", "--param", "t=1/0") == (
        2, "", "error: --param t expects a rational number, got '1/0'\n"
    )
    f4 = os.path.join(_INPUTS, "F4.json")
    assert run(capsys, "wdvv", f4, "--lambda-sq", "1/0") == (
        2, "", "error: --lambda-sq expects a rational number, got '1/0'\n"
    )
    assert run(capsys, "gamma", "--family", "F4", "--p", "1", "--q", "x") == (
        2, "", "error: --q expects a rational number, got 'x'\n"
    )


@pytest.mark.parametrize("command", [
    ["gen", "--family", "E8", "--param", "t=0"],
    ["catalog", "--family", "E8", "--param", "t=0", "--max-corank", "1"],
    ["gen", "--family", "G2", "--param", "p=0", "--param", "q=0"],
])
def test_params_that_drop_every_covector_exit_2(command, capsys):
    code, out, err = run(capsys, *command)
    family = command[2]
    assert code == 2 and out == ""
    assert err.startswith("error: every multiplicity of %s(" % family)
    assert err.endswith(" vanishes, so no covector is left\n")


def test_partial_zero_multiplicity_still_generates(capsys):
    code, out, _ = run(capsys, "gen", "--family", "BC", "--rank", "3",
                       "--param", "r=1", "--param", "s=1", "--param", "q=0")
    cfg = from_json_dict(json.loads(out))
    assert code == 0 and len(cfg) == 6  # e_i and 2e_i; the q-weighted e_i +- e_j drop out


def test_library_warning_prints_as_one_line(tmp_path, capsys):
    bc3 = tmp_path / "bc3.json"
    assert run(capsys, "gen", "--family", "BC", "--rank", "3", "--param", "r=1",
               "--param", "s=-1", "--param", "q=2", "-o", str(bc3)) == (0, "", "")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "trigvee.cli", "restrict", str(bc3), "--kernel-of", "7"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0 and json.loads(proc.stdout)["dim"] == 2
    assert proc.stderr == "warning: 1 covector(s) merged to zero multiplicity and were dropped\n"
    # in process the display is main's own: callers keep theirs
    shown = warnings.showwarning
    code, _, err = run(capsys, "restrict", str(bc3), "--kernel-of", "7")
    assert (code, err) == (0, proc.stderr) and warnings.showwarning is shown


@pytest.mark.parametrize("command", [["check"], ["subsystem", "--span", "0"], ["wdvv"]])
def test_singular_gram_form_is_named(command, tmp_path, capsys):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({"dim": 2, "covectors": [[1, 0], [0, 1], [0, -1]],
                                "multiplicities": [1, 1, -1]}))
    assert run(capsys, command[0], str(path), *command[1:]) == (
        2, "", "error: the weighted Gram form is singular\n"
    )


def test_wdvv_on_a_singular_gram_form_exit_2(tmp_path, capsys):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({"dim": 2, "covectors": [[1, 0], [0, 1], [0, -1]],
                                "multiplicities": [1, 1, -1]}))
    # named before lambda^2 is computed, with no warning about the merge that computing it drops
    assert run(capsys, "wdvv", str(path)) == (2, "", "error: the weighted Gram form is singular\n")
    code, out, err = run(capsys, "wdvv", str(path), "--lambda-sq", "1")
    assert (code, out) == (2, "") and err.endswith("error: base form is numerically singular\n")
