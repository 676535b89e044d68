"""Package exports load lazily, each command loads only the modules it runs
and never ``dataclasses``, and only ``wdvv`` loads numpy, with one BLAS thread
unless the user chose a number.  The float verifier draws its own sample
points, so neither ``wdvv`` nor perfbench's associativity job loads
``numpy.random``, whose import loads ``secrets`` and OpenSSL's ``_hashlib``;
only ``catalog`` loads ``_hashlib``, for its digest.

The import checks run in a fresh interpreter: the test process has every
module loaded already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trigvee

ROOT = Path(__file__).resolve().parent.parent
F4 = str(ROOT / "perfbench" / "inputs" / "F4.json")
PYTHONPATH = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

# Each step runs in one interpreter, in order; after each, the script reports
# the command's exit code, whether numpy is loaded, and the loaded trigvee
# modules, with those of WATCHED among them when they are loaded.
_WATCHED = ["dataclasses", "numpy.random", "secrets", "_hashlib"]
_SCRIPT = r"""
import contextlib, io, json, sys
WATCHED = %r
steps = json.loads(sys.argv[1])
report = []
for step in steps:
    code = None
    if isinstance(step, str):
        __import__(step)
    else:
        from trigvee.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(step)
    loaded = sorted(m for m in sys.modules if m.startswith("trigvee") or m in WATCHED)
    report.append([step, code, "numpy" in sys.modules, loaded])
print(json.dumps(report))
""" % _WATCHED


def _run(steps):
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(steps)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=PYTHONPATH),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_commands_load_no_numpy(tmp_path):
    steps = [
        "trigvee",
        "trigvee.configuration",
        "trigvee.cli",
        ["check", F4, "--json"],
        ["gen", "--family", "F4", "--param", "r=1", "--param", "s=1", "-o", str(tmp_path / "f4")],
        ["restrict", F4, "--kernel-of", "0"],
        ["subsystem", F4, "--span", "0,1", "--json"],
        ["gamma", "--family", "F4", "--p", "1", "--q", "2"],
        ["catalog", "--family", "G2", "--max-corank", "1"],
    ]
    report = _run(steps)
    assert [code for _, code, _, _ in report] == [None] * 3 + [0] * 6
    assert [step for step, _, numpy, _ in report if numpy] == []


@pytest.mark.parametrize("argv", [
    ["wdvv", F4, "--samples", "5"],
    ["wdvv", F4, "--samples", "5", "--json"],
])
def test_float_commands_load_numpy(argv):
    report = _run(["trigvee.cli", argv])
    assert [row[:3] for row in report] == [["trigvee.cli", None, False], [argv, 0, True]]
    assert not set(report[-1][3]) & set(_WATCHED)


def test_assoc_job_loads_no_numpy_random():
    # perfbench's library job: associativity_residual draws its triples too
    script = (
        "import contextlib, io, json, runpy, sys\n"
        "sys.argv = [sys.argv[1], %r, '972/5', '3', '1']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_path(sys.argv[0], run_name='__main__')\n"
        "    except SystemExit as e:\n"
        "        code = e.code\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m in %r)]))\n"
    ) % (F4, _WATCHED)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench" / "assoc_job.py")],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=PYTHONPATH),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]


_BASE = ["trigvee", "trigvee.cli", "trigvee.configuration", "trigvee.exactla"]
_VEE = ["trigvee.series", "trigvee.veesystem"]


@pytest.mark.parametrize("argv,modules", [
    (["check", F4, "--json"], _VEE),
    (["gen", "--family", "F4", "--param", "r=1", "--param", "s=1"], ["trigvee.families"]),
    (["gamma", "--family", "F4", "--p", "1", "--q", "2"],
     ["trigvee.families", "trigvee.gamma", *_VEE]),
    (["subsystem", F4, "--span", "0,1", "--json"], _VEE),
    (["restrict", F4, "--kernel-of", "0"], ["trigvee.restriction", *_VEE]),
    # canonical_digest's hashlib loads OpenSSL's _hashlib
    (["catalog", "--family", "G2", "--max-corank", "1"],
     ["_hashlib", "trigvee.catalog", "trigvee.families", "trigvee.permgroup",
      "trigvee.restriction", *_VEE]),
    # F4.json's lambda^2 given: the veesystem module that computes it stays unloaded
    (["wdvv", F4, "--samples", "3", "--lambda-sq", "972/5", "--json"], ["trigvee.wdvv"]),
    (["wdvv", F4, "--samples", "3", "--json"], ["trigvee.wdvv", *_VEE]),
], ids=["check", "gen", "gamma", "subsystem", "restrict", "catalog", "wdvv-lambda-sq", "wdvv"])
def test_each_command_loads_only_its_modules(argv, modules):
    [(_, code, numpy, loaded)] = _run([argv])
    assert (code, numpy, loaded) == (0, argv[0] == "wdvv", sorted(_BASE + modules))


def test_setup_imports_load_no_dataclasses():
    # what perfbench/setup_probe.py imports before it builds the inputs
    steps = ["trigvee.cli", "trigvee.configuration", "trigvee.exactla", "trigvee.families"]
    assert _run(steps)[-1] == [steps[-1], None, False, sorted(_BASE + ["trigvee.families"])]


# The public names, as the eager re-exports of earlier versions listed them.
EXPORTED = [
    "CDeltaZeroError", "Catalog", "CatalogEntry", "CollinearClass", "Configuration",
    "DegenerateParamsError", "DegenerateRestrictedGramError", "EigenDecomposition",
    "EmptyChildError", "FamilySpec", "MixedClassError", "NoATableError",
    "NoGenericFunctionalError", "NotEigenError", "NotProportionalError", "PoleTooCloseError",
    "Rat", "RestrictionResult", "RootData", "SeriesDecomposition", "SingularMatrixError",
    "SubsystemHandle", "UnsupportedParamsError", "VeeReport", "ZeroG2Error",
    "ZeroMultiplicityWarning", "alpha_series", "associativity_residual", "build_catalog",
    "c_delta", "canonical_digest", "catalog", "collinear_classes", "configuration", "dual",
    "duals", "exactla", "expected_lambda_sq", "extract", "families", "family_spec",
    "four_dim_config", "from_json_dict", "g1", "g2", "gamma", "gamma_sq_direct",
    "gamma_tilde_sq", "gamma_tilde_sq_dual", "generate", "gram", "gram_inverse", "invert",
    "lambda_sq", "m_operator", "normalize_positive", "pairing_profile",
    "partition_span_indices", "product", "rat", "restrict", "restricted_family",
    "restriction", "root_data", "sample_points", "series", "subsystem", "third_derivs",
    "to_json_dict", "vee_check", "veesystem", "wdvv", "wdvv_residual", "wedge_eval",
    "wedge_square",
]


def test_all_is_unchanged():
    assert len(EXPORTED) == 75
    assert trigvee.__all__ == EXPORTED


@pytest.mark.parametrize("name", EXPORTED)
def test_export_is_the_defining_object(name):
    module = "trigvee." + trigvee._EXPORTS[name]
    value = getattr(trigvee, name)
    if name == module.split(".")[1]:
        assert value is sys.modules[module]
        return
    assert value is getattr(importlib.import_module(module), name)
    # defined where the table says, not merely imported there (exactla's Rat is Fraction)
    assert value.__module__ == ("fractions" if name == "Rat" else module)


def test_star_import_and_dir():
    namespace = {}
    exec("from trigvee import *", namespace)
    assert set(EXPORTED) <= set(namespace)
    assert namespace["configuration"] is sys.modules["trigvee.configuration"]
    listed = dir(trigvee)
    assert "__all__" in listed and set(EXPORTED) <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        trigvee.no_such_name
    assert not hasattr(trigvee, "no_such_name")


# Reports, after the given statements, OPENBLAS_NUM_THREADS as the process sees
# it, whether os.environ is unchanged over them, and the process's thread count
# (None without /proc).
_THREADS_SCRIPT = r"""
import json, os
before = dict(os.environ)
exec(%r)
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), dict(os.environ) == before, tasks]))
"""


def _threads(statements, **env):
    base = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    base["PYTHONPATH"] = PYTHONPATH
    proc = subprocess.run(
        [sys.executable, "-c", _THREADS_SCRIPT % statements],
        capture_output=True, text=True, timeout=120, env=dict(base, **env),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_needs_threads = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="needs /proc and more than one CPU to count BLAS threads",
)


@_needs_threads
def test_wdvv_loads_numpy_with_one_blas_thread():
    # the variable is set for the import only: a child process would inherit it
    assert _threads("import trigvee.wdvv") == [None, True, 1]
    assert _threads("import trigvee.wdvv, numpy; numpy.ones((2000, 2000)) @ numpy.ones((2000, 2000))") == [None, True, 1]


@_needs_threads
def test_user_thread_count_is_kept():
    assert _threads("import trigvee.wdvv", OPENBLAS_NUM_THREADS="2") == ["2", True, 2]


def test_numpy_loaded_first_leaves_the_environment_alone():
    assert _threads("import numpy, trigvee.wdvv")[:2] == [None, True]
