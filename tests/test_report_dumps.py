"""`VeeReport.dumps()` writes the bytes the standard library writes.

``check --json`` prints ``VeeReport.dumps()``, which renders the report
straight from its residuals.  The oracle is the generic path it replaced:
``json.dumps(report.to_json_dict(), indent=2, sort_keys=True)``.  The two are
compared on every golden and benchmark input, on hand-made reports that reach
the empty, null and warning branches, and on random configurations.
"""

import glob
import json
import os
import tracemalloc
import warnings
from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from test_flip_probe import configurations_with_cancelling_pairs
from test_golden_check import _CASES, _config_json
from test_integer_view import rational_configurations
from trigvee.cli import _emit, _load_config
from trigvee.configuration import configuration, from_json_dict
from trigvee.veesystem import CDeltaWarning, SeriesResidual, VeeReport, vee_check

_INPUTS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                                        "inputs", "*.json")))


def oracle_dumps(report: VeeReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True)


# nonzero residuals, lambda_sq None and non-proportional forms
_NOT_VEE = configuration(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 0], [0, 1, 3]], [1, 2, 3, 4, 5])
# every covector on one line: no series at all, and no second form
_ONE_LINE = configuration(1, [[1], [2], [-3]], [1, 1, 2])
# the short covectors cancel their doubles: two zero class sums
_ZERO_CLASS = configuration(2, [[1, 0], [0, 1], [2, 0], [0, 2], [1, 1], [1, -1]],
                            [-4, -4, 1, 1, 1, 1])
_EXAMPLES = (_NOT_VEE, _ONE_LINE, _ZERO_CLASS)


@pytest.mark.parametrize("name", list(_CASES))
def test_golden_inputs(name):
    cfg = from_json_dict(_config_json(name))
    for flips in (0, 2):
        report = vee_check(cfg, probe_flips=flips)
        assert report.dumps() == oracle_dumps(report)


@pytest.mark.parametrize("path", _INPUTS, ids=os.path.basename)
def test_benchmark_inputs(path):
    report = vee_check(_load_config(path))
    assert report.dumps() == oracle_dumps(report)


def test_benchmark_inputs_are_found():
    assert len(_INPUTS) == 7


def test_examples_reach_every_branch():
    reports = [vee_check(cfg, probe_flips=0) for cfg in _EXAMPLES]
    assert any(r.residual for rep in reports for r in rep.series_residuals)
    assert any(rep.lambda_sq is None for rep in reports)
    assert any(rep.c_delta_warnings for rep in reports)
    assert any(not rep.series_residuals for rep in reports)


@pytest.mark.parametrize("report", [
    VeeReport(True, (), (), None, True, None),
    VeeReport(False, (), (CDeltaWarning(3, (3,)),), Q(-7, 2), False, False),
    # alpha keys order as strings, residuals keep their order within an alpha,
    # and equal members or residuals held by distinct objects print alike
    VeeReport(False, (
        SeriesResidual(10, (1, 2), Q(1, 3)), SeriesResidual(2, (0,), Q(0)),
        SeriesResidual(10, (4,), Q(0)), SeriesResidual(2, (1, 2), Q(1, 3)),
        SeriesResidual(1, (0,), Q(-5)),
    ), (), Q(4), True, True),
], ids=["empty", "warning only", "unsorted alphas"])
def test_hand_made_reports(report):
    assert report.dumps() == oracle_dumps(report)


@settings(max_examples=150, deadline=None)
@given(st.one_of(rational_configurations(), configurations_with_cancelling_pairs()),
       st.sampled_from([0, 2]))
@example(_NOT_VEE, 2)
@example(_ONE_LINE, 0)
@example(_ZERO_CLASS, 0)
def test_random_configurations(cfg, flips):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            report = vee_check(cfg, probe_flips=flips)
        except ZeroDivisionError:  # a singular Gram form
            assume(False)
    assert report.dumps() == oracle_dumps(report)


def test_writing_the_e8_report_stays_small(tmp_path):
    """The generic path peaked at 4.7 MB traced on E8's 570 KB report."""
    report = vee_check(_load_config(next(p for p in _INPUTS if p.endswith("E8.json"))))
    out = str(tmp_path / "e8.json")
    tracemalloc.start()
    try:
        _emit(report, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(out) as fh:
        assert fh.read() == oracle_dumps(report) + "\n"
    assert peak < 3_000_000, peak
