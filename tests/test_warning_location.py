"""Library warnings name the caller's line, not a frame inside trigvee.

A warning raised while a memo is computed sits under a varying number of
package frames (the memo wrapper, ``orientation``, ``_orient``), so a fixed
``stacklevel`` names an internal line.  Each warning below must carry the
filename of this test file, whichever public function triggered it.
"""

import warnings

import pytest

from trigvee.catalog import pairing_profile, simple_reflections
from trigvee.configuration import ZeroMultiplicityWarning, configuration, normalize_positive
from trigvee.families import family_spec, generate
from trigvee.restriction import restrict
from trigvee.veesystem import c_delta_zero_warnings, g2, subsystem, vee_check


def _cancelling():
    """(1, 1) and (-1, -1) merge to multiplicity zero; the Gram form stays the identity."""
    return configuration(2, [[1, 0], [0, 1], [1, 1], [-1, -1]], [1, 1, 1, -1])


def _restricted_bc3():
    """The kernel of covector 7 of BC3(1, -1, 2) merges two covectors to zero."""
    cfg = generate(family_spec("BC", 3, r=1, s=-1, q=2))
    return restrict(cfg, subsystem(cfg, (7,)))


def _long_class():
    """One collinearity class of 13 covectors: only subsets of 12 are searched."""
    return vee_check(configuration(2, [[k, 0] for k in range(1, 14)] + [[0, 1]], [1] * 14), 0)


@pytest.mark.parametrize("call, category", [
    (lambda: g2(_cancelling()), ZeroMultiplicityWarning),
    (lambda: normalize_positive(_cancelling()), ZeroMultiplicityWarning),
    (lambda: pairing_profile(_cancelling()), ZeroMultiplicityWarning),
    (lambda: simple_reflections(_cancelling()), ZeroMultiplicityWarning),
    (_restricted_bc3, ZeroMultiplicityWarning),
    (_long_class, UserWarning),
    (lambda: c_delta_zero_warnings(configuration(1, [[k] for k in range(1, 14)], [1] * 13)),
     UserWarning),
], ids=["g2", "normalize_positive", "pairing_profile", "simple_reflections", "restrict",
        "vee_check", "c_delta_zero_warnings"])
def test_warning_names_the_callers_file(call, category):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert [w.category for w in caught] == [category]
    assert caught[0].filename == __file__
