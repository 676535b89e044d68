"""Differential tests: the integer Gram form and duals behind ``gram``,
``duals``, ``pairings`` and ``g1`` against the Fraction computations they
replaced, kept here as oracles, and the elimination on integer rows against
the same rows as Fractions.

Inputs are random configurations of dimension 1 to 5 with non-integral
rational entries, negative multiplicities and collinear pairs (a rational
multiple of an earlier covector, possibly negative).
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from test_elimination import matrices
from test_veesystem import brute_g1
from trigvee.configuration import (
    Configuration,
    duals,
    gram,
    gram_inverse,
    gram_inverse_cleared,
    lattice,
    pairings,
)
from trigvee.exactla import SingularMatrixError, _gauss_jordan, clear_denominators, dot, mat_vec
from trigvee.veesystem import g1

# --- oracles: the Fraction implementations -------------------------------------


def oracle_gram(cfg):
    """The Fraction loop: G[i][j] = sum of c_a * a_i * a_j."""
    terms = list(zip(cfg.covectors, cfg.multiplicities))
    return tuple(
        tuple(sum((c * a[i] * a[j] for a, c in terms), Q(0)) for j in range(cfg.dim))
        for i in range(cfg.dim)
    )


def oracle_duals(cfg):
    gi = gram_inverse(cfg)
    return tuple(mat_vec(gi, a) for a in cfg.covectors)


def oracle_pairings(cfg):
    """(P, D) as computed from the cleared Gram inverse before the integer duals
    were kept: the duals H * a, then every pairing of a covector with them."""
    lat = lattice(cfg)
    gi, gi_den = gram_inverse_cleared(cfg)
    dv = [[sum(x * y for x, y in zip(row, a)) for row in gi] for a in lat.covectors]
    pm = [[sum(x * y for x, y in zip(a, v)) for v in dv] for a in lat.covectors]
    return pm, lat.denominator**2 * gi_den


# --- inputs -------------------------------------------------------------------

_entries = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))
_nonzero = st.builds(lambda sign, num, den: Q(sign * num, den),
                     st.sampled_from([1, -1]), st.integers(1, 6), st.integers(1, 4))


@st.composite
def configurations(draw):
    dim = draw(st.integers(1, 5))
    covs = draw(st.lists(st.tuples(*[_entries] * dim).filter(any), min_size=1, max_size=6))
    index = st.integers(0, len(covs) - 1)
    for i, k in draw(st.lists(st.tuples(index, _nonzero), max_size=3)):
        covs.append(tuple(k * x for x in covs[i]))
    mults = draw(st.lists(_nonzero, min_size=len(covs), max_size=len(covs)))
    return Configuration(dim, tuple(covs), tuple(mults))


# --- tests --------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(configurations())
def test_cleared_views_match_fraction_oracles(cfg):
    assert gram(cfg) == oracle_gram(cfg)
    assert all(type(x) is Q for row in gram(cfg) for x in row)
    assert g1(cfg) == brute_g1(cfg)
    try:
        expected = oracle_duals(cfg)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            duals(cfg)
        return
    assert duals(cfg) == expected
    assert all(type(x) is Q for v in duals(cfg) for x in v)
    pm, den = pairings(cfg)
    assert (pm, den) == oracle_pairings(cfg)
    for a, row in zip(cfg.covectors, pm):
        assert [Q(x, den) for x in row] == [dot(a, v) for v in expected]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_elimination_on_integer_rows_matches_fraction_copies(rows):
    ints, _ = clear_denominators(rows)
    red, pivots, d = _gauss_jordan(ints)
    assert all(type(x) is int for row in red for x in row) and type(d) is int
    assert _gauss_jordan([[Q(x) for x in row] for row in ints]) == (red, pivots, d)
    # a row that mixes ints and Fractions clears the same way
    mixed = [[x if i % 2 else Q(x) for i, x in enumerate(row)] for row in ints]
    assert _gauss_jordan(mixed) == (red, pivots, d)
