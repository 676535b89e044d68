"""Differential tests of the integer view against the Fraction oracles.

Random rational configurations with negative pivot entries, non-unit
denominators, negative multiplicities and opposite, duplicate or
integer-shifted copies of their covectors are fed to the literal Fraction
computations: the union-find series closure, the Fraction-keyed series
grouping the integer keys replaced, the wedge-sign property, the literal
vee-residual sum and the literal double sum of the second form.
"""

import warnings
from fractions import Fraction as Q

from hypothesis import assume, given, settings, strategies as st

from test_series import brute_force_series
from test_veesystem import brute_g2
from trigvee.configuration import Configuration, duals, pairings
from trigvee.exactla import SingularMatrixError, dot, wedge_vector
from trigvee.series import series_with_signs
from trigvee.veesystem import g2, vee_residuals

_entries = st.builds(Q, st.integers(-6, 6), st.integers(1, 3))
_mults = st.builds(
    lambda sign, num, den: Q(sign * num, den),
    st.sampled_from([1, -1]),
    st.integers(1, 6),
    st.integers(1, 4),
)


@st.composite
def rational_configurations(draw):
    dim = draw(st.integers(2, 4))
    base = draw(
        st.lists(st.tuples(*[_entries] * dim).filter(any), min_size=2, max_size=6)
    )
    covs = list(base)
    # sign * base[i] + m * base[j]: an opposite or duplicate copy when m = 0,
    # an integer shift along base[j] otherwise
    index = st.integers(0, len(base) - 1)
    copies = st.tuples(index, index, st.integers(-2, 2), st.sampled_from([1, -1]))
    for i, j, m, sign in draw(st.lists(copies, max_size=4)):
        v = tuple(sign * x + m * y for x, y in zip(base[i], base[j]))
        if any(v):
            covs.append(v)
    mults = draw(st.lists(_mults, min_size=len(covs), max_size=len(covs)))
    return Configuration(dim, tuple(covs), tuple(mults))


def fraction_series_with_signs(cfg, a):
    """The Fraction-keyed grouping: transverse part, sign, fractional step."""
    alpha = cfg.covectors[a]
    p = next(k for k in range(cfg.dim) if alpha[k] != 0)
    buckets = {}
    for g, gamma in enumerate(cfg.covectors):
        t = gamma[p] / alpha[p]
        rho = tuple(x - t * y for x, y in zip(gamma, alpha))
        if not any(rho):
            continue
        sign = 1 if next(x for x in rho if x != 0) > 0 else -1
        w = sign * t
        step = w - w.numerator // w.denominator
        members, signs = buckets.setdefault((tuple(sign * x for x in rho), step), ([], {}))
        members.append(g)
        signs[g] = sign
    return list(buckets.values())


def _has_duals(cfg):
    try:
        duals(cfg)
    except SingularMatrixError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(rational_configurations())
def test_series_match_oracles(cfg):
    for a in range(len(cfg)):
        groups = series_with_signs(cfg, a)
        assert groups == fraction_series_with_signs(cfg, a)
        assert {frozenset(m) for m, _ in groups} == brute_force_series(cfg, a)


@settings(max_examples=150, deadline=None)
@given(rational_configurations())
def test_series_wedge_signs(cfg):
    for a in range(len(cfg)):
        alpha = cfg.covectors[a]
        for members, signs in series_with_signs(cfg, a):
            b1 = members[0]
            w1 = wedge_vector(alpha, cfg.covectors[b1])
            for b2 in members:
                w2 = wedge_vector(alpha, cfg.covectors[b2])
                assert w1 == tuple(signs[b1] * signs[b2] * x for x in w2)


@settings(max_examples=150, deadline=None)
@given(rational_configurations())
def test_vee_residuals_match_literal_sum(cfg):
    assume(_has_duals(cfg))
    dv = duals(cfg)
    pm, den = pairings(cfg)
    assert all(pm[i][j] == pm[j][i] for i in range(len(cfg)) for j in range(i))
    expected = []
    for a in range(len(cfg)):
        alpha = cfg.covectors[a]
        for members, signs in fraction_series_with_signs(cfg, a):
            assert all(Q(pm[a][b], den) == dot(alpha, dv[b]) for b in members)
            total = sum(cfg.multiplicities[b] * dot(alpha, dv[b]) * signs[b] for b in members)
            expected.append((a, tuple(sorted(members)), signs[members[0]] * total))
    assert [(r.alpha, r.members, r.residual) for r in vee_residuals(cfg)] == expected


@settings(max_examples=150, deadline=None)
@given(rational_configurations())
def test_g2_matches_literal_sum(cfg):
    assume(_has_duals(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # copies may merge to zero multiplicity
        assert g2(cfg) == brute_g2(cfg)
