"""The packed and symmetric kernels against the code they replaced.

``series_with_signs`` computes rho = alpha_p*gamma - gamma_p*alpha on the
packed rows of ``configuration.packed``; the tuple-keyed grouping on the
integer covectors it replaced is kept here as its oracle.  ``pairings``
computes each entry of the symmetric P once, and ``_g2_sum`` each entry of
the symmetric third moment once; the full-matrix pairings and the
full-moment sum are kept here as their oracles.
"""

import glob
import json
import os
import random
from fractions import Fraction as Q
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from test_golden_check import _CASES, _config_json
from trigvee.configuration import (
    Configuration,
    collinear_classes,
    configuration,
    from_json_dict,
    gram_inverse_cleared,
    lattice,
    packed,
    pairings,
)
from trigvee.exactla import wedge_pairs, zero_wedge_form
from trigvee.families import family_spec, generate
from trigvee.series import series_with_signs
from trigvee.veesystem import _g2_sum

_INPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs")


def tuple_series_with_signs(cfg, alpha_index):
    """The grouping on tuple keys: rho coordinate by coordinate, its first
    nonzero entry for the sign, (sign-normalized rho, step) as the key."""
    covs = lattice(cfg).covectors
    alpha = covs[alpha_index]
    pivot = next(k for k, x in enumerate(alpha) if x != 0)
    ap = alpha[pivot]
    period, orient = abs(ap), (1 if ap > 0 else -1)
    buckets = {}
    for g, gamma in enumerate(covs):
        gp = gamma[pivot]
        rho = tuple(ap * x - gp * y for x, y in zip(gamma, alpha))
        lead = next((x for x in rho if x != 0), 0)
        if lead == 0:
            continue
        sign = 1 if lead > 0 else -1
        step = sign * gp % period
        key = (rho if sign > 0 else tuple(-x for x in rho), step)
        members, signs = buckets.setdefault(key, ([], {}))
        members.append(g)
        signs[g] = sign * orient
    return list(buckets.values())


def full_pairings(cfg):
    """Every entry of P computed on its own."""
    lat = lattice(cfg)
    gi, gi_den = gram_inverse_cleared(cfg)
    dv = [[sum(map(mul, row, a)) for row in gi] for a in lat.covectors]
    return [[sum(map(mul, a, b)) for b in dv] for a in lat.covectors], lat.denominator**2 * gi_den


def full_moment_g2_sum(cfg, signs=None):
    """The second form through the third moment accumulated over all k, p, r."""
    n = cfg.dim
    if len(collinear_classes(cfg)) <= 1:
        return zero_wedge_form(n)
    lat = lattice(cfg)
    gi, gi_den = gram_inverse_cleared(cfg)
    weights = lat.multiplicities if signs is None else list(map(mul, signs, lat.multiplicities))
    moments = [[0] * (n * n) for _ in range(n)]
    for a, c in zip(lat.covectors, weights):
        for k in range(n):
            cak = c * a[k]
            row = moments[k]
            for p in range(n):
                cakp = cak * a[p]
                for r in range(n):
                    row[p * n + r] += cakp * a[r]
    gim = [[sum(map(mul, gi_row, col)) for col in zip(*moments)] for gi_row in gi]

    def t(p, r, q, s):
        return sum(m[p * n + r] * g[q * n + s] for m, g in zip(moments, gim))

    den = lat.mult_denominator**2 * lat.denominator**6 * gi_den
    pairs = wedge_pairs(n)
    return tuple(
        tuple(Q(8 * (t(p, r, q, s) - t(p, s, q, r)), den) for (r, s) in pairs)
        for (p, q) in pairs
    )


def _assert_series_match(cfg):
    for a in range(len(cfg)):
        assert series_with_signs(cfg, a) == tuple_series_with_signs(cfg, a), a


def _inputs():
    paths = sorted(glob.glob(os.path.join(_INPUTS, "*.json")))
    assert paths
    blobs = []
    for path in paths:
        with open(path) as fh:
            blobs.append(json.load(fh))
    return blobs + [_config_json(name) for name in _CASES]


_BLOBS = _inputs()
_IDS = [blob.get("name", "")[:24] for blob in _BLOBS]


def _scaled_and_flipped(cfg, seed):
    """cfg with every covector times 10^6 and a random set of them negated."""
    rng = random.Random(seed)
    scales = [rng.choice((1, -1)) * 10**6 for _ in cfg.covectors]
    covs = tuple(tuple(x * k for x in a) for a, k in zip(cfg.covectors, scales))
    return Configuration(cfg.dim, covs, cfg.multiplicities)


@pytest.mark.parametrize("blob", _BLOBS, ids=_IDS)
def test_packed_series_match_tuple_keys(blob):
    cfg = from_json_dict(blob)
    _assert_series_match(cfg)
    scaled = _scaled_and_flipped(cfg, len(cfg))
    assert any(next(x for x in a if x) < 0 for a in scaled.covectors)  # negative pivots
    assert packed(scaled).width > packed(cfg).width
    _assert_series_match(scaled)


@pytest.mark.parametrize("blob", _BLOBS, ids=_IDS)
def test_symmetric_kernels_match_full_oracles(blob):
    cfg = from_json_dict(blob)
    assert pairings(cfg) == full_pairings(cfg)
    assert _g2_sum(cfg) == full_moment_g2_sum(cfg)
    rng = random.Random(len(cfg))
    signs = [rng.choice((1, -1)) for _ in range(len(cfg))]
    assert _g2_sum(cfg, signs) == full_moment_g2_sum(cfg, signs)


def test_bc_collinear_alpha_and_double():
    bc = generate(family_spec("BC", 3, r=1, s=2, q=Q(3, 2)))
    covs = lattice(bc).covectors
    assert [1, 0, 0] in covs and [2, 0, 0] in covs
    _assert_series_match(bc)
    for seed in range(3):
        _assert_series_match(_scaled_and_flipped(bc, seed))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8, 2**20, 3**13])
def test_rho_at_the_width_bound(m):
    # rho = m*(-m, m) - (-m)*(m, m) = (0, 2m^2), the largest |rho_k| the width allows for
    cfg = configuration(3, [[m, m, 0], [-m, m, 0], [-m, m, m], [1, 0, m]], [1, 1, 1, 1])
    width = packed(cfg).width
    assert width == (4 * m * m).bit_length() and 2 * m * m < 2 ** (width - 1)
    _assert_series_match(cfg)


def test_packed_rows_are_the_weighted_field_sums():
    cfg = generate(family_spec("BC", 3, r=1, s=2, q=Q(3, 2)))
    rows, width = packed(cfg)
    assert width == (4 * 2**2).bit_length()
    for a, v in zip(lattice(cfg).covectors, rows):
        assert v == sum(x * 2 ** (width * (2 - k)) for k, x in enumerate(a))


def test_one_bit_narrower_would_merge_two_series():
    # against alpha = covector 1, covector 0 has rho = (0, 0, 2) and covector 2
    # has rho = (0, -1, 2); in 2-bit fields both would pack to +-2
    cfg = configuration(3, [[-1, -1, -1], [-1, -1, 1], [-1, 0, -1]], [1, 1, 1])
    assert packed(cfg).width == 3
    assert [m for m, _ in series_with_signs(cfg, 1)] == [[0], [2]]
    _assert_series_match(cfg)


@st.composite
def integer_configurations(draw):
    dim = draw(st.integers(2, 4))
    m = draw(st.integers(1, 3))
    entry = st.integers(-m, m)
    covs = draw(st.lists(st.tuples(*[entry] * dim).filter(any), min_size=2, max_size=16))
    return configuration(dim, covs, [1] * len(covs))


@settings(max_examples=300, deadline=None)
@given(integer_configurations())
def test_packed_series_match_tuple_keys_on_small_integers(cfg):
    _assert_series_match(cfg)
