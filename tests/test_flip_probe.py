"""The positive-system probe of the second form runs on signs.

Renormalizing against a functional phi turns each covector b to
sgn(b(phi)) * b and merges duplicates, which only adds multiplicities, so
the probe evaluates the configuration's own second form with those signs
instead of building a new configuration per probe.  The per-probe renormalization the
signs replaced is kept here as the oracle, with the Fraction draw of the
random functional the integer draw replaced.
"""

import random
import warnings
from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from test_integer_view import rational_configurations
from trigvee.configuration import Configuration, normalize_positive
from trigvee.exactla import dot
from trigvee.veesystem import _g2_sum, _random_functional, g2_positive_flip_invariant


def oracle_random_functional(cfg, rng):
    while True:
        phi = tuple(Q(rng.randint(-99, 99), rng.randint(1, 19)) for _ in range(cfg.dim))
        if all(x == 0 for x in phi):
            continue
        if all(dot(a, phi) != 0 for a in cfg.covectors):
            return phi


def oracle_flip_invariant(cfg, flips, seed):
    base = _g2_sum(normalize_positive(cfg))
    rng = random.Random(seed)
    for _ in range(flips):
        phi = oracle_random_functional(cfg, rng)
        if _g2_sum(normalize_positive(cfg, phi)) != base:
            return False
    return True


@st.composite
def configurations_with_cancelling_pairs(draw):
    """Random configurations plus copies whose merged multiplicity is zero."""
    cfg = draw(rational_configurations())
    covs, mults = list(cfg.covectors), list(cfg.multiplicities)
    for i, sign in draw(st.lists(st.tuples(st.integers(0, len(cfg) - 1), st.sampled_from([1, -1])),
                                 max_size=2)):
        covs.append(tuple(sign * x for x in cfg.covectors[i]))
        mults.append(-sum(c for a, c in zip(covs, mults) if a in (covs[i], covs[-1])))
    return Configuration(cfg.dim, tuple(covs), tuple(mults))


@settings(max_examples=150, deadline=None)
@given(configurations_with_cancelling_pairs(), st.integers(0, 2**16))
def test_signed_probe_matches_per_probe_renormalization(cfg, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            expected = oracle_flip_invariant(cfg, 3, seed)
        except ZeroDivisionError:  # singular Gram form
            return
        pos = normalize_positive(cfg)
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            phi = _random_functional(cfg, rng)
            # the same draw, cleared to integers: a positive multiple
            expected_phi = oracle_random_functional(cfg, oracle_rng)
            k = next(i for i, x in enumerate(expected_phi) if x)
            scale = phi[k] / expected_phi[k]
            assert scale > 0 and [Q(x) for x in phi] == [scale * x for x in expected_phi]
            signs = [1 if dot(b, phi) > 0 else -1 for b in pos.covectors]
            assert _g2_sum(pos, signs) == _g2_sum(normalize_positive(cfg, phi))
        assert g2_positive_flip_invariant(cfg, 3, seed) == expected

