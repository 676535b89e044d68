"""The positive system read off the configuration itself.

``g2``, the flip probe and ``pairing_profile`` take a positive system from
``orientation``: each covector's sign and the merged rows that do not cancel,
on the configuration's own integer view.  The path they replaced built that
system as a second configuration, ``normalize_positive(cfg)``, and ran the
same computations on it; it is kept here as the oracle.
"""

import hashlib
import sys
import warnings
from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from test_flip_probe import configurations_with_cancelling_pairs, oracle_flip_invariant
from test_integer_layers import outcome
from trigvee.catalog import canonical_digest, pairing_profile
from trigvee.configuration import (
    Configuration,
    ZeroMultiplicityWarning,
    collinear_classes,
    configuration,
    from_json_dict,
    lattice,
    normalize_positive,
    orientation,
    pairings,
    to_json_dict,
)
from trigvee.exactla import zero_wedge_form
from trigvee.families import family_spec, generate
from trigvee.veesystem import _g2_sum, g2, g2_positive_flip_invariant


def oracle_pairing_profile(cfg):
    """The profile code of the replaced path, run on the normalized copy."""
    cfg = normalize_positive(cfg)
    _, _, mults, mult_den = lattice(cfg)
    pm, den = pairings(cfg)
    diag = sorted(zip(mults, (row[i] for i, row in enumerate(pm))))
    off = Counter()
    for i, (ci, row) in enumerate(zip(mults, pm)):
        for cj, p in zip(mults[i + 1 :], row[i + 1 :]):
            off[(ci, cj, abs(p)) if ci <= cj else (cj, ci, abs(p))] += 1
    mult = {c: Q(c, mult_den) for c in set(mults)}
    pair = {p: Q(p, den) for p in {p for _, p in diag} | {key[2] for key in off}}
    pairs = []
    for (lo, hi, p), count in sorted(off.items()):
        pairs += [(mult[lo], mult[hi], pair[p])] * count
    return (cfg.dim, tuple((mult[c], pair[p]) for c, p in diag), tuple(pairs))


def oracle_digest(cfg):
    return hashlib.sha256(repr(oracle_pairing_profile(cfg)).encode()).hexdigest()[:16]


def _fresh(cfg):
    return from_json_dict(to_json_dict(cfg))


@settings(max_examples=200, deadline=None)
@given(configurations_with_cancelling_pairs(), st.integers(0, 2**16))
def test_orientation_matches_normalized_copy(cfg, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroMultiplicityWarning)
        pos = normalize_positive(_fresh(cfg))
        assert outcome(g2, cfg) == outcome(_g2_sum, pos)
        assert outcome(pairing_profile, cfg) == outcome(oracle_pairing_profile, pos)
        assert outcome(canonical_digest, cfg) == outcome(oracle_digest, pos)
        flips = outcome(g2_positive_flip_invariant, cfg, 3, seed)
        assert flips == outcome(oracle_flip_invariant, _fresh(cfg), 3, seed)
    signs, rows, classes = orientation(cfg)
    assert [cfg.covectors[i] if signs[i] > 0 else tuple(-x for x in cfg.covectors[i])
            for i, _ in rows] == list(pos.covectors)
    assert [Q(c, lattice(cfg).mult_denominator) for _, c in rows] == list(pos.multiplicities)
    assert classes == len(collinear_classes(pos))


_CANCELLED = {"dim": 2, "covectors": [[1, 0], [0, 1], [0, -1]], "multiplicities": [1, 1, -1]}


def test_cancelled_pair_leaves_one_class_and_a_zero_form():
    cfg = from_json_dict(_CANCELLED)  # the Gram form diag(1, 0) is singular
    with pytest.warns(ZeroMultiplicityWarning, match="^1 covector"):
        assert g2(cfg) == zero_wedge_form(2)
    assert orientation(cfg) == ([1, 1, -1], [(0, 1)], 1)
    assert g2_positive_flip_invariant(cfg, 5)


def _cases():
    bc3 = to_json_dict(generate(family_spec("BC", 3, r=1, s=2, q=Q(3, 2))))
    flipped = dict(bc3, covectors=[[str(-Q(x)) for x in a] for a in bc3["covectors"]])
    doubled = configuration(2, [[1, 0], [-1, 0], [1, 1], [2, 1]], [1, 1, 2, 3])
    return [from_json_dict(bc3), from_json_dict(flipped), doubled,
            generate(family_spec("G2", p=1, q=2)), from_json_dict(_CANCELLED)]


@pytest.mark.parametrize("cfg", _cases(), ids=["BC3", "flipped", "doubled", "G2", "cancelled"])
def test_no_normalization_and_no_second_configuration(cfg, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = normalize_positive
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "trigvee"]:
        if hasattr(module, "normalize_positive"):
            monkeypatch.setattr(module, "normalize_positive", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroMultiplicityWarning)
        for flips in (0, 1, 5):
            g2(cfg)
            g2_positive_flip_invariant(cfg, flips)
        outcome(pairing_profile, cfg)  # the cancelled case has a singular Gram form
    assert calls == []
    assert not [v for v in cfg.__dict__.values() if isinstance(v, Configuration)]


def test_normalize_positive_warns_on_every_call():
    cfg = from_json_dict(_CANCELLED)
    with pytest.warns(ZeroMultiplicityWarning):
        orientation(cfg)
    for _ in range(3):  # the memo above does not quiet it
        with pytest.warns(ZeroMultiplicityWarning, match="^1 covector"):
            assert normalize_positive(cfg) == configuration(2, [[1, 0]], [1])
