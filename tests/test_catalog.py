import hashlib
import json
import warnings
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings

from trigvee.catalog import (
    _tuple_repr,
    build_catalog,
    canonical_digest,
    enumerate_flat_classes,
    pairing_profile,
)
from trigvee.configuration import (
    ZeroMultiplicityWarning,
    apply_matrix,
    configuration,
    normalize_positive,
    pairings,
)
from trigvee.exactla import mat
from trigvee.families import family_spec, generate
from trigvee.restriction import restrict
from trigvee.veesystem import lambda_sq, subsystem

from test_flip_probe import configurations_with_cancelling_pairs


def oracle_pairing_profile(cfg):
    """``pairing_profile`` on Fractions: one per entry, sorted as tuples of Fractions."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = normalize_positive(cfg)
    pm, den = pairings(cfg)
    n = len(cfg)
    diag = sorted((cfg.multiplicities[i], Fraction(pm[i][i], den)) for i in range(n))
    off = []
    for i in range(n):
        for j in range(i + 1, n):
            ci, cj = cfg.multiplicities[i], cfg.multiplicities[j]
            lo, hi = (ci, cj) if ci <= cj else (cj, ci)
            off.append((lo, hi, Fraction(abs(pm[i][j]), den)))
    return (cfg.dim, tuple(diag), tuple(sorted(off)))


def oracle_digest(cfg):
    """``canonical_digest`` as the hash of the profile's repr, one repr per pair."""
    return hashlib.sha256(repr(pairing_profile(cfg)).encode()).hexdigest()[:16]


_PARENTS = pytest.mark.parametrize(
    "spec",
    [
        family_spec("E6", t=1),
        family_spec("E7", t=1),
        family_spec("E8", t=1),
        family_spec("F4", r=1, s=2),
        family_spec("BC", 4, r=1, s=Fraction(1, 2), q=2),
    ],
    ids=["E6", "E7", "E8", "F4", "BC4"],
)


def _with_children(spec):
    """The root configuration and its flat-class children up to corank 3."""
    cfg = generate(spec)
    return [cfg] + [
        restrict(cfg, subsystem(cfg, fc.span_indices)).child
        for fc in enumerate_flat_classes(cfg, min(3, cfg.dim - 1))
    ]


@_PARENTS
def test_pairing_profile_repr_matches_fraction_oracle(spec):
    # the repr is what canonical_digest hashes, so every digest depends on it byte for byte
    for c in _with_children(spec):
        assert repr(pairing_profile(c)) == repr(oracle_pairing_profile(c))


@_PARENTS
def test_digest_matches_profile_repr_oracle(spec):
    for c in _with_children(spec):
        assert canonical_digest(c) == oracle_digest(c)


@settings(max_examples=150, deadline=None)
@given(configurations_with_cancelling_pairs())
@example(configuration(1, [[1], [-1], [3]], [2, -1, 1]))  # one pair: a 1-tuple
@example(configuration(1, [[2], [-2], [1]], [1, -1, 1]))  # one row: a 1-tuple and ()
def test_digest_matches_profile_repr_oracle_on_random_configurations(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            expected = oracle_digest(cfg)
        except ZeroDivisionError:  # a singular Gram form
            assume(False)
        assert canonical_digest(cfg) == expected


@pytest.mark.parametrize("runs", [[], [("a", 1)], [("a", 2)], [("a", 1), (Fraction(1, 2), 3)]])
def test_tuple_repr_of_runs(runs):
    assert _tuple_repr(runs) == repr(tuple(x for x, count in runs for _ in range(count)))


def test_profile_invariant_under_coordinate_change_and_flips():
    cfg = generate(family_spec("BC", 3, r=1, s=2, q=1))
    u = mat([[1, 1, 0], [0, 1, 0], [2, 0, 1]])
    transformed = apply_matrix(cfg, u)
    assert pairing_profile(cfg) == pairing_profile(transformed)
    flipped = configuration(
        cfg.dim,
        tuple(tuple(-x for x in a) if i % 2 else a for i, a in enumerate(cfg.covectors)),
        cfg.multiplicities,
    )
    assert pairing_profile(cfg) == pairing_profile(flipped)
    assert canonical_digest(cfg) == canonical_digest(flipped)


def test_profile_distinguishes_different_children():
    a = generate(family_spec("BC", 2, r=1, s=1, q=1))
    b = generate(family_spec("BC", 2, r=2, s=1, q=1))
    assert pairing_profile(a) != pairing_profile(b)


def test_corank_zero_catalog():
    cfg = generate(family_spec("G2", p=1, q=1))
    cat = build_catalog(cfg, "G2", "p=1,q=1", 0)
    assert len(cat.entries) == 1
    e = cat.entries[0]
    assert e.corank == 0 and e.covector_count == len(cfg)
    assert e.lambda_sq == lambda_sq(cfg)


def test_flat_classes_bc3():
    cfg = generate(family_spec("BC", 3, r=1, s=1, q=1))
    classes = enumerate_flat_classes(cfg, 2)
    # corank 1: {e_i, 2e_i} lines (3 of them) and {e_i +- e_j} lines (6)
    rank1 = [c for c in classes if c.corank == 1]
    assert sorted((c.n_members, c.class_size) for c in rank1) == [(1, 6), (2, 3)]
    total_rank1 = sum(c.class_size for c in rank1)
    assert total_rank1 == 9  # 9 lines through the 12 covectors
    for c in classes:
        assert c.corank <= 2


def test_catalog_json_round_trip_and_determinism():
    cfg = generate(family_spec("F4", r=1, s=1))
    cat1 = build_catalog(cfg, "F4", "r=1,s=1", 2)
    cat2 = build_catalog(cfg, "F4", "r=1,s=1", 2)
    assert cat1.dumps() == cat2.dumps()
    payload = json.loads(cat1.dumps())
    assert payload["parent_lambda_sq"] == str(lambda_sq(cfg))
    assert all(e["lambda_sq"] == payload["parent_lambda_sq"] for e in payload["entries"])
    # a Fraction is written as its str, and any other value JSON cannot hold is refused
    odd = replace(cat1, entries=(replace(cat1.entries[0], lambda_sq=object()),))
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        odd.dumps()


def test_catalog_entries_verified():
    cfg = generate(family_spec("BC", 4, r=1, s=1, q=1))
    cat = build_catalog(cfg, "BC", "r=1,s=1,q=1", 3)
    assert cat.parent_lambda_sq == lambda_sq(cfg)
    for e in cat.entries:
        if e.lambda_verified:
            assert e.lambda_sq == cat.parent_lambda_sq
        assert e.child_dim == cfg.dim - e.corank
    # the BC2(1,1,1;(2,2)) child appears among corank-2 entries
    from trigvee.families import restricted_family

    table = restricted_family(family_spec("RestrictedBC", partition=(2, 2), r=1, s=1, q=1))
    digests = {e.digest for e in cat.entries}
    assert canonical_digest(table) in digests


def test_catalog_children_do_not_leak_zero_multiplicity_warnings():
    # BC4(1, -1, 1) has children whose covectors cancel in pairs; the
    # catalog builds them itself, so their dropped covectors are no warning
    cfg = generate(family_spec("BC", 4, r=1, s=-1, q=1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_catalog(cfg, "BC", "r=1,s=-1,q=1", 2)
    assert not [w for w in caught if issubclass(w.category, ZeroMultiplicityWarning)]


def test_catalog_counts_only_covectors_that_do_not_cancel():
    # a child covector whose merged multiplicities cancel is dropped, as the
    # positive view drops it, so covector_count does not count it
    bc3 = generate(family_spec("BC", 3, r=1, s=1, q=-1))
    counts = {e.span_indices: e.covector_count for e in build_catalog(bc3, "BC", "", 1).entries}
    assert counts[(0,)] == 6 and counts[(6,)] == 9  # 8 and 10 with the cancelled ones
    bc4 = generate(family_spec("BC", 4, r=1, s=-1, q=1))
    counts = {e.span_indices: e.covector_count for e in build_catalog(bc4, "BC", "", 3).entries}
    changed = {(8,): 17, (8, 18): 10, (0, 14): 10, (8, 10, 12): 3, (0, 1, 18): 3}
    assert {span: counts[span] for span in changed} == changed


def test_pairing_profile_warns_like_g2_on_a_cancelling_pair():
    cfg = configuration(2, [[1, 0], [0, 1], [1, 1], [-1, -1]], [1, 1, 1, -1])
    with pytest.warns(ZeroMultiplicityWarning):
        profile = pairing_profile(cfg)
    assert profile == pairing_profile(configuration(2, [[1, 0], [0, 1]], [1, 1]))


def test_max_corank_bounds():
    cfg = generate(family_spec("BC", 2, r=1, s=1, q=1))
    with pytest.raises(ValueError):
        enumerate_flat_classes(cfg, 2)
    for bad in (-1, -2, 2):
        with pytest.raises(ValueError):
            build_catalog(cfg, "BC", "r=1,s=1,q=1", bad)


def test_corank_range_checked_before_lambda_sq(monkeypatch):
    from trigvee import catalog

    def refuse(cfg):
        raise AssertionError("lambda_sq called before the corank range check")

    monkeypatch.setattr(catalog, "lambda_sq", refuse)
    cfg = generate(family_spec("E6", t=1))
    for bad in (-1, 6):
        with pytest.raises(ValueError, match="max_corank"):
            build_catalog(cfg, "E6", "t=1", bad)
