"""Exact reflection orbits of flats: the generators, the stabiliser chains
and the orbit counts.

The orbit counts up to corank 3 are checked against the orbit types of
flats of the exceptional Weyl arrangements tabulated by Orlik and Terao
(Arrangements of Hyperplanes, 1992), an independent source.  The E6 and E7
counts at coranks 4 and 5 pin what the walk finds.  The group orders are
|W| / 2, or |W| for E6, whose -1 is no reflection product: W acts on lines.
"""

import random
from collections import Counter

import pytest

from trigvee import catalog, permgroup
from trigvee.catalog import enumerate_flat_classes, simple_reflections
from trigvee.configuration import configuration, lattice, pairings
from trigvee.families import family_spec, generate
from trigvee.veesystem import subsystem


def _isotropic_pair():
    """Gram form diag(1, -1): e1 +- e2 are isotropic and admit no reflection,
    while the reflections in e1 and e2 are symmetries."""
    return configuration(2, [[1, 0], [0, 1], [1, 1], [1, -1]], [-1, -3, 1, 1])


_GENERATED = [
    ("E6", family_spec("E6", t=1), 6),
    ("E7", family_spec("E7", t=1), 7),
    ("E8", family_spec("E8", t=1), 8),
    ("F4", family_spec("F4", r=1, s=1), 4),
    ("F4(-1,-2/3)", family_spec("F4", r=-1, s="-2/3"), 4),
    ("BC3", family_spec("BC", 3, r=1, s=2, q=3), 3),
    ("BC5", family_spec("BC", 5, r=1, s=1, q=1), 5),
    ("D4", family_spec("D", 4, t=1), 4),
    ("D5", family_spec("D", 5, t=1), 5),
    ("A3", family_spec("A", 3, t=1), 3),
    ("A4", family_spec("A", 4, t=1), 4),
    ("G2", family_spec("G2", p=1, q=2), 2),
]
_CASES = [(name, lambda spec=spec: generate(spec), rank) for name, spec, rank in _GENERATED]
_CASES.append(("isotropic pair", _isotropic_pair, 2))


@pytest.mark.parametrize("name,make,rank", _CASES, ids=[c[0] for c in _CASES])
def test_simple_reflections_are_signed_symmetries(name, make, rank):
    cfg = make()
    n = len(cfg)
    pm, _ = pairings(cfg)
    mults = lattice(cfg).multiplicities
    gens = simple_reflections(cfg)
    assert len(gens) == rank
    for perm, signs in gens:
        assert sorted(perm) == list(range(n))
        assert all(perm[perm[i]] == i and signs[perm[i]] == signs[i] for i in range(n))
        assert all(mults[perm[i]] == mults[i] for i in range(n))
        assert all(
            pm[perm[i]][perm[j]] == signs[i] * signs[j] * pm[i][j]
            for i in range(n) for j in range(n)
        )
        # the root is negated in place, and is never isotropic
        roots = [b for b in range(n) if perm[b] == b and signs[b] < 0]
        assert roots and all(pm[b][b] != 0 for b in roots)


# (corank, n_members, class_size) of every orbit up to the given corank
_ORBITS = [
    ("E6", family_spec("E6", t=1), 5, [
        (1, 1, 36), (2, 2, 270), (2, 3, 120), (3, 6, 270), (3, 3, 540), (3, 4, 720),
        (4, 5, 1080), (4, 6, 120), (4, 7, 540), (4, 10, 216), (4, 12, 45),
        (5, 7, 360), (5, 11, 216), (5, 15, 36), (5, 20, 27),
    ]),
    ("E7", family_spec("E7", t=1), 5, [
        (1, 1, 63), (2, 2, 945), (2, 3, 336),
        (3, 6, 1260), (3, 3, 3780), (3, 3, 315), (3, 4, 5040),
        (4, 4, 3780), (4, 5, 15120), (4, 6, 3360), (4, 7, 1260), (4, 7, 7560),
        (4, 10, 2016), (4, 12, 315),
        (5, 6, 5040), (5, 7, 10080), (5, 8, 7560), (5, 9, 5040), (5, 11, 6048),
        (5, 13, 945), (5, 15, 336), (5, 15, 1008), (5, 20, 378),
    ]),
    ("E8", family_spec("E8", t=1), 3, [
        (1, 1, 120), (2, 2, 3780), (2, 3, 1120), (3, 6, 7560), (3, 3, 37800), (3, 4, 40320),
    ]),
    # non-unit parameters, where the old float fingerprint split orbits by
    # rounding noise (7 + 12 + 5 and 45 + 3)
    ("F4(3,2)", family_spec("F4", r=3, s=2), 1, [(1, 1, 12), (1, 1, 12)]),
    ("F4(-1,-2/3)", family_spec("F4", r=-1, s="-2/3"), 3, [
        (1, 1, 12), (1, 1, 12), (2, 2, 72), (2, 3, 16), (2, 3, 16), (2, 4, 18),
        (3, 9, 12), (3, 9, 12), (3, 4, 48), (3, 4, 48),
    ]),
]


@pytest.mark.parametrize("name,spec,corank,orbits", _ORBITS, ids=[c[0] for c in _ORBITS])
def test_orbit_counts(name, spec, corank, orbits):
    classes = enumerate_flat_classes(generate(spec), corank)
    assert Counter((c.corank, c.n_members, c.class_size) for c in classes) == Counter(orbits)



_ORDERS = [
    ("F4", family_spec("F4", r=1, s=1), 576),
    ("E6", family_spec("E6", t=1), 51_840),
    ("E7", family_spec("E7", t=1), 1_451_520),
    ("E8", family_spec("E8", t=1), 348_364_800),
]


def _assert_complete(chain, order):
    """The chain is consistent, and every Schreier generator of every level
    sifts to the identity through the levels below it.  A level stores only
    the inverse u^-1 of each transversal element u."""
    assert chain.order() == order
    for i, (b, trans) in enumerate(zip(chain.base, chain.trans)):
        for s, si in chain.gens[i]:
            assert all(s[c] == c for c in chain.base[:i])
            assert permgroup.mul(s, si) == chain.ident
        for y, ui in trans.items():
            assert ui[y] == b
            u = permgroup.inverse(ui)
            for s, _ in chain.gens[i]:
                g = permgroup.mul(trans[s[y]], permgroup.mul(s, u))
                assert chain.sift(g, i + 1) == (chain.ident, len(chain.base))


@pytest.mark.parametrize("name,spec,order", _ORDERS, ids=[c[0] for c in _ORDERS])
def test_group_order_and_complete_chain(name, spec, order):
    walk = catalog._Walk(generate(spec))
    assert walk.order == order
    _assert_complete(walk.chain, order)
    # a rebased chain is certified by the order alone; check it the long way
    base = random.Random(name).sample(range(walk.n), 3)
    chain = permgroup.rebase(walk.chain, base)
    assert chain.base[:3] == base
    _assert_complete(chain, order)


_STEINBERG = [
    ("E6", family_spec("E6", t=1), 5),
    ("E7", family_spec("E7", t=1), 4),
    ("D5", family_spec("D", 5, t=1), 4),
    ("BC4", family_spec("BC", 4, r=1, s=2, q=3), 3),
    ("F4(-1,-2/3)", family_spec("F4", r=-1, s="-2/3"), 3),
]


@pytest.mark.parametrize("name,spec,corank", _STEINBERG, ids=[c[0] for c in _STEINBERG])
def test_steinberg_count_equals_plain_count(name, spec, corank):
    # |W_F| |Stab_G{S}| / |Stab_W{S}| against the images of the span that
    # stay in the flat, times the order of the rest of a chain on the span
    cfg = generate(spec)
    walk = catalog._Walk(cfg)
    for fc in enumerate_flat_classes(cfg, corank):
        members = frozenset(subsystem(cfg, fc.span_indices).member_indices)
        flat = catalog._Flat(walk, fc.span_indices, members)
        simple, spanned = flat.key
        assert spanned and len(simple) == fc.corank  # every flat is spanned by its roots
        chain = permgroup.rebase(walk.chain, fc.span_indices)
        plain = permgroup.images(chain, fc.corank, members) * chain.order(fc.corank)
        assert flat.stabiliser_order() == plain == walk.order // fc.class_size
