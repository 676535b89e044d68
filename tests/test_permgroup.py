"""Stabiliser chains on groups that are not reflection groups, against a
brute-force closure of the generators, and the random base change against
the deterministic Schreier-Sims on the E6 catalog's flats.

The generator sets are seeded and random on at most 7 points.  Each
generator permutes a random subset of the points, so the groups range over
trivial, cyclic, intransitive and symmetric ones.
"""

import random

import pytest

from trigvee import catalog
from trigvee.families import family_spec, generate
from trigvee.permgroup import images, mul, rebase, schreier_sims
from trigvee.veesystem import subsystem


def _generators(rng, n):
    gens = []
    for _ in range(rng.randint(1, 3)):
        points = rng.sample(range(n), rng.randint(2, n))
        moved = list(range(n))
        for p, q in zip(points, rng.sample(points, len(points))):
            moved[p] = q
        gens.append(tuple(moved))
    return gens


def _closure(gens, n):
    ident = tuple(range(n))
    group, todo = {ident}, [ident]
    for g in todo:
        for s in gens:
            h = mul(s, g)
            if h not in group:
                group.add(h)
                todo.append(h)
    return group


def _assert_complete(chain, group):
    """The chain's group is the closure: its order is the closure's size and
    every element of the closure sifts to the identity.  Each level stores
    the inverse u^-1 of each transversal element, which fixes the earlier
    base points and sends its orbit point back to the level's base point."""
    assert chain.order() == len(group)
    for i, (b, trans) in enumerate(zip(chain.base, chain.trans)):
        for y, ui in trans.items():
            assert ui[y] == b and all(ui[c] == c for c in chain.base[:i])
    assert all(chain.sift(g) == (chain.ident, len(chain.base)) for g in group)


_SEEDS = range(30)


def _case(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    gens = _generators(rng, n)
    return rng, n, gens, _closure(gens, n)


@pytest.mark.parametrize("seed", _SEEDS)
def test_schreier_sims_order_is_the_closure_size(seed):
    rng, n, gens, group = _case(seed)
    _assert_complete(schreier_sims(gens, n), group)
    prefix = rng.sample(range(n), rng.randint(1, n))
    chain = schreier_sims(gens, n, prefix)
    assert chain.base[: len(prefix)] == prefix
    _assert_complete(chain, group)


@pytest.mark.parametrize("seed", _SEEDS)
def test_rebase_and_images_against_the_closure(seed):
    rng, n, gens, group = _case(seed)
    chain = schreier_sims(gens, n)
    for k in range(1, min(n, 3) + 1):
        prefix = rng.sample(range(n), k)
        new = rebase(chain, prefix)
        assert new.base[:k] == prefix
        _assert_complete(new, group)
        for _ in range(3):
            target = set(rng.sample(range(n), rng.randint(1, n)))
            count = sum(all(g[b] in target for b in prefix) for g in group)
            assert images(new, k, target) * new.order(k) == count
            assert images(new, k, target, first=True) == (1 if count else 0)


def test_rebase_matches_deterministic_schreier_sims_on_e6():
    cfg = generate(family_spec("E6", t=1))
    walk = catalog._Walk(cfg)
    gens = [tuple(perm) for perm, _ in catalog.simple_reflections(cfg)]
    classes = catalog.enumerate_flat_classes(cfg, 3)
    assert len(classes) == 6
    for fc in classes:
        members = frozenset(subsystem(cfg, fc.span_indices).member_indices)
        flat = catalog._Flat(walk, fc.span_indices, members)
        key, k = flat.key[0], len(flat.key[0])
        oracle, chain = schreier_sims(gens, walk.n, key), rebase(walk.chain, key)
        assert oracle.base[:k] == chain.base[:k] == key
        assert oracle.order() == chain.order() == walk.order
        assert oracle.order(k) == chain.order(k)
        for target in (flat.target, sorted(members)):
            assert images(oracle, k, target) == images(chain, k, target) > 0
