from fractions import Fraction as Q
from itertools import combinations

import pytest

from trigvee.configuration import configuration
from trigvee.exactla import dot, vec
from trigvee.families import covector_index, family_spec, generate
from trigvee.series import alpha_series


def series_sets(cfg, a):
    return {frozenset(s) for s in alpha_series(cfg, a).series}


def test_bc2_series_of_difference_root():
    bc2 = generate(family_spec("BC", 2, r=1, s=1, q=1))
    a = covector_index(bc2, [1, -1])
    # order of generation: e1, e2, 2e1, 2e2, e1+e2, e1-e2.
    # 2e1 - (e1+e2) = alpha, so maximality puts e1+e2 in the same series as
    # 2e1 and 2e2 (their cotangents coincide on the alpha walls).
    assert series_sets(bc2, a) == {frozenset({0, 1}), frozenset({2, 3, 4})}


def test_singleton_series():
    cfg = configuration(2, [[1, 0], [0, 1], [1, 2]], [1, 1, 1])
    assert series_sets(cfg, 0) == {frozenset({1}), frozenset({2})}


def sum_zero_g2():
    short = [(1, -1, 0), (1, 0, -1), (0, 1, -1)]
    long = [(2, -1, -1), (1, -2, 1), (1, 1, -2)]
    return configuration(3, short + long, [1] * 6)


def test_g2_long_root_series_pairs_short_roots():
    cfg = sum_zero_g2()
    a = 3  # the long root 2e1-e2-e3
    sets = series_sets(cfg, a)
    # the two other long roots pair up (their sum is a multiple of alpha is false,
    # but their difference/sum with alpha-steps links them), and short roots pair
    # into reflection orbits
    assert all(len(s) <= 2 for s in sets)
    covered = set().union(*sets)
    assert covered == {0, 1, 2, 4, 5}


def brute_force_series(cfg, a):
    """Independent oracle: union-find closure of the literal pair relation."""
    alpha = cfg.covectors[a]
    cls = {i for i in range(len(cfg)) if _proportional(cfg.covectors[i], alpha)}
    rest = [i for i in range(len(cfg)) if i not in cls]
    parent = {i: i for i in rest}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    for i, j in combinations(rest, 2):
        for sign in (1, -1):
            w = tuple(x + sign * y for x, y in zip(cfg.covectors[i], cfg.covectors[j]))
            if _integer_multiple(w, alpha):
                union(i, j)
    groups = {}
    for i in rest:
        groups.setdefault(find(i), set()).add(i)
    return set(map(frozenset, groups.values()))


def _proportional(v, w):
    p = next(k for k in range(len(w)) if w[k] != 0)
    if v[p] == 0:
        return False
    t = v[p] / w[p]
    return all(x == t * y for x, y in zip(v, w))


def _integer_multiple(w, alpha):
    p = next(k for k in range(len(alpha)) if alpha[k] != 0)
    t = w[p] / alpha[p]
    if t.denominator != 1:
        return False
    return all(x == t * y for x, y in zip(w, alpha))


@pytest.mark.parametrize(
    "spec",
    [
        family_spec("BC", 3, r=1, s=2, q=Q(1, 2)),
        family_spec("G2", p=1, q=1),
        family_spec("FourDim", r=1, s=4),
        family_spec("Planar9", a=3, b=1),
    ],
)
def test_series_match_union_find_oracle(spec):
    cfg = generate(spec)
    for a in range(len(cfg)):
        assert series_sets(cfg, a) == brute_force_series(cfg, a)


def test_partition_property():
    cfg = generate(family_spec("F4", r=1, s=1))
    for a in range(len(cfg)):
        dec = alpha_series(cfg, a)
        covered = [i for s in dec.series for i in s]
        outside = {i for i in range(len(cfg)) if not _proportional(cfg.covectors[i], cfg.covectors[a])}
        assert sorted(covered) == sorted(outside)
        assert len(covered) == len(set(covered))


def test_maximality():
    cfg = generate(family_spec("BC", 3, r=1, s=1, q=1))
    for a in range(len(cfg)):
        dec = alpha_series(cfg, a)
        alpha = cfg.covectors[a]
        for s in dec.series:
            inside = set(s)
            for b in s:
                for g in range(len(cfg)):
                    if g in inside or _proportional(cfg.covectors[g], alpha):
                        continue
                    for sign in (1, -1):
                        w = tuple(
                            x + sign * y
                            for x, y in zip(cfg.covectors[b], cfg.covectors[g])
                        )
                        assert not _integer_multiple(w, alpha)


def _reflect(beta, alpha):
    # orthogonal reflection in standard coordinates
    t = 2 * dot(alpha, beta) / dot(alpha, alpha)
    return tuple(b - t * a for b, a in zip(beta, alpha))


@pytest.mark.parametrize(
    "spec",
    [
        family_spec("BC", 3, r=2, s=1, q=1),
        family_spec("D", 4, t=1),
        family_spec("F4", r=1, s=1),
    ],
)
def test_reflection_stays_in_series(spec):
    # Weyl-invariant families: the reflection of beta lies in beta's alpha-series
    cfg = generate(spec)
    index = {c: i for i, c in enumerate(cfg.covectors)}
    for a in range(len(cfg)):
        alpha = cfg.covectors[a]
        dec = alpha_series(cfg, a)
        for s in dec.series:
            for b in s:
                r = _reflect(cfg.covectors[b], alpha)
                cand = index.get(vec(r), index.get(vec([-x for x in r])))
                if cand is not None and not _proportional(cfg.covectors[cand], alpha):
                    assert cand in next(t for t in dec.series if b in t)


def test_rational_step_mode():
    # 2e1 and e2 relate to alpha=e1 only with a non-integer step
    cfg = configuration(2, [[1, 0], [Q(1, 2), 1], [0, 1]], [1, 1, 1])
    strict = series_sets(cfg, 0)
    assert strict == {frozenset({1}), frozenset({2})}


def test_m_zero_links_opposites():
    cfg = configuration(2, [[1, 0], [0, 1], [0, -1]], [1, 1, 1])
    assert series_sets(cfg, 0) == {frozenset({1, 2})}
