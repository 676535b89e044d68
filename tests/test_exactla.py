import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from trigvee.exactla import (
    SingularMatrixError,
    dot,
    identity,
    invert,
    mat,
    mat_add,
    mat_scale,
    nullspace,
    rref,
    transpose,
    vec,
    wedge_eval,
    wedge_pairs,
    wedge_square,
    zero_wedge_form,
)

def mat_mul(a, b):
    return tuple(tuple(dot(row, col) for col in transpose(b)) for row in a)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def brute_inverse_2x2(m):
    # cofactor-expansion oracle
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return mat([[m[1][1] / det, -m[0][1] / det], [-m[1][0] / det, m[0][0] / det]])


def test_invert_identity():
    assert invert(identity(2)) == identity(2)


def test_invert_2x2_matches_cofactor_oracle():
    m = mat([[6, 5], [5, 6]])
    assert invert(m) == brute_inverse_2x2(m)
    assert invert(m) == mat([[Q(6, 11), Q(-5, 11)], [Q(-5, 11), Q(6, 11)]])


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert(mat([[0, 0], [0, 1]]))


def test_invert_random_symmetric_involution():
    # >= 100 random nonsingular symmetric matrices, sizes 1..6
    rng = random.Random(20240)
    done = 0
    while done < 120:
        n = rng.randint(1, 6)
        rows = [[Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[j][i] = rows[i][j]
        m = mat(rows)
        try:
            inv = invert(m)
        except SingularMatrixError:
            continue
        assert mat_mul(m, inv) == identity(n)
        done += 1


def test_wedge_eval_examples():
    e1, e2 = vec([1, 0]), vec([0, 1])
    assert wedge_eval(e1, e2, (0, 1)) == 2
    assert wedge_eval(e1, e1, (0, 1)) == 0
    # expansion of (e1+e2) ^ (e1-e2) on e_1 (x) e_2 - e_2 (x) e_1 by hand: -4
    assert wedge_eval(vec([1, 1]), vec([1, -1]), (0, 1)) == -4


def test_wedge_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge_eval(vec([1, 0]), vec([1, 0, 0]), (0, 1))


def test_wedge_square_examples():
    e1, e2 = vec([1, 0]), vec([0, 1])
    assert wedge_square(e1, e2) == ((Q(4),),)
    assert wedge_square(e1, e1) == zero_wedge_form(2)
    f1 = vec([1, 0, 0])
    f2 = vec([0, 1, 0])
    sq = wedge_square(f1, f2)
    pairs = wedge_pairs(3)
    k = pairs.index((0, 1))
    for z in range(3):
        for w in range(3):
            assert sq[z][w] == (4 if (z == k and w == k) else 0)


@given(st.lists(rationals, min_size=3, max_size=3), st.lists(rationals, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_wedge_antisymmetric(a, b):
    va, vb = vec(a), vec(b)
    for p in wedge_pairs(3):
        assert wedge_eval(va, vb, p) == -wedge_eval(vb, va, p)


@given(
    st.lists(rationals, min_size=3, max_size=3),
    st.lists(rationals, min_size=3, max_size=3),
    st.lists(rationals, min_size=3, max_size=3),
    rationals,
)
@settings(max_examples=60, deadline=None)
def test_wedge_bilinear(a, b, c, t):
    va, vb, vc = vec(a), vec(b), vec(c)
    for p in wedge_pairs(3):
        lhs = wedge_eval(tuple(x + t * y for x, y in zip(va, vb)), vc, p)
        rhs = wedge_eval(va, vc, p) + t * wedge_eval(vb, vc, p)
        assert lhs == rhs


def _unit(n, i):
    return vec([1 if k == i else 0 for k in range(n)])


def wedge_form_sum(terms, n):
    total = zero_wedge_form(n)
    for a, b in terms:
        total = mat_add(total, wedge_square(a, b))
    return total


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_triple_sum_wedge_identity(n):
    from itertools import combinations

    lhs = wedge_form_sum(
        [(_unit(n, a), _unit(n, b)) for i, j, k in combinations(range(n), 3) for a, b in ((i, j), (i, k), (j, k))],
        n,
    )
    rhs = mat_scale(Q(n - 2), wedge_form_sum([(_unit(n, i), _unit(n, j)) for i, j in combinations(range(n), 2)], n))
    assert lhs == rhs


@pytest.mark.parametrize("n", [4, 5, 6])
def test_quadruple_sum_wedge_identity(n):
    from itertools import combinations

    quads = []
    for i, j, k, l in combinations(range(n), 4):
        quads += [(i, j), (i, k), (i, l), (j, k), (j, l), (k, l)]
    lhs = wedge_form_sum([(_unit(n, a), _unit(n, b)) for a, b in quads], n)
    rhs = mat_scale(
        Q((n - 2) * (n - 3), 2),
        wedge_form_sum([(_unit(n, i), _unit(n, j)) for i, j in combinations(range(n), 2)], n),
    )
    assert lhs == rhs


def test_rref_nullspace():
    basis = nullspace([[1, -1, 0], [0, 1, -1]], 3)
    assert basis == [vec([1, 1, 1])]
    red, piv = rref([[2, 4], [1, 2]])
    assert piv == [0]
    assert red == [[Q(1), Q(2)]]


def test_wedge_pair_index_bijection():
    for n in (2, 3, 5, 8):
        pairs = wedge_pairs(n)
        assert len(pairs) == n * (n - 1) // 2
        assert pairs == tuple(sorted(pairs))
        idx = {p: k for k, p in enumerate(pairs)}
        assert sorted(idx.values()) == list(range(len(pairs)))
        assert all(pairs[idx[p]] == p for p in pairs)

