"""Differential tests: the one fraction-free elimination behind ``rref``,
``rank``, ``nullspace``, ``independent`` and ``invert`` against the two
earlier eliminations, kept here as oracles.

The oracles are a Fraction Gauss-Jordan (``rref``), a Bareiss forward pass
with Fraction back substitution (``invert``), and the greedy rank test
``subsystem`` and ``m_operator`` ran to choose independent rows.  The matrices have zero
rows, duplicate rows, rows that are combinations of earlier ones (rank
deficiency), non-unit denominators, and wide, tall and square shapes.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trigvee.exactla import (
    SingularMatrixError,
    clear_denominators,
    independent,
    invert,
    nullspace,
    rank,
    rat,
    rref,
)

# --- oracles ------------------------------------------------------------------


def oracle_rref(rows):
    a = [list(map(rat, r)) for r in rows]
    if not a:
        return [], []
    ncols = len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def oracle_nullspace(rows, ncols):
    red, pivots = oracle_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return basis


def oracle_independent(rows):
    """The greedy choice: keep each row that raises the rank."""
    kept, chosen = [], []
    for i, row in enumerate(rows):
        if len(oracle_rref(kept + [row])[1]) > len(kept):
            kept.append(row)
            chosen.append(i)
    return chosen


def oracle_invert(m):
    n = len(m)
    if n == 0:
        return ()
    a, scale = clear_denominators(m)
    aug = [list(row) + [scale if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if aug[r][k] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        aug[k], aug[piv] = aug[piv], aug[k]
        pk = aug[k][k]
        for i in range(k + 1, n):
            aik = aug[i][k]
            for j in range(k, 2 * n):
                aug[i][j] = (pk * aug[i][j] - aik * aug[k][j]) // prev
        prev = pk
    cols = []
    for c in range(n, 2 * n):
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            s = Fraction(aug[i][c])
            for j in range(i + 1, n):
                s -= aug[i][j] * x[j]
            x[i] = s / aug[i][i]
        cols.append(x)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


# --- inputs -------------------------------------------------------------------

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def matrices(draw, square=False):
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 6))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("fresh", "zero", "copy", "combination")))
        if kind == "zero":
            row = [Fraction(0)] * ncols
        elif kind == "copy" and rows:
            row = list(draw(st.sampled_from(rows)))
        elif kind == "combination" and rows:
            s, t = draw(rationals), draw(rationals)
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            row = [s * x + t * y for x, y in zip(u, v)]
        else:
            row = draw(st.lists(rationals, min_size=ncols, max_size=ncols))
        rows.append(row)
    return rows


# --- tests --------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_rank_nullspace_match_oracle(rows):
    ncols = len(rows[0])
    assert rref(rows) == oracle_rref(rows)
    assert rank(rows) == len(oracle_rref(rows)[1])
    assert nullspace(rows, ncols) == oracle_nullspace(rows, ncols)
    assert independent(rows) == oracle_independent(rows)


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_invert_matches_oracle(rows):
    try:
        expected = oracle_invert(rows)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            invert(rows)
    else:
        assert invert(rows) == expected


def test_empty_inputs():
    assert rref([]) == ([], [])
    assert rank([]) == 0
    assert independent([]) == []
    assert nullspace([], 2) == [(1, 0), (0, 1)]
    assert invert(()) == ()


def test_rectangular_invert_raises_value_error():
    with pytest.raises(ValueError):
        invert(((1, 2),))
