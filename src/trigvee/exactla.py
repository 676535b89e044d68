"""Exact rational linear algebra and the wedge-square machinery on Lambda^2 V.

Vectors are tuples of ``fractions.Fraction``, matrices are tuples of row
tuples.  Everything here is pure and immutable, so values can be shared and
hashed freely.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

Rat = Fraction
Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]


class SingularMatrixError(ZeroDivisionError):
    """Raised when a matrix that must be invertible is degenerate."""


def rat(x) -> Fraction:
    """Coerce ints, strings like '-3/7' and Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs: Iterable) -> Vec:
    return tuple(rat(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def zeros(n: int, m: int | None = None) -> Mat:
    m = n if m is None else m
    row = (Fraction(0),) * m
    return tuple(row for _ in range(n))


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch: %d vs %d" % (len(u), len(v)))
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def is_zero_vec(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def mat_vec(m: Mat, v: Sequence[Fraction]) -> Vec:
    return tuple(dot(row, v) for row in m)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def outer(u: Vec, v: Vec) -> Mat:
    return tuple(tuple(a * b for b in v) for a in u)


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Fraction, m: Mat) -> Mat:
    return tuple(tuple(c * x for x in row) for row in m)


def clear_denominators(rows: Iterable[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """The common denominator L of all entries and the rows times L, as ints."""
    rows = list(rows)
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


def _gauss_jordan(rows: Iterable[Sequence]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of int or Fraction rows.

    Returns (R, pivots, d): the nonzero reduced rows in integers, their pivot
    columns and the last pivot.  R / d is the reduced row echelon form, since
    R[i][pivots[i]] == d and every other entry of a pivot column is zero.
    Each step divides exactly by the previous pivot, so the entries stay
    minors of the cleared input instead of growing.
    """
    a, _ = clear_denominators(rows)
    pivots: list[int] = []
    prev = 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top, p = a[r], a[r][c]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return a[: len(pivots)], pivots, prev


def invert(m: Mat) -> Mat:
    """Exact inverse of a square rational matrix: the right-hand block of the
    reduced [m | I]."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    augmented = ([*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m))
    red, pivots, d = _gauss_jordan(augmented)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return tuple(tuple(Fraction(x, d) for x in row[n:]) for row in red)


def rref(rows: Iterable[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot columns)."""
    red, pivots, d = _gauss_jordan(rows)
    return [[Fraction(x, d) for x in row] for row in red], pivots


def rank(rows: Iterable[Sequence]) -> int:
    return len(_gauss_jordan(rows)[1])


def independent(rows: Iterable[Sequence]) -> list[int]:
    """Positions of the first maximal independent subset of the rows, in order."""
    return _gauss_jordan(transpose(tuple(rows)))[1]


def nullspace_cleared(rows: Iterable[Sequence], ncols: int) -> tuple[list[list[int]], int]:
    """(K, d): the basis ``nullspace`` returns is K / d, with K in integers."""
    red, pivots, d = _gauss_jordan(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = d
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis, d


def annihilator(rows: Sequence[Sequence[int]], span: Iterable[int], ncols: int) -> tuple[list, int, list]:
    """(K, d, images): the basis ``nullspace`` gives for the rows in span is
    K / d in integers; images[i] pairs rows[i] with K, zero exactly on the span."""
    kernel, d = nullspace_cleared([rows[i] for i in span], ncols)
    return kernel, d, [tuple(sum(map(mul, a, k)) for k in kernel) for a in rows]


def nullspace(rows: Iterable[Sequence], ncols: int) -> list[Vec]:
    """Standard basis of the right nullspace from the RREF (deterministic)."""
    basis, d = nullspace_cleared(rows, ncols)
    return [tuple(Fraction(x, d) for x in v) for v in basis]


# --- Lambda^2 V bookkeeping -------------------------------------------------
#
# Basis bivectors are e_i ^ e_j = e_i (x) e_j - e_j (x) e_i for i < j, ordered
# lexicographically; a wedge form is a symmetric rational matrix over that
# basis.


def wedge_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def wedge_eval(alpha: Vec, beta: Vec, pair: tuple[int, int]) -> Fraction:
    """B_{alpha,beta} evaluated on the basis bivector e_i ^ e_j.

    Equals 2*(alpha_i beta_j - alpha_j beta_i); antisymmetric and bilinear
    in (alpha, beta).
    """
    if len(alpha) != len(beta):
        raise ValueError("dimension mismatch")
    i, j = pair
    return 2 * (alpha[i] * beta[j] - alpha[j] * beta[i])


def wedge_vector(alpha: Vec, beta: Vec, pairs: tuple[tuple[int, int], ...] | None = None) -> Vec:
    pairs = wedge_pairs(len(alpha)) if pairs is None else pairs
    return tuple(wedge_eval(alpha, beta, p) for p in pairs)


def wedge_square(alpha: Vec, beta: Vec) -> Mat:
    """(alpha ^ beta)^2 as a rank-<=1 form on Lambda^2 V."""
    w = wedge_vector(alpha, beta)
    return outer(w, w)


def zero_wedge_form(n: int) -> Mat:
    k = n * (n - 1) // 2
    return zeros(k, k)
