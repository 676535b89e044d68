"""Generators and closed-form lambda^2 of the built-in families, all in rational realizations.

Each family is one row of ``_TABLE``: its parameter names, its rank rule (fixed,
given by the caller, or taken from a partition), its generator, its closed-form
lambda^2 and whether ``catalog`` may default every parameter to 1.  ``FAMILIES``
and ``PARAM_NAMES`` are views of the table.

Sum-zero families (A and G2) are re-expressed in an explicit rank-dimensional
basis of the sum-zero hyperplane so the Gram form is nonsingular; the basis is
recorded in the configuration name.  The E series lives in the even
half-integer lattice realization; everything else uses standard coordinates.
Covectors whose multiplicity is exactly zero are dropped; parameters that
drop every covector raise ``DegenerateParamsError``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Callable, NamedTuple

from .configuration import Configuration
from .exactla import Vec, rat


class UnsupportedParamsError(ValueError):
    """Family, rank or parameters outside what the generators support."""


class DegenerateParamsError(ZeroDivisionError):
    """Parameters hit a vanishing denominator of a closed form, or make every
    multiplicity of a family vanish."""


class FamilySpec(NamedTuple):
    family: str
    rank: int | None = None
    params: tuple[tuple[str, Fraction], ...] = ()
    partition: tuple[int, ...] | None = None

    def param(self, name: str) -> Fraction:
        for k, v in self.params:
            if k == name:
                return v
        raise UnsupportedParamsError("missing parameter %r for family %s" % (name, self.family))


def _cfg(dim, pairs, name) -> Configuration:
    pairs = [(tuple(map(rat, a)), rat(c)) for a, c in pairs]
    pairs = [(a, c) for a, c in pairs if c != 0]
    if not pairs:
        raise DegenerateParamsError("every multiplicity of %s vanishes, so no covector is left" % name)
    return Configuration(dim, tuple(a for a, _ in pairs), tuple(c for _, c in pairs), name)


def _unit(n: int, i: int, scale=1) -> Vec:
    return tuple(rat(scale) if k == i else Fraction(0) for k in range(n))


def _sum_pm(n, i, j, sign) -> Vec:
    v = [Fraction(0)] * n
    v[i], v[j] = Fraction(1), Fraction(sign)
    return tuple(v)


def _d_roots(n, c, k=None) -> list:
    """e_i + e_j and e_i - e_j in n coordinates, i < j < k (default n), at multiplicity c."""
    return [
        (_sum_pm(n, i, j, sign), c) for i, j in combinations(range(k or n), 2) for sign in (1, -1)
    ]


def _half_vectors(n, c, even=False) -> list:
    """(1/2, +-1/2, ...) in n coordinates at multiplicity c: every sign, or with
    ``even`` an even number of minus signs."""
    h = Fraction(1, 2)
    return [
        ((h, *(h * x for x in signs)), c)
        for signs in product((1, -1), repeat=n - 1) if not even or signs.count(-1) % 2 == 0
    ]


def _over(num, den):
    """num / den, where den is the denominator of a closed-form lambda^2."""
    if den == 0:
        raise DegenerateParamsError("lambda^2 denominator vanishes")
    return num / den


def an_root_coords(nplus1: int, a: int, b: int) -> Vec:
    """Coordinates of e^a - e^b (0-based, a < b < nplus1) in the basis
    v_i = e_i - e_{nplus1-1} of the sum-zero hyperplane."""
    n = nplus1 - 1
    if b < n:
        return _sum_pm(n, a, b, -1)
    return tuple(Fraction(2) if k == a else Fraction(1) for k in range(n))


def _gen_an(part, t, label) -> Configuration:
    """A_{k-1} at multiplicity t, restricted to the k blocks of ``part`` (k ones: A_{k-1})."""
    k = len(part)
    pairs = [(an_root_coords(k, a, b), t * part[a] * part[b]) for a, b in combinations(range(k), 2)]
    return _cfg(k - 1, pairs, label)


def _gen_a(n, t) -> Configuration:
    label = "A%d(t=%s) in basis e_i - e_%d of the sum-zero hyperplane" % (n, t, n + 1)
    return _gen_an((1,) * (n + 1), t, label)


def _gen_bcn(part, r, s, q, label) -> Configuration:
    """BC_n at multiplicities (r, s, q), restricted to the n blocks of ``part`` (n ones: BC_n)."""
    n = len(part)
    pairs = [(_unit(n, i), r * m) for i, m in enumerate(part)]
    pairs += [(_unit(n, i, 2), s * m + q * Fraction(m * (m - 1), 2)) for i, m in enumerate(part)]
    pairs += [
        (_sum_pm(n, i, j, sign), q * part[i] * part[j])
        for i, j in combinations(range(n), 2) for sign in (1, -1)
    ]
    return _cfg(n, pairs, label)


def _bc_lambda_sq(n, r, s, q) -> Fraction:
    h = r + 4 * s + 2 * q * (n - 1)
    return _over(2 * h**3, q * (r + 8 * s + 2 * (n - 2) * q))


def _gen_e(rank: int, t: Fraction) -> Configuration:
    roots8 = _d_roots(8, t) + _half_vectors(8, t, even=True)
    if rank == 8:
        return _cfg(8, roots8, "E8(t=%s) in the even half-integer lattice realization" % t)
    if rank == 7:
        reexpr = [(a[:6] + (a[6] - a[7],), c) for a, c in roots8 if a[6] + a[7] == 0]
        return _cfg(7, reexpr, "E7(t=%s) inside E8, basis e_1..e_6, e_7-e_8" % t)
    sel = [(a, c) for a, c in roots8 if a[6] + a[7] == 0 and a[5] + a[6] == 0]
    reexpr = [(a[:5] + (a[5] - a[6] + a[7],), c) for a, c in sel]
    return _cfg(6, reexpr, "E6(t=%s) inside E8, basis e_1..e_5, e_6-e_7+e_8" % t)


def _gen_f4(n, r, s) -> Configuration:
    pairs = [(_unit(n, i), s) for i in range(n)] + _d_roots(n, r) + _half_vectors(n, s)
    return _cfg(n, pairs, "F4(r=%s,s=%s)" % (r, s))


def _f4_lambda_sq(n, r, s) -> Fraction:
    """lambda^2 of F4 and of the FourDim family with its two 3-dim companions."""
    return _over(108 * (2 * r + s) ** 2, 4 * r + s)


def _gen_g2(n, p, q) -> Configuration:
    # sum-zero realization {e^i-e^j, 2e^i-e^j-e^k} re-expressed in the basis
    # v1 = e_1-e_3, v2 = e_2-e_3 of the hyperplane
    short = [(1, -1), (2, 1), (1, 2)]
    long = [(3, 0), (0, -3), (3, 3)]
    pairs = [(a, p) for a in short] + [(a, q) for a in long]
    return _cfg(n, pairs, "G2(p=%s,q=%s) in basis e_1-e_3, e_2-e_3 of the sum-zero plane" % (p, q))


def four_dim_config(p, q, r, s, name=None) -> Configuration:
    """The four-dimensional B3xA1-symmetric covector list with explicit multiplicities."""
    p, q, r, s = rat(p), rat(q), rat(r), rat(s)
    pairs = [(_unit(4, i), p) for i in range(3)] + [(_unit(4, 3), q)]
    pairs += _d_roots(4, r, 3) + _half_vectors(4, s)
    return _cfg(4, pairs, name or "FourDim(p=%s,q=%s,r=%s,s=%s)" % (p, q, r, s))


def four_dim_derived_params(r, s) -> tuple[Fraction, Fraction]:
    """The constraint values p = 2r+s, q = s(s-2r)/(4r+s)."""
    r, s = rat(r), rat(s)
    if 4 * r + s == 0:
        raise UnsupportedParamsError("FourDim needs 4r+s nonzero")
    return 2 * r + s, s * (s - 2 * r) / (4 * r + s)


def _gen_four_dim(n, r, s) -> Configuration:
    p, q = four_dim_derived_params(r, s)
    return four_dim_config(p, q, r, s, "FourDim(r=%s,s=%s)" % (r, s))


def _gen_four_dim_a1(n, r, s) -> Configuration:
    p, q = four_dim_derived_params(r, s)
    h = Fraction(1, 2)
    pairs = [
        ((2, 0, 0), r),
        ((1, 0, 0), 2 * p),
        ((0, 1, 0), p),
        ((0, 0, 1), q),
        ((1, 1, 0), 2 * r),
        ((1, -1, 0), 2 * r),
        ((0, h, h), 2 * s),
        ((0, h, -h), 2 * s),
        ((1, h, h), s),
        ((1, h, -h), s),
        ((1, -h, h), s),
        ((1, -h, -h), s),
    ]
    return _cfg(n, pairs, "FourDimA1(r=%s,s=%s)" % (r, s))


def _gen_four_dim_a2(n, r, s) -> Configuration:
    p, q = four_dim_derived_params(r, s)
    pairs = [(_unit(n, i), p + s) for i in range(n)]
    pairs += [(_sum_pm(n, i, j, 1), r + s) for i, j in combinations(range(n), 2)]
    pairs += [(_sum_pm(n, i, j, -1), r) for i, j in combinations(range(n), 2)]
    return _cfg(n, pairs + [((1, 1, 1), q + s)], "FourDimA2(r=%s,s=%s)" % (r, s))


def _planar(family: str, pairs: Callable) -> Callable:
    """The generator of a planar family from its (covector, multiplicity) list."""
    return lambda n, *params: _cfg(
        n, pairs(*params), "%s(%s)" % (family, ",".join(str(x) for x in params))
    )


def _planar6(a, b):
    if 4 * a - 3 * b == 0:
        raise UnsupportedParamsError("Planar6 needs 4a-3b nonzero")
    return [
        ((1, 0), 4 * a),
        ((2, 0), a),
        ((0, 1), 2 * a),
        ((1, 1), 2 * a),
        ((1, -1), 2 * (a - b)),
        ((2, 1), 2 * a * b / (4 * a - 3 * b)),
    ]


def _planar8(a, b):
    return [
        ((1, 0), 2 * a),
        ((2, 0), a / 2 - b / 4),
        ((0, 1), 2 * b),
        ((0, 2), a),
        ((1, 1), b),
        ((1, -1), b),
        ((1, 2), a - b / 2),
        ((1, -2), a - b / 2),
    ]


def _planar9(a, b):
    h = Fraction(1, 2)
    return [
        ((1, 0), a),
        ((2, 0), b),
        ((0, 1), a / 3),
        ((1, 1), b),
        ((1, -1), b),
        ((3 * h, h), a / 3),
        ((3 * h, -h), a / 3),
        ((h, h), a),
        ((h, -h), a),
    ]


def _planar10(a):
    return [
        ((1, 0), 6 * a),
        ((2, 0), 3 * a / 2),
        ((0, 1), 6 * a),
        ((0, 2), 3 * a / 2),
        ((1, 1), 4 * a),
        ((1, -1), 4 * a),
        ((1, 2), a),
        ((1, -2), a),
        ((2, 1), a),
        ((2, -1), a),
    ]


class _Family(NamedTuple):
    """One family.  ``generate`` and ``lambda_sq`` take the rank (the partition,
    for a family of a partition) and then the parameter values in ``params`` order."""

    params: tuple[str, ...]
    rank: int | Callable | None  # fixed; None: the caller's; callable: of the partition
    generate: Callable
    lambda_sq: Callable
    catalog_ones: bool  # catalog may default every parameter to 1


_ZERO = Fraction(0)

_TABLE = {
    "A": _Family(("t",), None, _gen_a, lambda n, t: 4 * (n + 1) ** 2 * t, True),
    "B": _Family(
        ("p", "q"), None,
        lambda n, p, q: _gen_bcn((1,) * n, p, _ZERO, q, "B%d(p=%s,q=%s)" % (n, p, q)),
        lambda n, p, q: _bc_lambda_sq(n, p, _ZERO, q), True,
    ),
    "C": _Family(
        ("p", "q"), None,
        lambda n, p, q: _gen_bcn((1,) * n, _ZERO, q, p, "C%d(p=%s,q=%s)" % (n, p, q)),
        lambda n, p, q: _bc_lambda_sq(n, _ZERO, q, p), True,
    ),
    "D": _Family(
        ("t",), None,
        lambda n, t: _gen_bcn((1,) * n, _ZERO, _ZERO, t, "D%d(t=%s)" % (n, t)),
        lambda n, t: _bc_lambda_sq(n, _ZERO, _ZERO, t), True,
    ),
    "BC": _Family(
        ("r", "s", "q"), None,
        lambda n, r, s, q: _gen_bcn((1,) * n, r, s, q, "BC%d(r=%s,s=%s,q=%s)" % (n, r, s, q)),
        _bc_lambda_sq, True,
    ),
    "E6": _Family(("t",), 6, _gen_e, lambda n, t: 288 * t, True),
    "E7": _Family(("t",), 7, _gen_e, lambda n, t: 486 * t, True),
    "E8": _Family(("t",), 8, _gen_e, lambda n, t: 900 * t, True),
    "F4": _Family(("r", "s"), 4, _gen_f4, _f4_lambda_sq, True),
    "G2": _Family(
        ("p", "q"), 2, _gen_g2,
        lambda n, p, q: _over(36 * (p + 3 * q) ** 2, p + 9 * q), True,
    ),
    "FourDim": _Family(("r", "s"), 4, _gen_four_dim, _f4_lambda_sq, False),
    "FourDimA1": _Family(("r", "s"), 3, _gen_four_dim_a1, _f4_lambda_sq, False),
    "FourDimA2": _Family(("r", "s"), 3, _gen_four_dim_a2, _f4_lambda_sq, False),
    "Planar6": _Family(
        ("a", "b"), 2, _planar("Planar6", _planar6),
        lambda n, a, b: _over(108 * (2 * a - b) ** 2, 4 * a - 3 * b), False,
    ),
    "Planar8": _Family(
        ("a", "b"), 2, _planar("Planar8", _planar8),
        lambda n, a, b: _over(216 * a**2, 4 * a - b), False,
    ),
    "Planar9": _Family(
        ("a", "b"), 2, _planar("Planar9", _planar9),
        lambda n, a, b: _over(36 * (a + 2 * b) ** 2, a + 4 * b), False,
    ),
    "Planar10": _Family(("a",), 2, _planar("Planar10", _planar10), lambda n, a: 225 * a, False),
    "RestrictedBC": _Family(
        ("r", "s", "q"), len,
        lambda m, r, s, q: _gen_bcn(
            m, r, s, q, "BC%d(r=%s,s=%s,q=%s;m=%s)" % (len(m), r, s, q, list(m))
        ),
        lambda m, r, s, q: _bc_lambda_sq(sum(m), r, s, q), False,
    ),
    "RestrictedA": _Family(
        ("t",), lambda m: len(m) - 1,
        lambda m, t: _gen_an(m, t, "A(t=%s;m=%s) restricted, sum-zero basis" % (t, list(m))),
        lambda m, t: 4 * sum(m) ** 2 * t, False,
    ),
}

FAMILIES = tuple(_TABLE)
PARAM_NAMES = {name: fam.params for name, fam in _TABLE.items()}


def _family(name: str) -> _Family:
    if name not in _TABLE:
        raise UnsupportedParamsError("unknown family %r" % name)
    return _TABLE[name]


def family_spec(family: str, rank: int | None = None, partition=None, **params) -> FamilySpec:
    fam = _family(family)
    names = fam.params
    for k in params:
        if k not in names:
            raise UnsupportedParamsError("family %s takes parameters %s, got %r" % (family, names, k))
    for k in names:
        if k not in params:
            raise UnsupportedParamsError("family %s needs parameter %r" % (family, k))
    if isinstance(fam.rank, int):
        if rank is not None and rank != fam.rank:
            raise UnsupportedParamsError("family %s has fixed rank %d" % (family, fam.rank))
        rank = fam.rank
    part = None if partition is None else tuple(int(m) for m in partition)
    if callable(fam.rank):
        if not part:
            raise UnsupportedParamsError("family %s needs a partition" % family)
        if any(m < 1 for m in part):
            raise UnsupportedParamsError("partition entries must be positive integers")
        if rank is not None and rank != fam.rank(part):
            raise UnsupportedParamsError(
                "family %s has rank %d from its partition, got %d" % (family, fam.rank(part), rank)
            )
        rank = fam.rank(part)
    elif rank is None or rank < 1:
        raise UnsupportedParamsError("family %s needs a positive rank" % family)
    elif part is not None:
        raise UnsupportedParamsError("family %s takes no partition" % family)
    ordered = tuple((k, rat(params[k])) for k in names)
    return FamilySpec(family, rank, ordered, part)


def _args(fam: _Family, spec: FamilySpec) -> tuple:
    """The rank (the partition, for a family of a partition), then the parameter values."""
    size = spec.partition if callable(fam.rank) else spec.rank
    return (size, *(spec.param(k) for k in fam.params))


def restricted_family(spec: FamilySpec) -> Configuration:
    """Closed-form restricted configurations, built directly from the tables
    (independently of the restriction machinery, for cross-checking)."""
    fam = _TABLE.get(spec.family)
    if fam is None or not callable(fam.rank):
        raise UnsupportedParamsError("restricted_family handles RestrictedBC and RestrictedA only")
    return fam.generate(*_args(fam, spec))


def generate(spec: FamilySpec) -> Configuration:
    """Positive-half configuration of the requested family."""
    fam = _family(spec.family)
    return fam.generate(*_args(fam, spec))


def expected_lambda_sq(spec: FamilySpec) -> Fraction:
    """Closed-form lambda^2 for the family; exact (squaring removes radicals)."""
    fam = _family(spec.family)
    return fam.lambda_sq(*_args(fam, spec))


def covector_index(cfg: Configuration, coords) -> int:
    v = tuple(rat(x) for x in coords)
    for i, a in enumerate(cfg.covectors):
        if a == v:
            return i
    raise KeyError("covector %s not in configuration" % (list(coords),))


def partition_span_indices(parent: Configuration, family: str, partition) -> tuple[int, ...]:
    """Indices of consecutive within-block differences spanning the partition subsystem.

    For BC/B/C/D the blocks partition the N coordinates; for A they partition
    the N+1 sum-zero coordinates of the realization recorded by the generator.
    """
    part = tuple(int(m) for m in partition)
    if any(m < 1 for m in part):
        raise UnsupportedParamsError("partition entries must be positive integers")
    n = parent.dim
    if family == "A":
        if sum(part) != n + 1:
            raise UnsupportedParamsError("partition must sum to rank+1 for A")
        root = lambda a: an_root_coords(n + 1, a, a + 1)
    else:
        if sum(part) != n:
            raise UnsupportedParamsError("partition must sum to the rank")
        root = lambda a: _sum_pm(n, a, a + 1, -1)
    idx, start = [], 0
    for m in part:
        idx += [covector_index(parent, root(a)) for a in range(start, start + m - 1)]
        start += m
    return tuple(idx)
