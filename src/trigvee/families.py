"""Generators for the built-in configuration families, all in rational realizations.

Sum-zero families (A and G2) are re-expressed in an explicit rank-dimensional
basis of the sum-zero hyperplane so the Gram form is nonsingular; the basis is
recorded in the configuration name.  The E series lives in the even
half-integer lattice realization; everything else uses standard coordinates.
Covectors whose multiplicity is exactly zero are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .configuration import Configuration
from .exactla import Vec, rat

FAMILIES = (
    "A",
    "B",
    "C",
    "D",
    "BC",
    "E6",
    "E7",
    "E8",
    "F4",
    "G2",
    "FourDim",
    "FourDimA1",
    "FourDimA2",
    "Planar6",
    "Planar8",
    "Planar9",
    "Planar10",
    "RestrictedBC",
    "RestrictedA",
)

PARAM_NAMES = {
    "A": ("t",),
    "B": ("p", "q"),
    "C": ("p", "q"),
    "D": ("t",),
    "BC": ("r", "s", "q"),
    "E6": ("t",),
    "E7": ("t",),
    "E8": ("t",),
    "F4": ("r", "s"),
    "G2": ("p", "q"),
    "FourDim": ("r", "s"),
    "FourDimA1": ("r", "s"),
    "FourDimA2": ("r", "s"),
    "Planar6": ("a", "b"),
    "Planar8": ("a", "b"),
    "Planar9": ("a", "b"),
    "Planar10": ("a",),
    "RestrictedBC": ("r", "s", "q"),
    "RestrictedA": ("t",),
}

_FIXED_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2, "FourDim": 4,
               "FourDimA1": 3, "FourDimA2": 3,
               "Planar6": 2, "Planar8": 2, "Planar9": 2, "Planar10": 2}


class UnsupportedParamsError(ValueError):
    """Family, rank or parameters outside what the generators support."""


class DegenerateParamsError(ZeroDivisionError):
    """Parameters hit a vanishing denominator of a closed form."""


@dataclass(frozen=True)
class FamilySpec:
    family: str
    rank: int | None = None
    params: tuple[tuple[str, Fraction], ...] = ()
    partition: tuple[int, ...] | None = None

    def param(self, name: str) -> Fraction:
        for k, v in self.params:
            if k == name:
                return v
        raise UnsupportedParamsError("missing parameter %r for family %s" % (name, self.family))


def family_spec(family: str, rank: int | None = None, partition=None, **params) -> FamilySpec:
    if family not in FAMILIES:
        raise UnsupportedParamsError("unknown family %r" % family)
    names = PARAM_NAMES[family]
    for k in params:
        if k not in names:
            raise UnsupportedParamsError("family %s takes parameters %s, got %r" % (family, names, k))
    for k in names:
        if k not in params:
            raise UnsupportedParamsError("family %s needs parameter %r" % (family, k))
    if family in _FIXED_RANK:
        if rank is not None and rank != _FIXED_RANK[family]:
            raise UnsupportedParamsError("family %s has fixed rank %d" % (family, _FIXED_RANK[family]))
        rank = _FIXED_RANK[family]
    part = None if partition is None else tuple(int(m) for m in partition)
    if family in ("RestrictedBC", "RestrictedA"):
        if part is None or not part:
            raise UnsupportedParamsError("family %s needs a partition" % family)
        if any(m < 1 for m in part):
            raise UnsupportedParamsError("partition entries must be positive integers")
        rank = len(part) if family == "RestrictedBC" else len(part) - 1
    elif rank is None or rank < 1:
        raise UnsupportedParamsError("family %s needs a positive rank" % family)
    ordered = tuple((k, rat(params[k])) for k in names)
    return FamilySpec(family, rank, ordered, part)


def _cfg(dim, pairs, name) -> Configuration:
    pairs = [(tuple(map(rat, a)), rat(c)) for a, c in pairs]
    pairs = [(a, c) for a, c in pairs if c != 0]
    return Configuration(dim, tuple(a for a, _ in pairs), tuple(c for _, c in pairs), name)


def _unit(n: int, i: int, scale=1) -> Vec:
    return tuple(rat(scale) if k == i else Fraction(0) for k in range(n))


def _sum_pm(n, i, j, sign, scale=1) -> Vec:
    v = [Fraction(0)] * n
    v[i] = rat(scale)
    v[j] = rat(sign) * rat(scale)
    return tuple(v)


def an_root_coords(nplus1: int, a: int, b: int) -> Vec:
    """Coordinates of e^a - e^b (0-based, a < b < nplus1) in the basis
    v_i = e_i - e_{nplus1-1} of the sum-zero hyperplane."""
    n = nplus1 - 1
    if b < n:
        v = [Fraction(0)] * n
        v[a] = Fraction(1)
        v[b] = Fraction(-1)
        return tuple(v)
    return tuple(Fraction(2) if k == a else Fraction(1) for k in range(n))


def _gen_a(n: int, t: Fraction) -> Configuration:
    pairs = [
        (an_root_coords(n + 1, a, b), t)
        for a, b in combinations(range(n + 1), 2)
    ]
    return _cfg(n, pairs, "A%d(t=%s) in basis e_i - e_%d of the sum-zero hyperplane" % (n, t, n + 1))


def _gen_bcn(n, r, s, q, label) -> Configuration:
    pairs = []
    pairs += [(_unit(n, i), r) for i in range(n)]
    pairs += [(_unit(n, i, 2), s) for i in range(n)]
    for i, j in combinations(range(n), 2):
        pairs.append((_sum_pm(n, i, j, 1), q))
        pairs.append((_sum_pm(n, i, j, -1), q))
    return _cfg(n, pairs, label)


def _gen_e8(t) -> list[tuple[Vec, Fraction]]:
    pairs = []
    for i, j in combinations(range(8), 2):
        pairs.append((_sum_pm(8, i, j, 1), t))
        pairs.append((_sum_pm(8, i, j, -1), t))
    half = Fraction(1, 2)
    for signs in product((1, -1), repeat=7):
        if sum(1 for s in signs if s < 0) % 2 == 0:
            v = (half,) + tuple(half * s for s in signs)
            pairs.append((v, t))
    return pairs


def _gen_e(rank: int, t: Fraction) -> Configuration:
    roots8 = _gen_e8(t)
    if rank == 8:
        return _cfg(8, roots8, "E8(t=%s) in the even half-integer lattice realization" % t)
    if rank == 7:
        sel = [(a, c) for a, c in roots8 if a[6] + a[7] == 0]
        basis_note = "basis e_1..e_6, e_7-e_8"
        reexpr = [((a[0], a[1], a[2], a[3], a[4], a[5], a[6] - a[7]), c) for a, c in sel]
        return _cfg(7, reexpr, "E7(t=%s) inside E8, %s" % (t, basis_note))
    sel = [(a, c) for a, c in roots8 if a[6] + a[7] == 0 and a[5] + a[6] == 0]
    reexpr = [((a[0], a[1], a[2], a[3], a[4], a[5] - a[6] + a[7]), c) for a, c in sel]
    return _cfg(6, reexpr, "E6(t=%s) inside E8, basis e_1..e_5, e_6-e_7+e_8" % t)


def _gen_f4(r, s) -> Configuration:
    pairs = [(_unit(4, i), s) for i in range(4)]
    for i, j in combinations(range(4), 2):
        pairs.append((_sum_pm(4, i, j, 1), r))
        pairs.append((_sum_pm(4, i, j, -1), r))
    half = Fraction(1, 2)
    for signs in product((1, -1), repeat=3):
        v = (half, half * signs[0], half * signs[1], half * signs[2])
        pairs.append((v, s))
    return _cfg(4, pairs, "F4(r=%s,s=%s)" % (r, s))


def _gen_g2(p, q) -> Configuration:
    # sum-zero realization {e^i-e^j, 2e^i-e^j-e^k} re-expressed in the basis
    # v1 = e_1-e_3, v2 = e_2-e_3 of the hyperplane
    short = [(1, -1), (2, 1), (1, 2)]
    long = [(3, 0), (0, -3), (3, 3)]
    pairs = [(tuple(map(Fraction, a)), p) for a in short]
    pairs += [(tuple(map(Fraction, a)), q) for a in long]
    return _cfg(2, pairs, "G2(p=%s,q=%s) in basis e_1-e_3, e_2-e_3 of the sum-zero plane" % (p, q))


def four_dim_config(p, q, r, s, name=None) -> Configuration:
    """The four-dimensional B3xA1-symmetric covector list with explicit multiplicities."""
    p, q, r, s = rat(p), rat(q), rat(r), rat(s)
    pairs = [(_unit(4, i), p) for i in range(3)]
    pairs.append((_unit(4, 3), q))
    for i, j in combinations(range(3), 2):
        pairs.append((_sum_pm(4, i, j, 1), r))
        pairs.append((_sum_pm(4, i, j, -1), r))
    half = Fraction(1, 2)
    for signs in product((1, -1), repeat=3):
        v = (half, half * signs[0], half * signs[1], half * signs[2])
        pairs.append((v, s))
    return _cfg(4, pairs, name or "FourDim(p=%s,q=%s,r=%s,s=%s)" % (p, q, r, s))


def four_dim_derived_params(r, s) -> tuple[Fraction, Fraction]:
    """The constraint values p = 2r+s, q = s(s-2r)/(4r+s)."""
    r, s = rat(r), rat(s)
    if 4 * r + s == 0:
        raise UnsupportedParamsError("FourDim needs 4r+s nonzero")
    return 2 * r + s, s * (s - 2 * r) / (4 * r + s)


def _gen_four_dim_a1(r, s) -> Configuration:
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
    return _cfg(3, pairs, "FourDimA1(r=%s,s=%s)" % (r, s))


def _gen_four_dim_a2(r, s) -> Configuration:
    p, q = four_dim_derived_params(r, s)
    pairs = [(_unit(3, i), p + s) for i in range(3)]
    for i, j in combinations(range(3), 2):
        pairs.append((_sum_pm(3, i, j, 1), r + s))
    for i, j in combinations(range(3), 2):
        pairs.append((_sum_pm(3, i, j, -1), r))
    pairs.append(((1, 1, 1), q + s))
    return _cfg(3, pairs, "FourDimA2(r=%s,s=%s)" % (r, s))


def _gen_planar(family, params) -> Configuration:
    h = Fraction(1, 2)
    if family == "Planar6":
        a, b = params
        if 4 * a - 3 * b == 0:
            raise UnsupportedParamsError("Planar6 needs 4a-3b nonzero")
        pairs = [
            ((1, 0), 4 * a),
            ((2, 0), a),
            ((0, 1), 2 * a),
            ((1, 1), 2 * a),
            ((1, -1), 2 * (a - b)),
            ((2, 1), 2 * a * b / (4 * a - 3 * b)),
        ]
    elif family == "Planar8":
        a, b = params
        pairs = [
            ((1, 0), 2 * a),
            ((2, 0), a / 2 - b / 4),
            ((0, 1), 2 * b),
            ((0, 2), a),
            ((1, 1), b),
            ((1, -1), b),
            ((1, 2), a - b / 2),
            ((1, -2), a - b / 2),
        ]
    elif family == "Planar9":
        a, b = params
        pairs = [
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
    else:
        (a,) = params
        pairs = [
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
    label = "%s(%s)" % (family, ",".join(str(x) for x in params))
    return _cfg(2, pairs, label)


def restricted_family(spec: FamilySpec) -> Configuration:
    """Closed-form restricted configurations, built directly from the tables
    (independently of the restriction machinery, for cross-checking)."""
    part = spec.partition
    if spec.family == "RestrictedBC":
        r, s, q = (spec.param(k) for k in ("r", "s", "q"))
        n = len(part)
        pairs = [(_unit(n, i), r * part[i]) for i in range(n)]
        pairs += [
            (_unit(n, i, 2), s * part[i] + q * Fraction(part[i] * (part[i] - 1), 2))
            for i in range(n)
        ]
        for i, j in combinations(range(n), 2):
            pairs.append((_sum_pm(n, i, j, 1), q * part[i] * part[j]))
            pairs.append((_sum_pm(n, i, j, -1), q * part[i] * part[j]))
        return _cfg(n, pairs, "BC%d(r=%s,s=%s,q=%s;m=%s)" % (n, r, s, q, list(part)))
    if spec.family == "RestrictedA":
        t = spec.param("t")
        k = len(part)  # number of blocks; child rank k-1
        pairs = [
            (an_root_coords(k, a, b), t * part[a] * part[b])
            for a, b in combinations(range(k), 2)
        ]
        return _cfg(k - 1, pairs, "A(t=%s;m=%s) restricted, sum-zero basis" % (t, list(part)))
    raise UnsupportedParamsError("restricted_family handles RestrictedBC and RestrictedA only")


@lru_cache(maxsize=None)
def generate(spec: FamilySpec) -> Configuration:
    """Positive-half configuration of the requested family."""
    fam, n = spec.family, spec.rank
    if fam == "A":
        return _gen_a(n, spec.param("t"))
    if fam == "B":
        p, q = spec.param("p"), spec.param("q")
        return _gen_bcn(n, p, Fraction(0), q, "B%d(p=%s,q=%s)" % (n, p, q))
    if fam == "C":
        p, q = spec.param("p"), spec.param("q")
        return _gen_bcn(n, Fraction(0), q, p, "C%d(p=%s,q=%s)" % (n, p, q))
    if fam == "D":
        t = spec.param("t")
        return _gen_bcn(n, Fraction(0), Fraction(0), t, "D%d(t=%s)" % (n, t))
    if fam == "BC":
        r, s, q = (spec.param(k) for k in ("r", "s", "q"))
        return _gen_bcn(n, r, s, q, "BC%d(r=%s,s=%s,q=%s)" % (n, r, s, q))
    if fam in ("E6", "E7", "E8"):
        return _gen_e(n, spec.param("t"))
    if fam == "F4":
        return _gen_f4(spec.param("r"), spec.param("s"))
    if fam == "G2":
        return _gen_g2(spec.param("p"), spec.param("q"))
    if fam == "FourDim":
        r, s = spec.param("r"), spec.param("s")
        p, q = four_dim_derived_params(r, s)
        return four_dim_config(p, q, r, s, "FourDim(r=%s,s=%s)" % (r, s))
    if fam == "FourDimA1":
        return _gen_four_dim_a1(spec.param("r"), spec.param("s"))
    if fam == "FourDimA2":
        return _gen_four_dim_a2(spec.param("r"), spec.param("s"))
    if fam in ("Planar6", "Planar8", "Planar9", "Planar10"):
        return _gen_planar(fam, tuple(spec.param(k) for k in PARAM_NAMES[fam]))
    if fam in ("RestrictedBC", "RestrictedA"):
        return restricted_family(spec)
    raise UnsupportedParamsError("unknown family %r" % fam)


def expected_lambda_sq(spec: FamilySpec) -> Fraction:
    """Closed-form lambda^2 for the family; exact (squaring removes radicals)."""
    fam, n = spec.family, spec.rank

    def bc_value(r, s, q, nn):
        h = r + 4 * s + 2 * q * (nn - 1)
        den = q * (r + 8 * s + 2 * (nn - 2) * q)
        if den == 0:
            raise DegenerateParamsError("lambda^2 denominator vanishes")
        return 2 * h**3 / den

    if fam == "A":
        return 4 * (n + 1) ** 2 * spec.param("t")
    if fam == "BC":
        return bc_value(spec.param("r"), spec.param("s"), spec.param("q"), n)
    if fam == "B":
        return bc_value(spec.param("p"), Fraction(0), spec.param("q"), n)
    if fam == "C":
        return bc_value(Fraction(0), spec.param("q"), spec.param("p"), n)
    if fam == "D":
        return bc_value(Fraction(0), Fraction(0), spec.param("t"), n)
    if fam == "E6":
        return 288 * spec.param("t")
    if fam == "E7":
        return 486 * spec.param("t")
    if fam == "E8":
        return 900 * spec.param("t")
    if fam in ("F4", "FourDim", "FourDimA1", "FourDimA2"):
        r, s = spec.param("r"), spec.param("s")
        if 4 * r + s == 0:
            raise DegenerateParamsError("lambda^2 denominator vanishes")
        return 108 * (2 * r + s) ** 2 / (4 * r + s)
    if fam == "G2":
        p, q = spec.param("p"), spec.param("q")
        if p + 9 * q == 0:
            raise DegenerateParamsError("lambda^2 denominator vanishes")
        return 36 * (p + 3 * q) ** 2 / (p + 9 * q)
    if fam == "Planar6":
        a, b = spec.param("a"), spec.param("b")
        if 4 * a - 3 * b == 0:
            raise DegenerateParamsError("lambda^2 denominator vanishes")
        return 108 * (2 * a - b) ** 2 / (4 * a - 3 * b)
    if fam == "Planar8":
        a, b = spec.param("a"), spec.param("b")
        if 4 * a - b == 0:
            raise DegenerateParamsError("lambda^2 denominator vanishes")
        return 216 * a**2 / (4 * a - b)
    if fam == "Planar9":
        a, b = spec.param("a"), spec.param("b")
        if a + 4 * b == 0:
            raise DegenerateParamsError("lambda^2 denominator vanishes")
        return 36 * (a + 2 * b) ** 2 / (a + 4 * b)
    if fam == "Planar10":
        return 225 * spec.param("a")
    if fam == "RestrictedBC":
        return bc_value(spec.param("r"), spec.param("s"), spec.param("q"), sum(spec.partition))
    if fam == "RestrictedA":
        nn = sum(spec.partition) - 1
        return 4 * (nn + 1) ** 2 * spec.param("t")
    raise UnsupportedParamsError("unknown family %r" % fam)


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
    part = tuple(partition)
    idx = []
    start = 0
    if family == "A":
        nplus1 = parent.dim + 1
        if sum(part) != nplus1:
            raise UnsupportedParamsError("partition must sum to rank+1 for A")
        for m in part:
            for a in range(start, start + m - 1):
                idx.append(covector_index(parent, an_root_coords(nplus1, a, a + 1)))
            start += m
        return tuple(idx)
    if sum(part) != parent.dim:
        raise UnsupportedParamsError("partition must sum to the rank")
    for m in part:
        for a in range(start, start + m - 1):
            idx.append(covector_index(parent, _sum_pm(parent.dim, a, a + 1, -1)))
        start += m
    return tuple(idx)
