"""Highest-root normalization constants for root-system configurations.

Two closed routes to the constant gamma-tilde squared (one through the
highest root, one through the dual root system) and a direct route through
the identity gamma^2 * lambda^2 = -4 h^3, where h is the proportionality
factor between the weighted Gram form and the invariant inner product.  All
norm data lives in realization-independent tables, so the direct route works
on any rational realization of the root system.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .configuration import Configuration, duals
from .exactla import dot, rat
from .veesystem import lambda_sq


class NoATableError(ValueError):
    """No coefficient table for this family / multiplicity combination."""


class ClassificationError(ValueError):
    """Configuration covectors cannot be matched to the root-class census."""


class RootClass(NamedTuple):
    label: str
    norm_sq: Fraction
    count: int
    param: str  # the generator parameter carrying this class: its multiplicity / norm_sq


class RootData(NamedTuple):
    """Norms, highest-root coefficients and the positive-root census.

    All entries are rationals tied to the standard realization of the root
    system (long-root norm 2 in the simply-laced case), independent of the
    coordinates any particular configuration uses.
    """

    family: str
    rank: int
    simple_norms: tuple[Fraction, ...]
    marks: tuple[int, ...]  # coefficients of the highest root over the simple roots
    theta_norm: Fraction
    census: tuple[RootClass, ...]

    @property
    def simply_laced(self) -> bool:
        return len(self.census) == 1


_E_MARKS = {6: (1, 2, 2, 3, 2, 1), 7: (2, 2, 3, 4, 3, 2, 1), 8: (2, 3, 4, 6, 5, 4, 3, 2)}
_E_COUNT = {6: 36, 7: 63, 8: 120}


def root_data(family: str, rank: int | None = None) -> RootData:
    two = Fraction(2)
    one = Fraction(1)
    four = Fraction(4)
    if family == "A":
        n = rank
        return RootData("A", n, (two,) * n, (1,) * n, two,
                        (RootClass("all", two, n * (n + 1) // 2, "t"),))
    if family == "B":
        n = rank
        marks = (1,) + (2,) * (n - 1)
        return RootData("B", n, (two,) * (n - 1) + (one,), marks, two,
                        (RootClass("short", one, n, "p"), RootClass("long", two, n * (n - 1), "q")))
    if family == "C":
        n = rank
        marks = (2,) * (n - 1) + (1,)
        return RootData("C", n, (two,) * (n - 1) + (four,), marks, four,
                        (RootClass("short", two, n * (n - 1), "p"), RootClass("long", four, n, "q")))
    if family == "D":
        n = rank
        if n < 3:
            raise NoATableError("D needs rank >= 3")
        marks = (1,) + (2,) * (n - 3) + (1, 1)
        return RootData("D", n, (two,) * n, marks, two,
                        (RootClass("all", two, n * (n - 1), "t"),))
    if family in ("E6", "E7", "E8"):
        n = int(family[1])
        return RootData(family, n, (two,) * n, _E_MARKS[n], two,
                        (RootClass("all", two, _E_COUNT[n], "t"),))
    if family == "F4":
        return RootData("F4", 4, (two, two, one, one), (2, 3, 4, 2), two,
                        (RootClass("short", one, 12, "s"), RootClass("long", two, 12, "r")))
    if family == "G2":
        return RootData("G2", 2, (Fraction(3), one), (2, 3), Fraction(3),
                        (RootClass("short", one, 3, "p"), RootClass("long", Fraction(3), 3, "q")))
    if family == "BC":
        n = rank
        return RootData("BC", n, (), (), Fraction(0),
                        (RootClass("r", one, n, "r"), RootClass("s", four, n, "s"),
                         RootClass("q", two, n * (n - 1), "q")))
    raise NoATableError("no root data for family %r" % family)


def _a_table(rd: RootData, mult: Mapping[str, Fraction]) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Coefficients (a_0, a_1..a_N) of the highest-root formula per family."""
    mult = {k: rat(v) for k, v in mult.items()}
    if rd.simply_laced:
        if set(mult) != {"all"}:
            raise NoATableError("simply-laced families take a single multiplicity 'all'")
        t = mult["all"]
        return t * t, (t * t,) * rd.rank
    if set(mult) != {"short", "long"}:
        raise NoATableError("family %s takes multiplicities 'short' and 'long'" % rd.family)
    p, q = mult["short"], mult["long"]
    n = rd.rank
    if rd.family == "B":
        a = [p * q] + [q * q] * (n - 2) + [p * q]
        return p * q, tuple(a)
    if rd.family == "C":
        a = [p * q] + [p * p] * (n - 2) + [p * q]
        return p * q, tuple(a)
    if rd.family == "F4":
        return p * q, (p * p, p * q, q * q, p * q)
    if rd.family == "G2":
        return p * p, (p * q, q * q)
    raise NoATableError("no coefficient table for family %r" % rd.family)


def gamma_tilde_sq(rd: RootData, mult: Mapping[str, Fraction]) -> Fraction:
    """gamma-tilde^2 by the highest-root formula
    -(1/8)(a_0 <theta,theta> + sum a_i n_i^2 <alpha_i,alpha_i>)."""
    a0, a = _a_table(rd, mult)
    total = a0 * rd.theta_norm
    for ai, ni, norm in zip(a, rd.marks, rd.simple_norms):
        total += ai * ni * ni * norm
    return -total / 8


def gamma_tilde_sq_dual(rd: RootData, mult: Mapping[str, Fraction]) -> Fraction:
    """gamma-tilde^2 through the dual root system beta-vee = 2 beta / <beta,beta>."""
    a0, a = _a_table(rd, mult)
    theta = rd.theta_norm
    total = a0 * 4 / theta
    for ai, ni, norm in zip(a, rd.marks, rd.simple_norms):
        nbar = Fraction(ni) * norm / theta
        total += nbar * nbar * ai * 4 / norm
    return -(theta * theta) / 32 * total


def classify_and_h(cfg: Configuration, rd: RootData) -> tuple[Fraction, dict[int, str]]:
    """Match covectors to census classes and recover the Gram factor h.

    Uses the intrinsic values v_a = a(a-vee) = <a,a>/h, which are invariant
    under any linear change of realization.  One h serves every class and the
    census norms are distinct, so |v| orders the value groups as the norms
    order the classes: that pairing is the only one that can hold, and it
    holds when every count matches and every class gives the same h.  The
    largest |v| is never 0, since sum_a c_a v_a = N, so h is read off it.
    """
    dv = duals(cfg)
    values: dict[Fraction, list[int]] = {}
    for i, a in enumerate(cfg.covectors):
        values.setdefault(dot(a, dv[i]), []).append(i)
    groups = sorted(values.items(), key=lambda g: abs(g[0]))
    census = sorted(rd.census, key=lambda c: c.norm_sq)
    if len(groups) != len(census):
        raise ClassificationError(
            "configuration has %d norm classes, census has %d" % (len(groups), len(census))
        )
    pairs = list(zip(groups, census))
    h = census[-1].norm_sq / groups[-1][0]
    if any(cls.count != len(idxs) or cls.norm_sq != h * v for (v, idxs), cls in pairs):
        raise ClassificationError("covector classes do not match the census")
    return h, {i: cls.label for (_, idxs), cls in pairs for i in idxs}


def gamma_sq_direct(cfg: Configuration, rd: RootData) -> Fraction:
    """gamma^2 through gamma^2 * lambda^2 = -4 h^3.

    The factor h comes from classify_and_h, which reads it off the intrinsic
    values a(a-vee) = <a,a>/h, so any rational realization of the root system
    works.
    """
    h, _ = classify_and_h(cfg, rd)
    lam = lambda_sq(cfg)
    if lam == 0:
        raise ZeroDivisionError("lambda^2 vanishes")
    return -4 * h**3 / lam

