"""Decomposition of a configuration into maximal alpha-series (strings).

For a fixed covector alpha, two covectors g1, g2 outside alpha's collinearity
class are related when g1 + g2 or g1 - g2 equals m * alpha with m an integer
(m = 0 allowed).  The maximal classes of the induced equivalence partition
the rest of the configuration; within one series all wedges alpha ^ g agree
up to sign.  The decomposition runs on the configuration's integer
covectors packed into one int each (``configuration.packed``): packing is
linear, so the transverse part of a covector against alpha is two big-int
products and a subtraction, and its int, whose fields are wide enough that
none carries into the next, keys the bucket together with the step.
"""

from __future__ import annotations

from typing import NamedTuple

from .configuration import Configuration, lattice, packed


class SeriesDecomposition(NamedTuple):
    alpha: int
    series: tuple[tuple[int, ...], ...]


def series_with_signs(
    cfg: Configuration, alpha_index: int
) -> list[tuple[list[int], dict[int, int]]]:
    """Series together with the relative wedge signs of their members.

    For members b1, b2 of one series, alpha ^ b1 = s1*s2 * (alpha ^ b2) where
    s_i are the returned signs.  On the integer covectors, with p the pivot
    of alpha, rho = alpha_p*gamma - gamma_p*alpha is alpha_p times the part
    of gamma transverse to alpha.  Two covectors are related iff their
    sign-normalized rho agree and their steps (sign*gamma_p) mod |alpha_p|
    agree, that is iff their sign-weighted alpha coefficients differ by an
    integer; this is the transitive closure of the defining relation.
    rho is computed on the packed rows (``configuration.packed``): two
    products and a subtraction, whose sign is that of rho's first nonzero
    coordinate, and whose absolute value keys the sign-normalized rho.
    Series come in the order of their first member, members in increasing
    order.
    """
    covs = lattice(cfg).covectors
    rows = packed(cfg).rows
    alpha = covs[alpha_index]
    pivot = next(k for k, x in enumerate(alpha) if x != 0)
    ap, pa = alpha[pivot], rows[alpha_index]
    period, orient = abs(ap), (1 if ap > 0 else -1)
    buckets: dict[tuple[int, int], tuple[list[int], dict[int, int]]] = {}
    for g, (gamma, pg) in enumerate(zip(covs, rows)):
        gp = gamma[pivot]
        rho = ap * pg - gp * pa
        if rho > 0:
            sign = orient
            key = (rho, gp % period)
        elif rho < 0:
            sign = -orient
            key = (-rho, -gp % period)
        else:
            continue  # collinear with alpha: belongs to delta_alpha, not to any series
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = ([g], {g: sign})  # sign: the leading sign of gamma's transverse part
        else:
            bucket[0].append(g)
            bucket[1][g] = sign
    return list(buckets.values())


def alpha_series(cfg: Configuration, alpha_index: int) -> SeriesDecomposition:
    """Partition of everything outside alpha's collinearity class into series."""
    groups = series_with_signs(cfg, alpha_index)  # sorted by first member, members increasing
    return SeriesDecomposition(alpha_index, tuple(tuple(members) for members, _ in groups))
