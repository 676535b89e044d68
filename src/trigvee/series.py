"""Decomposition of a configuration into maximal alpha-series (strings).

For a fixed covector alpha, two covectors g1, g2 outside alpha's collinearity
class are related when g1 + g2 or g1 - g2 equals m * alpha with m an integer
(m = 0 allowed).  The maximal classes of the induced equivalence partition
the rest of the configuration; within one series all wedges alpha ^ g agree
up to sign.  The decomposition runs on the configuration's integer
covectors (``configuration.lattice``), with integer bucket keys.
"""

from __future__ import annotations

from dataclasses import dataclass

from .configuration import Configuration, lattice


@dataclass(frozen=True)
class SeriesDecomposition:
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
    Series come in the order of their first member.
    """
    covs = lattice(cfg).covectors
    alpha = covs[alpha_index]
    pivot = next(k for k, x in enumerate(alpha) if x != 0)
    ap = alpha[pivot]
    period, orient = abs(ap), (1 if ap > 0 else -1)
    buckets: dict[tuple, tuple[list[int], dict[int, int]]] = {}
    for g, gamma in enumerate(covs):
        gp = gamma[pivot]
        rho = tuple(ap * x - gp * y for x, y in zip(gamma, alpha))
        lead = next((x for x in rho if x != 0), 0)
        if lead == 0:
            continue  # collinear with alpha: belongs to delta_alpha, not to any series
        sign = 1 if lead > 0 else -1
        step = sign * gp % period
        key = (rho if sign > 0 else tuple(-x for x in rho), step)
        members, signs = buckets.setdefault(key, ([], {}))
        members.append(g)
        signs[g] = sign * orient  # the leading sign of gamma's transverse part
    return list(buckets.values())


def alpha_series(cfg: Configuration, alpha_index: int) -> SeriesDecomposition:
    """Partition of everything outside alpha's collinearity class into series."""
    groups = series_with_signs(cfg, alpha_index)
    series = tuple(tuple(sorted(members)) for members, _ in groups)
    series = tuple(sorted(series, key=lambda s: s[0]))
    return SeriesDecomposition(alpha_index, series)
