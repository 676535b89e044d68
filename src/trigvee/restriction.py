"""Restriction of a configuration to the common kernel of a subsystem.

Covectors outside the subsystem are projected onto the intersection of the
member kernels; exactly equal projections are merged with summed
multiplicities (proportional-but-unequal projections stay distinct), and
merged multiplicities of zero are dropped with a ZeroMultiplicityWarning.  The
resulting configuration carries the same coupling constant as its parent.
All of it runs in integers on the parent's integer view.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .configuration import (
    Configuration, c_delta, class_of, gram_inverse_cleared, lattice, warn_dropped)
from .exactla import SingularMatrixError, Vec, annihilator
from .veesystem import SubsystemHandle


class CDeltaZeroError(ValueError):
    """A spanning covector's collinearity class has vanishing weighted sum."""


class DegenerateRestrictedGramError(ValueError):
    """The Gram form restricted to the kernel subspace is degenerate."""


class EmptyChildError(ValueError):
    """Every covector restricts to zero."""


class RestrictionResult(NamedTuple):
    child: Configuration
    basis: tuple[Vec, ...]  # basis of the kernel subspace, in parent coordinates
    provenance: tuple[tuple[int, ...], ...]  # parent indices merged into each child covector


def restrict(cfg: Configuration, sub: SubsystemHandle) -> RestrictionResult:
    """Project the configuration onto the common kernel of the subsystem.

    The caller is expected to pass a vee-system with a defined lambda^2; the
    hypotheses actually enforced here are the nonvanishing class sums of the
    spanning covectors and nondegeneracy of the restricted Gram form.
    """
    for i in sub.span_indices:
        if c_delta(cfg, class_of(cfg, i).indices, i) == 0:
            raise CDeltaZeroError(
                "collinearity class of spanning covector %d has zero weighted sum" % i
            )

    lat = lattice(cfg)
    kernel, d, images = annihilator(lat.covectors, sub.span_indices, cfg.dim)
    if not kernel:
        raise EmptyChildError("the subsystem spans the whole dual space")
    merged: dict[tuple[int, ...], list] = {}  # projection -> [multiplicity, parent indices]
    for j, (pa, c) in enumerate(zip(images, lat.multiplicities)):
        if any(pa):  # only the members, inside the span, project to zero
            entry = merged.setdefault(pa, [0, []])
            entry[0] += c
            entry[1].append(j)
    kept = {pa: entry for pa, entry in merged.items() if entry[0]}
    scale = lat.denominator * d
    covs = tuple(tuple(Fraction(x, scale) for x in pa) for pa in kept)
    mults = tuple(Fraction(c, lat.mult_denominator) for c, _ in kept.values())
    provenance = tuple(tuple(js) for _, js in kept.values())
    name = None if cfg.name is None else "%s | restricted along %s" % (
        cfg.name, list(sub.span_indices))
    child = Configuration(len(kernel), covs, mults, name)
    # its Gram form is B^T G B, B = kernel / d, up to a positive scale
    try:
        gram_inverse_cleared(child)
    except SingularMatrixError:
        raise DegenerateRestrictedGramError("restricted Gram form is degenerate") from None
    warn_dropped(len(merged) - len(kept))
    basis = tuple(tuple(Fraction(x, d) for x in v) for v in kernel)
    return RestrictionResult(child, basis, provenance)
