"""The vee-condition checker, the two forms on Lambda^2 V, and subsystems.

The check evaluates, for every covector alpha and every alpha-series, the
signed scalar sum of c_b * alpha(b-vee) over the series; all wedges within a
series agree up to sign, so the wedge factor cancels and a single rational
residual remains per series.  The two canonical wedge forms determine the
coupling ratio lambda^2 by exact proportionality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .configuration import (
    Configuration,
    collinear_classes,
    duals,
    gram,
    memo,
    normalize_positive,
)
from .exactla import (
    Mat,
    Vec,
    clear_denominators,
    dot,
    rank,
    rref,
    in_row_span,
    vscale,
    wedge_pairs,
)
from .series import series_with_signs


class NotProportionalError(ValueError):
    """The two wedge forms are not proportional."""


class ZeroG2Error(ZeroDivisionError):
    """The second wedge form vanishes, so the ratio is undefined."""


class NotEigenError(ValueError):
    """A member dual is not an eigenvector of the subsystem operator."""


# --- the forms on Lambda^2 V -------------------------------------------------


@memo
def g1(cfg: Configuration) -> Mat:
    """First canonical form on Lambda^2 V: sum of c_a c_b (a ^ b)^2.

    Computed through the closed bilinear identity
    G1(u1^v1, u2^v2) = 8*(G(u1,u2)G(v1,v2) - G(u1,v2)G(u2,v1)),
    which agrees entrywise with the literal double sum over the
    configuration (property-tested).
    """
    g = gram(cfg)
    pairs = wedge_pairs(cfg.dim)
    out = []
    for (i, j) in pairs:
        row = []
        for (k, l) in pairs:
            row.append(8 * (g[i][k] * g[j][l] - g[i][l] * g[j][k]))
        out.append(tuple(row))
    return tuple(out)


def _g2_sum(cfg: Configuration) -> Mat:
    """Second-form double sum over the configuration exactly as supplied.

    Runs on integer-rescaled data (covectors, duals and multiplicities each
    cleared to a common denominator) with a single exact division at the end;
    accumulation uses numpy int64 when a bound check proves it safe.
    """
    n = len(cfg)
    pairs = wedge_pairs(cfg.dim)
    np_ = len(pairs)
    ai, lc = clear_denominators(cfg.covectors)
    (mi,), lm = clear_denominators([cfg.multiplicities])
    bi = None  # duals are only needed once some wedge is nonzero
    ld = 1

    terms = []  # (scalar weight, integer wedge vector)
    bound = 0
    for i in range(n):
        ami, aii = mi[i], ai[i]
        for j in range(i + 1, n):
            w = tuple(
                2 * (aii[p] * ai[j][q] - aii[q] * ai[j][p]) for (p, q) in pairs
            )
            wmax = max(map(abs, w), default=0)
            if wmax == 0:
                continue
            if bi is None:
                bi, ld = clear_denominators(duals(cfg))
            nij = sum(x * y for x, y in zip(aii, bi[j]))
            if nij == 0:
                continue
            s = 2 * ami * mi[j] * nij
            bound += abs(s) * wmax * wmax
            terms.append((s, w))

    den = lm * lm * lc**5 * ld
    if terms and bound < 2**62:
        import numpy

        w_arr = numpy.array([w for _, w in terms], dtype=numpy.int64)
        s_arr = numpy.array([s for s, _ in terms], dtype=numpy.int64)
        acc = (w_arr * s_arr[:, None]).T @ w_arr
        return tuple(
            tuple(Fraction(int(acc[z][w]), den) for w in range(np_)) for z in range(np_)
        )

    acc2 = [[0] * np_ for _ in range(np_)]
    for s, w in terms:
        nz = [(z, x) for z, x in enumerate(w) if x != 0]
        for z, wz in nz:
            swz = s * wz
            row = acc2[z]
            for q, wq in nz:
                row[q] += swz * wq
    return tuple(tuple(Fraction(x, den) for x in row) for row in acc2)


@memo
def g2(cfg: Configuration) -> Mat:
    """Second canonical form, computed over the positive normalization of cfg."""
    return _g2_sum(normalize_positive(cfg))


@memo
def lambda_sq(cfg: Configuration) -> Fraction:
    """The unique ratio with G1 = (lambda^2 / 4) * G2, checked on all entries."""
    a = g1(cfg)
    b = g2(cfg)
    np_ = len(a)
    entry = next(
        ((z, w) for z in range(np_) for w in range(np_) if b[z][w] != 0), None
    )
    if entry is None:
        raise ZeroG2Error("the second form vanishes identically")
    z0, w0 = entry
    lam = 4 * a[z0][w0] / b[z0][w0]
    quarter = lam / 4
    for z in range(np_):
        for w in range(np_):
            if a[z][w] != quarter * b[z][w]:
                raise NotProportionalError("wedge forms are not proportional")
    return lam


# --- the vee-condition report ------------------------------------------------


@dataclass(frozen=True)
class SeriesResidual:
    alpha: int
    members: tuple[int, ...]
    residual: Fraction


@dataclass(frozen=True)
class CDeltaWarning:
    anchor: int
    subset: tuple[int, ...]


@dataclass(frozen=True)
class VeeReport:
    is_vee: bool
    series_residuals: tuple[SeriesResidual, ...]
    c_delta_warnings: tuple[CDeltaWarning, ...]
    lambda_sq: Fraction | None
    proportionality_ok: bool
    g2_positive_independent: bool

    def to_json_dict(self) -> dict:
        series: dict[str, dict] = {}
        for sr in self.series_residuals:
            entry = series.setdefault(str(sr.alpha), {"series": [], "residuals": []})
            entry["series"].append(list(sr.members))
            entry["residuals"].append(str(sr.residual))
        return {
            "is_vee": self.is_vee,
            "lambda_sq": None if self.lambda_sq is None else str(self.lambda_sq),
            "proportionality_ok": self.proportionality_ok,
            "g2_positive_independent": self.g2_positive_independent,
            "warnings": [
                {"anchor": w.anchor, "subset": list(w.subset)} for w in self.c_delta_warnings
            ],
            "series": series,
        }


def vee_residuals(cfg: Configuration) -> tuple[SeriesResidual, ...]:
    """Per-(alpha, series) signed residual of the vee-condition sum."""
    dv = duals(cfg)
    out = []
    for a in range(len(cfg)):
        alpha = cfg.covectors[a]
        for members, signs in series_with_signs(cfg, a):
            rep = members[0]
            total = Fraction(0)
            for b in members:
                total += cfg.multiplicities[b] * dot(alpha, dv[b]) * signs[b]
            out.append(SeriesResidual(a, tuple(sorted(members)), signs[rep] * total))
    return tuple(out)


_SUBSET_CAP = 12


def c_delta_zero_warnings(cfg: Configuration) -> tuple[CDeltaWarning, ...]:
    """All subsets of collinearity classes whose weighted sum vanishes."""
    warnings_out = []
    for cls in collinear_classes(cfg):
        members = cls.members
        if len(members) > _SUBSET_CAP:
            members = members[:_SUBSET_CAP]
        idxs = [i for i, _ in members]
        ratios = {i: k for i, k in members}
        for mask in range(1, 1 << len(idxs)):
            subset = [idxs[t] for t in range(len(idxs)) if mask >> t & 1]
            total = sum(
                (cfg.multiplicities[i] * ratios[i] * ratios[i] for i in subset),
                Fraction(0),
            )
            if total == 0:
                warnings_out.append(CDeltaWarning(cls.anchor, tuple(subset)))
    return tuple(warnings_out)


def _random_functional(cfg: Configuration, rng: random.Random) -> Vec:
    while True:
        phi = tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 19)) for _ in range(cfg.dim))
        if all(x == 0 for x in phi):
            continue
        if all(dot(a, phi) != 0 for a in cfg.covectors):
            return phi


def g2_positive_flip_invariant(cfg: Configuration, flips: int = 2, seed: int = 7) -> bool:
    """Probe the positive-system independence of the second form.

    Each probe renormalizes against a random generic functional, which flips
    the sign of a random set of collinearity classes while keeping the result
    a genuine positive system, and compares the form sums exactly.
    """
    base = g2(cfg)
    rng = random.Random(seed)
    for _ in range(flips):
        phi = _random_functional(cfg, rng)
        if _g2_sum(normalize_positive(cfg, phi)) != base:
            return False
    return True


def vee_check(cfg: Configuration, probe_flips: int = 2, seed: int = 7) -> VeeReport:
    """Full vee-system verification bundle for a configuration.

    is_vee holds iff every series residual is exactly zero; lambda_sq is set
    when the wedge forms are proportional with nonzero second form.
    """
    residuals = vee_residuals(cfg)
    is_vee = all(r.residual == 0 for r in residuals)
    warnings_out = c_delta_zero_warnings(cfg)
    lam: Fraction | None = None
    try:
        lam = lambda_sq(cfg)
        prop = True
    except ZeroG2Error:
        prop = all(x == 0 for row in g1(cfg) for x in row)
    except NotProportionalError:
        prop = False
    flip_ok = g2_positive_flip_invariant(cfg, probe_flips, seed) if probe_flips else True
    return VeeReport(is_vee, residuals, warnings_out, lam, prop, flip_ok)


# --- subsystems ---------------------------------------------------------------


@dataclass(frozen=True)
class SubsystemHandle:
    """A subsystem: all parent covectors inside the span of the chosen ones."""

    parent: Configuration
    member_indices: tuple[int, ...]
    span_indices: tuple[int, ...]  # independent covectors chosen as a basis of W
    span_basis: tuple[Vec, ...]
    wdual_basis: tuple[Vec, ...]  # basis of the dual image of W inside V
    is_isotropic: bool

    @property
    def corank(self) -> int:
        return len(self.span_indices)


def subsystem(cfg: Configuration, span_indices) -> SubsystemHandle:
    """Close the chosen covectors under intersection with their span."""
    chosen = tuple(span_indices)
    if not chosen:
        raise ValueError("span_indices must be nonempty")
    basis_idx: list[int] = []
    rows: list[Vec] = []
    for i in chosen:
        cand = rows + [cfg.covectors[i]]
        if rank(cand) > len(rows):
            basis_idx.append(i)
            rows = cand
    red, piv = rref(rows)
    members = tuple(
        j for j, a in enumerate(cfg.covectors) if in_row_span(red, piv, a)
    )
    dv = duals(cfg)
    wdual = tuple(dv[i] for i in basis_idx)
    k = len(basis_idx)
    gb = [
        [
            sum(
                (
                    cfg.multiplicities[m]
                    * dot(cfg.covectors[m], u)
                    * dot(cfg.covectors[m], v)
                    for m in members
                ),
                Fraction(0),
            )
            for v in wdual
        ]
        for u in wdual
    ]
    isotropic = rank(gb) < k
    return SubsystemHandle(
        cfg, members, tuple(basis_idx), tuple(cfg.covectors[i] for i in basis_idx), wdual, isotropic
    )


def extract(cfg: Configuration, sub: SubsystemHandle) -> Configuration:
    """The subsystem as a standalone configuration.

    Members are restricted to the span of their dual vectors, which keeps the
    standalone Gram form nonsingular exactly when the subsystem is
    non-isotropic.
    """
    covs = tuple(
        tuple(dot(cfg.covectors[m], u) for u in sub.wdual_basis)
        for m in sub.member_indices
    )
    mults = tuple(cfg.multiplicities[m] for m in sub.member_indices)
    name = None if cfg.name is None else "%s | subsystem %s" % (cfg.name, list(sub.span_indices))
    return Configuration(len(sub.wdual_basis), covs, mults, name)


@dataclass(frozen=True)
class EigenDecomposition:
    eigenvalues: tuple[Fraction, ...]
    eigenspaces: tuple[tuple[Vec, ...], ...]
    member_eigenvalues: tuple[tuple[int, Fraction], ...]


def m_apply(cfg: Configuration, sub: SubsystemHandle, v: Vec) -> Vec:
    """Apply the subsystem operator sum of c_b * b (x) b-vee to a vector."""
    dv = duals(cfg)
    out = tuple(Fraction(0) for _ in range(cfg.dim))
    for m in sub.member_indices:
        c = cfg.multiplicities[m] * dot(cfg.covectors[m], v)
        if c != 0:
            out = tuple(x + c * y for x, y in zip(out, dv[m]))
    return out


def m_operator(cfg: Configuration, sub: SubsystemHandle) -> EigenDecomposition:
    """Eigenspace decomposition of the dual span under the subsystem operator.

    Verifies that each member's dual is an exact rational eigenvector and
    groups by eigenvalue; raises NotEigenError otherwise (which certifies
    that the parent is not a vee-system).
    """
    dv = duals(cfg)
    pairs: list[tuple[int, Fraction]] = []
    for m in sub.member_indices:
        v = dv[m]
        w = m_apply(cfg, sub, v)
        p = next(i for i in range(cfg.dim) if v[i] != 0)
        lam = w[p] / v[p]
        if w != vscale(lam, v):
            raise NotEigenError("dual of member %d is not an eigenvector" % m)
        pairs.append((m, lam))
    grouped: dict[Fraction, list[Vec]] = {}
    for m, lam in pairs:
        grouped.setdefault(lam, []).append(dv[m])
    eigenvalues = tuple(sorted(grouped))
    spaces = []
    for lam in eigenvalues:
        basis: list[Vec] = []
        for v in grouped[lam]:
            cand = basis + [v]
            if rank(cand) > len(basis):
                basis = cand
        spaces.append(tuple(basis))
    return EigenDecomposition(eigenvalues, tuple(spaces), tuple(pairs))
