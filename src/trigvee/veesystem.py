"""The vee-condition checker, the two forms on Lambda^2 V, and subsystems.

The check evaluates, for every covector alpha and every alpha-series, the
signed scalar sum of c_b * alpha(b-vee) over the series; all wedges within a
series agree up to sign, so the wedge factor cancels and a single rational
residual remains per series.  The two canonical wedge forms determine the
coupling ratio lambda^2 by exact proportionality.  Residuals, the second form
and the subsystem layers run in integers on the configuration's integer view.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .configuration import (
    Configuration,
    NoGenericFunctionalError,
    class_weights,
    collinear_classes,
    duals,
    gram_cleared,
    gram_inverse_cleared,
    lattice,
    memo,
    orientation,
    outside_stacklevel,
    pairings,
)
from .exactla import (
    Mat,
    Vec,
    annihilator,
    clear_denominators,
    dot,
    independent,
    rank,
    wedge_pairs,
    zero_wedge_form,
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
    on the integer Gram form ``gram_cleared``, with one division per entry;
    it agrees entrywise with the literal double sum over the
    configuration (property-tested).
    """
    g, den = gram_cleared(cfg)
    return _wedge_form(lambda p, r, q, s: g[p][r] * g[q][s], cfg.dim, den * den)


def _wedge_form(t, n: int, den: int) -> Mat:
    """The form on Lambda^2 V with entries 8*(t(p,r,q,s) - t(p,s,q,r)) / den at
    (e_p ^ e_q, e_r ^ e_s), for an integer t symmetric in its two pairs."""
    pairs = wedge_pairs(n)
    return tuple(
        tuple(Fraction(8 * (t(p, r, q, s) - t(p, s, q, r)), den) for (r, s) in pairs)
        for (p, q) in pairs
    )


def _g2_sum(cfg: Configuration, signs=None) -> Mat:
    """Second-form double sum over the configuration exactly as supplied, or
    with covector i times signs[i] (+1 or -1) when signs are given.

    The literal sum of c_a c_b a(b-vee) (a ^ b)^2 over all pairs collapses
    through the third moment M[k][p][r] = sum of c_a a_k a_p a_r, as g1 does
    through the Gram form: with T(pr, qs) = sum over k, l of
    M[k][p][r] G^-1[k][l] M[l][q][s], which is symmetric in its two pairs,
    G2(e_p ^ e_q, e_r ^ e_s) = 8*(T(pr, qs) - T(ps, qr)).  Runs on the
    integer view with one division per entry, and agrees entrywise with the
    literal sum (property-tested).  A single collinearity class has no
    nonzero wedge, so its form is zero without inverting the Gram form.
    M is symmetric, so each entry is summed once, for k <= p <= r.
    A sign only changes the sign of its covector's term in the third moment;
    the Gram form and its inverse stay the same.
    """
    n = cfg.dim
    if len(collinear_classes(cfg)) <= 1:
        return zero_wedge_form(n)
    lat = lattice(cfg)
    gi, gi_den = gram_inverse_cleared(cfg)
    weights = lat.multiplicities if signs is None else list(map(mul, signs, lat.multiplicities))
    cols = list(zip(*lat.covectors))
    moments = [[0] * (n * n) for _ in range(n)]  # row k holds M[k][p][r] at p*n + r
    for k in range(n):
        ck = list(map(mul, weights, cols[k]))
        for p in range(k, n):
            ckp = list(map(mul, ck, cols[p]))
            for r in range(p, n):
                m = sum(map(mul, ckp, cols[r]))
                for x, y, z in {(k, p, r), (k, r, p), (p, k, r), (p, r, k), (r, k, p), (r, p, k)}:
                    moments[x][y * n + z] = m
    mcols = list(zip(*moments))  # mcols[p*n + r][k] = M[k][p][r]
    gcols = list(zip(*([sum(map(mul, gi_row, col)) for col in mcols] for gi_row in gi)))

    def t(p, r, q, s):
        return sum(map(mul, mcols[p * n + r], gcols[q * n + s]))

    return _wedge_form(t, n, lat.mult_denominator**2 * lat.denominator**6 * gi_den)


@memo
def g2(cfg: Configuration) -> Mat:
    """Second canonical form over a positive system: cfg's own sum with each covector
    turned by its ``orientation`` sign, zero when at most one class keeps a row."""
    signs, _, classes = orientation(cfg)
    return _g2_sum(cfg, signs) if classes > 1 else zero_wedge_form(cfg.dim)


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


class SeriesResidual(NamedTuple):
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
    g2_positive_independent: bool | None  # None when no probe ran

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

    def dumps(self) -> str:
        """The text of ``json.dumps(self.to_json_dict(), indent=2, sort_keys=True)``,
        written straight from ``series_residuals`` with no dict tree.

        One pass groups the residuals by alpha, and the alpha keys are ordered as
        strings, as sort_keys orders them ("10" before "2").  Each distinct residual
        (the zero residuals share one Fraction) and each distinct members tuple
        (singleton series recur across alphas) is rendered once.
        """
        # residuals are keyed on id: a Fraction hashes slowly, and each outlives this call
        res_text: dict[int, str] = {}
        members_text: dict[tuple[int, ...], str] = {}
        groups: dict[int, tuple[list[str], list[str]]] = {}
        for alpha, members, residual in self.series_residuals:
            rs, ms = groups.get(alpha) or groups.setdefault(alpha, ([], []))
            rs.append(res_text.get(id(residual)) or res_text.setdefault(
                id(residual), '        "%s"' % residual))
            ms.append(members_text.get(members) or members_text.setdefault(
                members, "        " + _block("[]", ["          %d" % b for b in members], 4)))
        series = [
            '    "%d": {\n      "residuals": %s,\n      "series": %s\n    }'
            % (alpha, _block("[]", rs, 3), _block("[]", ms, 3))
            for alpha, (rs, ms) in sorted(groups.items(), key=lambda kv: str(kv[0]))
        ]
        warns = [
            '    {\n      "anchor": %d,\n      "subset": %s\n    }'
            % (w.anchor, _block("[]", ["        %d" % i for i in w.subset], 3))
            for w in self.c_delta_warnings
        ]
        return (
            '{\n  "g2_positive_independent": %s,\n  "is_vee": %s,\n  "lambda_sq": %s,\n'
            '  "proportionality_ok": %s,\n  "series": %s,\n  "warnings": %s\n}'
        ) % (
            _JSON_CONSTANTS[self.g2_positive_independent],
            _JSON_CONSTANTS[self.is_vee],
            "null" if self.lambda_sq is None else '"%s"' % self.lambda_sq,
            _JSON_CONSTANTS[self.proportionality_ok],
            _block("{}", series, 1),
            _block("[]", warns, 1),
        )


_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


def _block(brackets: str, items: Sequence[str], depth: int) -> str:
    """A JSON array ("[]") or object ("{}") at nesting depth, laid out as
    ``json.dumps(indent=2)`` lays it out, from its items rendered one level deeper."""
    if not items:
        return brackets
    return "%s\n%s\n%s%s" % (brackets[0], ",\n".join(items), "  " * depth, brackets[1])


def vee_residuals(cfg: Configuration, alphas=None) -> tuple[SeriesResidual, ...]:
    """Per-(alpha, series) signed residual of the vee-condition sum, for every
    covector alpha, or only for the indices in alphas, in increasing order.

    Sums multiplicity * pairing * sign over each series in integers on the
    configuration's integer view, with one division per nonzero residual;
    the zero residuals share one Fraction.
    """
    pm, den = pairings(cfg)
    lat = lattice(cfg)
    mults, den = lat.multiplicities, den * lat.mult_denominator
    zero = Fraction(0)
    out = []
    for a in range(len(cfg)) if alphas is None else sorted(alphas):
        weighted = list(map(mul, mults, pm[a]))
        for members, signs in series_with_signs(cfg, a):
            if len(members) == 1:
                total = weighted[members[0]]  # its sign times itself is 1
            else:
                total = signs[members[0]] * sum([weighted[b] * signs[b] for b in members])
            residual = Fraction(total, den) if total else zero
            out.append(SeriesResidual(a, tuple(members), residual))
    return tuple(out)


_SUBSET_CAP = 12


def c_delta_zero_warnings(cfg: Configuration) -> tuple[CDeltaWarning, ...]:
    """All subsets of collinearity classes whose weighted sum vanishes; only the
    first _SUBSET_CAP members of a larger class are searched, with a UserWarning."""
    warnings_out = []
    for cls in collinear_classes(cfg):
        idxs = cls.indices
        if len(idxs) > _SUBSET_CAP:
            warnings.warn("collinearity class at anchor %d has %d covectors; only subsets of "
                          "its first %d are searched" % (cls.anchor, len(idxs), _SUBSET_CAP),
                          stacklevel=outside_stacklevel())
            idxs = idxs[:_SUBSET_CAP]
        weights = class_weights(cfg, cls)[1]
        for mask in range(1, 1 << len(idxs)):
            subset = [idxs[t] for t in range(len(idxs)) if mask >> t & 1]
            if sum(weights[i] for i in subset) == 0:
                warnings_out.append(CDeltaWarning(cls.anchor, tuple(subset)))
    return tuple(warnings_out)


_FUNCTIONAL_DRAWS = 1000  # draws before giving up on a generic functional


def _random_functional(cfg: Configuration, rng: random.Random) -> list[int]:
    """A random functional, cleared to integers, that vanishes on no covector."""
    covs = lattice(cfg).covectors
    for _ in range(_FUNCTIONAL_DRAWS):
        (phi,), _ = clear_denominators(
            [[Fraction(rng.randint(-99, 99), rng.randint(1, 19)) for _ in range(cfg.dim)]]
        )
        if all(sum(map(mul, a, phi)) for a in covs):
            return phi
    raise NoGenericFunctionalError("no generic functional in %d draws" % _FUNCTIONAL_DRAWS)


def g2_positive_flip_invariant(cfg: Configuration, flips: int = 2, seed: int = 7) -> bool:
    """Probe the positive-system independence of the second form.

    Each probe renormalizes against a random generic functional, which flips
    the sign of a random set of collinearity classes while keeping the result
    a genuine positive system, and compares the form sums exactly.  As in
    ``g2``, that positive system's sum is cfg's own with covector b turned to
    sgn(b(phi)) * b, so each probe is one signed sum on cfg.
    """
    if flips < 0:
        raise ValueError("the number of probe flips must not be negative, got %d" % flips)
    base = g2(cfg)
    rng = random.Random(seed)
    for _ in range(flips):
        phi = _random_functional(cfg, rng)
        signs = [1 if sum(map(mul, b, phi)) > 0 else -1 for b in lattice(cfg).covectors]
        if orientation(cfg).classes > 1 and _g2_sum(cfg, signs) != base:  # else both are zero
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
    flip_ok = g2_positive_flip_invariant(cfg, probe_flips, seed) if probe_flips else None
    return VeeReport(is_vee, residuals, warnings_out, lam, prop, flip_ok)


# --- subsystems ---------------------------------------------------------------


@dataclass(frozen=True)
class SubsystemHandle:
    """A subsystem: all parent covectors inside the span of the chosen ones."""

    parent: Configuration
    member_indices: tuple[int, ...]
    span_indices: tuple[int, ...]  # independent covectors chosen as a basis of W
    is_isotropic: bool

    @property
    def wdual_basis(self) -> tuple[Vec, ...]:
        """Basis of the dual image of W inside V: the duals of the span."""
        dv = duals(self.parent)
        return tuple(dv[i] for i in self.span_indices)


def subsystem(cfg: Configuration, span_indices) -> SubsystemHandle:
    """Close the chosen covectors under intersection with their span: the
    covectors that pair to zero with an integer basis of its annihilator."""
    chosen = tuple(span_indices)
    if not chosen:
        raise ValueError("span_indices must be nonempty")
    if not all(0 <= i < len(cfg) for i in chosen):
        raise ValueError("span_indices must lie in [0, %d), got %s" % (len(cfg), list(chosen)))
    lat = lattice(cfg)
    basis_idx = [chosen[i] for i in independent([lat.covectors[i] for i in chosen])]
    images = annihilator(lat.covectors, basis_idx, cfg.dim)[2]
    members = tuple(j for j, img in enumerate(images) if not any(img))
    # the Gram form of the members on the duals of the basis, scaled to integers
    pm, mults = pairings(cfg)[0], lat.multiplicities
    gb = [
        [sum(mults[m] * pm[m][u] * pm[m][v] for m in members) for v in basis_idx]
        for u in basis_idx
    ]
    return SubsystemHandle(cfg, members, tuple(basis_idx), rank(gb) < len(basis_idx))


def extract(cfg: Configuration, sub: SubsystemHandle) -> Configuration:
    """The subsystem as a standalone configuration.

    Members are restricted to the span of their dual vectors, which keeps the
    standalone Gram form nonsingular exactly when the subsystem is
    non-isotropic; the coordinates are the pairings a_m(a_b-vee) = P[m][b] / D.
    """
    pm, den = pairings(cfg)
    covs = tuple(
        tuple(Fraction(pm[m][b], den) for b in sub.span_indices) for m in sub.member_indices
    )
    mults = tuple(cfg.multiplicities[m] for m in sub.member_indices)
    name = None if cfg.name is None else "%s | subsystem %s" % (cfg.name, list(sub.span_indices))
    return Configuration(len(sub.span_indices), covs, mults, name)


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
    that the parent is not a vee-system).  The operator maps m-vee to G^-1 u,
    u = sum of c_b b(m-vee) b, so m-vee is an eigenvector iff u is parallel to m.
    """
    pm, den = pairings(cfg)
    lat = lattice(cfg)
    members = sub.member_indices
    cols = list(zip(*(lat.covectors[b] for b in members)))
    dv = duals(cfg)
    pairs: list[tuple[int, Fraction]] = []
    grouped: dict[Fraction, list[Vec]] = {}
    for m in members:
        cs = [lat.multiplicities[b] * pm[b][m] for b in members]
        u = [sum(map(mul, cs, col)) for col in cols]
        a = lat.covectors[m]
        p = next(i for i, x in enumerate(a) if x)
        if any(x * a[p] != u[p] * y for x, y in zip(u, a)):
            raise NotEigenError("dual of member %d is not an eigenvector" % m)
        lam = Fraction(u[p], a[p] * lat.mult_denominator * den)
        pairs.append((m, lam))
        grouped.setdefault(lam, []).append(dv[m])
    eigenvalues = tuple(sorted(grouped))
    spaces = tuple(tuple(grouped[lam][i] for i in independent(grouped[lam])) for lam in eigenvalues)
    return EigenDecomposition(eigenvalues, spaces, tuple(pairs))
