"""Batch restriction catalogs: enumerate span-closed subsets, restrict, dedup.

Flats (subsets of the form configuration-intersect-span) are enumerated by
extending smaller flats one collinearity class at a time.  The heavy
combinatorial sweep runs in guarded floating point on intrinsic pairing data,
one corank level at a time: each level's flats are extended and then
fingerprinted in fixed-size chunks of stacked arrays (one stacked solve per
chunk).  The large temporaries are bounded by the chunk size; beyond them a
flat costs only its spanning anchors and its member set as packed bits.
Each deduplicated representative is then re-verified and restricted in exact
arithmetic.  Deduplication keys on intrinsic invariants of the
restriction and is a heuristic: full linear-equivalence testing is out of
scope.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .configuration import (
    Configuration,
    collinear_classes,
    duals,
    float_view,
    floats,
    gram_inverse,
    normalize_positive,
    pairings,
)
from .restriction import restrict
from .veesystem import lambda_sq, subsystem, vee_residuals


class CatalogError(RuntimeError):
    """An entry failed its exact re-verification."""


def pairing_profile(cfg: Configuration) -> tuple:
    """Intrinsic invariants of a configuration under linear equivalence.

    The configuration is first normalized to a positive system (merging
    opposite covectors, which leaves all vee-data unchanged); the profile
    collects the multiset of (multiplicity, a(a-vee)) diagonal data and the
    multiset of unordered pair data (multiplicities, |a(b-vee)|).  Invariant
    under any invertible change of coordinates and per-covector sign flips.
    """
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        cfg = normalize_positive(cfg)
    pm, den = pairings(cfg)
    n = len(cfg)
    diag = sorted(
        (cfg.multiplicities[i], Fraction(pm[i][i], den)) for i in range(n)
    )
    off = []
    for i in range(n):
        for j in range(i + 1, n):
            ci, cj = cfg.multiplicities[i], cfg.multiplicities[j]
            lo, hi = (ci, cj) if ci <= cj else (cj, ci)
            off.append((lo, hi, Fraction(abs(pm[i][j]), den)))
    return (cfg.dim, tuple(diag), tuple(sorted(off)))


def canonical_digest(cfg: Configuration) -> str:
    """Heuristic canonical-form hash of a configuration (see pairing_profile)."""
    return hashlib.sha256(repr(pairing_profile(cfg)).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class FlatClass:
    span_indices: tuple[int, ...]  # representative anchors spanning the flat
    n_members: int
    corank: int
    class_size: int


_PAR_TOL = 1e-9
_ROUND = 7
# Float64 cells in one stacked (chunk, n, n) temporary (8 MB); a chunk holds
# max(1, _CHUNK_CELLS // n**2) flats, which bounds the sweep's large temporaries.
_CHUNK_CELLS = 1 << 20


def enumerate_flat_classes(cfg: Configuration, max_corank: int) -> list[FlatClass]:
    """Deduplicated classes of span-closed subsets of corank 1..max_corank.

    Flats with identical member-pairing multisets and identical restriction
    fingerprints (merged multiplicity profile plus projected pairing
    multiset) are collected into one class.  Each corank level is walked and
    fingerprinted in chunks of stacked arrays; classes come out level by
    level, each in the order its first flat was found.
    """
    if not 0 <= max_corank < cfg.dim:
        raise ValueError("max_corank must lie in [0, dim)")
    if max_corank == 0:
        return []
    n = len(cfg)
    av, mults, _ = float_view(cfg)
    vf = av @ floats(duals(cfg)).T
    ginv = floats(gram_inverse(cfg))
    classes = collinear_classes(cfg)
    chunk = max(1, _CHUNK_CELLS // (n * n))
    # |vf| rounded, with an extra +inf row and column that padded member
    # indices point at
    absvf = np.full((n + 1, n + 1), np.inf)
    absvf[:n, :n] = np.round(np.abs(vf), _ROUND)
    rvec = np.random.default_rng(1234).uniform(0.5, 1.5, cfg.dim)

    out: list[FlatClass] = []
    for corank, (spans, packed) in enumerate(_levels(av, classes, max_corank, chunk), 1):
        counts = np.bitwise_count(packed).sum(axis=1)
        width = int(counts.max(initial=0))
        groups: dict[bytes, list[int]] = {}  # fingerprint -> [first flat, size]
        for lo in range(0, len(spans), chunk):
            rows = _fingerprints(
                av, ginv, vf, absvf, rvec, mults,
                spans[lo:lo + chunk], packed[lo:lo + chunk], counts[lo:lo + chunk], width,
            )
            for f, row in enumerate(rows, lo):
                groups.setdefault(row.tobytes(), [f, 0])[1] += 1
        out.extend(
            FlatClass(tuple(spans[f].tolist()), int(counts[f]), corank, size)
            for f, size in groups.values()
        )
    return out


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    return np.unpackbits(packed, axis=1, count=n).astype(bool)


def _levels(av, classes, max_corank, chunk):
    """The flats of corank 1..max_corank, one level at a time, as (spans,
    packed): spans[f] are the anchors spanning flat f, packed[f] its member
    set as packbits.  Level 1 is the collinearity classes themselves (exact)."""
    n = av.shape[0]
    anchors = np.array([cls.anchor for cls in classes])
    masks = np.zeros((len(classes), n), dtype=bool)
    for row, cls in zip(masks, classes):
        row[list(cls.indices)] = True
    spans, packed = anchors[:, None], np.packbits(masks, axis=1)
    for corank in range(1, max_corank + 1):
        if corank > 1:
            spans, packed = _next_level(av, anchors, spans, packed, chunk)
        if not len(spans):
            return
        yield spans, packed


def _next_level(av, anchors, spans, packed, chunk) -> tuple[np.ndarray, np.ndarray]:
    """Extend every flat of one level by each anchor outside it.

    New flats are kept in the order they are first reached (parent flat, then
    anchor), which fixes the representative span of each."""
    n = av.shape[0]
    seen: set[bytes] = set()
    new_spans, new_packed = [], []
    for lo in range(0, len(spans), chunk):
        span = spans[lo:lo + chunk]
        mask = _unpack(packed[lo:lo + chunk], n)
        q, _ = np.linalg.qr(av[span].transpose(0, 2, 1))
        resid = av - (av @ q) @ q.transpose(0, 2, 1)
        norms = np.linalg.norm(resid, axis=2)
        inspan = norms < _PAR_TOL
        unit = resid / np.where(inspan, 1.0, norms)[..., None]
        cos = unit[:, anchors] @ unit.transpose(0, 2, 1)
        par = np.abs(cos, out=cos) > 1.0 - _PAR_TOL
        grown = np.packbits(par, axis=2) | np.packbits(mask | inspan, axis=1)[:, None, :]
        f, a = np.nonzero(~mask[:, anchors])
        rows = grown[f, a]
        fresh = []
        for i, row in enumerate(rows):
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        new_spans.append(np.column_stack([span[f[fresh]], anchors[a[fresh]]]))
        new_packed.append(rows[fresh])
    return np.concatenate(new_spans), np.concatenate(new_packed)


def _fingerprints(av, ginv, vf, absvf, rvec, mults, span, packed, counts, width) -> np.ndarray:
    """Grouping fingerprints of a chunk of flats of one corank, one row each.

    A row holds the sorted member pairings |a_i(a_j-vee)| (padded to width**2
    with +inf), the sorted merged-multiplicity profile of the projected
    covectors (padded to n with +inf), and the sum, sum of squares and
    maximum of the projected pairings |a^_i(a^_j-vee)| over non-members.  All
    are invariant under symmetries of the parent, which act on covectors up
    to sign.  Projected covectors are merged via a fixed random linear hash
    of their sign-canonical rounded coordinates."""
    n = av.shape[0]
    mask = _unpack(packed, n)
    keep = ~mask
    m0 = vf[span[:, :, None], span[:, None, :]]
    b = vf[span]
    # projected covectors a^ = a - (m0^-1 b)^T a_span; m0 is symmetric, so
    # the solve needs dim right-hand sides rather than n
    try:
        z = np.linalg.solve(m0, av[span])
    except np.linalg.LinAlgError:  # isotropic flat of an indefinite parent
        z = np.stack([_solve_or_lstsq(m, r) for m, r in zip(m0, av[span])])
    ahat = av - b.transpose(0, 2, 1) @ z
    ahat[mask] = 0.0

    rows = np.round(ahat, _ROUND)
    lead = np.take_along_axis(rows, (np.abs(rows) > 10.0**-_ROUND).argmax(2)[..., None], 2)
    proj = (rows @ rvec) * np.where(lead[..., 0] < 0.0, -1.0, 1.0)
    proj[mask] = np.inf  # members sort last, into one group of weight 0
    order = proj.argsort(axis=1)
    ps = np.take_along_axis(proj, order, 1)
    starts = np.ones(ps.shape, dtype=bool)
    with np.errstate(invalid="ignore"):  # inf - inf between members
        np.greater(np.abs(np.diff(ps, axis=1)), 10.0**-_ROUND, out=starts[:, 1:])
    group = np.cumsum(starts, axis=1) - 1 + n * np.arange(len(ps))[:, None]
    weight = np.take_along_axis(np.where(keep, mults, 0.0), order, 1)
    profile = np.bincount(group.ravel(), weight.ravel(), minlength=ps.size).reshape(ps.shape)
    profile = np.round(profile, _ROUND)
    ngroups = np.count_nonzero(starts, axis=1) - 1
    profile[np.arange(n) >= ngroups[:, None]] = np.inf
    profile.sort(axis=1)

    # a^_i(a^_j-vee) = a^_i G^-1 a^_j; the zeroed member rows of a^ drop
    # members from both sides
    dhat = ahat @ ginv
    vhat = ahat @ dhat.transpose(0, 2, 1)
    np.abs(vhat, out=vhat)  # in place: a second (chunk, n, n) array costs page faults
    vsum = vhat.sum(axis=(1, 2))
    vmax = vhat.max(axis=(1, 2))
    # sum of squares as trace(a^T a . d^T d): dim x dim, not n x n
    vsq = ((ahat.transpose(0, 2, 1) @ ahat) * (dhat.transpose(0, 2, 1) @ dhat)).sum(axis=(1, 2))

    members = np.argsort(keep, axis=1, kind="stable")[:, :width]
    members[np.arange(width) >= counts[:, None]] = n
    memvals = absvf[members[:, :, None], members[:, None, :]].reshape(len(span), -1)
    memvals.sort(axis=1)
    return np.column_stack([
        memvals, profile, np.round(vsum, 5), np.round(vsq, 5), np.round(vmax, _ROUND),
    ])


def _solve_or_lstsq(m0: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(m0, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(m0, b, rcond=None)[0]


@dataclass(frozen=True)
class CatalogEntry:
    family: str
    params: str
    corank: int
    span_indices: tuple[int, ...]
    n_members: int
    class_size: int
    digest: str
    lambda_sq: Fraction
    covector_count: int
    child_dim: int
    lambda_verified: bool = True  # one-dimensional children carry no wedge constraint

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "corank": self.corank,
            "span_indices": list(self.span_indices),
            "n_members": self.n_members,
            "class_size": self.class_size,
            "digest": self.digest,
            "lambda_sq": str(self.lambda_sq),
            "lambda_verified": self.lambda_verified,
            "covector_count": self.covector_count,
            "child_dim": self.child_dim,
        }


@dataclass(frozen=True)
class Catalog:
    family: str
    params: str
    max_corank: int
    parent_lambda_sq: Fraction
    entries: tuple[CatalogEntry, ...]

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "max_corank": self.max_corank,
            "parent_lambda_sq": str(self.parent_lambda_sq),
            "entries": [e.to_json_dict() for e in self.entries],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def build_catalog(
    cfg: Configuration, family: str, params: str, max_corank: int
) -> Catalog:
    """Restrict along every flat class and emit deduplicated, verified entries.

    Every entry's child is re-checked in exact arithmetic: it must pass the
    vee-condition and carry the parent's lambda^2; a failure raises
    CatalogError.  The corank range is checked before any exact work.
    """
    flats = enumerate_flat_classes(cfg, max_corank)
    parent_lam = lambda_sq(cfg)
    entries: dict[str, CatalogEntry] = {}
    root_entry = CatalogEntry(
        family, params, 0, (), len(cfg), 1, canonical_digest(cfg), parent_lam, len(cfg), cfg.dim
    )
    entries[root_entry.digest] = root_entry
    for fc in flats:
        where = "flat spanned by %s" % list(fc.span_indices)
        handle = subsystem(cfg, fc.span_indices)
        if len(handle.member_indices) != fc.n_members:
            raise CatalogError(
                "%s: the float sweep counts %d members, the exact span closure %d"
                % (where, fc.n_members, len(handle.member_indices))
            )
        res = restrict(cfg, handle)
        child = res.child
        bad = [r for r in vee_residuals(child) if r.residual != 0]
        if bad:
            raise CatalogError(
                "%s: the restricted child fails the vee-condition at %d series, "
                "first alpha %d, series %s, residual %s"
                % (where, len(bad), bad[0].alpha, list(bad[0].members), bad[0].residual)
            )
        if child.dim >= 2:
            child_lam = lambda_sq(child)
            if child_lam != parent_lam:
                raise CatalogError(
                    "%s: the child's lambda^2 is %s, the parent's %s"
                    % (where, child_lam, parent_lam)
                )
            verified = True
        else:
            child_lam = parent_lam
            verified = False
        digest = canonical_digest(child)
        if digest in entries:
            old = entries[digest]
            entries[digest] = CatalogEntry(
                family, params, old.corank, old.span_indices, old.n_members,
                old.class_size + fc.class_size, digest, child_lam,
                old.covector_count, old.child_dim, old.lambda_verified,
            )
        else:
            entries[digest] = CatalogEntry(
                family, params, fc.corank, fc.span_indices, len(handle.member_indices),
                fc.class_size, digest, child_lam, len(child), child.dim, verified,
            )
    ordered = tuple(
        sorted(entries.values(), key=lambda e: (e.corank, e.child_dim, e.digest))
    )
    return Catalog(family, params, max_corank, parent_lam, ordered)
