"""Batch restriction catalogs: enumerate flats, group them into orbits,
restrict, dedup.

Flats (subsets of the form configuration-intersect-span) are enumerated
exactly on the integer view, level by level, by extending one representative
flat per orbit of the configuration's simple reflections by one line of its
quotient at a time, from one annihilator basis in Python integers per
representative.  Each new orbit is closed breadth-first on packed member
bits; its size is the class size.  Each class representative is re-verified
and restricted exactly.  Entries are merged by ``canonical_digest``, which
keys on intrinsic invariants of the restriction and is the one heuristic left:
full linear-equivalence testing is out of scope.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul

import numpy as np

from .configuration import (
    Configuration,
    auto_functional,
    collinear_classes,
    duals,  # unused here; perfbench/tracer.py wraps trigvee.catalog.duals
    lattice,
    line_key,
    normalize_positive,
    pairings,
)
from .exactla import nullspace_cleared
from .restriction import restrict
from .veesystem import lambda_sq, subsystem, vee_residuals


class CatalogError(RuntimeError):
    """An entry or a flat failed its exact check."""


def pairing_profile(cfg: Configuration) -> tuple:
    """Intrinsic invariants of a configuration under linear equivalence.

    The configuration is first normalized to a positive system (merging
    opposite covectors, which leaves all vee-data unchanged); the profile
    collects the multiset of (multiplicity, a(a-vee)) diagonal data and the
    multiset of unordered pair data (multiplicities, |a(b-vee)|).  Invariant
    under any invertible change of coordinates and per-covector sign flips.

    Sorted and counted on the cleared integers of ``lattice`` and
    ``pairings``, whose order is that of the fractions; each distinct value
    becomes one Fraction at the end.
    """
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        cfg = normalize_positive(cfg)
    _, _, mults, mult_den = lattice(cfg)
    pm, den = pairings(cfg)
    diag = sorted(zip(mults, (row[i] for i, row in enumerate(pm))))
    off = Counter()
    for i, (ci, row) in enumerate(zip(mults, pm)):
        for cj, p in zip(mults[i + 1 :], row[i + 1 :]):
            off[(ci, cj, abs(p)) if ci <= cj else (cj, ci, abs(p))] += 1
    mult = {c: Fraction(c, mult_den) for c in set(mults)}
    pair = {p: Fraction(p, den) for p in {p for _, p in diag} | {key[2] for key in off}}
    pairs = []
    for (lo, hi, p), count in sorted(off.items()):
        pairs += [(mult[lo], mult[hi], pair[p])] * count
    return (cfg.dim, tuple((mult[c], pair[p]) for c, p in diag), tuple(pairs))


def canonical_digest(cfg: Configuration) -> str:
    """Heuristic canonical-form hash of a configuration (see pairing_profile)."""
    return hashlib.sha256(repr(pairing_profile(cfg)).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class FlatClass:
    span_indices: tuple[int, ...]  # representative anchors spanning the flat
    n_members: int
    corank: int
    class_size: int


def enumerate_flat_classes(cfg: Configuration, max_corank: int) -> list[FlatClass]:
    """Classes of span-closed subsets of corank 1..max_corank: one per orbit,
    on the member sets, of the group the ``simple_reflections`` generate.

    The walk starts from the empty flat and extends, level by level, only the
    previous level's representatives.  A symmetry maps the children of a flat
    onto the children of its image, so every orbit of a level holds a child
    of a representative.  The children of flat f are span(f, a) for each
    anchor a outside f: f's members plus the covectors on a's line modulo f
    (``_quotient_lines``).  A child outside every orbit found so far opens a
    class: its orbit is closed breadth-first on the member bits, and the
    orbit size is its ``class_size``.  A class's representative is thus the
    first child, in (representative, anchor) order, in its orbit, which is
    also the orbit's first flat in a walk that extends every flat.  Classes
    come out level by level, ordered by representative.  Without reflection
    symmetries, every flat is a class of its own.
    """
    if not 0 <= max_corank < cfg.dim:
        raise ValueError("max_corank must lie in [0, dim)")
    n, covs = len(cfg), lattice(cfg).covectors
    gens = np.array([perm for perm, _ in simple_reflections(cfg)], dtype=np.intp).reshape(-1, n)
    anchors = [cls.anchor for cls in collinear_classes(cfg)]
    level: list[tuple[int, ...]] = [()]
    out: list[FlatClass] = []
    for corank in range(1, max_corank + 1):
        seen, reps = set(), []
        for span in level:
            lines = _quotient_lines(covs, span, cfg.dim)
            inside = np.array([i not in lines for i in range(n)])
            for a in anchors:
                if a not in lines:
                    continue
                mask = inside.copy()
                mask[lines[a]] = True
                row = np.packbits(mask)
                if row.tobytes() not in seen:
                    orbit = _orbit(row, gens, n)
                    seen |= orbit
                    reps.append(span + (a,))
                    out.append(FlatClass(span + (a,), int(mask.sum()), corank, len(orbit)))
        level = reps
    return out


def _quotient_lines(covs, span, dim) -> dict[int, list[int]]:
    """For each covector outside the flat spanned by covs[span], the covectors
    on its line modulo the flat: those whose images under an integer
    annihilator basis of the flat have the same ``line_key``."""
    kern, _ = nullspace_cleared([covs[i] for i in span], dim)
    groups: dict[tuple[int, ...], list[int]] = {}
    lines = {}
    for i, a in enumerate(covs):
        img = [sum(map(mul, a, k)) for k in kern]
        if any(img):
            lines[i] = groups.setdefault(line_key(img), [])
            lines[i].append(i)
    return lines


def simple_reflections(cfg: Configuration) -> list[tuple[list[int], list[int]]]:
    """The simple reflections among the configuration's symmetries, as signed
    index permutations (perm, signs) with s_b(a_i) = signs[i] * a_perm[i].

    For each collinearity-class anchor b with b(b-vee) != 0 the reflection
    s_b(a) = a - 2 a(b-vee) / b(b-vee) b is computed exactly on the integer
    view; it is a symmetry when it permutes the covectors up to sign and
    keeps every multiplicity.  The lines of those b are the reflecting lines,
    oriented positive against ``auto_functional``; a symmetry s_b is simple
    when it turns exactly one positive reflecting line negative (Humphreys,
    Reflection Groups and Coxeter Groups, 1.7).  The simple reflections
    generate the same group as all reflecting symmetries.
    """
    covs, _, mults, _ = lattice(cfg)
    pm, _ = pairings(cfg)
    phi = auto_functional(cfg)
    positive = [sum(map(mul, a, phi)) > 0 for a in covs]
    index = {tuple(a): i for i, a in enumerate(covs)}
    symmetries = {}
    for b in (cls.anchor for cls in collinear_classes(cfg)):
        bb, lb = pm[b][b], covs[b]
        if bb == 0:  # isotropic: no reflection
            continue
        perm, signs = [], []
        for i, a in enumerate(covs):
            img = [bb * x - 2 * pm[i][b] * y for x, y in zip(a, lb)]
            if any(x % bb for x in img):
                break
            q = tuple(x // bb for x in img)
            j, sign = index.get(q), 1
            if j is None:
                j, sign = index.get(tuple(-x for x in q)), -1
            if j is None or mults[j] != mults[i]:
                break
            perm.append(j)
            signs.append(sign)
        else:
            if len(set(perm)) == len(covs):
                symmetries[b] = (perm, signs)
    return [
        (perm, signs)
        for perm, signs in symmetries.values()
        if sum(((signs[c] > 0) == positive[perm[c]]) != positive[c] for c in symmetries) == 1
    ]


def _orbit(row, gens, n) -> set[bytes]:
    """The orbit of one packed member set under the index permutations gens,
    closed breadth-first, as the bytes of each packed member set."""
    orbit, todo, size = {row.tobytes()}, row[None], row.size
    while len(todo):
        mask = np.unpackbits(todo, axis=1, count=n)
        buf = np.packbits(np.take(mask, gens, axis=1), axis=2).tobytes()
        new = {buf[i:i + size] for i in range(0, len(buf), size)} - orbit
        orbit |= new
        todo = np.frombuffer(b"".join(new), dtype=np.uint8).reshape(-1, size)
    return orbit


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
                "%s: the walk counts %d members, the exact span closure %d"
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
        if digest in entries:  # child_lam is parent_lam, as is the old entry's
            old = entries[digest]
            entries[digest] = replace(old, class_size=old.class_size + fc.class_size)
        else:
            entries[digest] = CatalogEntry(
                family, params, fc.corank, fc.span_indices, len(handle.member_indices),
                fc.class_size, digest, child_lam, len(child), child.dim, verified,
            )
    ordered = tuple(
        sorted(entries.values(), key=lambda e: (e.corank, e.child_dim, e.digest))
    )
    return Catalog(family, params, max_corank, parent_lam, ordered)
