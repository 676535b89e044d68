"""Batch restriction catalogs: enumerate flats, group them into orbits,
restrict, dedup.

Flats (subsets of the form configuration-intersect-span) are enumerated
exactly on the integer view, level by level, by extending one representative
flat per orbit of the configuration's simple reflections by one line of its
quotient at a time, from one annihilator basis in Python integers per
representative.  No orbit is listed: the stabiliser chains of ``permgroup``
decide whether a flat lies in a known orbit, and the class size is
|G| / |Stab|.  Each class representative is restricted exactly, and its
child is re-verified exactly: the vee-condition at one alpha per orbit of
the child's own reflecting symmetries (``alpha_orbits``), which decides it
at every alpha because a symmetry keeps each series residual up to sign.
Entries are merged by ``canonical_digest``, which keys on intrinsic
invariants of the restriction and is the one heuristic left: full
linear-equivalence testing is out of scope.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import cached_property
from operator import sub

from .configuration import (
    Configuration,
    ZeroMultiplicityWarning,
    collinear_classes,
    duals,  # unused here; perfbench/tracer.py wraps trigvee.catalog.duals
    lattice,
    line_key,
    orientation,
    pairings,
)
from .exactla import annihilator
from .permgroup import Chain, images, rebase, schreier_sims
from .restriction import restrict
from .veesystem import lambda_sq, subsystem, vee_residuals


class CatalogError(RuntimeError):
    """An entry or a flat failed its exact check."""


def pairing_profile(cfg: Configuration) -> tuple:
    """Intrinsic invariants of a configuration under linear equivalence.

    Taken over the rows that cfg's ``orientation`` keeps (merging opposite
    covectors leaves all vee-data unchanged): the multiset of (multiplicity,
    a(a-vee)) diagonal data and the multiset of unordered pair data
    (multiplicities, |a(b-vee)|).  Invariant under any invertible change of
    coordinates and per-covector sign flips.
    """
    diag, pairs = (tuple(x for x, n in runs for _ in range(n)) for runs in _profile_runs(cfg))
    return (cfg.dim, diag, pairs)


def _profile_runs(cfg: Configuration) -> tuple[list, list]:
    """The diagonal and the pair data of ``pairing_profile`` as sorted runs
    (distinct item, count).  Sorted and counted on the cleared integers of
    ``lattice`` and ``pairings``, whose order is that of the fractions; each
    distinct value becomes one Fraction at the end."""
    rows = orientation(cfg).rows
    mult_den = lattice(cfg).mult_denominator
    pm, den = pairings(cfg)
    diag = Counter((c, pm[i][i]) for i, c in rows)
    off = Counter()
    for k, (i, ci) in enumerate(rows):
        for j, cj in rows[k + 1 :]:
            p = abs(pm[i][j])
            off[(ci, cj, p) if ci <= cj else (cj, ci, p)] += 1
    mult = {c: Fraction(c, mult_den) for _, c in rows}
    pair = {p: Fraction(p, den) for p in {p for _, p in diag} | {key[2] for key in off}}
    return (
        [((mult[c], pair[p]), count) for (c, p), count in sorted(diag.items())],
        [((mult[lo], mult[hi], pair[p]), count) for (lo, hi, p), count in sorted(off.items())],
    )


def canonical_digest(cfg: Configuration) -> str:
    """Heuristic canonical-form hash of a configuration: the SHA-256 of
    ``repr(pairing_profile(cfg))``, written with one ``repr`` per distinct item."""
    text = "(%d, %s, %s)" % (cfg.dim, *map(_tuple_repr, _profile_runs(cfg)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _tuple_repr(runs: list) -> str:
    """``repr`` of the tuple that holds each item of runs count times."""
    items = []
    for x, count in runs:
        items += [repr(x)] * count
    return "(%s,)" % items[0] if len(items) == 1 else "(%s)" % ", ".join(items)


@dataclass(frozen=True)
class FlatClass:
    span_indices: tuple[int, ...]  # representative anchors spanning the flat
    n_members: int
    corank: int
    class_size: int


def enumerate_flat_classes(cfg: Configuration, max_corank: int) -> list[FlatClass]:
    """Classes of span-closed subsets of corank 1..max_corank: one per orbit,
    on the member sets, of the group G the ``simple_reflections`` generate.

    The walk starts from the empty flat and extends, level by level, only the
    previous level's representatives.  A symmetry maps the children of a flat
    onto the children of its image, so every orbit of a level holds a child
    of a representative.  The children of flat f are span(f, a) for each
    anchor a outside f: f's members plus the covectors on a's line modulo f
    (``_quotient_lines``).  A child in no orbit found so far at its level
    opens a class, so a class's representative is the first child, in
    (representative, anchor) order, in its orbit: the orbit's first flat in
    a walk that extends every flat.  Classes come out level by level,
    ordered by representative.

    No orbit is listed.  G gets one stabiliser chain (``schreier_sims``),
    each class one more whose base starts with the class's ``_Flat.key``
    anchors (``rebase``), and ``class_size`` is |G| / |Stab| (``_Flat``).
    A child lies in a class's orbit exactly when some g maps the class's key
    anchors into the child's ``_Flat.target``, which a backtrack over the
    class's chain decides (``images``; all three are in ``permgroup``).
    Without reflection symmetries, every flat is a class of its own.
    """
    if not 0 <= max_corank < cfg.dim:
        raise ValueError("max_corank must lie in [0, dim)")
    covs = lattice(cfg).covectors
    walk = _Walk(cfg)
    level = [_Flat(walk, (), frozenset())]
    out: list[FlatClass] = []
    for corank in range(1, max_corank + 1):
        reps: list[_Flat] = []
        for parent in level:
            lines = _quotient_lines(covs, parent.span, cfg.dim)
            done = set()
            for a in walk.anchors:
                line = lines.get(a)
                if line is None or id(line) in done:  # inside f, or a child already seen
                    continue
                done.add(id(line))
                child = _Flat(walk, parent.span + (a,), parent.members.union(line))
                if not any(rep.holds(child) for rep in reps):
                    reps.append(child)
                    out.append(FlatClass(child.span, len(child.members), corank,
                                         walk.order // child.stabiliser_order()))
        level = reps
    return out


def _quotient_lines(covs, span, dim) -> dict[int, list[int]]:
    """For each covector outside the flat spanned by covs[span], the covectors
    on its line modulo the flat: those whose images under an integer
    annihilator basis of the flat have the same ``line_key``."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, img in enumerate(annihilator(covs, span, dim)[2]):
        if any(img):
            groups.setdefault(line_key(img), []).append(i)
    return {i: line for line in groups.values() for i in line}


def simple_reflections(cfg: Configuration) -> list[tuple[list[int], list[int]]]:
    """The simple reflections among the configuration's symmetries, as signed
    index permutations (perm, signs) with s_b(a_i) = signs[i] * a_perm[i].

    For each collinearity-class anchor b with b(b-vee) != 0 the reflection
    s_b(a) = a - 2 a(b-vee) / b(b-vee) b is computed exactly on the integer
    view; it is a symmetry when it permutes the covectors up to sign and
    keeps every multiplicity.  The lines of those b are the reflecting lines,
    oriented by their ``orientation`` signs; a symmetry s_b is simple
    when it turns exactly one positive reflecting line negative (Humphreys,
    Reflection Groups and Coxeter Groups, 1.7).  The simple reflections
    generate the same group as all reflecting symmetries.
    """
    symmetries, flips = _reflections(cfg)
    return [symmetries[b] for b in _simple(flips, symmetries)]


def _reflections(cfg: Configuration) -> tuple[dict, dict]:
    """The reflecting symmetries {b: (perm, signs)} by anchor b (see
    ``simple_reflections``), and for each b the set of reflecting anchors
    whose line s_b turns from positive to negative or back."""
    covs, _, mults, _ = lattice(cfg)
    pm, _ = pairings(cfg)
    positive = [s > 0 for s in orientation(cfg).signs]
    # each row and its negative -> (index, sign); a row itself wins over a negative
    index = {tuple(-x for x in a): (i, -1) for i, a in enumerate(covs)}
    index.update((tuple(a), (i, 1)) for i, a in enumerate(covs))
    symmetries = {}
    for b in (cls.anchor for cls in collinear_classes(cfg)):
        bb, lb = pm[b][b], covs[b]
        if bb == 0:  # isotropic: no reflection
            continue
        perm, signs, steps = [], [], {}
        for i, a in enumerate(covs):
            c = 2 * pm[i][b]
            if c == 0:  # a is fixed
                perm.append(i)
                signs.append(1)
                continue
            if c % bb:
                img = [bb * x - c * y for x, y in zip(a, lb)]
                if any(x % bb for x in img):
                    break
                q = tuple(x // bb for x in img)
            else:
                step = steps.get(c)
                if step is None:
                    step = steps[c] = [c // bb * y for y in lb]
                q = tuple(map(sub, a, step))
            j, sign = index.get(q, (None, 0))
            if j is None or mults[j] != mults[i]:
                break
            perm.append(j)
            signs.append(sign)
        else:
            if len(set(perm)) == len(covs):
                symmetries[b] = (perm, signs)
    flips = {
        b: {c for c in symmetries if ((signs[c] > 0) == positive[perm[c]]) != positive[c]}
        for b, (perm, signs) in symmetries.items()
    }
    return symmetries, flips


def alpha_orbits(cfg: Configuration) -> list[list[int]]:
    """The orbits of the covector indices under the reflecting symmetries
    (``simple_reflections`` generate the same group), each in increasing
    order, ordered by their first index.

    A symmetry g is linear, permutes the covectors up to sign and keeps the
    multiplicities, so it keeps the Gram form and ``pairings`` up to the
    signs of the permutation.  It therefore maps alpha's series onto
    g(alpha)'s and keeps each series residual up to sign: the vee-condition
    holds at every alpha of an orbit exactly when it holds at one.
    """
    root = list(range(len(cfg)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]  # path halving
            i = root[i]
        return i

    for perm, _ in _reflections(cfg)[0].values():
        for i, j in enumerate(perm):
            i, j = find(i), find(j)
            if i != j:
                root[max(i, j)] = min(i, j)
    orbits: dict[int, list[int]] = {}
    for i in range(len(cfg)):
        orbits.setdefault(find(i), []).append(i)
    return list(orbits.values())


def _simple(flips, lines) -> list[int]:
    """The simple system, in increasing order, of the reflection group
    generated by the reflections in ``lines`` (reflecting anchors whose lines
    the group permutes): the lines whose reflection turns exactly one line of
    the set negative, namely its own."""
    lines = set(lines)
    return [b for b in sorted(lines) if len(flips[b] & lines) == 1]


class _Walk:
    """What every flat of one walk shares: G's chain and order, the
    reflecting symmetries, and each covector's collinearity anchor."""

    def __init__(self, cfg: Configuration):
        self.n = len(cfg)
        self.symmetries, self.flips = _reflections(cfg)
        self.reflecting = frozenset(self.symmetries)
        gens = [tuple(self.symmetries[b][0]) for b in _simple(self.flips, self.reflecting)]
        self.chain = schreier_sims(gens, self.n)
        self.order = self.chain.order()
        classes = collinear_classes(cfg)
        self.anchors = [cls.anchor for cls in classes]
        self.anchor_of = [0] * self.n
        for cls in classes:
            for i in cls.indices:
                self.anchor_of[i] = cls.anchor


class _Flat:
    """A flat of the walk: its spanning anchors and member set, and, for a
    class representative, its stabiliser chain.

    The flat's key anchors are a simple system S of the reflection group W_F
    its reflecting members generate, when those members span the flat, and
    its span otherwise.  Either way they span the flat, and a symmetry that
    maps them into a flat of the same size maps the flat onto it, since a
    flat is the configuration meet its span and the symmetry is linear.  The
    image of S is a simple system of the image's reflecting lines, and the
    image's W is transitive on those (Humphreys 1.8), so a child lies in the
    orbit exactly when some g maps S onto the child's own simple system: a
    search over at most k! images.
    """

    def __init__(self, walk: _Walk, span: tuple[int, ...], members: frozenset[int]):
        self.walk, self.span, self.members = walk, span, members
        self.reflecting = members & walk.reflecting

    @cached_property
    def key(self) -> tuple[list[int], bool]:
        """The key anchors, and whether they are a simple system."""
        simple = _simple(self.walk.flips, self.reflecting)
        spanned = len(simple) == len(self.span)
        return (simple if spanned else list(self.span)), spanned

    @cached_property
    def target(self) -> list[int]:
        """Where a symmetry onto this flat sends another flat's key anchors:
        the covectors on the lines of its simple system, or all members."""
        key, spanned = self.key
        lines = set(key)
        return [i for i in sorted(self.members) if not spanned or self.walk.anchor_of[i] in lines]

    @cached_property
    def chain(self) -> Chain:
        return rebase(self.walk.chain, self.key[0])

    def holds(self, other: _Flat) -> bool:
        """Whether other lies in this representative's orbit."""
        if len(other.members) != len(self.members) or len(other.reflecting) != len(self.reflecting):
            return False
        if other.members == self.members:
            return True
        if other.key[1] != self.key[1]:
            return False
        return images(self.chain, len(self.span), other.target, first=True) > 0

    def stabiliser_order(self) -> int:
        """|Stab_G(F)|.  Without a simple system, the images of the span that
        stay in F times the order of the rest of the chain.  With one, S:
        W_F lies in Stab(F), which permutes the simple systems of F's
        reflecting lines, and W_F alone is transitive on them, so counting
        the orbit of S's lines both ways gives |Stab(F)| = |W_F| |Stab_G{S}|
        / |Stab_W{S}|, each setwise stabiliser a search over at most k!
        images of S.  (W_F is also the pointwise stabiliser of F's kernel, by
        Steinberg's theorem, 1964.)  W_F acts here on F's members only."""
        k, (key, spanned) = len(self.span), self.key
        stab = images(self.chain, k, self.target) * self.chain.order(k)
        if not spanned:
            return stab
        local = {m: j for j, m in enumerate(sorted(self.members))}
        gens = [tuple(local[self.walk.symmetries[b][0][m]] for m in local) for b in key]
        w = schreier_sims(gens, len(local), [local[b] for b in key])
        w_stab = images(w, k, [local[i] for i in self.target]) * w.order(k)
        return w.order() // w_stab * stab


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


@dataclass(frozen=True)
class Catalog:
    family: str
    params: str
    max_corank: int
    parent_lambda_sq: Fraction
    entries: tuple[CatalogEntry, ...]

    def dumps(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, default=_fraction_str)


def _fraction_str(x) -> str:
    """The JSON of a Fraction, its ``str``; any other value is no catalog field."""
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError("Object of type %s is not JSON serializable" % type(x).__name__)


def build_catalog(
    cfg: Configuration, family: str, params: str, max_corank: int
) -> Catalog:
    """Restrict along every flat class and emit deduplicated, verified entries.

    Every entry's child is re-checked in exact arithmetic: it must pass the
    vee-condition and carry the parent's lambda^2; a failure raises
    CatalogError.  The vee-condition is checked once per alpha-orbit of the
    child's exact reflecting symmetries (``alpha_orbits``), which is exact:
    each symmetry maps alpha's series onto g(alpha)'s and keeps every
    residual up to sign.  When a representative fails, the full
    ``vee_residuals`` names the first failing alpha and series, as a check
    of every alpha would.  The corank range is checked before any exact work.
    """
    flats = enumerate_flat_classes(cfg, max_corank)
    parent_lam = lambda_sq(cfg)
    entries: dict[str, CatalogEntry] = {}
    root_entry = CatalogEntry(
        family, params, 0, (), len(cfg), 1, canonical_digest(cfg), parent_lam, len(cfg), cfg.dim
    )
    entries[root_entry.digest] = root_entry
    # children with cancelling covector pairs are built here, not given, so
    # the warning that their ``orientation`` drops them would name nothing
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroMultiplicityWarning)
        for fc in flats:
            where = "flat spanned by %s" % list(fc.span_indices)
            handle = subsystem(cfg, fc.span_indices)
            if len(handle.member_indices) != fc.n_members:
                raise CatalogError(
                    "%s: the walk counts %d members, the exact span closure %d"
                    % (where, fc.n_members, len(handle.member_indices))
                )
            child = restrict(cfg, handle).child
            reps = [orbit[0] for orbit in alpha_orbits(child)]
            if any(r.residual for r in vee_residuals(child, reps)):
                bad = [r for r in vee_residuals(child) if r.residual != 0]
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
