"""Differential tests of the orbit-wise flat walk against four oracles.

The exact oracle is ``subsystem``'s span closure of each flat's spanning
anchors.  The all-flats oracle extends every flat of a level at once, on
chunks of int64 numpy arrays (``_next_level``), then labels each flat by the
first flat of its reflection orbit, as the catalog did before it extended one
flat per orbit in Python integers.  The packed-orbit oracle walks the same
representatives as the catalog but lists each new orbit on packed member
bits, as the catalog did before its stabiliser chains; the double count
checks the chains' class sizes between consecutive levels.
The float oracle is the original walk (one QR and parallel test per span)
with the original float fingerprint per flat.  The walk's classes are exact
reflection orbits, which refine the fingerprint classes: D4's triality, for
one, is not a reflection, so its orbits are finer than the fingerprint
classes.  The tests therefore check that each orbit lies inside one
fingerprint class, that the orbits partition each level, and that the
catalog built on either grouping is the same.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from trigvee import catalog
from trigvee.catalog import (
    FlatClass,
    build_catalog,
    enumerate_flat_classes,
    simple_reflections,
)
from trigvee.configuration import collinear_classes, configuration, duals, lattice
from trigvee.exactla import SingularMatrixError
from trigvee.families import family_spec, generate, restricted_family
from trigvee.veesystem import subsystem


def _float_matrix(rows):
    return np.array([[float(x) for x in r] for r in rows], dtype=float)


# tolerance of the float oracle's in-span and parallel tests
_PAR_TOL = 1e-9


def reference_flats(cfg, max_corank):
    """The original level walk: one QR and parallel test per span; returns
    every flat as (span, member mask), level by level in first-seen order."""
    tol = _PAR_TOL
    n = len(cfg)
    av = _float_matrix(cfg.covectors)
    classes = collinear_classes(cfg)
    anchors = [cls.anchor for cls in classes]

    level = {}
    for cls in classes:
        mask = np.zeros(n, dtype=bool)
        mask[list(cls.indices)] = True
        level[np.packbits(mask).tobytes()] = ((cls.anchor,), mask)

    flats = list(level.values())
    for _ in range(2, max_corank + 1):
        nxt = {}
        for span, mask in level.values():
            basis = av[list(span)]
            q, _ = np.linalg.qr(basis.T)
            resid = av - (av @ q) @ q.T
            norms = np.linalg.norm(resid, axis=1)
            inspan = norms < tol
            unit = resid / np.where(inspan, 1.0, norms)[:, None]
            par = np.abs(unit @ unit.T) > 1.0 - tol
            cand = [a for a in anchors if not mask[a]]
            if not cand:
                continue
            new_masks = par[cand] | mask[None, :] | inspan[None, :]
            packed = np.packbits(new_masks, axis=1)
            for ci, a in enumerate(cand):
                key = packed[ci].tobytes()
                if key not in nxt:
                    nxt[key] = (span + (a,), new_masks[ci])
        level = nxt
        flats.extend(level.values())
    return flats


# decimals of the oracle fingerprint's rounding
_ROUND = 7


def reference_flat_keys(cfg, max_corank):
    """The original per-flat sweep: the level walk above, then one solve and
    rounding fingerprint (`_flat_key`) per flat; returns (span, mask, key)
    per flat in walk order."""
    av = _float_matrix(cfg.covectors)
    vf = av @ _float_matrix(duals(cfg)).T
    mults = np.array([float(c) for c in cfg.multiplicities])
    absvf = np.abs(vf)
    rvec = np.random.default_rng(1234).uniform(0.5, 1.5, cfg.dim)
    return [
        (span, mask, _flat_key(av, vf, absvf, rvec, mults, span, mask, _ROUND))
        for span, mask in reference_flats(cfg, max_corank)
    ]


def reference_flat_classes(cfg, max_corank):
    """The fingerprint classes of the original sweep, each represented by its
    first flat, in the order the representatives were found."""
    if not 0 <= max_corank < cfg.dim:
        raise ValueError("max_corank must lie in [0, dim)")
    if max_corank == 0:
        return []
    groups = {}
    for span, mask, key in reference_flat_keys(cfg, max_corank):
        groups.setdefault(key, []).append((span, int(mask.sum())))
    return [
        FlatClass(flats[0][0], flats[0][1], len(flats[0][0]), len(flats))
        for flats in groups.values()
    ]


def _flat_key(av, vf, absvf, rvec, mults, span, mask, rnd):
    keep = ~mask
    s = list(span)
    m0 = vf[np.ix_(s, s)]
    b = vf[s][:, keep]
    try:
        x = np.linalg.solve(m0, b)
    except np.linalg.LinAlgError:  # isotropic flat of an indefinite parent
        x = np.linalg.lstsq(m0, b, rcond=None)[0]
    ahat = av[keep] - x.T @ av[s]
    rows = np.round(ahat, rnd)
    lead = rows[np.arange(rows.shape[0]), (np.abs(rows) > 10.0**-rnd).argmax(1)]
    rows *= np.where(lead < 0.0, -1.0, 1.0)[:, None]
    proj = rows @ rvec
    order = proj.argsort()
    ps = proj[order]
    starts = np.empty(ps.size, dtype=bool)
    starts[0] = True
    np.greater(np.abs(np.diff(ps)), 10.0**-rnd, out=starts[1:])
    profile = np.add.reduceat(mults[keep][order], np.flatnonzero(starts))
    profile = np.sort(np.round(profile, rnd))
    vhat = np.abs(vf[keep][:, keep] - b.T @ x)
    memvals = np.sort(np.round(absvf[mask][:, mask], rnd), axis=None)
    return (
        int(memvals.size),
        len(span),
        memvals.tobytes(),
        profile.tobytes(),
        round(float(vhat.sum()), 5),
        round(float((vhat * vhat).sum()), 5),
        round(float(vhat.max()), 7),
    )


# Cells in one stacked (chunk, n, n) temporary of the all-flats oracle (1 MB of
# bools); a chunk holds max(1, _CHUNK_CELLS // n**2) flats.
_CHUNK_CELLS = 1 << 20


def _next_level(lat, anchors, kern, chunk) -> tuple[np.ndarray, ...]:
    """Extend every flat of one level by each anchor outside it, exactly.

    kern[f] spans the annihilator of flat f, so lat @ kern[f].T is every
    covector modulo f.  Divided by its gcd and signed by its first nonzero
    entry, a covector's row is zero in f and equals anchor a's row in span(f, a).
    New flats are kept in the order they are first reached (parent flat, then
    anchor), each as its parent f, its anchor a and its member set as packbits."""
    new_f, new_a, new_packed = [], [], []
    for lo in range(0, len(kern), chunk):
        img = lat @ kern[lo:lo + chunk].transpose(0, 2, 1)
        img //= np.maximum(np.gcd.reduce(img, axis=2), 1)[..., None]
        img *= np.sign(np.take_along_axis(img, (img != 0).argmax(axis=2)[..., None], axis=2))
        _, ids = np.unique(_row_keys(img.reshape(-1, img.shape[2])), return_inverse=True)
        ids = ids.reshape(img.shape[:2])
        inspan = ~img.any(axis=2)
        par = ids[:, anchors, None] == ids[:, None, :]
        grown = np.packbits(par | inspan[:, None, :], axis=2)
        f, a = np.nonzero(~inspan[:, anchors])
        rows = grown[f, a]
        first = _first_rows(rows)
        new_f.append(lo + f[first])
        new_a.append(anchors[a[first]])
        new_packed.append(rows[first])
    packed = np.concatenate(new_packed)
    first = _first_rows(packed)
    return np.concatenate(new_f)[first], np.concatenate(new_a)[first], packed[first]


def _first_rows(rows) -> np.ndarray:
    """The index of each distinct row's first occurrence, in order."""
    return np.sort(np.unique(_row_keys(rows), return_index=True)[1])


def _extend_kernels(a, kern) -> np.ndarray:
    """Annihilator rows of span(f, a) from f's rows kern and a's image
    r = kern @ a: r[p] * kern[j] - r[j] * kern[p] for j != p, p the first
    nonzero of r, each divided by its gcd."""
    m, k, dim = kern.shape
    r = (kern @ a[:, :, None])[..., 0]
    p = (r != 0).argmax(axis=1)
    at = np.arange(m)
    out = r[at, p, None, None] * kern - r[:, :, None] * kern[at, p][:, None, :]
    out = out[np.arange(k) != p[:, None]].reshape(m, k - 1, dim)
    return out // np.gcd.reduce(out, axis=2)[..., None]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque, orderable key per row of a 2-d array."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def oracle_levels(cfg, max_corank, chunk):
    """The exact walk over every flat, as (spans, packed) per level: spans[f]
    are the anchors spanning flat f, packed[f] its member set as packbits.
    The int64 entries are trusted: the oracle runs on small inputs only."""
    lat = np.array(lattice(cfg).covectors, dtype=np.int64)
    anchors = np.array([cls.anchor for cls in collinear_classes(cfg)])
    spans, kern = np.empty((1, 0), dtype=np.intp), np.eye(cfg.dim, dtype=np.int64)[None]
    for _ in range(max_corank):
        f, a, packed = _next_level(lat, anchors, kern, chunk)
        spans, kern = np.column_stack([spans[f], a]), _extend_kernels(lat[a], kern[f])
        yield spans, packed


def oracle_flats(cfg, max_corank, chunk):
    """Every flat of the all-flats walk as (span, member mask), in walk order."""
    return [
        (tuple(span.tolist()), mask.astype(bool))
        for spans, packed in oracle_levels(cfg, max_corank, chunk)
        for span, mask in zip(spans, np.unpackbits(packed, axis=1, count=len(cfg)))
    ]


def oracle_orbit_labels(packed, gens, n, chunk):
    """label[f]: the first flat, in walk order, of flat f's orbit under gens.

    Each generator maps a chunk of member sets at a time; every image must be
    among the level's flats, found by its packed bits.  The labels are merged
    by min-propagation with pointer jumping (the generators are involutions,
    so each image edge runs both ways)."""
    m = len(packed)
    order = _row_keys(packed).argsort()
    keys = _row_keys(packed)[order]
    images = np.empty((len(gens), m), dtype=np.intp)
    for lo in range(0, m, chunk):
        mask = np.unpackbits(packed[lo:lo + chunk], axis=1, count=n).astype(bool)
        for g, perm in enumerate(gens):
            img = _row_keys(np.packbits(mask[:, perm], axis=1))
            pos = np.minimum(keys.searchsorted(img), m - 1)
            assert (keys[pos] == img).all(), "a reflection image is not a flat of the walk"
            images[g, lo:lo + chunk] = order[pos]
    label = np.arange(m)
    while True:
        new = np.minimum(label, label[images].min(axis=0, initial=m))
        new = new[new]
        if (new == label).all():
            return label
        label = new


def oracle_flat_classes(cfg, max_corank, cells=_CHUNK_CELLS):
    """The orbits of every flat the all-flats walk finds, each represented by
    its first flat, level by level in walk order; cells bounds the walk's and
    the labelling's chunks."""
    n = len(cfg)
    gens = [np.array(perm) for perm, _ in simple_reflections(cfg)]
    levels = oracle_levels(cfg, max_corank, max(1, cells // (n * n)))
    out = []
    for corank, (spans, packed) in enumerate(levels, 1):
        label = oracle_orbit_labels(packed, gens, n, max(1, cells // n))
        reps, sizes = np.unique(label, return_counts=True)
        counts = np.bitwise_count(packed[reps]).sum(axis=1)
        out.extend(
            FlatClass(tuple(spans[f].tolist()), int(m), corank, int(size))
            for f, m, size in zip(reps, counts, sizes)
        )
    return out


def _indefinite():
    """Gram form [[2,-1,2],[-1,0,0],[2,0,3]], indefinite: e1 is isotropic, so
    flats such as span(e1, e3) have a singular m0, and it is the root of no
    reflection."""
    return configuration(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 0, 1]],
                         [1, 1, -1, 1, 2])


_CASES = [
    ("BC3", lambda: generate(family_spec("BC", 3, r=1, s=1, q=1)), 2),
    ("BC4", lambda: generate(family_spec("BC", 4, r=1, s=2, q=3)), 3),
    ("F4", lambda: generate(family_spec("F4", r=1, s=1)), 3),
    ("G2", lambda: generate(family_spec("G2", p=1, q=1)), 1),
    ("D4", lambda: generate(family_spec("D", 4, t=1)), 3),
    ("A(1,2,3,1)", lambda: restricted_family(
        family_spec("RestrictedA", partition=(1, 2, 3, 1), t=1)), 2),
    ("indefinite", _indefinite, 2),
]


def _orbit(members, gens, flats):
    """The flats reached from one member set by the generators (BFS); every
    image must be a flat of the walk."""
    orbit, todo = {members}, [members]
    while todo:
        cur = todo.pop()
        for perm in gens:
            img = frozenset(perm[i] for i in cur)
            assert img in flats, "a generator image is not a flat"
            if img not in orbit:
                orbit.add(img)
                todo.append(img)
    return orbit


@pytest.mark.parametrize("cells", [_CHUNK_CELLS, 1, 40])
@pytest.mark.parametrize("name,make,corank", _CASES, ids=[c[0] for c in _CASES])
def test_batched_sweep_matches_per_flat_oracle(name, make, corank, cells):
    cfg = make()
    classes = enumerate_flat_classes(cfg, corank)
    oracle = reference_flat_keys(cfg, corank)
    # the all-flats oracle finds the float oracle's flats in the same order;
    # cells=1 puts each of its flats in a chunk of its own, cells=40 a few
    exact = oracle_flats(cfg, corank, max(1, cells // len(cfg) ** 2))
    assert [s for s, _ in exact] == [s for s, _, _ in oracle]
    assert all((m == w).all() for (_, m), (_, w, _) in zip(exact, oracle))
    walk = {
        frozenset(np.flatnonzero(mask).tolist()): (i, key)
        for i, (_, mask, key) in enumerate(oracle)
    }
    first = {span: i for i, (span, _, _) in enumerate(oracle)}
    gens = [perm for perm, _ in simple_reflections(cfg)]
    covered = set()
    for fc in classes:
        rep = first[fc.span_indices]
        members = frozenset(np.flatnonzero(oracle[rep][1]).tolist())
        assert fc.n_members == len(members) and fc.corank == len(fc.span_indices)
        orbit = _orbit(members, gens, walk)
        assert len(orbit) == fc.class_size
        # the representative is the orbit's first flat in walk order
        assert min(walk[f][0] for f in orbit) == rep
        # the orbit lies inside one fingerprint class
        assert len({walk[f][1] for f in orbit}) == 1
        assert not covered & orbit
        covered |= orbit
    assert [fc.span_indices for fc in classes] == sorted(
        (fc.span_indices for fc in classes), key=lambda s: (len(s), first[s])
    )
    # the orbits partition every level
    for level in range(1, corank + 1):
        assert sum(fc.class_size for fc in classes if fc.corank == level) == sum(
            len(span) == level for span, _, _ in oracle
        )
    assert len(covered) == len(oracle)


def _random_parents(count, seed=2024):
    """Deformed BC3 and F4 parents with random small rational parameters of
    either sign, so some Gram forms are indefinite; singular ones are
    skipped."""
    rng = random.Random(seed)
    pick = lambda: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
    out = []
    while len(out) < count:
        if len(out) % 2:
            cfg = generate(family_spec("F4", r=pick(), s=pick()))
        else:
            cfg = generate(family_spec("BC", 3, r=pick(), s=pick(), q=pick()))
        try:
            duals(cfg)
        except SingularMatrixError:
            continue
        out.append(cfg)
    return out


@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("cfg", _random_parents(6), ids=lambda cfg: cfg.name)
def test_batched_walk_matches_oracle_on_random_deformations(cfg, chunk):
    # The walk is compared flat by flat.  The grouping is compared through
    # the catalog only (below): on such parameters a fingerprint sum of the
    # oracle can fall exactly on a rounding boundary, where float noise
    # splits an orbit.
    corank = cfg.dim - 1
    got = oracle_flats(cfg, corank, chunk)
    want = reference_flats(cfg, corank)
    assert [s for s, _ in got] == [s for s, _ in want]
    assert all((m == w).all() for (_, m), (_, w) in zip(got, want))


def _d4_with_half_lines():
    """D4's roots and the eight lines (1, +-1, +-1, +-1): W(D4) permutes the
    half lines, but their reflections are no symmetries.  So half the flat
    classes are not spanned by reflecting members, and the chains count and
    compare them on their spans, under a group of order 96."""
    roots = [[int(k == i) + s * int(k == j) for k in range(4)]
             for i, j in itertools.combinations(range(4), 2) for s in (1, -1)]
    half = [[1, *signs] for signs in itertools.product((1, -1), repeat=3)]
    return configuration(4, roots + half, [1] * len(roots) + [2] * len(half))


_EXACT_CASES = _CASES + [
    ("F4(-1,-2/3)", lambda: generate(family_spec("F4", r=-1, s=Fraction(-2, 3))), 3),
    ("D4+half lines", _d4_with_half_lines, 3),
] + [(cfg.name, lambda cfg=cfg: cfg, cfg.dim - 1) for cfg in _random_parents(6)]


@pytest.mark.parametrize("default_chunk", [False, True])
@pytest.mark.parametrize("name,make,corank", _EXACT_CASES, ids=[c[0] for c in _EXACT_CASES])
def test_walk_members_equal_exact_span_closure(name, make, corank, default_chunk):
    cfg = make()
    n = len(cfg)
    chunk = max(1, _CHUNK_CELLS // (n * n)) if default_chunk else 1
    for spans, packed in oracle_levels(cfg, corank, chunk):
        for span, mask in zip(spans, np.unpackbits(packed, axis=1, count=n)):
            members = subsystem(cfg, span.tolist()).member_indices
            assert np.flatnonzero(mask).tolist() == list(members), span.tolist()


@pytest.mark.parametrize("cells", [_CHUNK_CELLS, 1, 40])
@pytest.mark.parametrize("name,make,corank", _EXACT_CASES, ids=[c[0] for c in _EXACT_CASES])
def test_orbit_walk_matches_all_flats_oracle(name, make, corank, cells):
    # class by class: representative span, member count and orbit size;
    # cells bounds the oracle's chunks, as in the sweep test above
    cfg = make()
    assert enumerate_flat_classes(cfg, corank) == oracle_flat_classes(cfg, corank, cells)


def test_walk_is_exact_beyond_int64():
    # the annihilators of the corank-1 flats carry entries near 2^40, so
    # their products with the covectors at corank 2 exceed int64
    big = 1 << 40
    cfg = configuration(3, [[big + 1, 3, 5], [7, big + 3, 1], [2, 1, big + 5], [1, 1, 1]],
                        [1, 1, 1, 1])
    classes = enumerate_flat_classes(cfg, 2)
    assert [fc.corank for fc in classes] == [1] * 4 + [2] * 6
    for fc in classes:
        assert fc.n_members == len(subsystem(cfg, fc.span_indices).member_indices)


# the indefinite parent is left out: it has no lambda^2, so no catalog
_CATALOG_CASES = _CASES[:-1] + [
    (cfg.name, lambda cfg=cfg: cfg, cfg.dim - 1) for cfg in _random_parents(6)
]


@pytest.mark.parametrize("name,make,corank", _CATALOG_CASES, ids=[c[0] for c in _CATALOG_CASES])
def test_catalog_equal_on_orbits_and_fingerprint_classes(monkeypatch, name, make, corank):
    cfg = make()
    got = build_catalog(cfg, name, "", corank).dumps()
    monkeypatch.setattr(catalog, "enumerate_flat_classes", reference_flat_classes)
    assert got == build_catalog(cfg, name, "", corank).dumps()


def _packed_orbit(row, gens, n) -> set[bytes]:
    """The orbit of one packed member set under the index permutations gens,
    closed breadth-first, as the bytes of each packed member set."""
    orbit, todo, size = {row.tobytes()}, row[None], row.size
    while len(todo):
        mask = np.unpackbits(todo, axis=1, count=n)
        images = np.packbits(np.take(mask, gens, axis=1), axis=2).reshape(-1, size)
        new = set(_row_keys(images).tolist()) - orbit
        orbit |= new
        todo = np.frombuffer(b"".join(new), dtype=np.uint8).reshape(-1, size)
    return orbit


def oracle_packed_orbit_walk(cfg, max_corank):
    """The orbit walk with every orbit listed, as the catalog ran it before
    its stabiliser chains: the same representatives and children, but each
    new orbit is closed breadth-first on packed member bits (``_packed_orbit``),
    its size is the class size, and a child is new when its bits lie in no
    orbit listed so far."""
    n, covs = len(cfg), lattice(cfg).covectors
    gens = np.array([perm for perm, _ in simple_reflections(cfg)], dtype=np.intp).reshape(-1, n)
    anchors = [cls.anchor for cls in collinear_classes(cfg)]
    level, out = [()], []
    for corank in range(1, max_corank + 1):
        seen, reps = set(), []
        for span in level:
            lines = catalog._quotient_lines(covs, span, cfg.dim)
            inside = np.array([i not in lines for i in range(n)])
            for a in anchors:
                if a not in lines:
                    continue
                mask = inside.copy()
                mask[lines[a]] = True
                row = np.packbits(mask)
                if row.tobytes() not in seen:
                    orbit = _packed_orbit(row, gens, n)
                    seen |= orbit
                    reps.append(span + (a,))
                    out.append(FlatClass(span + (a,), int(mask.sum()), corank, len(orbit)))
        level = reps
    return out


_PACKED_ORBIT_CASES = _EXACT_CASES + [("E8", lambda: generate(family_spec("E8", t=1)), 4)]


@pytest.mark.parametrize("name,make,corank", _PACKED_ORBIT_CASES,
                         ids=[c[0] for c in _PACKED_ORBIT_CASES])
def test_chain_walk_matches_packed_orbit_walk(name, make, corank):
    # class by class: the chains' |G| / |Stab| against the listed orbit
    cfg = make()
    assert enumerate_flat_classes(cfg, corank) == oracle_packed_orbit_walk(cfg, corank)


_DOUBLE_COUNT_CASES = [
    ("E6", lambda: generate(family_spec("E6", t=1)), 4),
    ("D5", lambda: generate(family_spec("D", 5, t=1)), 4),
] + [case for case in _EXACT_CASES if case[0] in (
    "BC4", "F4", "A(1,2,3,1)", "F4(-1,-2/3)", "D4+half lines"
)]


@pytest.mark.parametrize("name,make,corank", _DOUBLE_COUNT_CASES,
                         ids=[c[0] for c in _DOUBLE_COUNT_CASES])
def test_class_sizes_double_count(name, make, corank):
    # Count the pairs (flat of orbit Y at level l-1, flat of orbit O at level l
    # containing it) twice: |Y| * #(children of Y's representative in O) =
    # |O| * #(flats of Y inside O's representative).  Orbits come from the
    # all-flats oracle's labels, the sizes from the chains.
    cfg = make()
    n = len(cfg)
    classes = enumerate_flat_classes(cfg, corank)
    index = {fc.span_indices: i for i, fc in enumerate(classes)}
    gens = [np.array(perm) for perm, _ in simple_reflections(cfg)]
    levels = []  # per level: (member set, class index) of every flat
    for spans, packed in oracle_levels(cfg, corank, max(1, _CHUNK_CELLS // (n * n))):
        label = oracle_orbit_labels(packed, gens, n, max(1, _CHUNK_CELLS // n))
        masks = np.unpackbits(packed, axis=1, count=n)
        levels.append([
            (frozenset(np.flatnonzero(mask).tolist()), index[tuple(spans[f].tolist())])
            for mask, f in zip(masks, label)
        ])
    reps = [frozenset(subsystem(cfg, fc.span_indices).member_indices) for fc in classes]
    assert all((reps[c], c) in levels[fc.corank - 1] for c, fc in enumerate(classes))
    pairs = 0
    for lower, upper in zip(levels, levels[1:]):
        for y in {c for _, c in lower}:
            for o in {c for _, c in upper}:
                children = sum(c == o and reps[y] <= f for f, c in upper)
                inside = sum(c == y and f <= reps[o] for f, c in lower)
                assert classes[y].class_size * children == classes[o].class_size * inside
                pairs += children > 0
    assert pairs
