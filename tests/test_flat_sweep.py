"""Differential tests of the batched flat sweep against the per-flat oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest

from trigvee import catalog
from trigvee.catalog import FlatClass, enumerate_flat_classes
from trigvee.configuration import collinear_classes, configuration, duals
from trigvee.exactla import SingularMatrixError
from trigvee.families import family_spec, generate, restricted_family


def _float_matrix(rows):
    return np.array([[float(x) for x in r] for r in rows], dtype=float)


def reference_flats(cfg, max_corank):
    """The original level walk: one QR and parallel test per span; returns
    every flat as (span, member mask), level by level in first-seen order."""
    tol = catalog._PAR_TOL
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


def reference_flat_classes(cfg, max_corank):
    """The original per-flat sweep: the level walk above, then one solve and
    rounding fingerprint (`_flat_key`) per flat."""
    if not 0 <= max_corank < cfg.dim:
        raise ValueError("max_corank must lie in [0, dim)")
    if max_corank == 0:
        return []
    av = _float_matrix(cfg.covectors)
    vf = av @ _float_matrix(duals(cfg)).T
    mults = np.array([float(c) for c in cfg.multiplicities])
    groups, order = {}, []
    absvf = np.abs(vf)
    rvec = np.random.default_rng(1234).uniform(0.5, 1.5, cfg.dim)
    for span, mask in reference_flats(cfg, max_corank):
        key = _flat_key(av, vf, absvf, rvec, mults, span, mask, catalog._ROUND)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((span, int(mask.sum())))
    out = []
    for key in order:
        span, nmem = groups[key][0]
        out.append(FlatClass(span, nmem, len(span), len(groups[key])))
    return out


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


def _indefinite():
    """Gram form [[0,-1,0],[-1,0,0],[0,0,1]]: e1 and e2 are isotropic, so
    the flats they span (and e.g. span(e1, e3)) have a singular m0."""
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


@pytest.mark.parametrize("cells", [catalog._CHUNK_CELLS, 1, 40])
@pytest.mark.parametrize("name,make,corank", _CASES, ids=[c[0] for c in _CASES])
def test_batched_sweep_matches_per_flat_oracle(monkeypatch, name, make, corank, cells):
    # cells=1 puts each flat in a chunk of its own; cells=40 mixes singular
    # and regular flats of the indefinite parent within one chunk
    monkeypatch.setattr(catalog, "_CHUNK_CELLS", cells)
    cfg = make()
    assert enumerate_flat_classes(cfg, corank) == reference_flat_classes(cfg, corank)


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
    # The walk is compared flat by flat.  The grouping is not: on such
    # parameters a fingerprint sum can fall exactly on a rounding boundary,
    # where both sweeps split classes by float noise.
    corank = cfg.dim - 1
    av = _float_matrix(cfg.covectors)
    got = [
        (tuple(s.tolist()), m)
        for spans, packed in catalog._levels(av, collinear_classes(cfg), corank, chunk)
        for s, m in zip(spans, np.unpackbits(packed, axis=1, count=len(cfg)).astype(bool))
    ]
    want = reference_flats(cfg, corank)
    assert [s for s, _ in got] == [s for s, _ in want]
    assert all((m == w).all() for (_, m), (_, w) in zip(got, want))


def test_singular_flats_take_the_lstsq_fallback(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a) or lstsq(*a, **k))
    enumerate_flat_classes(_indefinite(), 2)
    assert calls
