"""The catalog re-verifies each restricted child at one alpha per orbit of
the child's reflecting symmetries; the full ``vee_residuals`` is the oracle.

A reflecting symmetry g is linear, permutes the covectors up to sign and
keeps the multiplicities, so it keeps ``pairings`` up to the signs of the
permutation, maps alpha's series onto g(alpha)'s and keeps each residual up
to sign.  The tests check those certificates on every generator, that the
orbits partition the indices, and that the verdict at the orbit
representatives equals the full verdict, also on deformed parents whose
multiplicities break some of the symmetries.
"""

from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from trigvee import catalog
from trigvee.catalog import CatalogError, alpha_orbits, build_catalog, enumerate_flat_classes
from trigvee.configuration import Configuration, pairings
from trigvee.exactla import SingularMatrixError
from trigvee.families import DegenerateParamsError, family_spec, generate
from trigvee.restriction import restrict
from trigvee.veesystem import subsystem, vee_residuals


def _assert_exact_symmetries(cfg):
    """Every reflecting symmetry is the reflection in its anchor b, a
    bijection that keeps the multiplicities and the pairings up to sign."""
    n = len(cfg)
    pm, _ = pairings(cfg)
    covs, mults = cfg.covectors, cfg.multiplicities
    symmetries = catalog._reflections(cfg)[0]
    for b, (perm, signs) in symmetries.items():
        assert sorted(perm) == list(range(n))
        assert all(mults[perm[i]] == mults[i] for i in range(n))
        assert all(
            pm[perm[i]][perm[j]] == signs[i] * signs[j] * pm[i][j]
            for i in range(n) for j in range(n)
        )
        for i, a in enumerate(covs):
            c = Q(2 * pm[i][b], pm[b][b])
            assert tuple(s * signs[i] for s in covs[perm[i]]) == tuple(
                x - c * y for x, y in zip(a, covs[b])
            )
    return symmetries


def _assert_orbits(cfg, symmetries):
    """The orbits partition the indices, each is closed under every
    symmetry, and each lists its indices in increasing order."""
    orbits = alpha_orbits(cfg)
    assert sorted(i for o in orbits for i in o) == list(range(len(cfg)))
    assert [o[0] for o in orbits] == sorted(o[0] for o in orbits)
    for o in orbits:
        assert o == sorted(o)
        assert all({perm[i] for i in o} == set(o) for perm, _ in symmetries.values())
    return orbits


def _verdicts(cfg, orbits):
    reps = [o[0] for o in orbits]
    return (
        all(r.residual == 0 for r in vee_residuals(cfg, reps)),
        all(r.residual == 0 for r in vee_residuals(cfg)),
    )


_PARENTS = [
    ("F4", family_spec("F4", r=1, s=2)),
    ("BC4", family_spec("BC", 4, r=2, s=Q(1, 3), q=Q(-3, 2))),
    ("D5", family_spec("D", 5, t=1)),
    ("E6", family_spec("E6", t=1)),
]


@pytest.mark.parametrize("name,spec", _PARENTS, ids=[p[0] for p in _PARENTS])
def test_every_child_orbit_certificate_and_verdict(name, spec):
    cfg = generate(spec)
    for fc in enumerate_flat_classes(cfg, 2):
        child = restrict(cfg, subsystem(cfg, fc.span_indices)).child
        orbits = _assert_orbits(child, _assert_exact_symmetries(child))
        orbit_path, full = _verdicts(child, orbits)
        assert orbit_path == full


def test_vee_residuals_at_given_alphas_is_the_full_list_filtered():
    cfg = generate(family_spec("F4", r=1, s=2))
    full = vee_residuals(cfg)
    alphas = {7, 0, 20}
    assert vee_residuals(cfg, alphas) == tuple(r for r in full if r.alpha in alphas)
    assert vee_residuals(cfg, range(len(cfg))) == full


@st.composite
def deformed_parents(draw):
    """A deformed F4(r, s) or BC_n(r, s, q) whose multiplicities on one whole
    orbit of some of its reflecting symmetries are changed."""
    nonzero = st.fractions(-3, 3, max_denominator=4).filter(bool)
    if draw(st.booleans()):
        spec = family_spec("F4", r=draw(nonzero), s=draw(nonzero))
    else:
        n = draw(st.integers(2, 4))
        spec = family_spec("BC", n, r=draw(nonzero), s=draw(nonzero), q=draw(nonzero))
    try:
        cfg = generate(spec)
        symmetries = list(catalog._reflections(cfg)[0].values())
    except (DegenerateParamsError, SingularMatrixError):
        assume(False)
    # all of them (a whole orbit of the group: every symmetry survives), or
    # at most two (most symmetries break, and the vee-condition with them)
    picks = range(len(symmetries))
    if symmetries and draw(st.booleans()):
        picks = draw(st.lists(st.sampled_from(picks), max_size=2))
    chosen = [symmetries[k][0] for k in picks]
    orbit, todo = set(), [draw(st.integers(0, len(cfg) - 1))]
    while todo:
        i = todo.pop()
        if i not in orbit:
            orbit.add(i)
            todo += [perm[i] for perm in chosen]
    factor = draw(st.sampled_from([Q(2), Q(-1), Q(1, 3), Q(5, 2)]))
    mults = tuple(c * factor if i in orbit else c for i, c in enumerate(cfg.multiplicities))
    return Configuration(cfg.dim, cfg.covectors, mults)


@settings(max_examples=40, deadline=None)
@given(deformed_parents())
def test_orbit_verdict_on_deformed_parents(cfg):
    try:
        pairings(cfg)
    except SingularMatrixError:
        assume(False)
    symmetries = _assert_exact_symmetries(cfg)
    orbits = _assert_orbits(cfg, symmetries)
    orbit_path, full = _verdicts(cfg, orbits)
    assert orbit_path == full
    # the theorem itself: g maps alpha's series onto g(alpha)'s and keeps
    # each residual up to sign
    by_alpha = {}
    for r in vee_residuals(cfg):
        by_alpha.setdefault(r.alpha, {})[frozenset(r.members)] = r.residual
    for perm, _ in symmetries.values():
        for a, series in by_alpha.items():
            image = by_alpha[perm[a]]
            assert {frozenset(perm[i] for i in s) for s in series} == set(image)
            for s, residual in series.items():
                assert abs(image[frozenset(perm[i] for i in s)]) == abs(residual)


_MUTATED = [
    ("E6", family_spec("E6", t=1), "t=1", 2),
    ("F4", family_spec("F4", r=1, s=2), "r=1,s=2", 2),
    ("BC4", family_spec("BC", 4, r=2, s=Q(1, 3), q=Q(-3, 2)), "r=2,s=1/3,q=-3/2", 2),
]


@pytest.mark.parametrize("name,spec,params,corank", _MUTATED, ids=[m[0] for m in _MUTATED])
def test_perturbed_child_raises_the_full_path_message(monkeypatch, name, spec, params, corank):
    # 1/7 more on one multiplicity of the first child: it keeps the child's
    # symmetries that fix that covector, so the orbit path checks fewer
    # alphas than the full path, and must still raise its exact message
    real = catalog.restrict
    seen = []

    def perturbed(cfg, handle):
        res = real(cfg, handle)
        if seen:
            return res
        child = res.child
        mults = (child.multiplicities[0] + Q(1, 7),) + child.multiplicities[1:]
        seen.append((handle, Configuration(child.dim, child.covectors, mults)))
        return replace(res, child=seen[0][1])

    monkeypatch.setattr(catalog, "restrict", perturbed)
    cfg = generate(spec)
    with pytest.raises(CatalogError) as info:
        build_catalog(cfg, name, params, corank)
    handle, child = seen[0]
    assert len(alpha_orbits(child)) < len(child)
    bad = [r for r in vee_residuals(child) if r.residual != 0]
    assert str(info.value) == (
        "flat spanned by %s: the restricted child fails the vee-condition at %d series, "
        "first alpha %d, series %s, residual %s"
        % (list(handle.span_indices), len(bad), bad[0].alpha, list(bad[0].members),
           bad[0].residual)
    )
