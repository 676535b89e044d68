"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
tolerances are pinned here and nowhere else.  Exact assertions use rational
equality (zero tolerance); float residuals use the stated thresholds.
"""

import os
import random
from fractions import Fraction as Q
from itertools import combinations

import numpy as np
import pytest

from trigvee.catalog import build_catalog, pairing_profile
from trigvee.configuration import (
    apply_matrix,
    configuration,
    duals,
    gram,
    normalize_positive,
)
from trigvee.exactla import dot, mat, mat_vec, vec
from trigvee.families import (
    covector_index,
    expected_lambda_sq,
    family_spec,
    four_dim_config,
    four_dim_derived_params,
    generate,
    partition_span_indices,
    restricted_family,
)
from trigvee.gamma import (
    gamma_sq_direct,
    gamma_tilde_sq,
    gamma_tilde_sq_dual,
    root_data,
)
from trigvee.restriction import restrict
from trigvee.veesystem import (
    extract,
    g2_positive_flip_invariant,
    lambda_sq,
    m_operator,
    subsystem,
    vee_check,
    vee_residuals,
)
from trigvee.wdvv import (
    _lambda_from_sq,
    associativity_residual,
    product,
    sample_points,
    wdvv_residual,
)

WDVV_TOL = 1e-8
WDVV_POINTS = 20
WDVV_SEED = 42
FAIL_FLOOR = 1e-3
IDENTITY_TOL = 1e-12


def _report(name, ok):
    line = "ACCEPTANCE %s: %s" % (name, "PASS" if ok else "FAIL")
    print(line)
    try:
        import conftest

        conftest.ACCEPTANCE_LINES.append(line)
    except ImportError:
        pass
    assert ok, name


def rnd_q(rng, lo=1, hi=9):
    return Q(rng.randint(lo, hi), rng.randint(lo, hi))


def _random_specs(rng, count=10):
    """Random parameter points per parametric family, degeneracies avoided."""
    out = []
    for _ in range(count):
        for n in range(2, 6):
            out.append(family_spec("BC", n, r=rnd_q(rng), s=rnd_q(rng), q=rnd_q(rng)))
        for n in range(2, 7):
            out.append(family_spec("A", n, t=rnd_q(rng)))
        out.append(family_spec("F4", r=rnd_q(rng), s=rnd_q(rng)))
        out.append(family_spec("G2", p=rnd_q(rng), q=rnd_q(rng)))
        out.append(family_spec("FourDim", r=rnd_q(rng), s=rnd_q(rng)))
        a, b = rnd_q(rng), rnd_q(rng)
        while 2 * a == b or 4 * a == 3 * b:
            a, b = rnd_q(rng), rnd_q(rng)
        out.append(family_spec("Planar6", a=a, b=b))
        a, b = rnd_q(rng), rnd_q(rng)
        out.append(family_spec("Planar8", a=a, b=b))
        out.append(family_spec("Planar9", a=rnd_q(rng), b=rnd_q(rng)))
        out.append(family_spec("Planar10", a=rnd_q(rng)))
    return out


def _closed_form(spec):
    p = dict(spec.params)
    n = spec.rank
    if spec.family == "BC":
        r, s, q = p["r"], p["s"], p["q"]
        h = r + 4 * s + 2 * q * (n - 1)
        return 2 * h**3 / (q * (r + 8 * s + 2 * (n - 2) * q))
    if spec.family == "A":
        return 4 * (n + 1) ** 2 * p["t"]
    if spec.family in ("F4", "FourDim"):
        r, s = p["r"], p["s"]
        return 108 * (2 * r + s) ** 2 / (4 * r + s)
    if spec.family == "G2":
        return 36 * (p["p"] + 3 * p["q"]) ** 2 / (p["p"] + 9 * p["q"])
    if spec.family == "Planar6":
        a, b = p["a"], p["b"]
        return 108 * (2 * a - b) ** 2 / (4 * a - 3 * b)
    if spec.family == "Planar8":
        a, b = p["a"], p["b"]
        return 216 * a**2 / (4 * a - b)
    if spec.family == "Planar9":
        a, b = p["a"], p["b"]
        return 36 * (a + 2 * b) ** 2 / (a + 4 * b)
    if spec.family == "Planar10":
        return 225 * p["a"]
    raise AssertionError(spec.family)


def test_criterion_1_lambda_closed_forms():
    """lambda^2 equals the closed forms exactly at 10 random points each."""
    rng = random.Random(1001)
    for spec in _random_specs(rng, count=10):
        assert lambda_sq(generate(spec)) == _closed_form(spec), spec
    for fam, val in [("E6", 288), ("E7", 486), ("E8", 900)]:
        assert lambda_sq(generate(family_spec(fam, t=1))) == val
    _report("1 (lambda^2 closed forms, exact)", True)


_FIXED_SPECS = [
    family_spec("BC", 2, r=1, s=1, q=1),
    family_spec("BC", 3, r=2, s=Q(1, 2), q=1),
    family_spec("BC", 4, r=1, s=1, q=Q(2, 3)),
    family_spec("BC", 5, r=1, s=2, q=1),
    family_spec("A", 2, t=1),
    family_spec("A", 4, t=Q(3, 2)),
    family_spec("A", 6, t=2),
    family_spec("F4", r=1, s=1),
    family_spec("G2", p=1, q=1),
    family_spec("FourDim", r=1, s=4),
    family_spec("Planar6", a=2, b=1),
    family_spec("Planar8", a=1, b=1),
    family_spec("Planar9", a=3, b=1),
    family_spec("Planar10", a=1),
    family_spec("E6", t=1),
    family_spec("E7", t=1),
    family_spec("E8", t=1),
]

_COUNTEREXAMPLE = configuration(2, [[1, 0], [0, 1], [1, 2]], [1, 1, 1])


def _perturbed_four_dims():
    p, q = four_dim_derived_params(1, 4)
    return [
        four_dim_config(p + 1, q, 1, 4),  # p constraint broken
        four_dim_config(p, q + Q(1, 2), 1, 4),  # q constraint broken
    ]


def test_criterion_2_vee_verdicts():
    """Every generated family passes; the fixed and perturbed examples fail."""
    for spec in _FIXED_SPECS:
        rep = vee_check(generate(spec), probe_flips=0)
        assert rep.is_vee, spec
    rng = random.Random(2002)
    for spec in _random_specs(rng, count=1):
        assert vee_check(generate(spec), probe_flips=0).is_vee, spec
    assert not vee_check(_COUNTEREXAMPLE, probe_flips=0).is_vee
    for bad in _perturbed_four_dims():
        assert not vee_check(bad, probe_flips=0).is_vee
    _report("2 (vee-system verdicts)", True)


_CATALOG_FAMILIES = [
    ("E6", family_spec("E6", t=1)),
    ("E7", family_spec("E7", t=1)),
    ("E8", family_spec("E8", t=1)),
    ("F4", family_spec("F4", r=1, s=1)),
    ("BC5", family_spec("BC", 5, r=1, s=1, q=1)),
]

_catalog_cache = {}


def _catalog(name, spec, corank=3):
    if name not in _catalog_cache:
        _catalog_cache[name] = build_catalog(generate(spec), name, "", corank)
    return _catalog_cache[name]


def test_criterion_3_restriction_suite():
    """Partition restrictions match the closed tables exactly; lambda^2 is
    preserved in every catalog entry (child dim >= 2) up to corank 3; the
    E7/A3 restriction reproduces the 4-dim family at (1,4)."""
    rng = random.Random(3003)
    for n, part in [(4, (2, 2)), (5, (2, 2, 1)), (5, (3, 2)), (4, (2, 1, 1))]:
        r, s, q = (rnd_q(rng) for _ in range(3))
        parent = generate(family_spec("BC", n, r=r, s=s, q=q))
        span = partition_span_indices(parent, "BC", part)
        res = restrict(parent, subsystem(parent, span))
        table = restricted_family(family_spec("RestrictedBC", partition=part, r=r, s=s, q=q))
        assert res.child.covectors == table.covectors
        assert res.child.multiplicities == table.multiplicities
        assert lambda_sq(res.child) == lambda_sq(parent)
    for n, part in [(5, (2, 2, 2)), (4, (2, 2, 1))]:
        t = rnd_q(rng)
        parent = generate(family_spec("A", n, t=t))
        span = partition_span_indices(parent, "A", part)
        res = restrict(parent, subsystem(parent, span))
        mults = sorted(res.child.multiplicities)
        want = sorted(t * part[i] * part[j] for i, j in combinations(range(len(part)), 2))
        assert mults == want
        assert lambda_sq(res.child) == lambda_sq(parent)

    for name, spec in _CATALOG_FAMILIES:
        cat = _catalog(name, spec)
        assert len(cat.entries) >= 2
        for e in cat.entries:
            if e.child_dim >= 2:
                assert e.lambda_verified and e.lambda_sq == cat.parent_lambda_sq, (name, e)

    e7 = generate(family_spec("E7", t=1))
    fd = generate(family_spec("FourDim", r=1, s=4))

    def pm(i, j, s):
        v = [Q(0)] * 7
        v[i], v[j] = Q(1), Q(s)
        return v

    span = [covector_index(e7, pm(0, 1, -1)), covector_index(e7, pm(1, 2, -1)),
            covector_index(e7, pm(2, 3, -1))]
    res = restrict(e7, subsystem(e7, span))
    assert lambda_sq(res.child) == 486 == lambda_sq(fd)
    assert pairing_profile(res.child) == pairing_profile(fd)
    _report("3 (restriction suite)", True)


_GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("name,spec", _CATALOG_FAMILIES, ids=[n for n, _ in _CATALOG_FAMILIES])
def test_catalog_matches_golden_fixture(name, spec):
    """The corank-3 catalog is byte-identical to the recorded fixture,
    span_indices included."""
    with open(os.path.join(_GOLDEN, "catalog_%s.json" % name.lower())) as fh:
        assert _catalog(name, spec).dumps() + "\n" == fh.read()


def _gb_matrix(cfg, members):
    n = cfg.dim
    rows = [[Q(0)] * n for _ in range(n)]
    for m in members:
        a, c = cfg.covectors[m], cfg.multiplicities[m]
        for i in range(n):
            for j in range(n):
                rows[i][j] += c * a[i] * a[j]
    return mat(rows)


def _check_eigen_invariants(cfg, h, rng):
    from trigvee.exactla import rref

    ga = gram(cfg)
    gb = _gb_matrix(cfg, h.member_indices)
    eig = m_operator(cfg, h)
    from trigvee.veesystem import m_apply

    for _ in range(3):
        u = vec([rng.randint(-3, 3) for _ in range(cfg.dim)])
        v = vec([rng.randint(-3, 3) for _ in range(cfg.dim)])
        assert dot(u, mat_vec(ga, m_apply(cfg, h, v))) == dot(u, mat_vec(gb, v))
    for lam, space in zip(eig.eigenvalues, eig.eigenspaces):
        assert lam != 0
        for u in space:
            assert mat_vec(gb, u) == tuple(lam * x for x in mat_vec(ga, u))
    for i in range(len(eig.eigenvalues)):
        for j in range(i + 1, len(eig.eigenvalues)):
            for u in eig.eigenspaces[i]:
                for v in eig.eigenspaces[j]:
                    assert dot(u, mat_vec(gb, v)) == 0
    # standalone duals scale by 1/lambda_i
    child = extract(cfg, h)
    cdv = duals(child)
    dvp = duals(cfg)
    eigval = dict(eig.member_eigenvalues)
    basis = h.wdual_basis
    for pos, m in enumerate(h.member_indices):
        rowsys = [[basis[j][i] for j in range(len(basis))] + [dvp[m][i]] for i in range(cfg.dim)]
        red, piv = rref(rowsys)
        coeff = [Q(0)] * len(basis)
        for rowi, p in enumerate(piv):
            assert p < len(basis)
            coeff[p] = red[rowi][-1]
        assert cdv[pos] == tuple(x / eigval[m] for x in coeff)
    return child


def test_criterion_4_subsystem_suite():
    """50 random non-isotropic subsystems of E8+ and F4+ pass the standalone
    vee-check, with the eigen-decomposition identities holding exactly."""
    rng = random.Random(4004)
    checked = 0
    for spec in (family_spec("E8", t=1), family_spec("F4", r=1, s=1)):
        cfg = generate(spec)
        for _ in range(25):
            span = rng.sample(range(len(cfg)), rng.randint(1, 4))
            h = subsystem(cfg, span)
            assert not h.is_isotropic
            child = _check_eigen_invariants(cfg, h, rng)
            assert vee_check(child, probe_flips=0).is_vee
            checked += 1
    assert checked == 50
    _report("4 (subsystem suite, 50 samples)", True)


def test_criterion_5_gamma_suite():
    """Highest-root and dual-root formulas agree and match the closed forms;
    the direct route through -4h^3/lambda^2 reproduces them."""
    rng = random.Random(5005)
    for n in range(2, 6):
        for _ in range(4):
            p, q = rnd_q(rng), rnd_q(rng)
            rd_b, rd_c = root_data("B", n), root_data("C", n)
            mult = {"short": p, "long": q}
            assert gamma_tilde_sq(rd_b, mult) == gamma_tilde_sq_dual(rd_b, mult) == -q * (p + (n - 2) * q)
            assert gamma_tilde_sq(rd_c, mult) == gamma_tilde_sq_dual(rd_c, mult) == -p * (2 * q + (n - 2) * p)
    for _ in range(4):
        p, q = rnd_q(rng), rnd_q(rng)
        mult = {"short": p, "long": q}
        assert gamma_tilde_sq(root_data("F4"), mult) == gamma_tilde_sq_dual(root_data("F4"), mult) == -(p + q) * (p + 2 * q)
        assert gamma_tilde_sq(root_data("G2"), mult) == gamma_tilde_sq_dual(root_data("G2"), mult) == -Q(3, 8) * (p + q) * (p + 3 * q)
    for fam, n in [("A", 2), ("A", 5), ("D", 4), ("E6", None), ("E7", None), ("E8", None)]:
        rd = root_data(fam, n)
        t = rnd_q(rng)
        assert gamma_tilde_sq(rd, {"all": t}) == gamma_tilde_sq_dual(rd, {"all": t})
    # direct route
    for _ in range(3):
        r, s, q = (rnd_q(rng) for _ in range(3))
        for n in (2, 3, 5):
            cfg = generate(family_spec("BC", n, r=r, s=s, q=q))
            assert gamma_sq_direct(cfg, root_data("BC", n)) == -2 * q * (r + 8 * s + 2 * (n - 2) * q)
        f4 = generate(family_spec("F4", r=r, s=s))
        assert gamma_sq_direct(f4, root_data("F4")) == -(s + 2 * r) * (s + 4 * r)
        g2 = generate(family_spec("G2", p=r, q=s))
        assert gamma_sq_direct(g2, root_data("G2")) == -Q(3, 8) * (r + 3 * s) * (r + 9 * s)
    _report("5 (gamma suite, exact)", True)


def _wdvv_pass(cfg, lam):
    rep = wdvv_residual(cfg, lam, points=WDVV_POINTS, seed=WDVV_SEED, tol=WDVV_TOL)
    return rep


def test_criterion_6_float_verification():
    """Scaled commutator residuals below 1e-8 for all families and
    restrictions; above 1e-3 for the counterexamples; associativity verdicts
    agree; the unit field acts as the exact identity to 1e-12."""
    rng_np = np.random.default_rng(606)
    children = []
    # every family in criterion 1 (fixed representative points)
    for spec in _FIXED_SPECS:
        cfg = generate(spec)
        lam = lambda_sq(cfg)
        rep = _wdvv_pass(cfg, lam)
        assert rep.passed, (spec, rep.max_residual)
        arep = associativity_residual(cfg, lam, points=6, seed=WDVV_SEED, tol=WDVV_TOL)
        assert arep.agrees_with_wdvv and arep.passed
        # identity field
        lamf = _lambda_from_sq(lam)
        (pt,) = sample_points(cfg, 1, 7)
        e = np.zeros(cfg.dim + 1)
        e[cfg.dim] = 1.0
        v = rng_np.uniform(-1, 1, cfg.dim + 1)
        assert np.max(np.abs(product(cfg, lamf, pt, e, v) - v)) < IDENTITY_TOL
    # every restriction exercised in criterion 3
    rng = random.Random(6006)
    for n, part in [(4, (2, 2)), (5, (2, 2, 2))]:
        fam = "BC" if n == 4 else "A"
        spec = (
            family_spec("BC", 4, r=1, s=1, q=1)
            if fam == "BC"
            else family_spec("A", 5, t=1)
        )
        parent = generate(spec)
        span = partition_span_indices(parent, fam, part)
        children.append(restrict(parent, subsystem(parent, span)).child)
    for name, spec in _CATALOG_FAMILIES:
        cfg = generate(spec)
        cat = _catalog(name, spec)
        for e in cat.entries:
            if e.corank == 0:
                continue
            h = subsystem(cfg, e.span_indices)
            children.append(restrict(cfg, h).child)
    for child in children:
        if child.dim >= 2:
            lam = lambda_sq(child)
        else:
            lam = Q(1)
        rep = _wdvv_pass(child, lam)
        assert rep.passed, (child.name, rep.max_residual)
        arep = associativity_residual(child, lam, points=6, seed=WDVV_SEED, tol=WDVV_TOL)
        assert arep.passed and arep.agrees_with_wdvv, child.name
    # counterexamples from criterion 2
    bad_rep = _wdvv_pass(_COUNTEREXAMPLE, Q(1))
    assert bad_rep.max_residual > FAIL_FLOOR
    abad = associativity_residual(_COUNTEREXAMPLE, Q(1), points=WDVV_POINTS, seed=WDVV_SEED, tol=WDVV_TOL)
    assert not abad.passed and abad.agrees_with_wdvv
    for bad in _perturbed_four_dims():
        rep = _wdvv_pass(bad, 486)
        assert rep.max_residual > FAIL_FLOOR
        arep = associativity_residual(bad, 486, points=WDVV_POINTS, seed=WDVV_SEED, tol=WDVV_TOL)
        assert not arep.passed and arep.agrees_with_wdvv
    _report("6 (float verification)", True)


def test_criterion_7_structural_properties():
    """Wedge summation identities; positive-system independence of the second
    form under 10 random flips per family; lambda^2 invariance under 5 random
    unimodular coordinate changes per family."""
    from trigvee.exactla import mat_add, mat_scale, wedge_square, zero_wedge_form

    def unit(n, i):
        return vec([1 if k == i else 0 for k in range(n)])

    for n in range(3, 7):
        total = zero_wedge_form(n)
        for i, j, k in combinations(range(n), 3):
            for a, b in ((i, j), (i, k), (j, k)):
                total = mat_add(total, wedge_square(unit(n, a), unit(n, b)))
        base = zero_wedge_form(n)
        for i, j in combinations(range(n), 2):
            base = mat_add(base, wedge_square(unit(n, i), unit(n, j)))
        assert total == mat_scale(Q(n - 2), base)
        if n >= 4:
            total4 = zero_wedge_form(n)
            for quad in combinations(range(n), 4):
                for a, b in combinations(quad, 2):
                    total4 = mat_add(total4, wedge_square(unit(n, a), unit(n, b)))
            assert total4 == mat_scale(Q((n - 2) * (n - 3), 2), base)

    flip_families = [
        family_spec("BC", 3, r=1, s=2, q=1),
        family_spec("BC", 5, r=1, s=1, q=1),
        family_spec("A", 4, t=1),
        family_spec("F4", r=1, s=1),
        family_spec("G2", p=1, q=1),
        family_spec("FourDim", r=1, s=4),
        family_spec("Planar6", a=2, b=1),
        family_spec("Planar8", a=1, b=1),
        family_spec("Planar9", a=3, b=1),
        family_spec("Planar10", a=1),
        family_spec("E6", t=1),
        family_spec("E7", t=1),
        family_spec("E8", t=1),
    ]
    for spec in flip_families:
        assert g2_positive_flip_invariant(generate(spec), flips=10, seed=71), spec

    rng = random.Random(7007)

    def random_unimodular(n):
        m = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = rng.choice([-1, 1])
            for k in range(n):
                m[i][k] += c * m[j][k]
        return mat(m)

    for spec in flip_families:
        cfg = generate(spec)
        lam = lambda_sq(cfg)
        for _ in range(5):
            assert lambda_sq(apply_matrix(cfg, random_unimodular(cfg.dim))) == lam, spec
    _report("7 (structural property suites)", True)
