import random
from fractions import Fraction as Q

import pytest

from trigvee.configuration import (
    Configuration,
    apply_matrix,
    collinear_classes,
    configuration,
    duals,
    gram,
    normalize_positive,
)
from trigvee.exactla import dot, mat, mat_vec, rank, vec, wedge_pairs, wedge_vector
from trigvee.families import family_spec, generate
from trigvee.veesystem import (
    NotEigenError,
    NotProportionalError,
    ZeroG2Error,
    _g2_sum,
    extract,
    g1,
    g2,
    g2_positive_flip_invariant,
    lambda_sq,
    m_apply,
    m_operator,
    subsystem,
    vee_check,
    vee_residuals,
)


def brute_g1(cfg):
    """Literal double sum over the configuration: the independent oracle."""
    pairs = wedge_pairs(cfg.dim)
    k = len(pairs)
    out = [[Q(0)] * k for _ in range(k)]
    for a, ca in zip(cfg.covectors, cfg.multiplicities):
        for b, cb in zip(cfg.covectors, cfg.multiplicities):
            w = wedge_vector(a, b, pairs)
            for z in range(k):
                if w[z] == 0:
                    continue
                cw = ca * cb * w[z]
                for y in range(k):
                    out[z][y] += cw * w[y]
    return tuple(tuple(r) for r in out)


def brute_g2(cfg):
    cfg = normalize_positive(cfg)
    dv = duals(cfg)
    pairs = wedge_pairs(cfg.dim)
    k = len(pairs)
    out = [[Q(0)] * k for _ in range(k)]
    for i, (a, ca) in enumerate(zip(cfg.covectors, cfg.multiplicities)):
        for j, (b, cb) in enumerate(zip(cfg.covectors, cfg.multiplicities)):
            gd = dot(a, dv[j])
            if gd == 0:
                continue
            w = wedge_vector(a, b, pairs)
            for z in range(k):
                if w[z] == 0:
                    continue
                cw = ca * cb * gd * w[z]
                for y in range(k):
                    out[z][y] += cw * w[y]
    return tuple(tuple(r) for r in out)


@pytest.mark.parametrize(
    "spec",
    [
        family_spec("BC", 2, r=1, s=1, q=1),
        family_spec("BC", 3, r=Q(2, 3), s=-1, q=2),
        family_spec("A", 3, t=Q(5, 4)),
        family_spec("F4", r=1, s=2),
        family_spec("G2", p=2, q=Q(1, 3)),
    ],
)
def test_forms_match_literal_sums(spec):
    cfg = generate(spec)
    assert g1(cfg) == brute_g1(cfg)
    assert g2(cfg) == brute_g2(cfg)


def test_g1_examples():
    bc2 = generate(family_spec("BC", 2, r=1, s=1, q=1))
    assert g1(bc2) == ((Q(392),),)
    single = configuration(1, [[1]], [1])
    assert g1(single) == ()
    single2 = configuration(2, [[1, 0]], [3])
    assert g1(single2) == ((Q(0),),)


def test_g2_examples():
    bc2 = generate(family_spec("BC", 2, r=1, s=1, q=1))
    assert g2(bc2) == ((Q(144, 7),),)
    single2 = configuration(2, [[1, 0]], [3])
    assert g2(single2) == ((Q(0),),)


def test_a2_forms_scale():
    # both forms of A2 are multiples of the same rank-1 wedge form; their
    # ratio gives lambda^2 = 4 (N+1)^2 t
    t = Q(1)
    a2 = generate(family_spec("A", 2, t=t))
    assert lambda_sq(a2) == 36 * t
    f1, f2 = g1(a2), g2(a2)
    assert f1 == tuple(tuple(9 * t * x for x in row) for row in f2)
    # absolute normalization: on the basis bivector of the recorded sum-zero
    # basis, the ordered double sum of (e^i ^ e^j)^2 over the three ambient
    # indices evaluates to 24, so the forms are 9t^2 * 24 and t * 24
    assert f1 == ((Q(216) * t * t,),)
    assert f2 == ((Q(24) * t,),)


def test_lambda_sq_examples():
    assert lambda_sq(generate(family_spec("BC", 2, r=1, s=1, q=1))) == Q(686, 9)
    assert lambda_sq(generate(family_spec("E8", t=1))) == 900


def test_lambda_sq_errors():
    with pytest.raises(ZeroG2Error):
        lambda_sq(configuration(2, [[1, 0]], [1]))
    # proportionality is vacuous on a 1-dimensional wedge space, so the
    # failing example needs dim >= 3
    bad = configuration(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 0]], [1, 1, 1, 1])
    with pytest.raises(NotProportionalError):
        lambda_sq(bad)


def test_vee_check_verdicts():
    rng = random.Random(3)
    for _ in range(10):
        r, s, q = (Q(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3))
        cfg = generate(family_spec("BC", 3, r=r, s=s, q=q))
        rep = vee_check(cfg, probe_flips=0)
        assert rep.is_vee

    bad = configuration(2, [[1, 0], [0, 1], [1, 2]], [1, 1, 1])
    rep = vee_check(bad, probe_flips=0)
    assert not rep.is_vee
    assert any(r.residual != 0 for r in rep.series_residuals)

    fd = generate(family_spec("FourDim", r=1, s=4))
    rep = vee_check(fd, probe_flips=0)
    assert rep.is_vee and rep.lambda_sq == 486


def test_vee_report_field_consistency():
    # lambda_sq is present exactly when the forms are proportional with a
    # nonzero second form
    good = vee_check(generate(family_spec("BC", 2, r=1, s=1, q=1)), probe_flips=0)
    assert good.lambda_sq is not None and good.proportionality_ok
    assert good.is_vee == all(r.residual == 0 for r in good.series_residuals)
    assert good.g2_positive_independent is None  # no probe ran, so no claim either way

    nonprop = vee_check(
        configuration(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 0]], [1, 1, 1, 1]),
        probe_flips=0,
    )
    assert nonprop.lambda_sq is None and not nonprop.proportionality_ok

    # dim 1: the wedge space is empty, so both forms vanish and no ratio exists
    zero2 = vee_check(configuration(1, [[1], [2]], [1, 1]), probe_flips=0)
    assert zero2.lambda_sq is None and zero2.proportionality_ok
    assert zero2.is_vee  # no series at all


def test_vee_report_json():
    cfg = generate(family_spec("BC", 2, r=1, s=1, q=1))
    payload = vee_check(cfg, probe_flips=1).to_json_dict()
    assert payload["is_vee"] is True
    assert payload["lambda_sq"] == "686/9"
    assert payload["g2_positive_independent"] is True
    assert "series" in payload


def test_c_delta_warnings_flagged():
    # class {e1, 2e1} with r + 4s = 0 has a vanishing class sum
    cfg = generate(family_spec("BC", 2, r=-4, s=1, q=1))
    rep = vee_check(cfg, probe_flips=0)
    assert any(len(w.subset) == 2 for w in rep.c_delta_warnings)


def test_g2_positive_system_independence():
    for spec in [
        family_spec("BC", 3, r=1, s=2, q=Q(3, 2)),
        family_spec("A", 3, t=2),
        family_spec("G2", p=1, q=2),
        family_spec("FourDim", r=1, s=4),
    ]:
        assert g2_positive_flip_invariant(generate(spec), flips=10, seed=11)


def flip_classes(cfg, class_positions):
    """Negate entire collinearity classes (class indices into collinear_classes)."""
    classes = collinear_classes(cfg)
    flip = {i for p in class_positions for i in classes[p].indices}
    covs = tuple(
        tuple(-x for x in a) if i in flip else a for i, a in enumerate(cfg.covectors)
    )
    return Configuration(cfg.dim, covs, cfg.multiplicities, cfg.name)


def test_g2_changes_on_non_positive_flip():
    # flipping an interior class of A2 leaves a set that is NOT a positive
    # system; the form sum genuinely differs there, which is why probes
    # renormalize against functionals instead
    a2 = generate(family_spec("A", 2, t=1))
    # class of the highest root e1-e3 -> index of covector (2,1)
    classes = [i for i, c in enumerate(a2.covectors)]
    flipped = flip_classes(a2, [1])
    assert _g2_sum(flipped) != _g2_sum(a2)


def random_unimodular(n, rng):
    m = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-1, 1])
        for k in range(n):
            m[i][k] += c * m[j][k]
    return mat(m)


@pytest.mark.parametrize(
    "spec",
    [
        family_spec("BC", 3, r=1, s=1, q=1),
        family_spec("A", 4, t=Q(2, 3)),
        family_spec("G2", p=1, q=1),
        family_spec("F4", r=1, s=1),
    ],
)
def test_lambda_sq_invariant_under_unimodular_change(spec):
    cfg = generate(spec)
    lam = lambda_sq(cfg)
    rng = random.Random(hash(spec.family) % 1000)
    for _ in range(5):
        u = random_unimodular(cfg.dim, rng)
        assert lambda_sq(apply_matrix(cfg, u)) == lam


def test_subsystem_closure_and_isotropy():
    bc3 = generate(family_spec("BC", 3, r=1, s=1, q=Q(1, 2)))
    # span of e1-e2: members are e1-e2 only (2e1-2e2 not in BC3)
    from trigvee.families import covector_index

    i = covector_index(bc3, [1, -1, 0])
    h = subsystem(bc3, [i])
    assert h.member_indices == (i,)
    assert not h.is_isotropic

    full = subsystem(bc3, list(range(len(bc3))))
    assert full.member_indices == tuple(range(len(bc3)))

    e8 = generate(family_spec("E8", t=1))
    d6_simple = []
    for a, b, sign in [(2, 3, -1), (3, 4, -1), (4, 5, -1), (5, 6, -1), (6, 7, -1), (6, 7, 1)]:
        v = [Q(0)] * 8
        v[a], v[b] = Q(1), Q(sign)
        d6_simple.append(covector_index(e8, v))
    h6 = subsystem(e8, d6_simple)
    assert len(h6.member_indices) == 30  # |D6+|


def test_subsystem_isotropic_detection():
    # indefinite gram: the line spanned by an isotropic covector
    cfg = configuration(2, [[1, 0], [0, 1], [1, 1]], [1, 1, -1])
    # G = diag(0,0) off ... compute: G = e1e1 + e2e2 - (e1+e2)(e1+e2) = [[0,-1],[-1,0]]
    h = subsystem(cfg, [0])
    assert h.is_isotropic


def test_m_operator_examples():
    bc3 = generate(family_spec("BC", 3, r=1, s=1, q=1))
    full = subsystem(bc3, list(range(len(bc3))))
    eig = m_operator(bc3, full)
    assert eig.eigenvalues == (Q(1),)

    h = subsystem(bc3, [0])  # span of e1; members {e1, 2e1}
    assert set(h.member_indices) == {0, 3}
    eig = m_operator(bc3, h)
    assert eig.eigenvalues == (Q(5, 9),)  # (r+4s)/h with h=9

    # non-vee configuration with a proper plane subsystem: the member duals
    # are not eigenvectors.  (In dim 2 a two-covector span closes to the whole
    # configuration and M is the identity, so the counterexample needs an
    # ambient third direction with two covectors outside the plane.)
    bad = configuration(
        3,
        [[1, 0, 0], [0, 1, 0], [1, 2, 0], [0, 0, 1], [1, 0, 1]],
        [1, 1, 1, 1, 1],
    )
    assert not vee_check(bad, probe_flips=0).is_vee
    hb = subsystem(bad, [0, 2])
    assert hb.member_indices == (0, 1, 2)
    with pytest.raises(NotEigenError):
        m_operator(bad, hb)


def _gb_matrix(cfg, members):
    n = cfg.dim
    rows = [[Q(0)] * n for _ in range(n)]
    for m in members:
        a, c = cfg.covectors[m], cfg.multiplicities[m]
        for i in range(n):
            for j in range(n):
                rows[i][j] += c * a[i] * a[j]
    return mat(rows)


def test_eigen_decomposition_invariants():
    # identities of the subsystem operator: G_A(u, M v) = G_B(u, v);
    # G_B = lam_i G_A on U_i x V; duals of the standalone subsystem are
    # lam^-1 times parent duals; eigenspaces are G_B-orthogonal
    rng = random.Random(9)
    f4 = generate(family_spec("F4", r=1, s=2))
    ga = gram(f4)
    for _ in range(8):
        k = rng.randint(1, 3)
        span = rng.sample(range(len(f4)), k)
        h = subsystem(f4, span)
        if h.is_isotropic:
            continue
        gb = _gb_matrix(f4, h.member_indices)
        # G_A(u, M(v)) == G_B(u, v)
        for _ in range(4):
            u = vec([rng.randint(-3, 3) for _ in range(4)])
            v = vec([rng.randint(-3, 3) for _ in range(4)])
            assert dot(u, mat_vec(ga, m_apply(f4, h, v))) == dot(u, mat_vec(gb, v))
        eig = m_operator(f4, h)
        # proportionality on U_i x V and nonzero eigenvalues
        for lam, space in zip(eig.eigenvalues, eig.eigenspaces):
            assert lam != 0
            for u in space:
                assert mat_vec(gb, u) == tuple(lam * x for x in mat_vec(ga, u))
        # orthogonality across eigenspaces
        for i in range(len(eig.eigenvalues)):
            for j in range(i + 1, len(eig.eigenvalues)):
                for u in eig.eigenspaces[i]:
                    for v in eig.eigenspaces[j]:
                        assert dot(u, mat_vec(gb, v)) == 0
        # standalone duals scale by lam^-1
        child = extract(f4, h)
        cdv = duals(child)
        eigval = dict(eig.member_eigenvalues)
        dvp = duals(f4)
        basis = h.wdual_basis
        for pos, m in enumerate(h.member_indices):
            # coordinates of the parent dual in the wdual basis
            rowsys = [[basis[j][i] for j in range(len(basis))] for i in range(4)]
            target = dvp[m]
            # solve rowsys * coeff = target exactly
            from trigvee.exactla import rref

            aug = [list(r) + [target[i]] for i, r in enumerate(rowsys)]
            red, piv = rref(aug)
            coeff = [Q(0)] * len(basis)
            for rowi, p in enumerate(piv):
                assert p < len(basis), "parent dual must lie in the dual span"
                coeff[p] = red[rowi][-1]
            expect = tuple(x / eigval[m] for x in coeff)
            assert cdv[pos] == expect


def test_series_agree_between_parent_and_subsystem():
    # the alpha-series of beta computed inside the subsystem equals the one
    # computed in the parent whenever that series lies in the subsystem
    bc4 = generate(family_spec("BC", 4, r=1, s=1, q=1))
    from trigvee.families import covector_index

    span = [covector_index(bc4, [1, -1, 0, 0]), covector_index(bc4, [0, 1, -1, 0])]
    h = subsystem(bc4, span)
    child = extract(bc4, h)
    from trigvee.series import alpha_series

    members = list(h.member_indices)
    member_pos = {m: i for i, m in enumerate(members)}
    for m in members:
        parent_series = alpha_series(bc4, m)
        child_series = alpha_series(child, member_pos[m])
        child_sets = {frozenset(members[i] for i in s) for s in child_series.series}
        for s in parent_series.series:
            if all(i in member_pos for i in s):
                assert frozenset(s) in child_sets


def test_nonisotropic_subsystems_are_vee_systems():
    rng = random.Random(21)
    e8 = generate(family_spec("E8", t=1))
    for _ in range(6):
        span = rng.sample(range(len(e8)), rng.randint(1, 4))
        h = subsystem(e8, span)
        assert not h.is_isotropic  # positive definite gram
        child = extract(e8, h)
        assert all(r.residual == 0 for r in vee_residuals(child))
