import math
from fractions import Fraction as Q

import numpy as np
import pytest

from trigvee.configuration import configuration
from trigvee.families import family_spec, generate
from trigvee.veesystem import lambda_sq
from trigvee.wdvv import (
    PoleTooCloseError,
    SamplePoint,
    _lambda_from_sq,
    associativity_residual,
    base_form,
    float_view,
    product,
    sample_points,
    third_derivs,
    wdvv_residual,
)


def trig_second_derivs(cfg, lam, x):
    """Second derivatives of the trig part: lam * sum c_a a_i a_j log|sin a(x)|.

    Central finite differences of this matrix reproduce the trig third
    derivatives.
    """
    av, c, _ = float_view(cfg)
    logs = np.log(np.abs(np.sin(av @ np.asarray(x))))
    return lam * (av.T * (c * logs)) @ av


def test_third_derivs_single_covector_hand_expansion():
    c = 3.0
    cfg = configuration(1, [[1]], [3])
    pt = SamplePoint((0.7,), abs(math.sin(0.7)))
    lam = 2.0
    f1, f2 = third_derivs(cfg, complex(lam), pt)
    cot = math.cos(0.7) / math.sin(0.7)
    assert abs(f1[0, 0] - lam * c * cot) < 1e-12
    assert abs(f1[0, 1] - 2 * c) < 1e-12 and abs(f1[1, 0] - 2 * c) < 1e-12
    assert f1[1, 1] == 0
    assert np.allclose(f2, np.diag([2 * c, 2.0]))


def test_base_form_block_structure():
    cfg = generate(family_spec("BC", 2, r=1, s=1, q=1))
    f = base_form(cfg)
    assert np.allclose(f, np.diag([14.0, 14.0, 2.0]))  # 2 * blockdiag(gram, 1)


def test_zero_multiplicity_config_base_form():
    cfg = configuration(2, [[1, 0], [0, 1]], [0, 1])
    f = base_form(cfg)
    assert np.allclose(f, np.diag([0.0, 2.0, 2.0]))


def test_finite_difference_validates_trig_derivatives():
    cfg = generate(family_spec("BC", 2, r=1, s=Q(1, 2), q=2))
    lam = float(np.sqrt(float(lambda_sq(cfg))))
    rng = np.random.default_rng(3)
    pts = sample_points(cfg, 5, 9)
    h = 1e-6
    for pt in pts:
        x = np.array(pt.x)
        mats = third_derivs(cfg, complex(lam), pt)
        for i in range(cfg.dim):
            e = np.zeros(cfg.dim)
            e[i] = h
            fd = (trig_second_derivs(cfg, lam, x + e) - trig_second_derivs(cfg, lam, x - e)) / (2 * h)
            an = mats[i][: cfg.dim, : cfg.dim].real
            assert np.max(np.abs(fd - an)) / (1 + np.max(np.abs(an))) < 1e-6


def test_wdvv_residual_families_pass():
    bc3 = generate(family_spec("BC", 3, r=1, s=1, q=1))
    rep = wdvv_residual(bc3, lambda_sq(bc3), points=20, seed=42, tol=1e-8)
    assert rep.passed

    # wrong lambda breaks it
    rep_bad = wdvv_residual(bc3, lambda_sq(bc3) + 1, points=5, seed=42, tol=1e-8)
    assert rep_bad.max_residual > 1e-4


def test_wdvv_residual_counterexample_fails():
    bad = configuration(2, [[1, 0], [0, 1], [1, 2]], [1, 1, 1])
    rep = wdvv_residual(bad, 1, points=20, seed=42, tol=1e-8)
    assert rep.max_residual > 1e-3


def test_wdvv_dim1_trivially_zero():
    cfg = configuration(1, [[1], [2]], [1, 2])
    rep = wdvv_residual(cfg, 7, points=5, seed=1, tol=1e-12)
    assert rep.max_residual == 0.0


def test_product_identity_and_commutativity():
    cfg = generate(family_spec("BC", 2, r=1, s=1, q=1))
    lam = _lambda_from_sq(lambda_sq(cfg))
    (pt,) = sample_points(cfg, 1, 11)
    rng = np.random.default_rng(0)
    e = np.zeros(3)
    e[2] = 1.0
    for _ in range(5):
        v = rng.uniform(-1, 1, 3)
        assert np.max(np.abs(product(cfg, lam, pt, e, v) - v)) < 1e-12
        a, b = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        assert np.max(np.abs(product(cfg, lam, pt, a, b) - product(cfg, lam, pt, b, a))) < 1e-13


def test_product_single_covector_formula():
    c = 2.0
    cfg = configuration(1, [[1]], [2])
    lam = 3.0
    (pt,) = sample_points(cfg, 1, 2)
    a = np.array([1.0, 0.0])
    out = product(cfg, complex(lam), pt, a, a)
    cot = math.cos(pt.x[0]) / math.sin(pt.x[0])
    # alpha-vee = e_1 / c, so the V-part is (lam/2) cot(x); the E part is c
    assert abs(out[0] - lam / 2 * cot) < 1e-12
    assert abs(out[1] - c) < 1e-12


def test_product_with_zero_vector_vanishes():
    cfg = configuration(2, [[1, 0], [0, 1]], [Q(1), Q(1)])
    (pt,) = sample_points(cfg, 1, 3)
    a = np.array([1.0, 1.0, 0.0])
    z = np.zeros(3)
    out = product(cfg, complex(1.0), pt, a, z)
    assert np.max(np.abs(out)) == 0.0


def test_all_zero_multiplicities_matrices():
    cfg = configuration(2, [[1, 0], [0, 1]], [0, 0])
    pt = SamplePoint((0.4, 0.9), 1.0)
    mats = third_derivs(cfg, complex(1.0), pt)
    assert np.allclose(mats[0], 0) and np.allclose(mats[1], 0)
    assert np.allclose(mats[2], np.diag([0.0, 0.0, 2.0]))
    # the product of plain vectors vanishes when every weight is zero
    a = np.array([1.0, -2.0, 0.0])
    assert np.max(np.abs(product(cfg, complex(1.0), pt, a, a))) == 0.0


def test_associativity_agrees_with_wdvv():
    for spec, good in [
        (family_spec("BC", 2, r=1, s=1, q=1), True),
        (family_spec("A", 3, t=2), True),
    ]:
        cfg = generate(spec)
        lam = lambda_sq(cfg)
        rep = associativity_residual(cfg, lam, points=8, seed=42, tol=1e-8)
        assert rep.passed is good
        assert rep.agrees_with_wdvv

    bad = configuration(2, [[1, 0], [0, 1], [1, 2]], [1, 1, 1])
    rep = associativity_residual(bad, 1, points=8, seed=42, tol=1e-8)
    assert not rep.passed and rep.max_residual > 1e-3
    assert rep.agrees_with_wdvv


def test_associativity_shares_points_with_commutator_check(monkeypatch):
    import trigvee.wdvv as wdvv_mod

    calls = []

    def counting(cfg, points, seed):
        calls.append((points, seed))
        return sample_points(cfg, points, seed)

    monkeypatch.setattr(wdvv_mod, "sample_points", counting)
    for cfg, lam in [
        (generate(family_spec("BC", 2, r=1, s=1, q=1)), None),
        (configuration(2, [[1, 0], [0, 1], [1, 2]], [1, 1, 1]), 1),
    ]:
        lam = lambda_sq(cfg) if lam is None else lam
        calls.clear()
        rep = associativity_residual(cfg, lam, points=6, seed=5, tol=1e-8)
        assert calls == [(6, 5)]
        wd = wdvv_residual(cfg, lam, points=6, seed=5, tol=1e-8)
        assert rep.wdvv_max_residual == wd.max_residual
        assert rep.agrees_with_wdvv == (rep.passed == wd.passed)


def test_associativity_lambda_perturbation_detected():
    cfg = generate(family_spec("BC", 2, r=1, s=1, q=1))
    rep = associativity_residual(cfg, lambda_sq(cfg) + 1, points=8, seed=42, tol=1e-8)
    assert rep.max_residual > 1e-4


def test_negative_lambda_sq_uses_principal_complex_root():
    cfg = generate(family_spec("Planar9", a=1, b=-1))
    lam = lambda_sq(cfg)
    assert lam < 0
    rep = wdvv_residual(cfg, lam, points=10, seed=7, tol=1e-8)
    assert rep.passed


def test_pole_guard():
    cfg = configuration(1, [[1]], [1])
    pt = SamplePoint((1e-9,), abs(math.sin(1e-9)))
    with pytest.raises(PoleTooCloseError):
        third_derivs(cfg, complex(1.0), pt)
    with pytest.raises(PoleTooCloseError):
        product(cfg, complex(1.0), pt, np.array([1.0, 0]), np.array([1.0, 0]))


def test_sample_points_seeded_and_guarded():
    cfg = generate(family_spec("BC", 2, r=1, s=1, q=1))
    p1 = sample_points(cfg, 6, 42)
    p2 = sample_points(cfg, 6, 42)
    assert [p.x for p in p1] == [p.x for p in p2]
    assert all(p.min_sine >= 1 / 20 for p in p1)


@pytest.mark.parametrize("points", [0, -1])
def test_no_points_is_an_error(points):
    cfg = generate(family_spec("BC", 2, r=1, s=1, q=1))
    with pytest.raises(ValueError):
        sample_points(cfg, points, 42)
    with pytest.raises(ValueError):
        wdvv_residual(cfg, lambda_sq(cfg), points=points)
    with pytest.raises(ValueError):
        associativity_residual(cfg, lambda_sq(cfg), points=points)
