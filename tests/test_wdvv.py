import glob
import importlib.util
import json
import math
import os
import sys
import tracemalloc
from fractions import Fraction as Q

import numpy as np
import pytest

from trigvee.configuration import configuration, from_json_dict
from trigvee.families import family_spec, generate
from trigvee.veesystem import lambda_sq
from trigvee.wdvv import (
    POLE_GUARD,
    PoleTooCloseError,
    _commutator_residual,
    _cot,
    _lambda_from_sq,
    associativity_residual,
    base_form,
    float_cubes,
    float_duals,
    float_view,
    product,
    sample_points,
    third_derivs,
    wdvv_residual,
)

_PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


# --- per-draw, per-matrix and per-call oracles for the whole-array verifier ---


def oracle_sample_points(cfg, points, seed):
    """One candidate per draw, tested on its own: the (points, N) array of the
    accepted points and the array of their smallest |sin a(x)|."""
    rng = np.random.default_rng(seed)
    av = float_view(cfg).covectors
    xs, sines = [], []
    tries = 0
    while len(xs) < points:
        tries += 1
        if tries > 1000 * points:
            raise PoleTooCloseError("could not find enough pole-free sample points")
        x = rng.uniform(-2.0, 2.0, cfg.dim)
        ms = float(np.min(np.abs(np.sin(av @ x)))) if len(cfg) else 1.0
        if ms >= POLE_GUARD:
            xs.append(x)
            sines.append(ms)
    return np.array(xs), np.array(sines)


def oracle_block_sample_points(cfg, points, seed):
    """Blocks of ``points`` candidates, each tested on every covector at once:
    the accepted points and their smallest |sin a(x)|, as ``oracle_sample_points``."""
    rng = np.random.default_rng(seed)
    av = float_view(cfg).covectors
    xs, sines = np.empty((0, cfg.dim)), np.empty(0)
    for _ in range(1000):
        block = rng.uniform(-2.0, 2.0, (points, cfg.dim))
        ms = np.abs(np.sin(block @ av.T)).min(axis=1, initial=1.0)
        keep = np.flatnonzero(ms >= POLE_GUARD)[: points - len(xs)]
        xs, sines = np.concatenate([xs, block[keep]]), np.concatenate([sines, ms[keep]])
        if len(xs) == points:
            return xs, sines
    raise PoleTooCloseError("could not find enough pole-free sample points")


def oracle_third_derivs(cfg, lam, pt):
    """The N+1 matrices one by one, with their own float Gram form."""
    n = cfg.dim
    av, c, _ = float_view(cfg)
    cot = _cot(cfg, pt)
    gm = (av.T * c) @ av
    dtype = complex if isinstance(lam, complex) and lam.imag != 0 else float
    lam_ = lam if dtype is complex else lam.real
    trig = np.einsum("a,a,ai,ap,aq->ipq", c, cot, av, av, av)
    mats = []
    for i in range(n):
        f = np.zeros((n + 1, n + 1), dtype=dtype)
        f[:n, :n] = lam_ * trig[i]
        f[:n, n] = 2.0 * gm[i]
        f[n, :n] = 2.0 * gm[i]
        mats.append(f)
    mats.append(base_form(cfg).astype(dtype))
    return mats


def oracle_commutator_residual(cfg, lam, pts):
    """One commutator F_i B^-1 F_j - F_j B^-1 F_i per pair and point."""
    binv = np.linalg.inv(base_form(cfg))
    binv_norm = np.linalg.norm(binv)
    worst = 0.0
    n = cfg.dim
    for pt in pts:
        mats = oracle_third_derivs(cfg, lam, pt)
        prods = [m @ binv for m in mats[:n]]
        norms = [np.linalg.norm(m) for m in mats[:n]]
        for i in range(n):
            for j in range(i + 1, n):
                comm = prods[i] @ mats[j] - prods[j] @ mats[i]
                scale = 1.0 + norms[i] * binv_norm * norms[j]
                worst = max(worst, float(np.linalg.norm(comm)) / scale)
    return worst


def oracle_product(cfg, lam, pt, a, b):
    """The product of two single vectors, its cotangents computed per call."""
    n = cfg.dim
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    av, c, _ = float_view(cfg)
    cot = _cot(cfg, pt)
    coef = c * (av @ a[:n]) * (av @ b[:n])
    out = np.zeros(n + 1, dtype=complex)
    if np.any(coef):
        out[:n] = (lam / 2.0) * (coef * cot) @ float_duals(cfg)
    out[n] = coef.sum()
    out += b[n] * np.concatenate([a[:n], [0.0]])
    out += a[n] * np.concatenate([b[:n], [0.0]])
    out[n] += a[n] * b[n]
    return out


def oracle_associativity(cfg, lam, pts, seed, triples):
    """Four ``oracle_product`` calls per triple, three draws per triple."""
    rng = np.random.default_rng(seed + 1)
    n = cfg.dim
    worst = 0.0
    for pt in pts:
        for _ in range(triples):
            a, b, cc = (rng.uniform(-1.0, 1.0, n + 1) for _ in range(3))
            ab = oracle_product(cfg, lam, pt, a, b)
            bc = oracle_product(cfg, lam, pt, b, cc)
            lhs = oracle_product(cfg, lam, pt, ab, cc)
            rhs = oracle_product(cfg, lam, pt, a, bc)
            scale = 1.0 + np.linalg.norm(ab) * np.linalg.norm(cc) + np.linalg.norm(bc) * np.linalg.norm(a)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)) / scale)
    return worst


def _benchmark_inputs():
    """(stem, configuration, sample count) of every benchmark input; the broken
    D8 uses the count of D8."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(_PERFBENCH, "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks its module up there
    spec.loader.exec_module(workloads)
    out = []
    for path in sorted(glob.glob(os.path.join(_PERFBENCH, "inputs", "*.json"))):
        stem = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            cfg = from_json_dict(json.load(fh))
        out.append((stem, cfg, workloads.WDVV_SAMPLES[stem.split("_")[0]]))
    return out


_INPUTS = _benchmark_inputs()
_CONFIGS = {stem: cfg for stem, cfg, _ in _INPUTS}


@pytest.mark.parametrize("seed", [1, 2, 42])
@pytest.mark.parametrize("stem,cfg,points", _INPUTS, ids=[i[0] for i in _INPUTS])
def test_sample_points_match_per_draw_oracle(stem, cfg, points, seed):
    got = sample_points(cfg, points, seed)
    assert got.dtype == np.float64 and got.shape == (points, cfg.dim)
    assert not got.flags.writeable
    assert got.tobytes() == oracle_sample_points(cfg, points, seed)[0].tobytes()
    # the sine-free screen changes no bit: the same block product, the same sines
    assert got.tobytes() == oracle_block_sample_points(cfg, points, seed)[0].tobytes()


def _patch_guard(monkeypatch, guard):
    """Set POLE_GUARD for ``sample_points`` and for the oracles of this module."""
    import trigvee.wdvv as wdvv_mod

    monkeypatch.setattr(wdvv_mod, "POLE_GUARD", guard)
    monkeypatch.setitem(globals(), "POLE_GUARD", guard)


# E8 with every covector scaled by 10^6: |a(x)| reaches about 10^7, where the
# reduction of a(x) by multiples of pi rounds by about 10^-9
_E8_BIG = configuration(
    8, [[a * 10**6 for a in cov] for cov in _CONFIGS["E8"].covectors], _CONFIGS["E8"].multiplicities
)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_screen_is_sound_on_large_covectors(monkeypatch, seed):
    got = sample_points(_E8_BIG, 40, seed)
    assert got.tobytes() == oracle_sample_points(_E8_BIG, 40, seed)[0].tobytes()
    want, sines = oracle_block_sample_points(_E8_BIG, 40, seed)
    assert got.tobytes() == want.tobytes()
    # a guard equal to an accepted point's smallest sine puts that point on the
    # boundary, where the screen keeps it only if its margin covers the rounding;
    # the sines are the block oracle's, since at |a(x)| near 10^7 the per-draw
    # matrix-vector product rounds a(x) differently from the sampler's block product
    for i in np.argsort(sines, kind="stable")[:5]:
        _patch_guard(monkeypatch, float(sines[i]))
        points = int(np.count_nonzero(sines[: i + 1] >= sines[i]))
        on_guard = sample_points(_E8_BIG, points, seed)
        assert on_guard[-1].tobytes() == got[i].tobytes()
        assert on_guard.tobytes() == oracle_block_sample_points(_E8_BIG, points, seed)[0].tobytes()


@pytest.mark.parametrize(
    "guard,raised",
    [(0.3, {False}), (0.57, {False, True}), (0.58, {False, True}), (0.6, {True}), (1.5, {True})],
    ids=["common", "rare", "rarer", "none", "above-one"],
)
def test_acceptance_agrees_with_per_draw_oracle(monkeypatch, guard, raised):
    # BC2 accepts every seed at 0.3, some within 1000 * points candidates at 0.57
    # and 0.58, and none from 0.6 on; the blocks' sizes follow the acceptance rate
    cfg = generate(family_spec("BC", 2, r=1, s=1, q=1))
    _patch_guard(monkeypatch, guard)
    outcomes = set()
    for seed in range(8):
        for points in (1, 2, 3):
            try:
                got = sample_points(cfg, points, seed).tobytes()
            except PoleTooCloseError:
                got = None
            try:
                want = oracle_sample_points(cfg, points, seed)[0].tobytes()
            except PoleTooCloseError:
                want = None
            assert got == want, (seed, points)
            outcomes.add(got is None)
    assert outcomes == raised


def test_sample_points_memory_is_bounded():
    cfg = _CONFIGS["E8"]
    float_view(cfg)
    tracemalloc.start()
    try:
        sample_points(cfg, 2000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 2000 points themselves take about 0.8 MB; blocks of 2000 candidates,
    # the earlier rule, peaked near 5 MB
    assert peak < 3e6


def test_sample_points_hold_one_array():
    # 20,000 F4 points are 0.64 MB as one float64 array; as one record and one
    # tuple of floats per point they held about 5.5 MB
    cfg = _CONFIGS["F4"]
    sample_points(cfg, 1, 1)  # the float view, and the modules the generator imports on first use
    tracemalloc.start()
    try:
        pts = sample_points(cfg, 20000, 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1e6
    assert pts.shape == (20000, cfg.dim)


@pytest.mark.parametrize("stem,cfg,points", _INPUTS, ids=[i[0] for i in _INPUTS])
def test_residuals_match_per_pair_and_per_call_oracles(stem, cfg, points):
    # D8_broken is no vee-system; it is checked at the lambda^2 of D8
    lam_sq = lambda_sq(_CONFIGS[stem.split("_")[0]])
    lam = _lambda_from_sq(lam_sq)
    pts = sample_points(cfg, 12, 5)
    got = associativity_residual(cfg, lam_sq, points=12, seed=5, triples=3)
    assert abs(got.wdvv_max_residual - oracle_commutator_residual(cfg, lam, pts)) < 1e-10
    assert abs(got.max_residual - oracle_associativity(cfg, lam, pts, 5, 3)) < 1e-10
    assert got.wdvv_max_residual == wdvv_residual(cfg, lam_sq, points=12, seed=5).max_residual


@pytest.mark.parametrize("cells", [1, 1 << 40], ids=["point-per-chunk", "one-chunk"])
@pytest.mark.parametrize("case", ["E8", "D8_broken", "Planar9"])
def test_residuals_match_oracles_at_both_chunk_extremes(monkeypatch, case, cells):
    import trigvee.wdvv as wdvv_mod

    monkeypatch.setattr(wdvv_mod, "CHUNK_CELLS", cells)
    if case == "Planar9":  # lambda^2 < 0: complex third derivatives
        cfg = generate(family_spec("Planar9", a=1, b=-1))
        lam_sq = lambda_sq(cfg)
    else:
        cfg, lam_sq = _CONFIGS[case], lambda_sq(_CONFIGS[case.split("_")[0]])
    lam = complex(_lambda_from_sq(lam_sq))
    pts = sample_points(cfg, 9, 6)
    got = associativity_residual(cfg, lam_sq, points=9, seed=6, triples=2)
    assert abs(got.wdvv_max_residual - oracle_commutator_residual(cfg, lam, pts)) < 1e-10
    assert abs(got.max_residual - oracle_associativity(cfg, lam, pts, 6, 2)) < 1e-10


def test_pole_in_the_middle_of_a_chunk_fails_both_residuals(monkeypatch):
    import trigvee.wdvv as wdvv_mod

    monkeypatch.setattr(wdvv_mod, "CHUNK_CELLS", 1 << 40)  # one chunk holds every point
    cfg = generate(family_spec("BC", 3, r=1, s=1, q=1))
    lam_sq = lambda_sq(cfg)
    good = sample_points(cfg, 6, 3)
    pts = np.insert(good, 3, 1e-9, axis=0)
    with pytest.raises(PoleTooCloseError):
        _commutator_residual(cfg, _lambda_from_sq(lam_sq), pts)
    monkeypatch.setattr(wdvv_mod, "sample_points", lambda cfg, points, seed: pts)
    with pytest.raises(PoleTooCloseError):
        associativity_residual(cfg, lam_sq, points=len(pts), seed=3)


def test_residuals_match_oracles_for_negative_lambda_sq():
    cfg = generate(family_spec("Planar9", a=1, b=-1))
    lam_sq = lambda_sq(cfg)
    lam = _lambda_from_sq(lam_sq)
    assert lam_sq < 0 and lam.imag != 0
    pts = sample_points(cfg, 8, 7)
    got = associativity_residual(cfg, lam_sq, points=8, seed=7)
    assert abs(got.wdvv_max_residual - oracle_commutator_residual(cfg, complex(lam), pts)) < 1e-10
    assert abs(got.max_residual - oracle_associativity(cfg, complex(lam), pts, 7, 4)) < 1e-10
    # a perturbed lambda gives residuals far from zero, and they still agree
    off = _lambda_from_sq(lam_sq - 1)
    assert abs(_commutator_residual(cfg, off, pts) - oracle_commutator_residual(cfg, complex(off), pts)) < 1e-10


@pytest.mark.parametrize("lam_sq", [Q(3, 2), Q(-5, 4)])
def test_product_of_single_vectors_matches_per_call_oracle(lam_sq):
    cfg = generate(family_spec("BC", 3, r=1, s=Q(1, 2), q=2))
    lam = _lambda_from_sq(lam_sq)
    rng = np.random.default_rng(8)
    for pt in sample_points(cfg, 4, 9):
        a, b = rng.uniform(-1, 1, (2, cfg.dim + 1))
        b = b + 0.5j * rng.uniform(-1, 1, cfg.dim + 1)
        got = product(cfg, lam, pt, a, b)
        want = oracle_product(cfg, complex(lam), pt, a, b)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12 * (1 + np.max(np.abs(want)))


def test_third_derivs_match_per_matrix_oracle():
    cfg = generate(family_spec("BC", 3, r=1, s=Q(1, 2), q=2))
    for lam in (_lambda_from_sq(lambda_sq(cfg)), _lambda_from_sq(-2)):
        for pt in sample_points(cfg, 3, 4):
            got = third_derivs(cfg, lam, pt)
            want = np.stack(oracle_third_derivs(cfg, complex(lam), pt))
            assert got.shape == (cfg.dim + 1,) * 3 and got.dtype == want.dtype
            assert np.max(np.abs(got - want)) < 1e-12 * (1 + np.max(np.abs(want)))


def test_third_derivs_of_one_point_is_its_row_of_a_chunk():
    cfg = generate(family_spec("BC", 3, r=1, s=Q(1, 2), q=2))
    assert not float_cubes(cfg).flags.writeable
    xs = sample_points(cfg, 5, 4)
    for lam in (_lambda_from_sq(lambda_sq(cfg)), _lambda_from_sq(-2)):
        stack = third_derivs(cfg, lam, xs)
        assert stack.shape == (len(xs),) + (cfg.dim + 1,) * 3
        for pt, row in zip(xs, stack):
            # one point is a vector-matrix product, a chunk a matrix product: equal to rounding
            one = third_derivs(cfg, lam, pt)
            assert one.dtype == row.dtype
            assert np.max(np.abs(one - row)) < 1e-12 * (1 + np.max(np.abs(row)))


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
    pt = np.array([0.7])
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
    for x in pts:
        mats = third_derivs(cfg, complex(lam), x)
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
    cot = math.cos(pt[0]) / math.sin(pt[0])
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
    pt = np.array([0.4, 0.9])
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
    pt = np.array([1e-9])
    with pytest.raises(PoleTooCloseError):
        third_derivs(cfg, complex(1.0), pt)
    with pytest.raises(PoleTooCloseError):
        product(cfg, complex(1.0), pt, np.array([1.0, 0]), np.array([1.0, 0]))


def test_sample_points_seeded_and_guarded():
    cfg = generate(family_spec("BC", 2, r=1, s=1, q=1))
    p1 = sample_points(cfg, 6, 42)
    p2 = sample_points(cfg, 6, 42)
    assert p1.tobytes() == p2.tobytes()
    want, sines = oracle_sample_points(cfg, 6, 42)
    assert p1.tobytes() == want.tobytes()
    assert np.all(sines >= 1 / 20)


@pytest.mark.parametrize("points", [0, -1])
def test_no_points_is_an_error(points):
    cfg = generate(family_spec("BC", 2, r=1, s=1, q=1))
    with pytest.raises(ValueError):
        sample_points(cfg, points, 42)
    with pytest.raises(ValueError):
        wdvv_residual(cfg, lambda_sq(cfg), points=points)
    with pytest.raises(ValueError):
        associativity_residual(cfg, lambda_sq(cfg), points=points)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_bad_tolerance_is_an_error(tol):
    cfg = generate(family_spec("BC", 2, r=1, s=1, q=1))
    with pytest.raises(ValueError, match="tolerance"):
        wdvv_residual(cfg, lambda_sq(cfg), points=3, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        associativity_residual(cfg, lambda_sq(cfg), points=3, tol=tol)


@pytest.mark.parametrize("triples", [0, -2])
def test_no_triples_is_an_error(triples):
    # with no triples the associativity residual was 0.0 and passed, even at a
    # wrong lambda^2 whose commutator residual is large
    cfg = generate(family_spec("F4", r=1, s=1))
    with pytest.raises(ValueError, match="triples"):
        associativity_residual(cfg, lambda_sq(cfg) + 7, points=3, triples=triples)
