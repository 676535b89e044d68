import random
from fractions import Fraction as Q

import pytest

from trigvee.configuration import gram
from trigvee.exactla import identity, mat_scale
from trigvee.families import family_spec, generate
from trigvee.gamma import (
    NoATableError,
    classify_and_h,
    gamma_sq_direct,
    gamma_tilde_sq,
    gamma_tilde_sq_dual,
    root_data,
)


def test_highest_root_values():
    assert gamma_tilde_sq(root_data("B", 3), {"short": 1, "long": 1}) == -2
    assert gamma_tilde_sq(root_data("G2"), {"short": 1, "long": 1}) == -3
    assert gamma_tilde_sq(root_data("A", 2), {"all": 1}) == Q(-3, 4)
    assert gamma_tilde_sq(root_data("C", 3), {"short": 1, "long": 1}) == -3
    assert gamma_tilde_sq(root_data("F4"), {"short": 1, "long": 1}) == -6


def test_closed_forms_symbolic_points():
    rng = random.Random(8)
    for _ in range(6):
        p = Q(rng.randint(1, 9), rng.randint(1, 9))
        q = Q(rng.randint(1, 9), rng.randint(1, 9))
        for n in range(2, 6):
            assert gamma_tilde_sq(root_data("B", n), {"short": p, "long": q}) == -q * (p + (n - 2) * q)
            assert gamma_tilde_sq(root_data("C", n), {"short": p, "long": q}) == -p * (2 * q + (n - 2) * p)
        assert gamma_tilde_sq(root_data("F4"), {"short": p, "long": q}) == -(p + q) * (p + 2 * q)
        assert gamma_tilde_sq(root_data("G2"), {"short": p, "long": q}) == -Q(3, 8) * (p + q) * (p + 3 * q)


def test_dual_formula_agrees():
    rng = random.Random(13)
    families = [("B", 2), ("B", 3), ("B", 4), ("B", 5), ("C", 2), ("C", 3), ("C", 4), ("C", 5), ("F4", None), ("G2", None)]
    for fam, n in families:
        rd = root_data(fam, n)
        for _ in range(5):
            mult = {"short": Q(rng.randint(1, 9), rng.randint(1, 9)), "long": Q(rng.randint(1, 9), rng.randint(1, 9))}
            assert gamma_tilde_sq(rd, mult) == gamma_tilde_sq_dual(rd, mult)
    for fam, n in [("A", 2), ("A", 5), ("D", 4), ("D", 5), ("E6", None), ("E7", None), ("E8", None)]:
        rd = root_data(fam, n)
        for _ in range(3):
            mult = {"all": Q(rng.randint(1, 9), rng.randint(1, 9))}
            assert gamma_tilde_sq(rd, mult) == gamma_tilde_sq_dual(rd, mult)


def test_no_a_table_errors():
    with pytest.raises(NoATableError):
        gamma_tilde_sq(root_data("A", 3), {"short": 1, "long": 2})
    with pytest.raises(NoATableError):
        gamma_tilde_sq(root_data("BC", 3), {"short": 1, "long": 2})


def test_direct_route_closed_forms():
    rng = random.Random(17)
    for _ in range(4):
        r, s, q = (Q(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3))
        for n in (2, 3, 4):
            cfg = generate(family_spec("BC", n, r=r, s=s, q=q))
            got = gamma_sq_direct(cfg, root_data("BC", n))
            assert got == -2 * q * (r + 8 * s + 2 * (n - 2) * q)
        f4 = generate(family_spec("F4", r=r, s=s))
        assert gamma_sq_direct(f4, root_data("F4")) == -(s + 2 * r) * (s + 4 * r)
        p, q2 = r, s
        g2 = generate(family_spec("G2", p=p, q=q2))
        assert gamma_sq_direct(g2, root_data("G2")) == -Q(3, 8) * (p + 3 * q2) * (p + 9 * q2)


def test_gamma_tilde_consistency_with_direct_route():
    # gamma-tilde for multiplicity c equals the direct constant of the
    # configuration weighted by d_a = c_a / <a,a>
    rng = random.Random(23)
    for _ in range(3):
        p = Q(rng.randint(1, 9), rng.randint(1, 9))
        q = Q(rng.randint(1, 9), rng.randint(1, 9))
        mult = {"short": p, "long": q}
        cases = [
            ("B", 3, family_spec("B", 3, p=p, q=q / 2)),
            ("B", 4, family_spec("B", 4, p=p, q=q / 2)),
            ("C", 3, family_spec("C", 3, p=p / 2, q=q / 4)),
            ("F4", None, family_spec("F4", r=q / 2, s=p)),
            ("G2", None, family_spec("G2", p=p, q=q / 3)),
        ]
        for fam, n, spec in cases:
            rd = root_data(fam, n)
            assert gamma_tilde_sq(rd, mult) == gamma_sq_direct(generate(spec), rd)
    # simply-laced at constant multiplicity: d = t/2
    for fam, n in [("A", 3), ("D", 4), ("E6", None)]:
        t = Q(rng.randint(1, 5))
        rd = root_data(fam, n)
        spec = family_spec(fam, n, t=t / 2)
        assert gamma_tilde_sq(rd, {"all": t}) == gamma_sq_direct(generate(spec), rd)


def census_h(cfg, rd, class_mults):
    """h = (1/N) sum over census classes of mult * count * norm^2."""
    return sum(Q(class_mults[cls.label]) * cls.count * cls.norm_sq for cls in rd.census) / rd.rank


def test_census_trace_identity_against_gram():
    # h from the census equals the Gram factor in standard coordinates
    rng = random.Random(31)
    for _ in range(3):
        p = Q(rng.randint(1, 9), rng.randint(1, 9))
        q = Q(rng.randint(1, 9), rng.randint(1, 9))
        b3 = generate(family_spec("B", 3, p=p, q=q))
        h = census_h(b3, root_data("B", 3), {"short": p, "long": q})
        assert gram(b3) == mat_scale(h, identity(3))
        assert classify_and_h(b3, root_data("B", 3))[0] == h
        c3 = generate(family_spec("C", 3, p=p, q=q))
        h = census_h(c3, root_data("C", 3), {"short": p, "long": q})
        assert gram(c3) == mat_scale(h, identity(3))
        f4 = generate(family_spec("F4", r=p, s=q))
        h = census_h(f4, root_data("F4"), {"short": q, "long": p})
        assert gram(f4) == mat_scale(h, identity(4))
        assert classify_and_h(f4, root_data("F4"))[0] == h


def test_classification_works_in_reexpressed_realizations():
    # G2 lives in a skew basis; the census classification is intrinsic
    g2 = generate(family_spec("G2", p=3, q=5))
    h, labels = classify_and_h(g2, root_data("G2"))
    assert h == Q(3 * 3 + 9 * 5, 2)
    counts = {"short": 0, "long": 0}
    for i in labels:
        counts[labels[i]] += 1
    assert counts == {"short": 3, "long": 3}
