import random
from fractions import Fraction as Q
from itertools import permutations, product

import pytest

from trigvee.configuration import configuration, duals, gram
from trigvee.exactla import SingularMatrixError, dot, identity, mat_scale
from trigvee.families import family_spec, generate
from trigvee.gamma import (
    ClassificationError,
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


def test_negative_and_mixed_sign_gram_factors():
    # h < 0 when every multiplicity is negative; mixed signs leave h nonzero
    for p, q in [(-1, -1), (Q(-2, 3), -5), (-3, 2), (5, -1)]:
        cases = [
            (generate(family_spec("B", 3, p=p, q=q)), root_data("B", 3), {"short": p, "long": q}),
            (generate(family_spec("C", 3, p=p, q=q)), root_data("C", 3), {"short": p, "long": q}),
            (generate(family_spec("F4", r=q, s=p)), root_data("F4"), {"short": p, "long": q}),
        ]
        for cfg, rd, class_mults in cases:
            h = census_h(cfg, rd, class_mults)
            assert h != 0 and gram(cfg) == mat_scale(h, identity(rd.rank))
            got, labels = classify_and_h(cfg, rd)
            assert got == h
            # standard coordinates: each covector's label names its Euclidean norm
            norms = {cls.label: cls.norm_sq for cls in rd.census}
            assert all(norms[labels[i]] == dot(a, a) for i, a in enumerate(cfg.covectors))
        g2 = generate(family_spec("G2", p=p, q=q))
        h, labels = classify_and_h(g2, root_data("G2"))
        assert h == Q(3 * p + 9 * q, 2)
        assert sorted(labels.values()) == ["long"] * 3 + ["short"] * 3


def test_classification_errors():
    # G2 has two norm classes, A2 one
    with pytest.raises(ClassificationError, match="2 norm classes, census has 1"):
        classify_and_h(generate(family_spec("G2", p=1, q=1)), root_data("A", 2))
    # F4 has 12 + 12 covectors, B3 a census of 3 + 6
    with pytest.raises(ClassificationError, match="do not match the census"):
        classify_and_h(generate(family_spec("F4", r=1, s=1)), root_data("B", 3))


def _search_classify_and_h(cfg, rd):
    """The census assignment by trying every permutation of the census."""
    dv = duals(cfg)
    values = {}
    for i, a in enumerate(cfg.covectors):
        values.setdefault(dot(a, dv[i]), []).append(i)
    groups = sorted(values.items())
    census = sorted(rd.census, key=lambda c: (c.count, c.norm_sq))
    if len(groups) != len(census):
        raise ClassificationError("norm class count")
    valid = []
    for perm in permutations(range(len(census))):
        h = None
        ok = True
        for (v, idxs), ci in zip(groups, perm):
            cls = census[ci]
            if cls.count != len(idxs):
                ok = False
                break
            hc = cls.norm_sq / v
            if h is None:
                h = hc
            elif hc != h:
                ok = False
                break
        if ok:
            valid.append((h, {i: census[ci].label for (v, idxs), ci in zip(groups, perm) for i in idxs}))
    if not valid:
        raise ClassificationError("no match")
    if len({h for h, _ in valid}) != 1:
        raise ClassificationError("ambiguous")
    return valid[0]


_SIGNED = (1, -1, 2, Q(-1, 3))


def _differential_configurations():
    for fam, rank in [("A", 3), ("D", 4), ("E6", None), ("E7", None), ("E8", None)]:
        for t in _SIGNED:
            yield generate(family_spec(fam, rank, t=t))
    for fam, rank, names in [("B", 2, "pq"), ("B", 3, "pq"), ("C", 3, "pq"), ("F4", None, "rs"),
                             ("G2", None, "pq"), ("BC", 2, "rsq"), ("BC", 3, "rsq")]:
        for values in product(_SIGNED, repeat=len(names)):
            yield generate(family_spec(fam, rank, **dict(zip(names, values))))
    yield generate(family_spec("Planar6", a=1, b=2))
    yield generate(family_spec("FourDim", r=1, s=2))
    # a(a-vee) = 0 on the first two covectors, -2 on the third
    yield configuration(2, [[1, 0], [0, 1], [1, 1]], [1, 1, -1])
    yield configuration(2, [[1, 0], [0, 1], [1, 1], [1, -1]], [1, 1, -1, 2])


def _outcome(classify, cfg, rd):
    try:
        return classify(cfg, rd)
    except (ClassificationError, ZeroDivisionError) as e:
        return type(e)


def test_norm_order_matches_the_search_over_every_assignment():
    # the search over every census permutation is the oracle: same (h, labels)
    # where it returns, same exception type where it raises, on matched and
    # mismatched census pairs
    rds = [root_data(f, n) for f, n in [("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("BC", 2),
                                        ("BC", 3), ("F4", None), ("G2", None), ("E6", None),
                                        ("E7", None), ("E8", None)]]
    returned = negative = 0
    for cfg in _differential_configurations():
        try:
            duals(cfg)
        except SingularMatrixError:
            continue  # a singular Gram form has no duals, so neither route starts
        for rd in rds:
            want = _outcome(_search_classify_and_h, cfg, rd)
            assert _outcome(classify_and_h, cfg, rd) == want
            if isinstance(want, tuple):
                returned += 1
                negative += want[0] < 0 and len(rd.census) > 1
    assert returned > 100 and negative > 20
