import random
from fractions import Fraction as Q

import pytest

from trigvee.catalog import pairing_profile
from trigvee.configuration import gram
from trigvee.exactla import identity, mat_scale
from trigvee.families import (
    FAMILIES,
    PARAM_NAMES,
    DegenerateParamsError,
    UnsupportedParamsError,
    expected_lambda_sq,
    family_spec,
    four_dim_config,
    four_dim_derived_params,
    generate,
    restricted_family,
)
from trigvee.veesystem import lambda_sq, vee_residuals


def rnd_pos(rng):
    return Q(rng.randint(1, 9), rng.randint(1, 9))


def test_generate_counts():
    # |BC_N+| = N^2 + N; the spec prose says "8 covectors" for BC2 but lists
    # six, and N^2+N = 6
    assert len(generate(family_spec("BC", 2, r=1, s=1, q=1))) == 6
    assert len(generate(family_spec("E8", t=1))) == 120
    assert len(generate(family_spec("E7", t=1))) == 63
    assert len(generate(family_spec("E6", t=1))) == 36
    assert len(generate(family_spec("F4", r=1, s=1))) == 24
    assert len(generate(family_spec("G2", p=1, q=1))) == 6
    assert len(generate(family_spec("A", 4, t=1))) == 10
    assert len(generate(family_spec("D", 4, t=1))) == 12
    assert len(generate(family_spec("FourDim", r=1, s=4))) == 18
    assert len(generate(family_spec("FourDimA1", r=1, s=4))) == 12
    assert len(generate(family_spec("FourDimA2", r=1, s=4))) == 10


def test_four_dim_constraints():
    p, q = four_dim_derived_params(1, 4)
    assert (p, q) == (6, 1)
    with pytest.raises(UnsupportedParamsError):
        four_dim_derived_params(1, -4)


def test_planar10_multiplicities():
    cfg = generate(family_spec("Planar10", a=1))
    assert sorted(cfg.multiplicities) == sorted(
        [Q(6), Q(3, 2), Q(6), Q(3, 2), Q(4), Q(4), Q(1), Q(1), Q(1), Q(1)]
    )


def test_bcn_gram_is_h_times_identity():
    rng = random.Random(4)
    for n in (2, 3, 4):
        r, s, q = (rnd_pos(rng) for _ in range(3))
        cfg = generate(family_spec("BC", n, r=r, s=s, q=q))
        h = r + 4 * s + 2 * q * (n - 1)
        assert gram(cfg) == mat_scale(h, identity(n))


@pytest.mark.parametrize(
    "maker",
    [
        lambda rng: family_spec("BC", rng.randint(2, 5), r=rnd_pos(rng), s=rnd_pos(rng), q=rnd_pos(rng)),
        lambda rng: family_spec("A", rng.randint(2, 6), t=rnd_pos(rng)),
        lambda rng: family_spec("B", rng.randint(2, 4), p=rnd_pos(rng), q=rnd_pos(rng)),
        lambda rng: family_spec("C", rng.randint(2, 4), p=rnd_pos(rng), q=rnd_pos(rng)),
        lambda rng: family_spec("D", rng.randint(3, 5), t=rnd_pos(rng)),
        lambda rng: family_spec("F4", r=rnd_pos(rng), s=rnd_pos(rng)),
        lambda rng: family_spec("G2", p=rnd_pos(rng), q=rnd_pos(rng)),
        lambda rng: family_spec("FourDim", r=rnd_pos(rng), s=rnd_pos(rng)),
        lambda rng: family_spec("Planar6", a=rnd_pos(rng), b=rnd_pos(rng)),
        lambda rng: family_spec("Planar8", a=rnd_pos(rng), b=rnd_pos(rng)),
        lambda rng: family_spec("Planar9", a=rnd_pos(rng), b=rnd_pos(rng)),
        lambda rng: family_spec("Planar10", a=rnd_pos(rng)),
    ],
)
def test_lambda_sq_matches_closed_form_random_points(maker):
    rng = random.Random(101)
    done = 0
    while done < 4:
        spec = maker(rng)
        try:
            expected = expected_lambda_sq(spec)
            cfg = generate(spec)
        except (DegenerateParamsError, UnsupportedParamsError):
            continue
        assert lambda_sq(cfg) == expected
        done += 1


def test_four_dim_r0_is_d4():
    # p = q = s at r = 0 reduces the family to D4
    fd = generate(family_spec("FourDim", r=0, s=2))
    d4 = generate(family_spec("D", 4, t=2))
    assert len(fd) == 12
    assert pairing_profile(fd) == pairing_profile(d4)
    assert lambda_sq(fd) == lambda_sq(d4)


def test_four_dim_restrictions_share_lambda():
    # both 3-dim companion families carry the same closed form
    for r, s in [(1, 4), (1, 1), (2, 3)]:
        base = expected_lambda_sq(family_spec("FourDim", r=r, s=s))
        for fam in ("FourDimA1", "FourDimA2"):
            spec = family_spec(fam, r=r, s=s)
            assert expected_lambda_sq(spec) == base
            cfg = generate(spec)
            assert all(x.residual == 0 for x in vee_residuals(cfg))
            assert lambda_sq(cfg) == base


def test_planar9_b0_matches_g2():
    # at b = 0 the nine-vector family degenerates to a G2 positive half
    a = Q(5)
    spec9 = family_spec("Planar9", a=a, b=0)
    assert expected_lambda_sq(spec9) == 36 * a
    assert expected_lambda_sq(family_spec("G2", p=a, q=a / 3)) == 36 * a
    cfg = generate(spec9)
    assert len(cfg) == 6
    assert lambda_sq(cfg) == 36 * a


def test_d3_equals_a3_closed_form():
    t = Q(2, 3)
    assert expected_lambda_sq(family_spec("D", 3, t=t)) == expected_lambda_sq(
        family_spec("A", 3, t=t)
    )


def test_e_series_lambda():
    assert expected_lambda_sq(family_spec("E6", t=1)) == 288
    assert expected_lambda_sq(family_spec("E7", t=1)) == 486
    assert expected_lambda_sq(family_spec("E8", t=1)) == 900
    assert expected_lambda_sq(family_spec("A", 4, t=1)) == 100
    assert expected_lambda_sq(family_spec("F4", r=1, s=1)) == Q(972, 5)


def test_restricted_bc_22_table():
    tab = restricted_family(family_spec("RestrictedBC", partition=(2, 2), r=1, s=1, q=1))
    got = dict(zip(tab.covectors, tab.multiplicities))
    want = {
        (Q(1), Q(0)): Q(2),
        (Q(0), Q(1)): Q(2),
        (Q(2), Q(0)): Q(3),
        (Q(0), Q(2)): Q(3),
        (Q(1), Q(1)): Q(4),
        (Q(1), Q(-1)): Q(4),
    }
    assert got == want


def test_bad_family_params():
    with pytest.raises(UnsupportedParamsError):
        family_spec("BC", 3, r=1, s=1)
    with pytest.raises(UnsupportedParamsError):
        family_spec("Z9", 3, t=1)
    with pytest.raises(UnsupportedParamsError):
        family_spec("RestrictedBC", partition=(0, 2), r=1, s=1, q=1)
    with pytest.raises(UnsupportedParamsError):
        family_spec("E8", rank=7, t=1)
    # a partition is read only by the families of a partition, and fixes their rank
    with pytest.raises(UnsupportedParamsError, match="family A takes no partition"):
        family_spec("A", 2, partition=(1, 1), t=1)
    with pytest.raises(UnsupportedParamsError, match="family E8 takes no partition"):
        family_spec("E8", partition=(4, 4), t=1)
    with pytest.raises(UnsupportedParamsError, match="rank 2 from its partition, got 5"):
        family_spec("RestrictedBC", 5, partition=(1, 2), r=1, s=1, q=1)
    with pytest.raises(UnsupportedParamsError, match="rank 2 from its partition, got 3"):
        family_spec("RestrictedA", 3, partition=(1, 1, 1), t=1)
    assert family_spec("RestrictedA", 2, partition=(1, 1, 1), t=1).rank == 2


# The table's names and parameters, in order; a family is added or dropped here too.
def test_family_table_is_pinned():
    assert FAMILIES == (
        "A", "B", "C", "D", "BC", "E6", "E7", "E8", "F4", "G2", "FourDim", "FourDimA1",
        "FourDimA2", "Planar6", "Planar8", "Planar9", "Planar10", "RestrictedBC", "RestrictedA",
    )
    assert PARAM_NAMES == {
        "A": ("t",), "B": ("p", "q"), "C": ("p", "q"), "D": ("t",), "BC": ("r", "s", "q"),
        "E6": ("t",), "E7": ("t",), "E8": ("t",), "F4": ("r", "s"), "G2": ("p", "q"),
        "FourDim": ("r", "s"), "FourDimA1": ("r", "s"), "FourDimA2": ("r", "s"),
        "Planar6": ("a", "b"), "Planar8": ("a", "b"), "Planar9": ("a", "b"), "Planar10": ("a",),
        "RestrictedBC": ("r", "s", "q"), "RestrictedA": ("t",),
    }
    assert list(PARAM_NAMES) == list(FAMILIES)


# One generic point (rank, partition, parameters) per family of the table.
_POINTS = {
    "A": (3, None, dict(t=Q(2, 3))),
    "B": (3, None, dict(p=2, q=Q(1, 3))),
    "C": (3, None, dict(p=Q(3, 2), q=1)),
    "D": (4, None, dict(t=3)),
    "BC": (3, None, dict(r=1, s=2, q=Q(1, 2))),
    "E6": (None, None, dict(t=2)),
    "E7": (None, None, dict(t=Q(1, 2))),
    "E8": (None, None, dict(t=3)),
    "F4": (None, None, dict(r=2, s=1)),
    "G2": (None, None, dict(p=1, q=2)),
    "FourDim": (None, None, dict(r=1, s=4)),
    "FourDimA1": (None, None, dict(r=2, s=3)),
    "FourDimA2": (None, None, dict(r=1, s=1)),
    "Planar6": (None, None, dict(a=2, b=1)),
    "Planar8": (None, None, dict(a=3, b=2)),
    "Planar9": (None, None, dict(a=2, b=1)),
    "Planar10": (None, None, dict(a=Q(1, 2))),
    "RestrictedBC": (None, (2, 1, 3), dict(r=1, s=1, q=2)),
    "RestrictedA": (None, (2, 1, 2), dict(t=Q(3, 2))),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_is_a_vee_system_with_its_closed_form(family):
    rank, partition, params = _POINTS[family]
    spec = family_spec(family, rank, partition, **params)
    cfg = generate(spec)
    assert lambda_sq(cfg) == expected_lambda_sq(spec)
    assert all(r.residual == 0 for r in vee_residuals(cfg))
