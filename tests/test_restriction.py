import random
import warnings
from fractions import Fraction as Q

import numpy as np
import pytest

from trigvee.catalog import pairing_profile
from trigvee.configuration import ZeroMultiplicityWarning, duals, gram, normalize_positive
from trigvee.families import (
    covector_index,
    family_spec,
    generate,
    UnsupportedParamsError,
    partition_span_indices,
    restricted_family,
)
from trigvee.configuration import configuration
from trigvee.restriction import (
    CDeltaZeroError,
    DegenerateRestrictedGramError,
    EmptyChildError,
    restrict,
)
from trigvee.veesystem import lambda_sq, subsystem, vee_residuals
from trigvee.wdvv import _lambda_from_sq, product, sample_points


def as_pairs(cfg):
    return sorted(zip(cfg.covectors, cfg.multiplicities))


def test_restrict_drops_covectors_whose_multiplicities_cancel():
    bc3 = generate(family_spec("BC", 3, r=1, s=-1, q=2))
    with pytest.warns(ZeroMultiplicityWarning, match="^1 covector"):
        res = restrict(bc3, subsystem(bc3, [7]))
    # (2, 0) merges covectors 3, 4 and 6, with multiplicities -1 - 1 + 2
    assert res.child.covectors == ((1, 0), (0, 1), (0, 2), (1, 1), (1, -1))
    assert res.child.multiplicities == (2, 1, -1, 4, 4)
    assert res.provenance == ((0, 1), (2,), (5,), (8, 10), (9, 11))


def test_bc4_partition_matches_table_exactly():
    bc4 = generate(family_spec("BC", 4, r=1, s=1, q=1))
    span = partition_span_indices(bc4, "BC", (2, 2))
    res = restrict(bc4, subsystem(bc4, span))
    table = restricted_family(family_spec("RestrictedBC", partition=(2, 2), r=1, s=1, q=1))
    assert res.child.covectors == table.covectors
    assert res.child.multiplicities == table.multiplicities
    # provenance sums parent multiplicities
    for pa, mult in zip(res.provenance, res.child.multiplicities):
        assert sum(bc4.multiplicities[i] for i in pa) == mult


@pytest.mark.parametrize("partition", [(2, 2, 1), (3, 2), (2, 1, 1, 1)])
def test_bc5_partitions_match_tables(partition):
    r, s, q = Q(2), Q(1, 2), Q(3)
    bc = generate(family_spec("BC", 5, r=r, s=s, q=q))
    span = partition_span_indices(bc, "BC", partition)
    res = restrict(bc, subsystem(bc, span))
    table = restricted_family(family_spec("RestrictedBC", partition=partition, r=r, s=s, q=q))
    assert as_pairs(res.child) == as_pairs(table)
    assert lambda_sq(res.child) == lambda_sq(bc)


@pytest.mark.parametrize("partition", [(4, -1), (-1, 4), (3, 0)])
@pytest.mark.parametrize(
    "family, spec",
    [("BC", family_spec("BC", 3, r=1, s=1, q=1)), ("A", family_spec("A", 2, t=1))],
    ids=["BC3", "A2"],
)
def test_partition_span_indices_rejects_nonpositive_entries(family, spec, partition):
    # each partition sums to the rank of BC3 and to rank + 1 of A2
    with pytest.raises(UnsupportedParamsError, match="positive integers"):
        partition_span_indices(generate(spec), family, partition)


def test_a5_partition_multiplicities():
    t = Q(1)
    a5 = generate(family_spec("A", 5, t=t))
    span = partition_span_indices(a5, "A", (2, 2, 2))
    res = restrict(a5, subsystem(a5, span))
    assert sorted(res.child.multiplicities) == [4 * t] * 3
    table = restricted_family(family_spec("RestrictedA", partition=(2, 2, 2), t=t))
    assert pairing_profile(res.child) == pairing_profile(table)
    assert lambda_sq(res.child) == lambda_sq(a5) == lambda_sq(table)


def test_restricted_a_unit_partition_is_plain_a():
    table = restricted_family(family_spec("RestrictedA", partition=(1, 1, 1), t=Q(2)))
    plain = generate(family_spec("A", 2, t=Q(2)))
    assert as_pairs(table) == as_pairs(plain)


def test_restricted_a_211_table():
    table = restricted_family(family_spec("RestrictedA", partition=(2, 1, 1), t=1))
    assert sorted(table.multiplicities) == [1, 2, 2]
    assert len(table) == 3 and table.dim == 2


def test_e7_a3_restriction_is_four_dim():
    e7 = generate(family_spec("E7", t=1))
    fd = generate(family_spec("FourDim", r=1, s=4))

    def pm(i, j, s):
        v = [Q(0)] * 7
        v[i], v[j] = Q(1), Q(s)
        return v

    span = [covector_index(e7, pm(0, 1, -1)), covector_index(e7, pm(1, 2, -1)), covector_index(e7, pm(2, 3, -1))]
    res = restrict(e7, subsystem(e7, span))
    child = normalize_positive(res.child)
    assert len(child) == 18
    assert lambda_sq(child) == 486 == lambda_sq(e7)
    assert pairing_profile(res.child) == pairing_profile(fd)


def test_e8_d6_restriction_is_bc2():
    e8 = generate(family_spec("E8", t=1))
    span = []
    for a, b, sign in [(2, 3, -1), (3, 4, -1), (4, 5, -1), (5, 6, -1), (6, 7, -1), (6, 7, 1)]:
        v = [Q(0)] * 8
        v[a], v[b] = Q(1), Q(sign)
        span.append(covector_index(e8, v))
    res = restrict(e8, subsystem(e8, span))
    assert lambda_sq(res.child) == 900
    bc2 = generate(family_spec("BC", 2, r=32, s=1, q=12))
    assert pairing_profile(res.child) == pairing_profile(bc2)


def test_lambda_preserved_across_families():
    cases = [
        (family_spec("BC", 4, r=1, s=2, q=1), "BC", (2, 2)),
        (family_spec("BC", 4, r=Q(1, 2), s=1, q=Q(2, 3)), "BC", (3, 1)),
        (family_spec("A", 4, t=Q(3)), "A", (2, 2, 1)),
    ]
    for spec, fam, part in cases:
        cfg = generate(spec)
        span = partition_span_indices(cfg, fam, part)
        res = restrict(cfg, subsystem(cfg, span))
        assert all(r.residual == 0 for r in vee_residuals(res.child))
        assert lambda_sq(res.child) == lambda_sq(cfg)


def test_composition_closure():
    bc4 = generate(family_spec("BC", 4, r=1, s=1, q=1))
    # restrict along the block {1,2}, then along the image of the block {3,4}
    i12 = covector_index(bc4, [1, -1, 0, 0])
    res1 = restrict(bc4, subsystem(bc4, [i12]))
    j34 = covector_index(res1.child, [0, 1, -1])
    res2 = restrict(res1.child, subsystem(res1.child, [j34]))
    combined = restrict(bc4, subsystem(bc4, partition_span_indices(bc4, "BC", (2, 2))))
    assert lambda_sq(res2.child) == lambda_sq(combined.child)
    assert pairing_profile(res2.child) == pairing_profile(combined.child)


def test_c_delta_zero_error():
    # class {e1, 2e1} with r + 4s = 0 blocks restriction along e1
    cfg = generate(family_spec("BC", 3, r=-4, s=1, q=1))
    h = subsystem(cfg, [0])
    with pytest.raises(CDeltaZeroError):
        restrict(cfg, h)


def test_empty_child_error():
    cfg = generate(family_spec("BC", 2, r=1, s=1, q=1))
    h = subsystem(cfg, list(range(len(cfg))))
    with pytest.raises(EmptyChildError):
        restrict(cfg, h)


def test_degenerate_restricted_gram_error():
    # indefinite weights: nonsingular Gram overall, but zero on the kernel of e1,
    # where [0, 1] and [1, 1] merge to multiplicity 0 and leave no covector; the
    # refusal comes before the warning that the merge was dropped
    cfg = configuration(2, [[1, 0], [0, 1], [1, 1]], [1, 1, -1])
    h = subsystem(cfg, [0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateRestrictedGramError):
            restrict(cfg, h)


def test_four_dim_hyperplane_restrictions_match_companion_tables():
    # restricting the 4-dim family to x1 = x2 gives the first companion
    # family; restricting to the kernel of the half covector with negative
    # last sign gives the second
    for r, s in [(Q(1), Q(4)), (Q(2), Q(1)), (Q(1), Q(3))]:
        fd = generate(family_spec("FourDim", r=r, s=s))
        i = covector_index(fd, [1, -1, 0, 0])
        res = restrict(fd, subsystem(fd, [i]))
        a1 = generate(family_spec("FourDimA1", r=r, s=s))
        assert pairing_profile(res.child) == pairing_profile(a1)
        assert lambda_sq(res.child) == lambda_sq(a1) == lambda_sq(fd)

        h = Q(1, 2)
        j = covector_index(fd, [h, h, h, -h])
        res2 = restrict(fd, subsystem(fd, [j]))
        a2 = generate(family_spec("FourDimA2", r=r, s=s))
        assert pairing_profile(res2.child) == pairing_profile(a2)
        assert lambda_sq(res2.child) == lambda_sq(a2) == lambda_sq(fd)


def test_four_dim_a2_restricts_to_g2():
    # the second companion family restricted along e1+e2+e3 is a G2
    # configuration with short multiplicity 3(r+s) and long multiplicity r
    for r, s in [(Q(1), Q(4)), (Q(1), Q(1))]:
        a2 = generate(family_spec("FourDimA2", r=r, s=s))
        j = covector_index(a2, [1, 1, 1])
        res = restrict(a2, subsystem(a2, [j]))
        g2 = generate(family_spec("G2", p=3 * (r + s), q=r))
        assert pairing_profile(res.child) == pairing_profile(g2)
        assert lambda_sq(res.child) == lambda_sq(g2) == lambda_sq(a2)


def test_e6_a1a1_restriction_matches_four_dim_s_equals_2r():
    e6 = generate(family_spec("E6", t=1))
    span = [covector_index(e6, [1, -1, 0, 0, 0, 0]), covector_index(e6, [1, 1, 0, 0, 0, 0])]
    h = subsystem(e6, span)
    assert len(h.member_indices) == 2  # an orthogonal pair closed in its span
    res = restrict(e6, h)
    fd = generate(family_spec("FourDim", r=1, s=2))
    assert lambda_sq(res.child) == 288 == lambda_sq(fd)
    assert pairing_profile(res.child) == pairing_profile(fd)


def _g_projector(cfg, basis):
    """Float G-orthogonal projector onto the kernel subspace spanned by basis."""
    g = np.array([[float(x) for x in row] for row in gram(cfg)])
    b = np.array([[float(x) for x in v] for v in basis]).T  # N x n
    m = b.T @ g @ b
    return b @ np.linalg.solve(m, b.T @ g)


def test_restriction_tangency():
    # the child product equals the G-projection of the parent limit product
    rng = np.random.default_rng(77)
    for spec, fam, part in [
        (family_spec("BC", 3, r=1, s=1, q=1), "BC", (2, 1)),
        (family_spec("A", 3, t=1), "A", (2, 2)),
    ]:
        cfg = generate(spec)
        span = partition_span_indices(cfg, fam, part)
        handle = subsystem(cfg, span)
        res = restrict(cfg, handle)
        child = res.child
        lam = _lambda_from_sq(lambda_sq(cfg))
        bmat = np.array([[float(x) for x in v] for v in res.basis]).T  # N x n
        proj = _g_projector(cfg, res.basis)
        dvp = np.array([[float(x) for x in d] for d in duals(cfg)])
        av = np.array([[float(x) for x in a] for a in cfg.covectors])
        cm = np.array([float(c) for c in cfg.multiplicities])
        members = set(handle.member_indices)
        for pt in sample_points(child, 5, 5):
            n = child.dim
            u = rng.uniform(-1, 1, n + 1)
            v = rng.uniform(-1, 1, n + 1)
            got = product(child, lam, pt, u, v)
            # parent limit formula at x = B xi with the projected duals
            x = bmat @ pt
            uu, vv = bmat @ u[:n], bmat @ v[:n]
            out_v = np.zeros(cfg.dim, dtype=complex)
            out_e = 0.0
            for i in range(len(cfg)):
                if i in members:
                    continue
                val = av[i] @ x
                coef = cm[i] * (av[i] @ uu) * (av[i] @ vv)
                out_v += coef * (lam / 2) * (np.cos(val) / np.sin(val)) * (proj @ dvp[i])
                out_e += coef
            out_v += v[n] * uu + u[n] * vv
            out_e += u[n] * v[n]
            lifted = bmat @ got[:n]
            scale = 1 + np.linalg.norm(out_v) + abs(out_e)
            assert np.linalg.norm(lifted - out_v) / scale < 1e-9
            assert abs(got[n] - out_e) / scale < 1e-9
