"""Differential tests of the exact layers on the integer view against the
Fraction implementations they replaced, kept here as oracles.

The layers are the subsystem span closure, restriction (child, kernel basis
and provenance), the standalone subsystem, the subsystem operator, the
collinearity classes with their weighted sums, the zero class-sum warnings,
the positive normalization and the positive-system probe of the second form.
Inputs are the random rational configurations of ``test_integer_view``
(opposite, duplicate and shifted copies, negative multiplicities), the same
with cancelling copies, and deformed BC and F4 parents with random rational
parameters, which are vee-systems.
"""

import warnings
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from test_elimination import oracle_nullspace, oracle_rref
from test_flip_probe import configurations_with_cancelling_pairs, oracle_flip_invariant
from test_integer_view import _has_duals, rational_configurations
from trigvee import veesystem
from trigvee.configuration import (
    CollinearClass,
    Configuration,
    MixedClassError,
    NoGenericFunctionalError,
    ZeroMultiplicityWarning,
    c_delta,
    collinear_classes,
    configuration,
    duals,
    gram,
    normalize_positive,
)
from trigvee.exactla import clear_denominators, dot, independent, mat_vec, vec
from trigvee.families import DegenerateParamsError, family_spec, generate
from trigvee.restriction import (
    CDeltaZeroError,
    DegenerateRestrictedGramError,
    EmptyChildError,
    RestrictionResult,
    restrict,
)
from trigvee.veesystem import (
    CDeltaWarning,
    EigenDecomposition,
    NotEigenError,
    c_delta_zero_warnings,
    extract,
    g2_positive_flip_invariant,
    m_apply,
    m_operator,
    subsystem,
)

# --- oracles: the Fraction implementations -----------------------------------


def oracle_primitive(v):
    (ints,), _ = clear_denominators([v])
    g = gcd(*ints)
    sign = 1 if next(x for x in ints if x != 0) > 0 else -1
    return tuple(Q(sign * x, g) for x in ints)


def oracle_collinear_classes(cfg):
    buckets = {}
    for i, a in enumerate(cfg.covectors):
        buckets.setdefault(oracle_primitive(a), []).append(i)
    classes = []
    for key in sorted(buckets, key=lambda k: buckets[k][0]):
        idxs = buckets[key]
        a0 = cfg.covectors[idxs[0]]
        p = next(k for k in range(cfg.dim) if a0[k] != 0)
        classes.append(CollinearClass(idxs[0], tuple((i, cfg.covectors[i][p] / a0[p]) for i in idxs)))
    return tuple(classes)


def oracle_c_delta(cfg, classes, subset, anchor):
    cls = next(c for c in classes if anchor in c.indices)
    ratios = dict(cls.members)
    if any(i not in ratios for i in subset):
        raise MixedClassError("subset is not contained in the anchor's collinearity class")
    return sum((cfg.multiplicities[i] * (ratios[i] / ratios[anchor]) ** 2 for i in subset), Q(0))


def oracle_c_delta_zero_warnings(cfg):
    out = []
    for cls in oracle_collinear_classes(cfg):
        members = cls.members[:12]
        idxs = [i for i, _ in members]
        ratios = dict(members)
        for mask in range(1, 1 << len(idxs)):
            subset = [idxs[t] for t in range(len(idxs)) if mask >> t & 1]
            if sum((cfg.multiplicities[i] * ratios[i] * ratios[i] for i in subset), Q(0)) == 0:
                out.append(CDeltaWarning(cls.anchor, tuple(subset)))
    return tuple(out)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def oracle_auto_functional(cfg):
    for p in _PRIMES:
        phi = tuple(Q(1, p) ** k for k in range(cfg.dim))
        if all(dot(a, phi) != 0 for a in cfg.covectors):
            return phi
    raise NoGenericFunctionalError("could not separate covectors from zero")


def oracle_normalize_positive(cfg, functional=None):
    """The normalized configuration and the number of dropped covectors."""
    phi = oracle_auto_functional(cfg) if functional is None else vec(functional)
    merged, order = {}, []
    for a, c in zip(cfg.covectors, cfg.multiplicities):
        v = dot(a, phi)
        if v == 0:
            raise NoGenericFunctionalError("functional vanishes on a covector")
        b = a if v > 0 else tuple(-x for x in a)
        if b not in merged:
            merged[b] = Q(0)
            order.append(b)
        merged[b] += c
    kept = [b for b in order if merged[b] != 0]
    out = Configuration(cfg.dim, tuple(kept), tuple(merged[b] for b in kept), cfg.name)
    return out, len(order) - len(kept)


def oracle_in_row_span(red, pivots, v):
    w = list(v)
    for i, p in enumerate(pivots):
        if w[p] != 0:
            f = w[p]
            w = [x - f * y for x, y in zip(w, red[i])]
    return all(x == 0 for x in w)


def oracle_members(cfg, basis_idx):
    red, piv = oracle_rref([cfg.covectors[i] for i in basis_idx])
    return tuple(j for j, a in enumerate(cfg.covectors) if oracle_in_row_span(red, piv, a))


def oracle_restrict(cfg, sub):
    classes = oracle_collinear_classes(cfg)
    for i in sub.span_indices:
        cls = next(c for c in classes if i in c.indices)
        if oracle_c_delta(cfg, classes, cls.indices, cls.anchor) == 0:
            raise CDeltaZeroError(i)
    basis = oracle_nullspace([cfg.covectors[i] for i in sub.span_indices], cfg.dim)
    if not basis:
        raise EmptyChildError("the subsystem spans the whole dual space")
    g = gram(cfg)
    restricted_gram = [[dot(u, mat_vec(g, v)) for v in basis] for u in basis]
    if len(oracle_rref(restricted_gram)[1]) < len(basis):
        raise DegenerateRestrictedGramError("restricted Gram form is degenerate")
    members = set(sub.member_indices)
    merged, order = {}, []
    for j, a in enumerate(cfg.covectors):
        if j in members:
            continue
        pa = tuple(dot(a, b) for b in basis)
        if all(x == 0 for x in pa):
            continue
        if pa not in merged:
            merged[pa] = [Q(0), []]
            order.append(pa)
        merged[pa][0] += cfg.multiplicities[j]
        merged[pa][1].append(j)
    if not order:
        raise EmptyChildError("all restrictions vanish")
    order = [pa for pa in order if merged[pa][0] != 0]  # cancelled merges are dropped
    name = None if cfg.name is None else "%s | restricted along %s" % (cfg.name, list(sub.span_indices))
    child = Configuration(len(basis), tuple(order), tuple(merged[p][0] for p in order), name)
    return RestrictionResult(child, tuple(basis), tuple(tuple(merged[p][1]) for p in order))


def oracle_extract(cfg, sub):
    covs = tuple(
        tuple(dot(cfg.covectors[m], u) for u in sub.wdual_basis) for m in sub.member_indices
    )
    mults = tuple(cfg.multiplicities[m] for m in sub.member_indices)
    name = None if cfg.name is None else "%s | subsystem %s" % (cfg.name, list(sub.span_indices))
    return Configuration(len(sub.wdual_basis), covs, mults, name)


def oracle_m_operator(cfg, sub):
    dv = duals(cfg)
    pairs = []
    for m in sub.member_indices:
        v = dv[m]
        w = m_apply(cfg, sub, v)
        p = next(i for i in range(cfg.dim) if v[i] != 0)
        lam = w[p] / v[p]
        if w != tuple(lam * x for x in v):
            raise NotEigenError("dual of member %d is not an eigenvector" % m)
        pairs.append((m, lam))
    grouped = {}
    for m, lam in pairs:
        grouped.setdefault(lam, []).append(dv[m])
    eigenvalues = tuple(sorted(grouped))
    spaces = tuple(tuple(grouped[lam][i] for i in independent(grouped[lam])) for lam in eigenvalues)
    return EigenDecomposition(eigenvalues, spaces, tuple(pairs))


# --- inputs ---------------------------------------------------------------------

_params = st.builds(lambda sign, num, den: Q(sign * num, den),
                    st.sampled_from([1, -1]), st.integers(1, 6), st.integers(1, 4))


@st.composite
def deformed_parents(draw):
    if draw(st.booleans()):
        spec = family_spec("BC", draw(st.integers(2, 4)), r=draw(_params), s=draw(_params),
                           q=draw(_params))
    else:
        spec = family_spec("F4", r=draw(_params), s=draw(_params))
    try:
        return generate(spec)
    except DegenerateParamsError:
        assume(False)


configurations = st.one_of(
    rational_configurations(), configurations_with_cancelling_pairs(), deformed_parents()
)


def outcome(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as e:
        return type(e)


# --- tests ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(configurations, st.data())
def test_class_sums_match_oracles(cfg, data):
    classes = collinear_classes(cfg)
    assert classes == oracle_collinear_classes(cfg)
    for cls in classes:
        subset = data.draw(st.lists(st.sampled_from(cls.indices), min_size=1, unique=True))
        anchor = data.draw(st.sampled_from(cls.indices))
        for s in (subset, cls.indices):
            assert c_delta(cfg, s, anchor) == oracle_c_delta(cfg, classes, s, anchor)
    if len(classes) > 1:
        mixed = [classes[0].anchor, classes[1].anchor]
        with pytest.raises(MixedClassError):
            c_delta(cfg, mixed, mixed[0])
    assert c_delta_zero_warnings(cfg) == oracle_c_delta_zero_warnings(cfg)


@settings(max_examples=150, deadline=None)
@given(configurations, st.lists(st.builds(Q, st.integers(-9, 9), st.integers(1, 5)),
                                min_size=4, max_size=4))
def test_normalize_positive_matches_oracle(cfg, functional):
    for phi in (None, functional[: cfg.dim]):
        expected = outcome(oracle_normalize_positive, cfg, phi)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = outcome(normalize_positive, cfg, phi)
        if isinstance(expected, type):
            assert got is expected
            continue
        out, dropped = expected
        assert got == out
        unchanged = (out.covectors, out.multiplicities) == (cfg.covectors, cfg.multiplicities)
        assert (got is cfg) == unchanged
        zero = [w for w in caught if issubclass(w.category, ZeroMultiplicityWarning)]
        assert [str(w.message).split()[0] for w in zero] == ([str(dropped)] if dropped else [])


@settings(max_examples=150, deadline=None)
@given(configurations, st.data())
def test_subsystem_layers_match_oracles(cfg, data):
    assume(_has_duals(cfg))
    span = data.draw(st.lists(st.integers(0, len(cfg) - 1), min_size=1, max_size=cfg.dim,
                              unique=True))
    sub = subsystem(cfg, span)
    assert sub.member_indices == oracle_members(cfg, sub.span_indices)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # cancelled merges are dropped with a warning
        assert outcome(restrict, cfg, sub) == outcome(oracle_restrict, cfg, sub)
    # an isotropic member has zero coordinates: ValueError on both sides
    assert outcome(extract, cfg, sub) == outcome(oracle_extract, cfg, sub)
    assert outcome(m_operator, cfg, sub) == outcome(oracle_m_operator, cfg, sub)


@pytest.mark.parametrize("cfg,span,error", [
    (generate(family_spec("BC", 3, r=-4, s=1, q=1)), [0], CDeltaZeroError),
    (configuration(2, [[1, 0], [0, 1], [1, 1]], [1, 1, -1]), [0], DegenerateRestrictedGramError),
    (generate(family_spec("BC", 2, r=1, s=1, q=1)), [0, 1, 2, 3, 4, 5], EmptyChildError),
])
def test_restrict_refusals_match_oracle(cfg, span, error):
    sub = subsystem(cfg, span)
    assert outcome(restrict, cfg, sub) is outcome(oracle_restrict, cfg, sub) is error


@settings(max_examples=60, deadline=None)
@given(deformed_parents(), st.data())
def test_deformed_parents_restrict_and_decompose(cfg, data):
    """On vee-systems the eigen data exists; compare it, not just the error."""
    assume(_has_duals(cfg))
    span = data.draw(st.lists(st.integers(0, len(cfg) - 1), min_size=1, max_size=cfg.dim - 1,
                              unique=True))
    sub = subsystem(cfg, span)
    eig = m_operator(cfg, sub)
    assert eig == oracle_m_operator(cfg, sub)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroMultiplicityWarning)  # cancelled merges
        assert outcome(restrict, cfg, sub) == outcome(oracle_restrict, cfg, sub)


@settings(max_examples=60, deadline=None)
@given(st.one_of(rational_configurations(), deformed_parents()), st.integers(0, 2**16))
def test_flip_probe_verdict_matches_oracle(cfg, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = outcome(oracle_flip_invariant, cfg, 2, seed)
        assert outcome(g2_positive_flip_invariant, cfg, 2, seed) == expected


# --- bounds --------------------------------------------------------------------


class _ZeroNumerators:
    """An RNG stub whose numerators are all zero, so every drawn functional is zero."""

    def __init__(self):
        self.calls = 0

    def randint(self, a, b):
        self.calls += 1
        return 0 if a < 0 else 1


def test_random_functional_gives_up_after_bounded_draws():
    cfg = configuration(2, [[1, 0], [0, 1]], [1, 1])
    rng = _ZeroNumerators()
    draws = veesystem._FUNCTIONAL_DRAWS
    with pytest.raises(NoGenericFunctionalError, match="%d draws" % draws):
        veesystem._random_functional(cfg, rng)
    assert rng.calls == draws * 2 * cfg.dim  # a numerator and a denominator per coordinate


def test_truncated_class_search_warns():
    # 13 multiples k * e1 of one covector: one class, past the subset cap
    cfg = configuration(2, [[k, 0] for k in range(1, 14)] + [[0, 1]], [1] * 14)
    assert len(collinear_classes(cfg)[0].indices) == 13
    with pytest.warns(UserWarning, match="anchor 0 has 13 covectors; only subsets of its first 12 are searched"):
        assert c_delta_zero_warnings(cfg) == ()


def test_small_classes_do_not_warn():
    cfg = generate(family_spec("BC", 3, r=-4, s=1, q=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert c_delta_zero_warnings(cfg)
