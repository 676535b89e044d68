"""Configurations: finite covector collections with rational multiplicities.

The pair (covectors, multiplicities) determines the weighted Gram form, dual
vectors, collinearity classes with their weighted sums, and a positive system
(``orientation``).  Configurations are immutable, so derived data is computed
once and kept on the instance itself (``memo``): it is freed with the
configuration, and equality and hashing see only the fields.
Every exact layer runs on one integer view per configuration, each over one
common denominator: ``lattice``, ``gram_cleared``, ``gram_inverse_cleared``,
``duals_cleared`` and ``pairings``; ``gram`` and ``duals`` are its Fraction
views, and ``gram_inverse`` (N x N) is the one computation left in Fractions.
"""

from __future__ import annotations

import os
import sys
import warnings
from fractions import Fraction
from functools import wraps
from math import gcd
from operator import mul
from typing import Iterable, Mapping, NamedTuple

from .exactla import (
    Mat,
    SingularMatrixError,
    Vec,
    clear_denominators,
    dot,
    invert,
    is_zero_vec,
    mat_vec,
    vec,
)


class MixedClassError(ValueError):
    """A subset handed to c_delta spans more than one collinearity class."""


class NoGenericFunctionalError(ValueError):
    """No functional found that vanishes on none of the covectors."""


class ZeroMultiplicityWarning(UserWarning):
    """Covectors whose merged multiplicity cancelled to zero were dropped."""


class Configuration:
    """A finite collection of covectors with rational multiplicities.

    The four fields are read-only, and equality, hashing and the repr see only
    them; ``memo`` keeps derived data in the instance ``__dict__``.
    """

    __slots__ = ("dim", "covectors", "multiplicities", "name", "__dict__", "__weakref__")

    def __init__(self, dim: int, covectors: tuple[Vec, ...], multiplicities: tuple[Fraction, ...],
                 name: str | None = None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if len(covectors) != len(multiplicities):
            raise ValueError("covectors and multiplicities must have equal length")
        for a in covectors:
            if len(a) != dim:
                raise ValueError("covector length does not match dimension")
            if is_zero_vec(a):
                raise ValueError("zero covector is not allowed")
        for field, value in zip(self.__slots__, (dim, covectors, multiplicities, name)):
            object.__setattr__(self, field, value)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def _key(self) -> tuple:
        return self.dim, self.covectors, self.multiplicities, self.name

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(dim=%r, covectors=%r, multiplicities=%r, name=%r)" % (
            type(self).__qualname__, *self._key())

    def __reduce__(self):  # copies and pickles carry the fields; memos are recomputed
        return type(self), self._key()

    def __len__(self) -> int:
        return len(self.covectors)

    def with_name(self, name: str) -> "Configuration":
        return Configuration(self.dim, self.covectors, self.multiplicities, name)


def configuration(dim: int, covectors: Iterable[Iterable], multiplicities: Iterable, name=None) -> Configuration:
    """Coercing constructor: entries may be ints, strings or Fractions."""
    return Configuration(dim, tuple(vec(a) for a in covectors), vec(multiplicities), name)


def memo(fn):
    """Cache fn(cfg) in cfg.__dict__, as functools.cached_property does."""
    key = "_memo_" + fn.__name__

    @wraps(fn)
    def cached(cfg: Configuration):
        memos = cfg.__dict__
        if key not in memos:
            memos[key] = fn(cfg)
        return memos[key]

    return cached


class Lattice(NamedTuple):
    covectors: list[list[int]]  # the covectors times ``denominator``
    denominator: int
    multiplicities: list[int]  # the multiplicities times ``mult_denominator``
    mult_denominator: int


@memo
def lattice(cfg: Configuration) -> Lattice:
    """The covectors and the multiplicities, each cleared to integers."""
    covs, den = clear_denominators(cfg.covectors)
    (mults,), mult_den = clear_denominators([cfg.multiplicities])
    return Lattice(covs, den, mults, mult_den)


class Packed(NamedTuple):
    rows: list[int]  # each ``lattice`` covector as one int, first coordinate most significant
    width: int  # bits per signed field


@memo
def packed(cfg: Configuration) -> Packed:
    """The integer covectors of ``lattice``, each packed into one int.

    Row a packs to the sum of a[k] * 2^(w*(dim-1-k)), so packing is linear:
    an integer combination of rows packs to the same combination of their
    ints.  With m the largest |entry| and w = (4*m^2).bit_length(), every
    combination rho = a_p*g - g_p*a of two rows has |rho_k| <= 2*m^2 <
    2^(w-1), so its int decodes uniquely: it is zero iff rho is, it has the
    sign of rho's first nonzero coordinate, and equal rhos have equal ints.
    """
    covs = lattice(cfg).covectors
    m = max((abs(x) for a in covs for x in a), default=1)
    width = (4 * m * m).bit_length()
    rows = []
    for a in covs:
        v = 0
        for x in a:
            v = (v << width) + x
        rows.append(v)
    return Packed(rows, width)


@memo
def gram_cleared(cfg: Configuration) -> tuple[list[list[int]], int]:
    """(G, D): the weighted Gram form, sum of c_a * (a (x) a), is G / D in integers."""
    lat = lattice(cfg)
    cols = list(zip(*lat.covectors)) or [()] * cfg.dim
    weighted = [tuple(map(mul, lat.multiplicities, col)) for col in cols]
    den = lat.mult_denominator * lat.denominator**2
    return [[sum(map(mul, w, col)) for col in cols] for w in weighted], den


@memo
def gram(cfg: Configuration) -> Mat:
    """The weighted Gram form as Fractions: the view of ``gram_cleared``."""
    g, den = gram_cleared(cfg)
    return tuple(tuple(Fraction(x, den) for x in row) for row in g)


@memo
def gram_inverse(cfg: Configuration) -> Mat:
    try:
        return invert(gram(cfg))
    except SingularMatrixError:
        raise SingularMatrixError("the weighted Gram form is singular") from None


def dual(cfg: Configuration, gamma: Iterable) -> Vec:
    """The vector gamma-vee with G(gamma-vee, v) = gamma(v) for all v."""
    return mat_vec(gram_inverse(cfg), vec(gamma))


@memo
def gram_inverse_cleared(cfg: Configuration) -> tuple[list[list[int]], int]:
    """(H, D): the Gram inverse as the integer matrix H over one denominator D."""
    return clear_denominators(gram_inverse(cfg))


@memo
def duals_cleared(cfg: Configuration) -> tuple[list[list[int]], int]:
    """(V, D): the duals a_i-vee = V[i] / D, with V[i] = H * a_i on the integer view."""
    lat = lattice(cfg)
    gi, gi_den = gram_inverse_cleared(cfg)
    return [[sum(map(mul, row, a)) for row in gi] for a in lat.covectors], gi_den * lat.denominator


@memo
def duals(cfg: Configuration) -> tuple[Vec, ...]:
    """The duals as Fractions: the view of ``duals_cleared``."""
    dv, den = duals_cleared(cfg)
    return tuple(tuple(Fraction(x, den) for x in v) for v in dv)


@memo
def pairings(cfg: Configuration) -> tuple[list[list[int]], int]:
    """(P, D): the intrinsic pairings a_i(a_j-vee) = P[i][j] / D, P symmetric."""
    lat = lattice(cfg)
    dv, dv_den = duals_cleared(cfg)
    upper = [[sum(map(mul, a, b)) for b in dv[i:]] for i, a in enumerate(lat.covectors)]  # j >= i
    pm = [[upper[j][i - j] for j in range(i)] + row for i, row in enumerate(upper)]
    return pm, lat.denominator * dv_den


class CollinearClass(NamedTuple):
    """One maximal proportionality class; ratios are taken against the anchor."""

    anchor: int
    members: tuple[tuple[int, Fraction], ...]  # (covector index, ratio k with gamma = k * anchor)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.members)


def line_key(row) -> tuple[int, ...]:
    """The key of a nonzero integer row's line: the row divided by its gcd,
    signed so that its first nonzero entry is positive."""
    g = gcd(*row) if next(x for x in row if x) > 0 else -gcd(*row)
    return tuple(x // g for x in row)


@memo
def collinear_classes(cfg: Configuration) -> tuple[CollinearClass, ...]:
    """Partition of the covector indices into proportionality classes, keyed
    on ``line_key`` of the integer covectors."""
    covs = lattice(cfg).covectors
    buckets: dict[tuple[int, ...], list[int]] = {}
    for i, a in enumerate(covs):
        buckets.setdefault(line_key(a), []).append(i)
    classes = []
    for idxs in buckets.values():  # in order of first member
        a0 = covs[idxs[0]]
        p = next(k for k, x in enumerate(a0) if x)
        members = tuple((i, Fraction(covs[i][p], a0[p])) for i in idxs)
        classes.append(CollinearClass(idxs[0], members))
    return tuple(classes)


def class_of(cfg: Configuration, index: int) -> CollinearClass:
    for cls in collinear_classes(cfg):
        if index in cls.indices:
            return cls
    raise IndexError(index)


def class_weights(cfg: Configuration, cls: CollinearClass) -> tuple[int, dict[int, int]]:
    """(p, w): the anchor's pivot p and w[i] = mults[i] * lat[i][p]^2 per member;
    a subset's c_delta at anchor g is its weight sum / (mult_den * lat[g][p]^2)."""
    lat = lattice(cfg)
    p = next(k for k, x in enumerate(lat.covectors[cls.anchor]) if x)
    return p, {i: lat.multiplicities[i] * lat.covectors[i][p] ** 2 for i in cls.indices}


def c_delta(cfg: Configuration, subset: Iterable[int], anchor: int) -> Fraction:
    """The weighted sum over a subset of one collinearity class.

    Equals sum of c_g * k_g^2 with ratios k_g relative to the anchor; zero or
    nonzero status does not depend on the anchor choice.
    """
    subset = tuple(subset)
    p, weights = class_weights(cfg, class_of(cfg, anchor))
    if any(i not in weights for i in subset):
        raise MixedClassError("subset is not contained in the anchor's collinearity class")
    lat = lattice(cfg)
    scale = lat.mult_denominator * lat.covectors[anchor][p] ** 2
    return Fraction(sum(weights[i] for i in subset), scale)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def auto_functional(cfg: Configuration) -> tuple[int, ...]:
    """Generic functional (1, eps, ..., eps^(dim-1)), eps = 1/prime, cleared to integers."""
    covs = lattice(cfg).covectors
    for p in _PRIMES:
        phi = tuple(p ** (cfg.dim - 1 - k) for k in range(cfg.dim))
        if all(sum(map(mul, a, phi)) for a in covs):
            return phi
    raise NoGenericFunctionalError("could not separate covectors from zero")


_PACKAGE_PREFIX = os.path.dirname(os.path.abspath(__file__)) + os.sep


def outside_stacklevel() -> int:
    """The ``stacklevel`` with which the caller's ``warnings.warn`` names the first
    frame outside this package, however many package frames (memos among them)
    lie between; ``skip_file_prefixes`` would do this, but needs Python 3.12."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_PREFIX):
        frame, level = frame.f_back, level + 1
    return level


def warn_dropped(dropped: int) -> None:
    """Warn, on behalf of the first caller outside this package, that covectors
    merged to zero were dropped."""
    if dropped:
        warnings.warn("%d covector(s) merged to zero multiplicity and were dropped" % dropped,
                      ZeroMultiplicityWarning, stacklevel=outside_stacklevel())


class Orientation(NamedTuple):
    signs: list[int]  # each covector's sign against the functional
    rows: list[tuple[int, int]]  # kept merged rows: (first index, summed ``lattice`` multiplicity)
    classes: int  # the collinearity classes that keep a row


def _orient(cfg: Configuration, phi: list[int]) -> Orientation:
    """Flip the integer rows to the positive side of phi and merge duplicates;
    merged multiplicities of zero are dropped with a ZeroMultiplicityWarning."""
    lat = lattice(cfg)
    signs, merged = [], {}  # flipped integer row -> [first index, multiplicity]
    for i, (row, c) in enumerate(zip(lat.covectors, lat.multiplicities)):
        v = sum(map(mul, row, phi))
        if v == 0:
            raise NoGenericFunctionalError("functional vanishes on a covector")
        signs.append(1 if v > 0 else -1)
        merged.setdefault(tuple(x if v > 0 else -x for x in row), [i, 0])[1] += c
    rows = [(i, c) for i, c in merged.values() if c]
    warn_dropped(len(merged) - len(rows))
    return Orientation(signs, rows, len({line_key(lat.covectors[i]) for i, _ in rows}))


@memo
def orientation(cfg: Configuration) -> Orientation:
    """The positive system against ``auto_functional``, read off cfg itself: that of
    ``normalize_positive(cfg)``, whose Gram form and |a(b-vee)| are cfg's own."""
    return _orient(cfg, auto_functional(cfg))


def normalize_positive(cfg: Configuration, functional: Iterable | None = None) -> Configuration:
    """The positive system against a functional as a configuration of its own (see
    ``_orient``), with the same Gram form; cfg itself when nothing changes."""
    phi = auto_functional(cfg) if functional is None else vec(functional)
    (phi,), _ = clear_denominators([phi])
    if len(phi) != cfg.dim:
        raise ValueError("functional has length %d, not %d" % (len(phi), cfg.dim))
    signs, rows, _ = _orient(cfg, phi)
    covs = tuple(tuple(signs[i] * x for x in cfg.covectors[i]) for i, _ in rows)
    mults = tuple(Fraction(c, lattice(cfg).mult_denominator) for _, c in rows)
    if (covs, mults) == (cfg.covectors, cfg.multiplicities):
        return cfg
    return Configuration(cfg.dim, covs, mults, cfg.name)


def apply_matrix(cfg: Configuration, u: Mat) -> Configuration:
    """Compose every covector with the linear map given by u (columns act on V)."""
    cols = tuple(zip(*u))
    covs = tuple(tuple(dot(a, col) for col in cols) for a in cfg.covectors)
    return Configuration(cfg.dim, covs, cfg.multiplicities, cfg.name)


# --- JSON interchange --------------------------------------------------------


def _rat_from_json(x) -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise ValueError("rationals must be serialized as strings or integers, got %r" % (x,))
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.replace("−", "-"))
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % x) from None
    raise ValueError("cannot parse rational from %r" % (x,))


def to_json_dict(cfg: Configuration) -> dict:
    d = {
        "dim": cfg.dim,
        "covectors": [[str(x) for x in a] for a in cfg.covectors],
        "multiplicities": [str(c) for c in cfg.multiplicities],
    }
    if cfg.name is not None:
        d["name"] = cfg.name
    return d


def _json_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ValueError("%s must be a JSON list, got %r" % (what, x))
    return x


def from_json_dict(d: Mapping) -> Configuration:
    if not isinstance(d, Mapping):
        raise ValueError("a configuration must be a JSON object, got %r" % (d,))
    if not isinstance(d.get("dim"), int) or isinstance(d["dim"], bool):
        raise ValueError("missing or non-integer 'dim'")
    parsed: dict[str, Fraction] = {}  # most entries repeat a few strings: parse each once

    def rat(x) -> Fraction:
        if type(x) is not str:
            return _rat_from_json(x)
        if x not in parsed:
            parsed[x] = _rat_from_json(x)
        return parsed[x]

    covs = [
        tuple(map(rat, _json_list(a, "a covector")))
        for a in _json_list(d["covectors"], "'covectors'")
    ]
    mults = [rat(c) for c in _json_list(d["multiplicities"], "'multiplicities'")]
    name = d.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError("'name' must be a string, got %r" % (name,))
    return Configuration(d["dim"], tuple(covs), tuple(mults), name)
