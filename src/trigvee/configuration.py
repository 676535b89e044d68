"""Configurations: finite covector collections with rational multiplicities.

The pair (covectors, multiplicities) determines the weighted Gram form, dual
vectors, collinearity classes with their weighted sums, and a positive-system
normalization.  Configurations are immutable, so derived data, exact and
float, is computed once and kept on the instance itself (``memo``): it is
freed with the configuration, and equality and hashing see only the fields.
The exact vee-layer runs on one integer view per configuration, ``lattice``,
``gram_inverse_cleared`` and ``pairings``, each over one common denominator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from operator import mul
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .exactla import (
    Mat,
    Vec,
    clear_denominators,
    dot,
    invert,
    is_zero_vec,
    mat_vec,
    primitive,
    vec,
)


class MixedClassError(ValueError):
    """A subset handed to c_delta spans more than one collinearity class."""


class NoGenericFunctionalError(ValueError):
    """No functional separates the covectors (only possible with a zero covector)."""


class ZeroMultiplicityWarning(UserWarning):
    """Covectors whose merged multiplicity cancelled to zero were dropped."""


@dataclass(frozen=True)
class Configuration:
    """A finite collection of covectors with rational multiplicities."""

    dim: int
    covectors: tuple[Vec, ...]
    multiplicities: tuple[Fraction, ...]
    name: str | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if len(self.covectors) != len(self.multiplicities):
            raise ValueError("covectors and multiplicities must have equal length")
        for a in self.covectors:
            if len(a) != self.dim:
                raise ValueError("covector length does not match dimension")
            if is_zero_vec(a):
                raise ValueError("zero covector is not allowed")

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


@memo
def gram(cfg: Configuration) -> Mat:
    """The weighted Gram form: sum of c_a * (a (x) a) as an N x N matrix."""
    lat = lattice(cfg)
    cols = list(zip(*lat.covectors)) or [()] * cfg.dim
    weighted = [tuple(map(mul, lat.multiplicities, col)) for col in cols]
    den = lat.mult_denominator * lat.denominator**2
    return tuple(tuple(Fraction(sum(map(mul, w, col)), den) for col in cols) for w in weighted)


@memo
def gram_inverse(cfg: Configuration) -> Mat:
    return invert(gram(cfg))


def dual(cfg: Configuration, gamma: Iterable) -> Vec:
    """The vector gamma-vee with G(gamma-vee, v) = gamma(v) for all v."""
    return mat_vec(gram_inverse(cfg), vec(gamma))


@memo
def duals(cfg: Configuration) -> tuple[Vec, ...]:
    gi = gram_inverse(cfg)
    return tuple(mat_vec(gi, a) for a in cfg.covectors)


@memo
def gram_inverse_cleared(cfg: Configuration) -> tuple[list[list[int]], int]:
    """(H, D): the Gram inverse as the integer matrix H over one denominator D."""
    return clear_denominators(gram_inverse(cfg))


@memo
def pairings(cfg: Configuration) -> tuple[list[list[int]], int]:
    """(P, D): the intrinsic pairings a_i(a_j-vee) = P[i][j] / D, P symmetric."""
    lat = lattice(cfg)
    gi, gi_den = gram_inverse_cleared(cfg)
    dv = [[sum(map(mul, row, a)) for row in gi] for a in lat.covectors]
    return [[sum(map(mul, a, b)) for b in dv] for a in lat.covectors], lat.denominator**2 * gi_den


def floats(rows) -> np.ndarray:
    """A read-only float64 array of exact rational data."""
    out = np.array(rows, dtype=float)
    out.flags.writeable = False
    return out


class FloatView(NamedTuple):
    covectors: np.ndarray  # one row per covector
    multiplicities: np.ndarray
    gram: np.ndarray


@memo
def float_view(cfg: Configuration) -> FloatView:
    """Read-only float64 copies of the covectors, multiplicities and Gram form."""
    covs = floats(cfg.covectors).reshape(len(cfg), cfg.dim)
    return FloatView(covs, floats(cfg.multiplicities), floats(gram(cfg)))


@dataclass(frozen=True)
class CollinearClass:
    """One maximal proportionality class; ratios are taken against the anchor."""

    anchor: int
    members: tuple[tuple[int, Fraction], ...]  # (covector index, ratio k with gamma = k * anchor)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.members)


@memo
def collinear_classes(cfg: Configuration) -> tuple[CollinearClass, ...]:
    """Partition of the covector indices into proportionality classes."""
    buckets: dict[Vec, list[int]] = {}
    for i, a in enumerate(cfg.covectors):
        buckets.setdefault(primitive(a), []).append(i)
    classes = []
    for key in sorted(buckets, key=lambda k: buckets[k][0]):
        idxs = buckets[key]
        anchor = idxs[0]
        a0 = cfg.covectors[anchor]
        p = next(k for k in range(cfg.dim) if a0[k] != 0)
        members = tuple((i, cfg.covectors[i][p] / a0[p]) for i in idxs)
        classes.append(CollinearClass(anchor, members))
    return tuple(classes)


def class_of(cfg: Configuration, index: int) -> CollinearClass:
    for cls in collinear_classes(cfg):
        if index in cls.indices:
            return cls
    raise IndexError(index)


def c_delta(cfg: Configuration, subset: Iterable[int], anchor: int) -> Fraction:
    """The weighted sum over a subset of one collinearity class.

    Equals sum of c_g * k_g^2 with ratios k_g relative to the anchor; zero or
    nonzero status does not depend on the anchor choice.
    """
    subset = tuple(subset)
    cls = class_of(cfg, anchor)
    ratios = dict(cls.members)
    if any(i not in ratios for i in subset):
        raise MixedClassError("subset is not contained in the anchor's collinearity class")
    k_anchor = ratios[anchor]
    total = Fraction(0)
    for i in subset:
        k = ratios[i] / k_anchor
        total += cfg.multiplicities[i] * k * k
    return total


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def auto_functional(cfg: Configuration) -> Vec:
    """Deterministic generic functional (1, eps, eps^2, ...), eps = 1/prime."""
    for p in _PRIMES:
        eps = Fraction(1, p)
        phi = tuple(eps**k for k in range(cfg.dim))
        if all(dot(a, phi) != 0 for a in cfg.covectors):
            return phi
    raise NoGenericFunctionalError("could not separate covectors from zero")


def normalize_positive(cfg: Configuration, functional: Iterable | None = None) -> Configuration:
    """Flip covectors to the positive side of a functional and merge duplicates.

    Exact duplicates are merged with summed multiplicities; merged
    multiplicities of zero are dropped with a ZeroMultiplicityWarning.  The
    Gram form is unchanged by this operation.  When nothing changes, cfg
    itself is returned, so its memoized data is shared.
    """
    phi = auto_functional(cfg) if functional is None else vec(functional)
    merged: dict[Vec, Fraction] = {}
    order: list[Vec] = []
    for a, c in zip(cfg.covectors, cfg.multiplicities):
        v = dot(a, phi)
        if v == 0:
            raise NoGenericFunctionalError("functional vanishes on a covector")
        b = a if v > 0 else tuple(-x for x in a)
        if b not in merged:
            merged[b] = Fraction(0)
            order.append(b)
        merged[b] += c
    covs, mults = [], []
    dropped = 0
    for b in order:
        if merged[b] == 0:
            dropped += 1
            continue
        covs.append(b)
        mults.append(merged[b])
    if dropped:
        warnings.warn(
            "%d covector(s) merged to zero multiplicity and were dropped" % dropped,
            ZeroMultiplicityWarning,
            stacklevel=2,
        )
    if (tuple(covs), tuple(mults)) == (cfg.covectors, cfg.multiplicities):
        return cfg
    return Configuration(cfg.dim, tuple(covs), tuple(mults), cfg.name)


def apply_matrix(cfg: Configuration, u: Mat) -> Configuration:
    """Compose every covector with the linear map given by u (columns act on V)."""
    cols = tuple(zip(*u))
    covs = tuple(tuple(dot(a, col) for col in cols) for a in cfg.covectors)
    return Configuration(cfg.dim, covs, cfg.multiplicities, cfg.name)


def flip_classes(cfg: Configuration, class_positions: Iterable[int]) -> Configuration:
    """Negate entire collinearity classes (class indices into collinear_classes)."""
    classes = collinear_classes(cfg)
    flip: set[int] = set()
    for p in class_positions:
        flip.update(classes[p].indices)
    covs = tuple(
        tuple(-x for x in a) if i in flip else a for i, a in enumerate(cfg.covectors)
    )
    return Configuration(cfg.dim, covs, cfg.multiplicities, cfg.name)


# --- JSON interchange --------------------------------------------------------


def _rat_from_json(x) -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise ValueError("rationals must be serialized as strings or integers, got %r" % (x,))
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.replace("−", "-"))
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
    if not isinstance(d.get("dim"), int) or isinstance(d["dim"], bool):
        raise ValueError("missing or non-integer 'dim'")
    covs = [
        tuple(_rat_from_json(x) for x in _json_list(a, "a covector"))
        for a in _json_list(d["covectors"], "'covectors'")
    ]
    mults = [_rat_from_json(c) for c in _json_list(d["multiplicities"], "'multiplicities'")]
    return Configuration(d["dim"], tuple(covs), tuple(mults), d.get("name"))
