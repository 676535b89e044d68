"""Independent floating-point verification of the WDVV identities.

Builds the third-derivative matrices of the trigonometric prepotential with
the auxiliary cubic variable, evaluates the commutator conditions and the
tangent-space product at seeded random sample points, and reports scaled
residuals.  Only the cotangent is ever evaluated; the prepotential itself is
never needed.  All of it runs on float64 copies of the exact data (``float_view``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .configuration import Configuration, duals, gram, memo


class PoleTooCloseError(ValueError):
    """A sample point is too close to one of the covector hyperplanes."""


class SingularBaseFormError(ValueError):
    """The constant matrix of the y-derivatives is numerically singular."""


@dataclass(frozen=True)
class SamplePoint:
    x: tuple[float, ...]
    min_sine: float


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    tol: float
    passed: bool
    seed: int
    points: int


@dataclass(frozen=True)
class AssociativityReport:
    max_residual: float
    tol: float
    passed: bool
    seed: int
    points: int
    wdvv_max_residual: float
    agrees_with_wdvv: bool


def _lambda_from_sq(lambda_sq) -> complex:
    # principal square root; the verdict depends on lambda^2 only
    return complex(np.sqrt(complex(float(lambda_sq))))


# Smallest |sin a(x)| over the covectors that a sample point may have.
POLE_GUARD = 1.0 / 20


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


@memo
def float_duals(cfg: Configuration) -> np.ndarray:
    """The duals as floats; converted on first need, since they exist only for
    a nonsingular Gram form."""
    return floats(duals(cfg)).reshape(len(cfg), cfg.dim)


def sample_points(cfg: Configuration, points: int, seed: int) -> list[SamplePoint]:
    """Seeded points with min over covectors of |sin a(x)| above the pole guard."""
    if points < 1:
        raise ValueError("the number of sample points must be positive, got %d" % points)
    rng = np.random.default_rng(seed)
    av = float_view(cfg).covectors
    out: list[SamplePoint] = []
    tries = 0
    while len(out) < points:
        tries += 1
        if tries > 1000 * points:
            raise PoleTooCloseError("could not find enough pole-free sample points")
        x = rng.uniform(-2.0, 2.0, cfg.dim)
        ms = float(np.min(np.abs(np.sin(av @ x)))) if len(cfg) else 1.0
        if ms >= POLE_GUARD:
            out.append(SamplePoint(tuple(x), ms))
    return out


def base_form(cfg: Configuration) -> np.ndarray:
    """The constant (N+1)x(N+1) matrix of y-derivatives: 2*blockdiag(sum c a(x)a, 1)."""
    n = cfg.dim
    f = np.zeros((n + 1, n + 1))
    f[:n, :n] = 2.0 * float_view(cfg).gram
    f[n, n] = 2.0
    return f


def _cot(cfg: Configuration, pt: SamplePoint) -> np.ndarray:
    """cot a(x) for every covector a, once the point passes the pole guard."""
    vals = float_view(cfg).covectors @ np.asarray(pt.x)
    s = np.sin(vals)
    if len(cfg) and float(np.min(np.abs(s))) < POLE_GUARD:
        raise PoleTooCloseError("sample point violates the pole guard")
    return np.cos(vals) / s


def third_derivs(cfg: Configuration, lam: complex, pt: SamplePoint):
    """All N+1 third-derivative matrices at a sample point.

    The trig part contributes lam * c_a a_i a_p a_q cot a(x) to the top-left
    blocks of F_1..F_N; the cubic part contributes the constant borders and
    the base form F_{N+1}.
    """
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


def _commutator_residual(cfg: Configuration, lam: complex, pts: list[SamplePoint]) -> float:
    """Max scaled commutator residual of F_i F_{N+1}^{-1} F_j over the points."""
    base = base_form(cfg)
    if np.linalg.cond(base) > 1e12:
        raise SingularBaseFormError("base form is numerically singular")
    binv = np.linalg.inv(base)
    binv_norm = np.linalg.norm(binv)
    worst = 0.0
    n = cfg.dim
    for pt in pts:
        mats = third_derivs(cfg, lam, pt)
        prods = [m @ binv for m in mats[:n]]
        norms = [np.linalg.norm(m) for m in mats[:n]]
        for i in range(n):
            for j in range(i + 1, n):
                comm = prods[i] @ mats[j] - prods[j] @ mats[i]
                scale = 1.0 + norms[i] * binv_norm * norms[j]
                worst = max(worst, float(np.linalg.norm(comm)) / scale)
    return worst


def wdvv_residual(
    cfg: Configuration,
    lambda_sq,
    points: int = 20,
    seed: int = 42,
    tol: float = 1e-8,
) -> ResidualReport:
    """Max scaled commutator residual of F_i F_{N+1}^{-1} F_j over seeded points."""
    lam = _lambda_from_sq(lambda_sq)
    worst = _commutator_residual(cfg, lam, sample_points(cfg, points, seed))
    return ResidualReport(worst, tol, bool(worst < tol), seed, points)


def product(cfg: Configuration, lam: complex, pt: SamplePoint, a, b):
    """The tangent-space product of two vectors of V + U at a sample point.

    On V it is sum over covectors of c w(a) w(b) ((lam/2) cot w(x) w-vee + E),
    extended by linearity with E acting as the identity.
    """
    n = cfg.dim
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    av, c, _ = float_view(cfg)
    cot = _cot(cfg, pt)
    coef = c * (av @ a[:n]) * (av @ b[:n])
    out = np.zeros(n + 1, dtype=complex)
    if np.any(coef):  # with every coefficient zero the duals are not needed
        out[:n] = (lam / 2.0) * (coef * cot) @ float_duals(cfg)
    out[n] = coef.sum()
    out += b[n] * np.concatenate([a[:n], [0.0]])
    out += a[n] * np.concatenate([b[:n], [0.0]])
    out[n] += a[n] * b[n]
    return out


def associativity_residual(
    cfg: Configuration,
    lambda_sq,
    points: int = 20,
    seed: int = 42,
    tol: float = 1e-8,
    triples: int = 4,
) -> AssociativityReport:
    """Max scaled residual of (a*b)*c - a*(b*c) over seeded points and triples.

    Shares its sample points with the commutator check and reports whether
    the two verdicts agree.
    """
    lam = _lambda_from_sq(lambda_sq)
    pts = sample_points(cfg, points, seed)
    rng = np.random.default_rng(seed + 1)
    n = cfg.dim
    worst = 0.0
    for pt in pts:
        for _ in range(triples):
            a, b, cc = (rng.uniform(-1.0, 1.0, n + 1) for _ in range(3))
            ab = product(cfg, lam, pt, a, b)
            bc = product(cfg, lam, pt, b, cc)
            lhs = product(cfg, lam, pt, ab, cc)
            rhs = product(cfg, lam, pt, a, bc)
            scale = 1.0 + np.linalg.norm(ab) * np.linalg.norm(cc) + np.linalg.norm(bc) * np.linalg.norm(a)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)) / scale)
    wd_worst = _commutator_residual(cfg, lam, pts)
    passed = bool(worst < tol)
    return AssociativityReport(
        worst, tol, passed, seed, points, wd_worst, passed == bool(wd_worst < tol)
    )

