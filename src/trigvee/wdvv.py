"""Independent floating-point verification of the WDVV identities.

Builds the third-derivative matrices of the trigonometric prepotential with
the auxiliary cubic variable, evaluates the commutator conditions and the
tangent-space product at seeded sample points, and reports scaled
residuals.  Only the cotangent is ever evaluated; the prepotential itself is
never needed.  All of it runs on float64 copies of the exact data (``float_view``).

Each float quantity is computed on whole arrays: candidate points are screened
in blocks, the accepted points are one read-only (points, N) array, and the
residuals run on row slices of it, in chunks of ``CHUNK_CELLS`` cells, the
trig third derivatives of a chunk as one product with ``float_cubes``.

The sample points and the product triples come from a SplitMix64 stream
(``SplitMix64``, in numpy uint64 array arithmetic), not from ``numpy.random``,
whose import also loads ``secrets``, ``hashlib`` and OpenSSL.  A seed is an
int in [0, 2^64); the triples use seed + 1 mod 2^64.  For a given seed the
points, and so the residuals, differ from those of versions that drew them
with numpy's PCG64.

The largest matrix product is a chunk's, too small to gain from BLAS threads,
so numpy is loaded with a one-thread OpenBLAS pool unless numpy is loaded
already or one of ``_THREAD_VARS`` is set; the environment is restored at once,
so no child process inherits the setting.
"""

from __future__ import annotations

import math
import os
import sys
from typing import NamedTuple

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" in sys.modules or any(v in os.environ for v in _THREAD_VARS):
    import numpy as np
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # OpenBLAS reads it only when it loads
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .configuration import Configuration, duals, gram, memo  # noqa: E402


class PoleTooCloseError(ValueError):
    """A sample point is too close to one of the covector hyperplanes."""


class SingularBaseFormError(ValueError):
    """The constant matrix of the y-derivatives is numerically singular."""


class ResidualReport(NamedTuple):
    max_residual: float
    tol: float
    passed: bool
    seed: int
    points: int


class AssociativityReport(NamedTuple):  # ResidualReport's fields, then two more
    max_residual: float
    tol: float
    passed: bool
    seed: int
    points: int
    wdvv_max_residual: float
    agrees_with_wdvv: bool


def _lambda_from_sq(lambda_sq):
    # principal square root, real for lambda^2 >= 0; the verdict depends on lambda^2 only
    return np.emath.sqrt(float(lambda_sq))


# Smallest |sin a(x)| over the covectors that a sample point may have.
POLE_GUARD = 1.0 / 20
# float64 cells (two per complex entry) in a chunk's largest temporary array.
CHUNK_CELLS = 1 << 14


def floats(rows) -> np.ndarray:
    """A read-only float64 array of ``rows``; a float64 array is frozen in place."""
    out = np.asarray(rows, dtype=float)
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


@memo
def float_cubes(cfg: Configuration) -> np.ndarray:
    """c_a a_i a_p a_q for every covector a, as a read-only (A, N^3) array."""
    av, c, _ = float_view(cfg)
    return floats(np.einsum("a,ai,ap,aq->aipq", c, av, av, av).reshape(len(cfg), cfg.dim**3))


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX = ((30, np.uint64(0xBF58476D1CE4E5B9)), (27, np.uint64(0x94D049BB133111EB)))


class SplitMix64:
    """A seeded stream of uniform floats.  Draw k of seed s is mix(s + (k+1) GAMMA
    mod 2^64), with the output function of Vigna's splitmix64.c (Steele, Lea and
    Flood, OOPSLA 2014); its float is u = (z >> 11) 2^-53 in [0, 1), and the
    uniform on [low, high) is low + (high - low) u, numpy's formula.

    The stream is counter-based, so a block of draws is one array expression
    and equals the same draws made one at a time.  The position is a Python
    int: uint64 arrays wrap silently, but uint64 scalars warn on overflow.
    """

    def __init__(self, seed: int):
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= _MASK:
            raise ValueError("the seed must be an int in [0, 2**64), got %r" % (seed,))
        self.seed, self.drawn = seed, 0

    def uniform(self, low: float, high: float, shape: tuple[int, ...]) -> np.ndarray:
        """The next prod(shape) draws as an array of that shape, in C order."""
        n = math.prod(shape)
        z = np.arange(n, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64((self.seed + (self.drawn + 1) * _GAMMA) & _MASK)
        self.drawn += n
        t = np.empty_like(z)  # the one temporary; every step runs in place
        for shift, mul in _MIX:
            np.right_shift(z, shift, out=t)
            z ^= t
            z *= mul
        np.right_shift(z, 31, out=t)
        z ^= t
        z >>= 11
        u = t.view(np.float64)
        np.copyto(u, z, casting="unsafe")  # exact, as z < 2^53
        u *= (high - low) * 2.0**-53  # the same float as (high - low) * (z 2^-53)
        u += low
        return u.reshape(shape)


def sample_points(cfg: Configuration, points: int, seed: int) -> np.ndarray:
    """Points of the box [-2, 2)^N drawn from ``SplitMix64(seed)`` with min over
    covectors of |sin a(x)| above the pole guard, as the rows of a read-only
    (points, N) float64 array, in acceptance order.

    Draws at most 1000 * ``points`` candidates, in blocks sized from the
    acceptance rate so far, of at least two rows and about 2 * ``CHUNK_CELLS``
    cells at most.  Since |sin v| = sin |v - k pi| for the nearest multiple
    k pi, a candidate with a reduced angle below asin(``POLE_GUARD``), less a
    margin for the rounding of the reduction at the largest |a(x)|, is rejected
    without a sine; the survivors take the sines of their rows of the same
    block product.  The points accepted are the ones one draw at a time would
    accept.
    """
    if points < 1:
        raise ValueError("the number of sample points must be positive, got %d" % points)
    stream = SplitMix64(seed)
    avt = float_view(cfg).covectors.T
    max_rows = max(2, 2 * CHUNK_CELLS // max(len(cfg), cfg.dim, 1))
    guard_angle = math.asin(min(POLE_GUARD, 1.0))
    # |v - k pi| is computed within eps * (|v| + pi), and |v| = |a(x)| <= 2 |a|_1 on
    # the box; the factor 8 also covers the few ulps of the sine and of the arcsine
    margin = 8 * np.finfo(float).eps * (2.0 * np.abs(avt).sum(axis=0).max(initial=0.0) + 4.0)
    out = np.empty((points, cfg.dim))
    found, drawn, limit = 0, 0, 1000 * points
    while drawn < limit:
        need = points - found
        rows = min(max_rows, limit - drawn, max(2, -(-need * (drawn + 1) // (found + 1))))
        # a one-row product would be a matrix-vector product, which may round
        # differently; one row is left only for the last candidate, so the spare
        # row drawn then shifts no later block
        xs = stream.uniform(-2.0, 2.0, (max(rows, 2), cfg.dim))
        vals = (xs @ avt)[:rows]
        xs = xs[:rows]
        drawn += rows
        red = np.multiply(vals, 1.0 / np.pi)
        np.rint(red, out=red)
        red *= np.pi
        np.subtract(vals, red, out=red)
        np.abs(red, out=red)
        keep = red.min(axis=1, initial=np.pi) >= guard_angle - margin
        xs = xs[keep][np.abs(np.sin(vals[keep])).min(axis=1, initial=1.0) >= POLE_GUARD][:need]
        out[found : found + len(xs)] = xs
        found += len(xs)
        if found == points:
            out.flags.writeable = False
            return out
    raise PoleTooCloseError("could not find enough pole-free sample points")


def base_form(cfg: Configuration) -> np.ndarray:
    """The constant (N+1)x(N+1) matrix of y-derivatives: 2*blockdiag(sum c a(x)a, 1)."""
    n = cfg.dim
    f = np.zeros((n + 1, n + 1))
    f[:n, :n] = 2.0 * float_view(cfg).gram
    f[n, n] = 2.0
    return f


def _chunks(pts: np.ndarray, cells: int):
    """The points as (P, N) row slices of at most CHUNK_CELLS // cells rows (at least one)."""
    step = max(1, CHUNK_CELLS // cells)
    return (pts[i : i + step] for i in range(0, len(pts), step))


def _cot(cfg: Configuration, pt) -> np.ndarray:
    """cot a(x), covectors on the last axis, at a point or each row of a (P, N) array."""
    vals = np.asarray(pt) @ float_view(cfg).covectors.T
    s = np.sin(vals)
    if s.size and float(np.min(np.abs(s))) < POLE_GUARD:
        raise PoleTooCloseError("sample point violates the pole guard")
    return np.cos(vals) / s


def third_derivs(cfg: Configuration, lam, pt) -> np.ndarray:
    """The N+1 third-derivative matrices F[i] at a point (or per row of a (P, N) array).

    The trig part contributes lam * c_a a_i a_p a_q cot a(x) to the top-left
    blocks of F_1..F_N; the cubic part contributes the constant borders and
    the base form F_{N+1}.  The stack is complex only when lam is.
    """
    n, cot = cfg.dim, _cot(cfg, pt)
    trig = lam * (cot @ float_cubes(cfg)).reshape(cot.shape[:-1] + (n, n, n))
    base = base_form(cfg)
    f = np.zeros(cot.shape[:-1] + (n + 1,) * 3, dtype=trig.dtype)
    f[..., :n, :n, :n] = trig
    f[..., :n, :n, n] = f[..., :n, n, :n] = base[:n, :n]
    f[..., n, :, :] = base
    return f


def _commutator_residual(cfg: Configuration, lam, pts: np.ndarray) -> float:
    """Max scaled commutator residual of F_i F_{N+1}^{-1} F_j over the points."""
    base = base_form(cfg)
    if np.linalg.cond(base) > 1e12:
        raise SingularBaseFormError("base form is numerically singular")
    binv = np.linalg.inv(base)
    binv_norm = np.linalg.norm(binv)
    n = cfg.dim
    worst = 0.0
    for xs in _chunks(pts, (n * (n + 1)) ** 2 * np.result_type(lam).itemsize // 8):
        f = third_derivs(cfg, lam, xs)[:, :n]
        pf = (f @ binv)[:, :, None] @ f[:, None]  # pf[p, i, j] = F_i F_{N+1}^{-1} F_j at point p
        comm = np.linalg.norm(pf - pf.transpose(0, 2, 1, 3, 4), axis=(3, 4))
        norms = np.linalg.norm(f, axis=(2, 3))
        scale = 1.0 + norms[:, :, None] * norms[:, None] * binv_norm
        worst = max(worst, float(np.max(comm / scale)))
    return worst


def _check_tol(tol) -> None:
    if not 0 < tol < np.inf:
        raise ValueError("the tolerance must be finite and positive, got %r" % tol)


def wdvv_residual(
    cfg: Configuration,
    lambda_sq,
    points: int = 20,
    seed: int = 42,
    tol: float = 1e-8,
) -> ResidualReport:
    """Max scaled commutator residual of F_i F_{N+1}^{-1} F_j over seeded points."""
    _check_tol(tol)
    lam = _lambda_from_sq(lambda_sq)
    worst = _commutator_residual(cfg, lam, sample_points(cfg, points, seed))
    return ResidualReport(worst, tol, bool(worst < tol), seed, points)


def product(cfg: Configuration, lam, pt, a, b) -> np.ndarray:
    """The tangent-space product of two vectors of V + U at a sample point, or on
    stacks of vectors (last axis N+1) and of points (see ``_cot``) broadcast together.

    On V it is sum over covectors of c w(a) w(b) ((lam/2) cot w(x) w-vee + E),
    extended by linearity with E acting as the identity.
    """
    n, cot = cfg.dim, _cot(cfg, pt)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    av, c, _ = float_view(cfg)
    coef = c * (a[..., :n] @ av.T) * (b[..., :n] @ av.T)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    if np.any(coef):  # with every coefficient zero the duals are not needed
        out[..., :n] = (lam / 2.0) * (coef * cot) @ float_duals(cfg)
    out[..., :n] += b[..., n:] * a[..., :n] + a[..., n:] * b[..., :n]
    out[..., n] = coef.sum(axis=-1) + a[..., n] * b[..., n]
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
    _check_tol(tol)
    if triples < 1:
        raise ValueError("the number of triples must be positive, got %d" % triples)
    lam = _lambda_from_sq(lambda_sq)
    pts = sample_points(cfg, points, seed)
    stream = SplitMix64((seed + 1) & _MASK)
    worst = 0.0
    for xs in _chunks(pts, 4 * triples * (len(cfg) + cfg.dim + 1)):
        # the same stream as one (triples, 3, N+1) draw per point; xs[:, None] spans the triples
        a, b, cc = stream.uniform(-1.0, 1.0, (len(xs), triples, 3, cfg.dim + 1)).transpose(2, 0, 1, 3)
        ab, bc = product(cfg, lam, xs[:, None], np.stack([a, b]), np.stack([b, cc]))
        lhs, rhs = product(cfg, lam, xs[:, None], np.stack([ab, a]), np.stack([cc, bc]))
        n_ab, n_cc, n_bc, n_a = np.linalg.norm(np.stack([ab, cc, bc, a]), axis=-1)
        scale = 1.0 + n_ab * n_cc + n_bc * n_a
        worst = max(worst, float(np.max(np.linalg.norm(lhs - rhs, axis=-1) / scale, initial=0.0)))
    wd_worst = _commutator_residual(cfg, lam, pts)
    passed = bool(worst < tol)
    return AssociativityReport(
        worst, tol, passed, seed, points, wd_worst, passed == bool(wd_worst < tol)
    )
