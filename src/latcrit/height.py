"""Epstein zeta continuation, flat-torus height, and stationarity numerics.

Everything here is floating point.  The zeta function is evaluated through
its incomplete-gamma representation (two exponentially convergent lattice
sums, one over the form and one over its inverse), which also yields the
height as the s-derivative at 0 and the analytic gradient of the underlying
invariant F on the determinant-1 manifold.  All sums go through one
evaluation, ``_certified_sum``.  Before it enumerates anything it evaluates
the tail majorants of every sum at each radius of a geometric grid and picks
the first radius where they meet an a-priori tolerance: 1e-13 times a lower
bound on the sum (its terms are positive, so the basis vectors' terms bound
it, and a closed-form floor from the incomplete-gamma recurrence bounds
those), or the gradient's absolute floor.  Neither exceeds the real
tolerance (1e-13 times the sum, plus that floor for the gradient), so the
form and its inverse are enumerated once each at that radius.  The check of
the same majorants against the real tolerance stays as the guard of record:
it raises ``TruncationError``, as when the radius is capped below the one
the tolerances need.  ``height`` takes F, its gradient and the stationarity
residual from the same collection, the gradient's weight derived from F's
summand by the incomplete-gamma recurrence.  Special functions run once per
distinct argument: a summand depends only on its vector's norm, so each
side's vectors are grouped into layers of bit-equal norm, a summand is
evaluated once per layer and summed against the layer counts, and the
gradient's weights are gathered back to the vectors through the layer
index.  The grid radii do not depend on the form, so Gamma(a, pi t) on them
is cached per (a, first radius).
Tails are majorants: points in an annulus are counted by volume, through a
fundamental domain of bounded diameter, and summed by parts against the
monotone summands, so the reported tail estimate is a true upper bound.
Fixed enumeration order keeps reports bit-reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gram import GramMatrix, LatticeDescriptor, normalized_to_det1
from .shells import short_vectors_float
from .specfun import upper_gamma

DEFAULT_CUTOFF = 40.0  # smallest radius tried: include vectors with pi * Q[m] <= cutoff
TAIL_REL = 1e-13
GRAD_TAIL_FLOOR = 1e-14
EULER_GAMMA = float(np.euler_gamma)
_GRID_RATIO = 1.01   # candidate radii cutoff/pi * 1.01^k
_GRID_X_END = 800.0  # the grid runs on to pi * t >= 800, where every summand underflows
_RADIUS_CAP = 1.35 ** 9  # largest radius chosen: cutoff/pi * _RADIUS_CAP
_FLOOR_DEPTH = 8  # continued-fraction levels of the basis terms' floor (_gamma_floor)


class TruncationError(RuntimeError):
    """The certified tail could not be brought below tolerance."""


class ZetaPoleError(ValueError):
    """Evaluation at the simple pole s = n/2."""


def _as_form(Q) -> np.ndarray:
    if isinstance(Q, LatticeDescriptor):
        Q = Q.gram
    if isinstance(Q, GramMatrix):
        return Q.to_float()
    A = np.asarray(Q, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("form must be a square matrix")
    if not np.allclose(A, A.T, atol=1e-10):
        raise ValueError("form must be symmetric")
    np.linalg.cholesky(A)  # raises if not positive definite
    return 0.5 * (A + A.T)


def _annulus_counts(Q: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(outer, inner) at each t: #{m : r < Q[m] <= t} <= outer(t) - inner(r).

    With Q = R^t R, the Gram-Schmidt box {sum x_i b_i*, |x_i| <= 1/2} is a
    fundamental domain of the lattice R Z^n of volume sqrt(det Q), inside
    the ball of radius mu = sqrt(sum r_ii^2)/2 (Babai 1986).  The boxes of
    the points with r < Q[m] <= t are disjoint and lie in the annulus
    sqrt(r) - mu < |x| <= sqrt(t) + mu, so with V_n the unit-ball volume
    outer(t) = V_n (sqrt t + mu)^n / sqrt(det Q) and
    inner(r) = V_n max(sqrt r - mu, 0)^n / sqrt(det Q).
    """
    n = Q.shape[0]
    r = np.diag(np.linalg.cholesky(Q))
    mu = 0.5 * math.sqrt(float(r @ r))
    unit = math.pi ** (n / 2) / math.gamma(n / 2 + 1) / float(np.prod(r))
    s = np.sqrt(t)
    return unit * (s + mu) ** n, unit * np.maximum(s - mu, 0.0) ** n


def _gamma_floor(a: float, x: np.ndarray) -> np.ndarray:
    """A lower bound on x^{-a} Gamma(a, x) for real a and x > 0, exact at integer a >= 1.

    Integration by parts, Gamma(c, x) = x^{c-1} e^{-x} + (c - 1) Gamma(c - 1, x),
    run from c = a while c > 1 down to the order b = a - k <= 1, gives
        x^{-a} Gamma(a, x) = e^{-x}/x sum_{j<k} c_j x^{-j} + c_k x^{-a} Gamma(b, x)
    with c_j = (a - 1)(a - 2)...(a - j) > 0.  At b = 1, Gamma(1, x) = e^{-x}.
    For b < 1, x^{-b} e^x Gamma(b, x) = int_0^oo (1 + v)^{b-1} e^{-xv} dv is
    the integral of 1/(x + t) against the Laguerre weight t^{-b} e^{-t} /
    Gamma(1 - b), and the m-point Gauss-Laguerre rule undershoots it (the
    2m-th t-derivative of 1/(x + t) is positive).  That rule is the m-th
    convergent 1/D_0 of Legendre's continued fraction,
        D_{m-1} = x + 2m - 1 - b,  D_{k-1} = x + 2k - 1 - b - k (k - b) / D_k,
    a lower bound that rises with m; m = 1 gives 1/(x + 1 - b).  Below b = 1
    the bound can be tighter than the float evaluation's rounding (under
    1e-15 relative against mpmath for a in [-3.5, 7.5], x in [0.05, 700]),
    so there the result is lowered by 2e-15 relative.
    """
    total = np.zeros_like(x)
    term = np.ones_like(x)  # c_j x^{-j}
    b = a
    while b > 1:
        total += term
        term = term * ((b - 1) / x)
        b -= 1
    D = x + (2 * _FLOOR_DEPTH - 1 - b)
    for k in range(_FLOOR_DEPTH - 1, 0, -1):
        D = x + (2 * k - 1 - b) - k * (k - b) / D
    total += term * (x / D)  # x^{1-b} e^x Gamma(b, x) from below, exactly 1 at b = 1
    return np.exp(-x) / x * total * (1.0 if b == 1 else 1.0 - 2e-15)


@dataclass(frozen=True, eq=False)
class _Grid:
    """Candidate radii t, from the smallest radius tried to pi t >= _GRID_X_END.

    Each side's summand is evaluated at ``x_form`` = ``x_dual`` = pi t for
    its majorant, with Gamma(a, pi t) from ``gamma``, which reads a cache
    shared by every form.  ``basis_floor`` bounds a sum from below by its
    basis vectors' terms without evaluating Gamma.
    """

    A: np.ndarray
    Ainv: np.ndarray
    t: np.ndarray
    x_form: np.ndarray
    x_dual: np.ndarray
    counts: tuple  # _annulus_counts on t, for the form and for its inverse

    def majorant(self, g_form: np.ndarray, g_dual: np.ndarray) -> np.ndarray:
        """Bound at each t_j on the sum of g over the vectors of norm > t_j, both sides.

        g is nonincreasing and summed over all nonzero vectors (both of each
        antipodal pair).  On (t_{k-1}, t_k] a term is at most g(t_{k-1}), so
        summation by parts against the annulus counts gives
            (outer(t_{j+1}) - inner(t_j)) g(t_j)
            + sum_{k >= j+2} (outer(t_k) - outer(t_{k-1})) g(t_{k-1}),
        every term nonnegative; one reverse cumsum gives it at every t_j.
        The grid must reach the radius where g underflows to 0.
        """
        K = len(self.t)
        total = np.zeros(K)
        for g, (outer, inner) in zip((g_form[:K], g_dual[:K]), self.counts):
            if g[-1] != 0.0:
                raise TruncationError("tail majorant did not underflow on the radius grid")
            steps = np.diff(outer) * g[:-1]
            later = np.append(np.cumsum(steps[::-1])[::-1][1:], 0.0)
            total[:-1] += (outer[1:] - inner[:-1]) * g[:-1] + later
        return total

    def gamma(self, a: float) -> np.ndarray:
        """Gamma(a, pi t) on the radii, from the cache."""
        return _radius_gamma(a, float(self.t[0]))

    def basis_floor(self, a_form: float, a_dual: float, dual_scale: float = 1.0) -> float:
        """Lower bound on the sums of x^{-a} Gamma(a, x), x = pi Q[m], over both sides.

        The form's sum has order a_form and the dual's order a_dual, scaled
        by dual_scale > 0.  Every term is positive, so the basis vectors and
        their negatives, at x = pi diag A and pi diag A^-1, bound the sums
        below, and ``_gamma_floor`` bounds each of their terms below.
        """
        xf, xd = math.pi * np.diag(self.A), math.pi * np.diag(self.Ainv)
        return 2.0 * float(np.sum(_gamma_floor(a_form, xf))
                           + dual_scale * np.sum(_gamma_floor(a_dual, xd)))


def _radii(r0: float) -> np.ndarray:
    k = math.ceil(math.log(max(_GRID_X_END / (math.pi * r0), _GRID_RATIO)) / math.log(_GRID_RATIO))
    return r0 * _GRID_RATIO ** np.arange(k + 1.0)


@functools.lru_cache(maxsize=32)
def _radius_gamma(a: float, r0: float) -> np.ndarray:
    """Gamma(a, pi t) on the radii from r0, which are the same for every form (read-only)."""
    g = upper_gamma(a, math.pi * _radii(r0))
    g.flags.writeable = False
    return g


def _grid(A: np.ndarray, Ainv: np.ndarray, r0: float) -> _Grid:
    t = _radii(r0)
    x = math.pi * t
    return _Grid(A=A, Ainv=Ainv, t=t, x_form=x, x_dual=x,
                 counts=(_annulus_counts(A, t), _annulus_counts(Ainv, t)))


@dataclass(frozen=True, eq=False)
class _Layers:
    """One side's half-set in walk order, grouped by bit-equal float norm."""

    half: np.ndarray      # integer half-set, one vector per antipodal pair
    distinct: np.ndarray  # its distinct norms, increasing
    inverse: np.ndarray   # half[k] has norm distinct[inverse[k]]
    counts: np.ndarray    # number of half-set vectors of each distinct norm


def _layers(X: np.ndarray, norms: np.ndarray) -> _Layers:
    distinct, inverse, counts = np.unique(norms, return_inverse=True, return_counts=True)
    return _Layers(half=X, distinct=distinct, inverse=inverse, counts=counts)


@dataclass(frozen=True, eq=False)
class _FormVectors:
    A: np.ndarray
    Ainv: np.ndarray
    form: _Layers   # the half-set on the A side
    dual: _Layers   # and on the Ainv side
    radius: float   # both sides hold the vectors of norm <= radius


def _certified_sum(A: np.ndarray, cutoff: float, bounds, sums, what: str):
    """The one certified lattice sum: (value, tail, vectors) at one radius.

    ``bounds(grid)`` gives, for each certified quantity, its tail majorant
    at every grid radius and an a-priori tolerance.  The radius is the first
    grid radius in [cutoff/pi, cutoff/pi * _RADIUS_CAP] where every
    majorant meets its a-priori tolerance, or that cap when none does.  The
    vectors of norm <= radius of the form and of its inverse are collected
    once each and grouped by norm into layers, which are handed to ``sums``;
    it returns (value, tolerance per quantity), evaluating each summand once
    per distinct norm and summing it against the layer counts.  The
    majorants at the radius must meet those tolerances, or TruncationError
    is raised.
    """
    if not (cutoff > 0 and math.isfinite(cutoff)):
        raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
    Ainv = np.linalg.inv(A)
    Ainv = 0.5 * (Ainv + Ainv.T)
    r0 = cutoff / math.pi
    top = r0 * _RADIUS_CAP
    grid = _grid(A, Ainv, r0)
    majorants, a_priori = zip(*bounds(grid))
    M = np.array(majorants)
    fits = np.flatnonzero(np.all(M <= np.array(a_priori)[:, None], axis=0) & (grid.t <= top))
    radius = float(grid.t[fits[0]]) if fits.size else top
    fv = _FormVectors(A=A, Ainv=Ainv, form=_layers(*short_vectors_float(A, radius)),
                      dual=_layers(*short_vectors_float(Ainv, radius)), radius=radius)
    value, tolerances = sums(fv)
    tails = M[:, np.searchsorted(grid.t, radius, side="right") - 1]
    if not np.all(tails <= np.array(tolerances)):
        raise TruncationError(f"{what}: tail tolerance unattained at radius {radius:.6g}")
    return value, float(np.sum(tails)), fv


def completed_zeta(Q, s: float, *, cutoff: float = DEFAULT_CUTOFF) -> float:
    """pi^{-s} Gamma(s) Z(Q, s): the symmetric continuation.

    Splitting the Mellin integral of the lattice sum at 1 and applying
    Poisson summation to one half gives
        det^{-1/2}/(s - n/2) - 1/s + S_Q(s) + det^{-1/2} S_{Q^{-1}}(n/2 - s)
    with S_A(s) the incomplete-gamma sum over the nonzero vectors of A; the
    determinant factor on the dual sum is the general-determinant form of
    the identity (it is 1 on the determinant-1 manifold).  Invariant under
    (Q, s) -> (Q^{-1}, n/2 - s) when det Q = 1.  Both summands
    x^{-a} Gamma(a, x) = int_1^oo u^{a-1} e^{-xu} du are positive and
    decreasing for every real a.
    """
    A = _as_form(Q)
    n = A.shape[0]
    if abs(s - n / 2) < 1e-12:
        raise ZetaPoleError(f"simple pole at s = n/2 = {n / 2}")
    if abs(s) < 1e-12:
        raise ZetaPoleError("s = 0 is handled by the height path")
    detA = float(np.linalg.det(A))
    a2 = n / 2 - s
    # the summands, given x and Gamma of their order at x
    g1 = lambda x, G: x ** (-s) * G
    g2 = lambda x, G: detA ** (-0.5) * x ** (-a2) * G

    def bounds(grid: _Grid):
        gf, gd = g1(grid.x_form, grid.gamma(s)), g2(grid.x_dual, grid.gamma(a2))
        return [(grid.majorant(gf, gd), TAIL_REL * grid.basis_floor(s, a2, detA ** (-0.5)))]

    def sums(fv: _FormVectors):
        c, b = math.pi * fv.form.distinct, math.pi * fv.dual.distinct
        body = 2.0 * float(fv.form.counts @ g1(c, upper_gamma(s, c))
                           + fv.dual.counts @ g2(b, upper_gamma(a2, b)))
        return body, (TAIL_REL * max(abs(body), 1e-30),)

    body = _certified_sum(A, cutoff, bounds, sums, "completed zeta")[0]
    return detA ** (-0.5) / (s - n / 2) - 1.0 / s + body


def epstein_zeta(Q, s: float, *, cutoff: float = DEFAULT_CUTOFF) -> float:
    """Analytically continued Z(Q, s) for real s, away from 0 and n/2.

    At a negative integer s, 1/Gamma(s) = 0 and Z has its trivial zero.
    """
    if s < 0 and s == math.floor(s):
        _as_form(Q)
        return 0.0
    rhs = completed_zeta(Q, s, cutoff=cutoff)
    return math.pi ** s / math.gamma(s) * rhs


def _main_summand(n: int, x: np.ndarray) -> np.ndarray:
    """F's summand on the form side: f = x^{-n/2} Gamma(n/2, x) at x = pi A[m]."""
    return x ** (-n / 2) * upper_gamma(n / 2, x)


def _gradient_weight(n: int, xs: np.ndarray, f: np.ndarray) -> np.ndarray:
    """psi1 = pi x^{-(n/2+1)} Gamma(n/2+1, x) = pi (n/2 f + e^{-x}) / x, by recurrence."""
    return math.pi * (n / 2 * f + np.exp(-xs)) / xs


def _norm_factor(Ainv: np.ndarray) -> float:
    """lam = lam_max(A^-1): |m|^2 <= lam A[m] and |A^-1 y|^2 <= lam A^-1[y]."""
    return float(np.linalg.eigvalsh(Ainv)[-1])


def _height_bounds(grid: _Grid):
    """F's and the gradient's (majorant on the grid, a-priori tolerance).

    F sums f over the form and Gamma(0, pi b) over the dual.  The gradient's
    tail is bounded in Frobenius norm term by term: psi1(c) |m|^2 <=
    psi1(c) c lam and psi2(b) |A^-1 y|^2 <= exp(-pi b) lam, both decreasing.
    """
    n = grid.A.shape[0]
    f = grid.x_form ** (-n / 2) * grid.gamma(n / 2)
    e = grid.gamma(0.0)
    lam = _norm_factor(grid.Ainv)
    grad_form = _gradient_weight(n, grid.x_form, f) * grid.x_form / math.pi * lam
    grad_dual = np.exp(-grid.x_dual) * lam
    return [(grid.majorant(f, e), TAIL_REL * grid.basis_floor(n / 2, 0.0)),
            (grid.majorant(grad_form, grad_dual), GRAD_TAIL_FLOOR)]


def _F_sum(fv: _FormVectors, f: np.ndarray) -> tuple[float, float]:
    """(F value, its tolerance TAIL_REL |F|) from the main summands f on the form's layers."""
    e = upper_gamma(0.0, math.pi * fv.dual.distinct)
    F = 2.0 * float(fv.form.counts @ f) + 2.0 * float(fv.dual.counts @ e)
    return F, TAIL_REL * max(abs(F), 1e-30)


def _grad_sum(fv: _FormVectors, f: np.ndarray) -> tuple[np.ndarray, float]:
    """(gradient of F, its tolerance GRAD_TAIL_FLOOR + TAIL_REL |G|).

    The gradient is a symmetric matrix assembled from both lattice sums:
    -psi1 weights on m m^t over the form's vectors and psi2 weights on
    (Q^-1 m)(Q^-1 m)^t over the dual's, with
    psi1(c) = pi (pi c)^{-(n/2+1)} Gamma(n/2+1, pi c) and
    psi2(b) = exp(-pi b)/b.  Equivariant under unimodular changes of basis.
    Both weights are evaluated on the distinct norms (f is given there) and
    gathered to the vectors through the layers' inverse index.
    """
    n = fv.A.shape[0]
    c, b = fv.form.distinct, fv.dual.distinct
    w1 = _gradient_weight(n, math.pi * c, f)[fv.form.inverse]
    V = fv.form.half.astype(float)
    T1 = 2.0 * ((V * w1[:, None]).T @ V)
    w2 = (np.exp(-math.pi * b) / b)[fv.dual.inverse]
    W = fv.dual.half.astype(float) @ fv.Ainv
    T2 = 2.0 * ((W * w2[:, None]).T @ W)
    G = -T1 + T2
    return 0.5 * (G + G.T), GRAD_TAIL_FLOOR + TAIL_REL * float(np.linalg.norm(G))


def height_constant(n: int) -> float:
    """s-derivative at 0 of pi^s/Gamma(s) (1/(s - n/2) - 1/s): -2/n - gamma - log(pi)."""
    return -2.0 / n - EULER_GAMMA - math.log(math.pi)


@dataclass(frozen=True, eq=False)
class HeightReport:
    """Height value with its gradient and stationarity diagnostics."""

    height: float
    F_value: float
    constant_C: float
    gradient: np.ndarray
    projected_residual: float
    truncation_radius: float
    tail_estimate: float
    half_vectors_form: int   # vectors enumerated, one per antipodal pair, on the form
    half_vectors_dual: int   # and on its inverse, at the truncation radius

    def to_dict(self) -> dict:
        return {**vars(self), "gradient": self.gradient.tolist()}


def _det1_form(L) -> np.ndarray:
    """The determinant-1 representative Q / det(Q)^{1/n} of a lattice or form."""
    Q = L.gram if isinstance(L, LatticeDescriptor) else L
    if isinstance(Q, GramMatrix):
        return normalized_to_det1(Q)
    A = _as_form(Q)
    return A / float(np.linalg.det(A)) ** (1.0 / A.shape[0])


def _projected_residual(A: np.ndarray, G: np.ndarray) -> float:
    """|G - lam A^-1| / |G|: G's part in the determinant-1 tangent space, relative."""
    Ainv = np.linalg.inv(A)
    Ainv = 0.5 * (Ainv + Ainv.T)
    lam = float(np.tensordot(Ainv, G)) / float(np.tensordot(Ainv, Ainv))
    P = G - lam * Ainv
    return float(np.linalg.norm(P)) / max(float(np.linalg.norm(G)), 1e-300)


def height(L, *, cutoff: float = DEFAULT_CUTOFF) -> HeightReport:
    """Torus height of the determinant-1 representative of a lattice.

    The input form is rescaled to determinant 1; the height is
    C + F(Q, 0) + 2 log(2 pi) with C the closed-form constant, and the
    report carries the gradient of F with its tangent-projected residual,
    the relative Frobenius norm of the gradient's part in the determinant-1
    tangent space; a value near zero certifies numerical stationarity of
    the height at the lattice.  F and the gradient come from the same
    vectors, at a radius where both tails are within tolerance.
    """
    A = _det1_form(L)

    def sums(fv: _FormVectors):
        f = _main_summand(A.shape[0], math.pi * fv.form.distinct)
        F, ftol = _F_sum(fv, f)
        G, gtol = _grad_sum(fv, f)
        return (F, G), (ftol, gtol)

    (F, G), tail, fv = _certified_sum(A, cutoff, _height_bounds, sums, "height")
    C = height_constant(A.shape[0])
    return HeightReport(
        height=C + F + 2.0 * math.log(2.0 * math.pi),
        F_value=F,
        constant_C=C,
        gradient=G,
        projected_residual=_projected_residual(A, G),
        truncation_radius=fv.radius,
        tail_estimate=tail,
        half_vectors_form=len(fv.form.half),
        half_vectors_dual=len(fv.dual.half),
    )

