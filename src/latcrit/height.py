"""Epstein zeta continuation, flat-torus height, and stationarity numerics.

The zeta continuation and the height are one two-sided incomplete-gamma
lattice sum
    S = sum_m x^{-a} Gamma(a, x) + c sum_y x^{-b} Gamma(b, x)
over the nonzero vectors m of the form and y of its inverse, at x = pi Q[m]
and x = pi Q^-1[y]: the zeta body has (a, b, c) = (s, n/2 - s, det^{-1/2})
and the height's invariant F has (n/2, 0, 1).  Every such sum is evaluated
by ``_certified_sum`` with one summand on the ``_Sides`` built once per
call: A (at determinant 1 for the height), A^-1 (for a ``GramMatrix``,
from the exact inverse the dual's walk reads), their integral forms and
annulus counts.  The height's gradient on the determinant-1 manifold is its
one extra quantity, weighted by F's summand through the incomplete-gamma
recurrence.  The tail majorants are evaluated on one fixed geometric grid
of radii before anything is enumerated, and the radius is the first grid
radius where they meet an a-priori tolerance: 1e-13 times a lower bound
on the sum (its terms are positive, so the basis vectors' terms bound it,
and a closed-form floor from the incomplete-gamma recurrence bounds
those), or the gradient's absolute floor.  Neither
exceeds the real tolerance (1e-13 times the sum, plus that floor for the
gradient), so the form and its inverse are enumerated once each at that
radius.  The check of the same majorants against the real tolerance stays
as the guard of record: it raises ``TruncationError``.

A summand depends only on its vector's norm, so each side's vectors are
grouped into layers and special functions run once per layer.  For a
``GramMatrix`` the layers are exact: each side is walked on its integral
form P (d Q, and d' Q^-1), whose norms m are integers; the walk's float64
leaf norms are exact while every product and partial sum stays below 2^53,
which ``shells._norm_magnitude`` guards, so the order BLAS sums them in
cannot change a bit.  A layer is one value of m, found by ``np.bincount``
with no sort; its float norm m / (d det(Q)^{1/n}) (or the inverse's
analogue) is the only rounding.  Float-array input, and a
``GramMatrix`` that fails the guard or would need a bincount table of
2^20 entries or more, walk the float form and group its rounded norms
with ``np.unique``.  Both routes collect with ``shells.short_vectors_float``.
Gamma(a, pi t) on the grid is cached per order a.
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

from .gram import GramMatrix, LatticeDescriptor, determinant, gram_inverse
from .shells import FLOAT_EXACT, _norm_magnitude, _slack_bound, short_vectors_float
from .specfun import _legendre_cf, upper_gamma

TAIL_REL = 1e-13
GRAD_TAIL_FLOOR = 1e-14
EULER_GAMMA = float(np.euler_gamma)
_FLOOR_DEPTH = 8  # continued-fraction levels of the basis terms' floor (_gamma_floor)
# The candidate radii t_k = (40/pi) 1.01^k, on to pi t >= 800 where every
# summand underflows, the arguments x = pi t, and the largest radius chosen.
_T0 = 40.0 / math.pi
_RADII = _T0 * 1.01 ** np.arange(math.ceil(math.log(800.0 / (math.pi * _T0)) / math.log(1.01))
                                 + 1.0)
_X = math.pi * _RADII
_RADIUS_CAP = _T0 * 1.35 ** 9
_TABLE_ENTRIES = 1 << 20  # the exact route's bincount table stays below this many entries


class TruncationError(RuntimeError):
    """The certified tail could not be brought below tolerance."""


class ZetaPoleError(ValueError):
    """Evaluation at the simple pole s = n/2."""


def _as_form(Q) -> np.ndarray:
    A = np.asarray(Q, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("form must be a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("form must have finite entries")
    if not np.allclose(A, A.T, atol=1e-10):
        raise ValueError("form must be symmetric")
    np.linalg.cholesky(A)  # raises if not positive definite
    return 0.5 * A + 0.5 * A.T  # the bits of 0.5 * (A + A.T), with no overflow


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
    convergent 1/D_0 of Legendre's continued fraction (``_legendre_cf`` at
    m = _FLOOR_DEPTH levels), a lower bound that rises with m; m = 1 gives
    1/(x + 1 - b).  Below b = 1 the bound can be tighter than the float
    evaluation's rounding (under 1e-15 relative against mpmath for a in
    [-3.5, 7.5], x in [0.05, 700]), so there the result is lowered by 2e-15
    relative.
    """
    total = np.zeros_like(x)
    term = np.ones_like(x)  # c_j x^{-j}
    b = a
    while b > 1:
        total += term
        term = term * ((b - 1) / x)
        b -= 1
    # x^{1-b} e^x Gamma(b, x) from below, exactly 1 at b = 1
    total += term * (x / _legendre_cf(b, x, _FLOOR_DEPTH))
    return np.exp(-x) / x * total * (1.0 if b == 1 else 1.0 - 2e-15)


def _summand(a: float, c: float, x: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """c x^{-a} Gamma(a, x), given gamma = Gamma(a, x): the summand of every sum here."""
    return c * x ** (-a) * gamma


@functools.lru_cache(maxsize=32)
def _radius_gamma(a: float) -> np.ndarray:
    """Gamma(a, pi t) on the grid radii, which are the same for every form (read-only)."""
    g = upper_gamma(a, _X)
    g.flags.writeable = False
    return g


@dataclass(frozen=True, eq=False)
class _Sides:
    """A form A and its inverse, built once per sum by ``_sides``.

    ``majorant`` bounds a sum's tail at each radius, and ``basis_floor``
    bounds a sum from below by its basis vectors' terms without evaluating
    Gamma.
    """

    A: np.ndarray
    Ainv: np.ndarray
    det: float       # the input form's determinant
    integral: tuple  # (P, unit) for A and for A^-1, each P / unit; (None, None) for float input
    counts: tuple    # _annulus_counts on the radii, for A and for A^-1

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
        total = np.zeros(len(g_form))
        for g, (outer, inner) in zip((g_form, g_dual), self.counts):
            if g[-1] != 0.0:
                raise TruncationError("tail majorant did not underflow on the radius grid")
            steps = np.diff(outer) * g[:-1]
            later = np.append(np.cumsum(steps[::-1])[::-1][1:], 0.0)
            total[:-1] += (outer[1:] - inner[:-1]) * g[:-1] + later
        return total

    def basis_floor(self, orders) -> float:
        """Lower bound on the sum with ``orders`` ((a, c) for the form, then for its inverse).

        Every term is positive, so the basis vectors and their negatives, at
        x = pi diag A and pi diag A^-1, bound the sum below, and
        ``_gamma_floor`` bounds each of their terms below.
        """
        sides = (np.diag(self.A), np.diag(self.Ainv))
        return 2.0 * float(sum(c * np.sum(_gamma_floor(a, math.pi * d))
                               for (a, c), d in zip(orders, sides)))


def _sides(L, det1: bool) -> _Sides:
    """The sides of a lattice or a form, rescaled to determinant 1 if ``det1``.

    A ``GramMatrix`` Q gives A = Q / delta, delta = det(Q)^{1/n} or 1 (the
    bits of ``normalized_to_det1`` when rescaled), A^-1 = delta Q^-1 from the
    exact inverse, and the integral forms d Q and d' Q^-1 at units d delta
    and d' / delta.  A float form is validated and inverted once, symmetrized.
    """
    Q = L.gram if isinstance(L, LatticeDescriptor) else L
    if isinstance(Q, GramMatrix):
        det = float(determinant(Q))
        delta = det ** (1.0 / Q.n) if det1 else 1.0
        Qinv = gram_inverse(Q)
        (P, d), (Pi, di) = Q.integral_rescale(), Qinv.integral_rescale()
        A, Ainv = Q.to_float() / delta, Qinv.to_float() * delta
        integral = ((np.array(P, dtype=float), d * delta), (np.array(Pi, dtype=float), di / delta))
    else:
        A = _as_form(Q)
        det = _finite_det(A)
        if det1:
            A = A / det ** (1.0 / A.shape[0])
        Ainv = np.linalg.inv(A)
        Ainv = 0.5 * (Ainv + Ainv.T)
        integral = (None, None)
    return _Sides(A=A, Ainv=Ainv, det=det, integral=integral,
                  counts=(_annulus_counts(A, _RADII), _annulus_counts(Ainv, _RADII)))


@dataclass(frozen=True, eq=False)
class _Layers:
    """One side's half-set in walk order, grouped into layers of equal norm."""

    half: np.ndarray      # float half-set, one vector per antipodal pair
    distinct: np.ndarray  # its distinct norms, increasing
    inverse: np.ndarray   # half[k] has norm distinct[inverse[k]]
    counts: np.ndarray    # number of half-set vectors of each distinct norm


def _layers(M: np.ndarray, integral, radius: float) -> _Layers:
    """The half-set of M[x] <= radius, grouped into layers.

    ``integral`` is None, or (P, unit) with P an integral form (float array)
    and M = P / unit in exact arithmetic.  Then P is walked to the integer
    bound floor(_slack_bound(radius) unit), the float route's slack, which
    rounds toward inclusion so that no vector within the radius is dropped.
    When that walk's norms are float-exact (``_norm_magnitude`` below
    FLOAT_EXACT) and the bound is below _TABLE_ENTRIES, the collector's
    norms are the integers m, and its own slack admits none above the
    bound: below 2^20 it adds less than 2^20 1e-9 + 1e-9 < 1.  They are grouped
    by one ``np.bincount`` with no sort, and a layer's norm is m / unit.
    Otherwise M is walked and its rounded norms are grouped by
    ``np.unique``.
    """
    if integral is not None:
        P, unit = integral
        bound = math.floor(_slack_bound(radius) * unit)
        if bound < _TABLE_ENTRIES and _norm_magnitude(P, bound) < FLOAT_EXACT:
            X, m = short_vectors_float(P, bound)
            m = m.astype(np.int64)
            table = np.bincount(m)
            norms = np.flatnonzero(table)
            rank = np.zeros(len(table), dtype=np.intp)
            rank[norms] = np.arange(len(norms))
            return _Layers(half=X, distinct=norms / unit, inverse=rank[m], counts=table[norms])
    X, norms = short_vectors_float(M, radius)
    distinct, inverse, counts = np.unique(norms, return_inverse=True, return_counts=True)
    return _Layers(half=X, distinct=distinct, inverse=inverse, counts=counts)


def _F_orders(n: int) -> tuple:
    """F's orders: x^{-n/2} Gamma(n/2, x) over the form, Gamma(0, x) over its inverse."""
    return ((n / 2, 1.0), (0.0, 1.0))


def _norm_factor(Ainv: np.ndarray) -> float:
    """lam = lam_max(A^-1): |m|^2 <= lam A[m] and |A^-1 y|^2 <= lam A^-1[y]."""
    return float(np.linalg.eigvalsh(Ainv)[-1])


def _gradient_weight(n: int, xs: np.ndarray, f: np.ndarray) -> np.ndarray:
    """psi1 = pi x^{-(n/2+1)} Gamma(n/2+1, x) = pi (n/2 f + e^{-x}) / x, by recurrence."""
    return math.pi * (n / 2 * f + np.exp(-xs)) / xs


def _bounds(sides: _Sides, orders, gradient: bool) -> list:
    """(majorant on the grid, a-priori tolerance) of the sum, then of the gradient if asked.

    The gradient's tail is bounded in Frobenius norm term by term: psi1(c)
    |m|^2 <= psi1(c) c lam and psi2(b) |A^-1 y|^2 <= exp(-pi b) lam, both
    decreasing.
    """
    g = [_summand(a, c, _X, _radius_gamma(a)) for a, c in orders]
    out = [(sides.majorant(*g), TAIL_REL * sides.basis_floor(orders))]
    if gradient:
        lam = _norm_factor(sides.Ainv)
        grad_form = _gradient_weight(sides.A.shape[0], _X, g[0]) * _X / math.pi * lam
        out.append((sides.majorant(grad_form, np.exp(-_X) * lam), GRAD_TAIL_FLOOR))
    return out


def _grad_sum(sides: _Sides, layers: tuple, f: np.ndarray) -> tuple[np.ndarray, float]:
    """(gradient of F, its tolerance GRAD_TAIL_FLOOR + TAIL_REL |G|).

    The gradient is a symmetric matrix assembled from both lattice sums:
    -psi1 weights on m m^t over the form's vectors and psi2 weights on
    (Q^-1 m)(Q^-1 m)^t over the dual's, with
    psi1(c) = pi (pi c)^{-(n/2+1)} Gamma(n/2+1, pi c) and
    psi2(b) = exp(-pi b)/b.  Equivariant under unimodular changes of basis.
    Both weights are evaluated on the distinct norms of ``layers`` (the
    form's, then the dual's; f, F's summand, is given there) and gathered
    to the vectors through the layers' inverse index.
    """
    form, dual = layers
    n = sides.A.shape[0]
    c, b = form.distinct, dual.distinct
    w1 = _gradient_weight(n, math.pi * c, f)[form.inverse]
    V = form.half
    T1 = 2.0 * ((V * w1[:, None]).T @ V)
    w2 = (np.exp(-math.pi * b) / b)[dual.inverse]
    W = dual.half @ sides.Ainv
    T2 = 2.0 * ((W * w2[:, None]).T @ W)
    G = -T1 + T2
    return 0.5 * (G + G.T), GRAD_TAIL_FLOOR + TAIL_REL * float(np.linalg.norm(G))


def _certified_sum(sides: _Sides, orders, what: str, gradient: bool = False):
    """The one certified lattice sum: (S, G, tail, radius, layers) at one radius.

    S sums c x^{-a} Gamma(a, x) over the nonzero vectors of A at
    x = pi A[m], and over those of A^-1 at x = pi A^-1[y], with ``orders``
    ((a, c) for A, then for A^-1).  With ``gradient`` (only for F's orders)
    G is F's gradient, else None.  ``_bounds`` gives each quantity's tail
    majorant at every grid radius and its a-priori tolerance; the radius is
    the first grid radius up to _RADIUS_CAP where every majorant meets its
    a-priori tolerance, or that cap when none does.  The vectors of norm <=
    radius of A and of A^-1 are collected once each and grouped by norm into
    ``layers`` (``_layers``, on the sides' integral forms when they have
    them).  Each summand is evaluated once per layer and summed against the
    layer counts.  The majorants at the radius must meet the real
    tolerances (TAIL_REL |S|, and GRAD_TAIL_FLOOR + TAIL_REL |G|), or
    TruncationError is raised.
    """
    majorants, a_priori = zip(*_bounds(sides, orders, gradient))
    M = np.array(majorants)
    fits = np.flatnonzero(np.all(M <= np.array(a_priori)[:, None], axis=0)
                          & (_RADII <= _RADIUS_CAP))
    radius = float(_RADII[fits[0]]) if fits.size else _RADIUS_CAP
    layers = (_layers(sides.A, sides.integral[0], radius),
              _layers(sides.Ainv, sides.integral[1], radius))
    terms = [_summand(a, c, x, upper_gamma(a, x)) for (a, c), x
             in zip(orders, (math.pi * layers[0].distinct, math.pi * layers[1].distinct))]
    S = 2.0 * float(layers[0].counts @ terms[0] + layers[1].counts @ terms[1])
    tolerances = [TAIL_REL * max(abs(S), 1e-30)]
    G = None
    if gradient:
        G, gtol = _grad_sum(sides, layers, terms[0])
        tolerances.append(gtol)
    tails = M[:, np.searchsorted(_RADII, radius, side="right") - 1]
    if not np.all(tails <= np.array(tolerances)):
        raise TruncationError(f"{what}: tail tolerance unattained at radius {radius:.6g}")
    return S, G, float(np.sum(tails)), radius, layers


def completed_zeta(Q, s: float) -> float:
    """pi^{-s} Gamma(s) Z(Q, s): the symmetric continuation.

    Splitting the Mellin integral of the lattice sum at 1 and applying
    Poisson summation to one half gives
        det^{-1/2}/(s - n/2) - 1/s + S_Q(s) + det^{-1/2} S_{Q^{-1}}(n/2 - s)
    with S_A(s) the incomplete-gamma sum over the nonzero vectors of A; the
    determinant factor on the dual sum is the general-determinant form of
    the identity (it is 1 on the determinant-1 manifold).  Invariant under
    (Q, s) -> (Q^{-1}, n/2 - s) when det Q = 1.  Both summands
    x^{-a} Gamma(a, x) = int_1^oo u^{a-1} e^{-xu} du are positive and
    decreasing for every real a.  A ``GramMatrix`` is summed over exact
    layers, with its exact determinant.
    """
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    sides = _sides(Q, det1=False)
    n = sides.A.shape[0]
    if abs(s - n / 2) < 1e-12:
        raise ZetaPoleError(f"simple pole at s = n/2 = {n / 2}")
    if abs(s) < 1e-12:
        raise ZetaPoleError("s = 0 is handled by the height path")
    c = sides.det ** (-0.5)
    body = _certified_sum(sides, ((s, 1.0), (n / 2 - s, c)), "completed zeta")[0]
    return c / (s - n / 2) - 1.0 / s + body


def epstein_zeta(Q, s: float) -> float:
    """Analytically continued Z(Q, s) for real s, away from 0 and n/2.

    At a negative integer s, 1/Gamma(s) = 0 and Z has its trivial zero.
    """
    if s < 0 and float(s).is_integer():
        _sides(Q, det1=False)  # validates the form
        return 0.0
    rhs = completed_zeta(Q, s)
    return math.pi ** s / math.gamma(s) * rhs


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


def _finite_det(A: np.ndarray) -> float:
    """det A of a float form whose determinant-1 normalization is finite.

    A form whose determinant or normalized entries leave the float range
    (1e308 I or 1e-300 I) is rejected here, before any enumeration.
    """
    with np.errstate(over="ignore"):
        det = float(np.linalg.det(A))
        if 0 < det < math.inf and np.all(np.isfinite(A / det ** (1.0 / A.shape[0]))):
            return det
    raise ValueError("form has no finite determinant-1 normalization")


def _projected_residual(Ainv: np.ndarray, G: np.ndarray) -> float:
    """|G - lam A^-1| / |G|: G's part in the determinant-1 tangent space, relative.

    Ainv is the sides' A^-1, which is symmetric (``_sides``).
    """
    lam = float(np.tensordot(Ainv, G)) / float(np.tensordot(Ainv, Ainv))
    P = G - lam * Ainv
    return float(np.linalg.norm(P)) / max(float(np.linalg.norm(G)), 1e-300)


def height(L) -> HeightReport:
    """Torus height of the determinant-1 representative of a lattice.

    The input form is rescaled to determinant 1; the height is
    C + F(Q, 0) + 2 log(2 pi) with C the closed-form constant, and the
    report carries the gradient of F with its tangent-projected residual,
    the relative Frobenius norm of the gradient's part in the determinant-1
    tangent space; a value near zero certifies numerical stationarity of
    the height at the lattice.  F and the gradient come from the same
    vectors, at a radius where both tails are within tolerance.
    """
    sides = _sides(L, det1=True)
    n = sides.A.shape[0]
    F, G, tail, radius, (form, dual) = _certified_sum(sides, _F_orders(n), "height",
                                                      gradient=True)
    C = height_constant(n)
    return HeightReport(
        height=C + F + 2.0 * math.log(2.0 * math.pi),
        F_value=F,
        constant_C=C,
        gradient=G,
        projected_residual=_projected_residual(sides.Ainv, G),
        truncation_radius=radius,
        tail_estimate=tail,
        half_vectors_form=len(form.half),
        half_vectors_dual=len(dual.half),
    )
