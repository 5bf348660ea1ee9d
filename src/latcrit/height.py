"""Epstein zeta continuation, flat-torus height, and stationarity numerics.

The zeta continuation and the height are one two-sided incomplete-gamma
lattice sum
    S = sum_m x^{-a} Gamma(a, x) + c sum_y x^{-b} Gamma(b, x)
over the nonzero vectors m of the form and y of its inverse, at x = pi Q[m]
and x = pi Q^-1[y]: the zeta body has (a, b, c) = (s, n/2 - s, det^{-1/2})
and the height's invariant F has (n/2, 0, 1).  Every such sum is evaluated
by ``_certified_sum`` with one summand on the ``_Sides`` built once per
call: A (at determinant 1 for the height), A^-1 (for a ``GramMatrix``,
from the exact inverse), the forms their walks start from, and their
annulus counts.  The height's gradient on the determinant-1 manifold is its
one extra quantity, weighted by F's summand through the incomplete-gamma
recurrence.  The tail majorants are evaluated on one fixed geometric grid
of radii before anything is enumerated, and the radius is the first grid
radius where they meet an a-priori tolerance: 1e-13 times a lower bound
on the sum (its terms are positive, so the basis vectors' terms bound it,
and a closed-form floor from the incomplete-gamma recurrence bounds
those), and for the gradient the a-priori tolerance of its route (below).
None exceeds its real tolerance (1e-13 times the sum, plus an absolute
floor for the gradient), so each side is enumerated once at that radius.
The check of the same majorants against the real tolerance stays as the
guard of record: it raises ``TruncationError``.

A summand depends only on its vector's norm, so each side's vectors are
grouped into layers and special functions run once per layer.  Both sides
of a ``GramMatrix`` are walked by one rule: every exact walk starts from a
walk record (``shells.walk_record``), so the form and its inverse are each
walked on the integral rows P of their LLL-reduced basis, whose norms m are
integers, while the majorants stay on A and A^-1 in the input basis, so
that no radius moves.  The walk's float64 leaf norms are exact while every
product and partial sum stays below 2^53 (``shells._norm_magnitude``), so
the order BLAS sums them in cannot change a bit.  A layer is one value of
m, counted by ``np.bincount`` with no sort, and m / unit is its float norm,
the only rounding.  Each vector keeps its m, which picks the certificate's
vectors.  Float-array input, and a ``GramMatrix`` that fails the guard or
would need a bincount table of 2^20 entries or more, walk the float form
and group its rounded norms with ``np.unique``.  Both routes collect with
``shells.short_vectors_float`` in the walk's compact form
(``shells.HalfSet``).  The summed gradient builds no vector: it maps each
level-0 parent by its side's gradient map (``_Sides.maps``) and sums its
leaves in closed form (``_leaf_fold``).  Gamma(a, pi t) on the grid is cached per
order a.

That numeric route is the gradient's second one (``HeightReport.route``).
Its radius r_N must also meet the majorant of the summed gradient
(``_numeric_bound``), whose weights psi1 |m|^2 decay more slowly than F's;
that majorant and r_N are computed only after a failed certificate.  The
first route, the theorem route, reads the paper's theorem off the
height's own walks: a lattice whose layers are all spherical 2-designs is
a stationary point of the height.  On a ``GramMatrix``, judged as its
integral form d Q, the certificate is planned and counted before anything
is walked (``_judge``), which fixes its tested side and the range of norms
it must judge.  Its
gradient G = -(S_A / 2) A^-1 moves with F's form half S_A alone, so its
radius r_F is the one where F's majorant and |A^-1|_F / 2 times the form
part of it meet their tolerances (``_bounds``): on the catalogue that is
F's own radius, and it is never beyond r_N (``_numeric_bound`` proves it).
The first exact walk of the tested side, to r_F and then to r_N, whose
bound covers the range is judged once by ``_certificate``, on four
premises:
- duality: every layer of L is a 2-design exactly when every layer of L*
  is (theta duality, ``certify``'s module docstring), so the certificate of
  either side of the level duality covers both sums;
- the moment identity: a 2-design layer M of norm m has sum x x^t =
  (m |M| / n) A^-1 (``design``), and its dual layers likewise in A^-1's
  metric, so each layer's term of G is a multiple of A^-1, and so is G;
- the trace identity: Tr(A G) = -(n/2) S_A, with S_A = 2 sum f over the
  form's half-set, F's form half (the e^{-x} sums of both sides cancel by
  Poisson summation at determinant 1), so G = -(S_A / 2) A^-1 at the
  radius F is summed to;
- completeness: an exact walk (the bincount route) to the integer bound b
  holds every vector of norm at most b, so when the tested side's range
  (the horizon of ``certify``) lies at or below its side's b, the layers
  gathered from that walk are all the certificate's, and ``certify._report``
  judges every one in increasing norm, as it does for ``fully_critical``.
A pass at r_F sums F there; a pass at r_N sums it at r_N, with the numeric
gradient's majorant, which bounds a certified G too.  A failed layer, a
range beyond both walks, a level too large to reach, and every float input
take the numeric route at r_N.  The judged walk is kept when it lies at the
final radius, and every other side is walked there once: an uncertified
input whose range the walk to r_F covers pays at most one extra walk of its
tested side.  Every numeric-route report is the one the summed gradient
alone gives, bit for bit.
Tails are majorants: points in an annulus are counted by volume, through a
fundamental domain of bounded diameter, and summed by parts against the
monotone summands, so the reported tail estimate is a true upper bound.
Fixed enumeration order keeps reports bit-reproducible.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import shells
from .certify import (
    SIDE_INPUT,
    VERDICT_CRITICAL,
    FullyCriticalReport,
    _counted,
    _horizon_floor,
    _Plan,
    _plan,
    _report,
)
from .gram import GramMatrix, LatticeDescriptor, _scaled, _stored, determinant, gram_inverse
from .shells import (
    FLOAT_EXACT,
    HalfSet,
    _moments,
    _norm_magnitude,
    _slack_bound,
    short_vectors_float,
)
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
_BLOCK = 256  # parents per block of the gradient's sums (_blocked_sum)
ROUTE_THEOREM = "theorem"  # the gradient of a certified lattice, lam A^-1 from F's form half
ROUTE_NUMERIC = "numeric"  # the gradient summed over both walks (_grad_sum)


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

    Side k (0 the form, 1 its inverse) is walked on ``walked[k]``, the side
    in the basis of its reducing transform ``U[k]``.  ``majorant`` and
    ``basis_floors`` read A and A^-1 in the input basis: they bound a sum's
    tail at each radius, and each side's part of it from below by its basis
    vectors' terms, without evaluating Gamma.
    """

    A: np.ndarray
    Ainv: np.ndarray
    det: float       # the input form's determinant
    walked: tuple    # U^t A U and U^t A^-1 U, with each side's U
    U: tuple         # each side's reducing transform (the identity for float input)
    integral: tuple  # each side's (P, unit): int64 rows with walked = P / unit, or None
    counts: tuple    # _annulus_counts on the radii, for A and for A^-1
    exact: Optional[tuple] = None  # (d Q, a GramMatrix; d d', the records' denominators), or None

    @functools.cached_property
    def maps(self) -> tuple:
        """(U^t, U^t A^-1): a walked form vector x is the row x U^t of the input basis, and a
        walked dual vector z enters the summed gradient as the row z U^t A^-1."""
        return self.U[0].T.astype(float), self.U[1].T.astype(float) @ self.Ainv

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
        return self.side_majorant(0, g_form) + self.side_majorant(1, g_dual)

    def side_majorant(self, k: int, g: np.ndarray) -> np.ndarray:
        """``majorant``'s part from side k (0 the form, 1 its inverse)."""
        if g[-1] != 0.0:
            raise TruncationError("tail majorant did not underflow on the radius grid")
        outer, inner = self.counts[k]
        steps = np.diff(outer) * g[:-1]
        later = np.append(np.cumsum(steps[::-1])[::-1][1:], 0.0)
        return np.append((outer[1:] - inner[:-1]) * g[:-1] + later, 0.0)

    def basis_floors(self, orders) -> list:
        """Lower bounds on the form's part and the inverse's part of a sum with ``orders``.

        ``orders`` are (a, c) for the form, then for its inverse.  Every term
        is positive, so the basis vectors and their negatives, at
        x = pi diag A and pi diag A^-1, bound each part below, and
        ``_gamma_floor`` bounds each of their terms below.
        """
        sides = (np.diag(self.A), np.diag(self.Ainv))
        return [2.0 * c * float(np.sum(_gamma_floor(a, math.pi * d)))
                for (a, c), d in zip(orders, sides)]


def _sides(L, det1: bool) -> _Sides:
    """The sides of a lattice or a form, rescaled to determinant 1 if ``det1``.

    A ``GramMatrix`` Q gives A = Q / delta, delta = det(Q)^{1/n} or 1, and
    A^-1 = delta Q^-1 from the exact inverse.  Each side is walked on the
    walk record (``shells.walk_record``) of Q or of Q^-1, its LLL-reduced
    basis, which prunes better than a skewed input basis: as the integral
    rows d U^t Q U at unit d delta and d' U^t Q^-1 U at unit d' / delta, or,
    beyond int64, as the reduced float form.  The majorants, ``basis_floors``
    and the annulus counts stay on A and A^-1 in the input basis: the walks
    cover the same lattice vectors with the same norms, and no radius moves.
    A float form is validated and inverted once, symmetrized, and walked in
    its given basis (U = I).
    """
    Q = L.gram if isinstance(L, LatticeDescriptor) else L
    if isinstance(Q, GramMatrix):
        det = float(determinant(Q))
        delta = det ** (1.0 / Q.n) if det1 else 1.0
        Qinv = gram_inverse(Q)
        (Qr, P, d, U), (Qr_inv, P_inv, d_inv, U_inv) = map(shells.walk_record, (Q, Qinv))
        A, Ainv = Q.to_float() / delta, Qinv.to_float() * delta
        walked, U = (Qr.to_float() / delta, Qr_inv.to_float() * delta), (U, U_inv)
        integral = tuple(None if rows is None else (rows, unit)
                         for rows, unit in ((P, d * delta), (P_inv, d_inv / delta)))
        exact = (Q if d == 1 else _scaled(Q, 1, 1), d * d_inv)
    else:
        A = _as_form(Q)
        det = _finite_det(A)
        if det1:
            A = A / det ** (1.0 / A.shape[0])
        Ainv = np.linalg.inv(A)
        Ainv = 0.5 * (Ainv + Ainv.T)
        walked, U, integral, exact = (A, Ainv), (np.eye(len(A)),) * 2, (None, None), None
    return _Sides(A=A, Ainv=Ainv, det=det, walked=walked, U=U, integral=integral,
                  counts=(_annulus_counts(A, _RADII), _annulus_counts(Ainv, _RADII)), exact=exact)


@dataclass(frozen=True, eq=False)
class _Layers:
    """One side's half-set in walk order, grouped into layers of equal norm."""

    half: HalfSet         # one vector per antipodal pair, in the walk's compact form
    distinct: np.ndarray  # its distinct norms, increasing
    counts: np.ndarray    # number of half-set vectors of each distinct norm
    norms: np.ndarray     # half[k]'s norm: the integer m on the exact route, else the float one
    exact: Optional[np.ndarray] = None  # exact route: the distinct integer norms m

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """half[k] has norm distinct[inverse[k]]; built on first read, by ``_grad_sum`` alone."""
        if self.exact is None:
            return np.searchsorted(self.distinct, self.norms)
        rank = np.zeros(int(self.exact[-1]) + 1 if len(self.exact) else 0, dtype=np.intp)
        rank[self.exact] = np.arange(len(self.exact))
        return rank[self.norms]


def _exact_bound(integral, radius: float) -> Optional[int]:
    """The integer bound of an exact walk of ``integral`` to ``radius``, or None for the float route.

    ``integral`` is None, or (P, unit) with P a walk record's int64 rows.
    The bound is floor(_slack_bound(radius) unit), the float route's slack,
    which rounds toward inclusion so that no vector within the radius is
    dropped.  The walk is exact when its norms are float-exact
    (``_norm_magnitude`` below FLOAT_EXACT) and the bound is below
    _TABLE_ENTRIES.
    """
    if integral is None:
        return None
    P, unit = integral
    bound = math.floor(_slack_bound(radius) * unit)
    return bound if bound < _TABLE_ENTRIES and _norm_magnitude(P, bound) < FLOAT_EXACT else None


def _layers(M: np.ndarray, integral, radius: float, bound: Optional[int]) -> _Layers:
    """The half-set of M[x] <= radius, grouped into layers.

    ``integral`` is None, or (P, unit) with M = P / unit in exact
    arithmetic, and ``bound`` is ``_exact_bound(integral, radius)``, which
    the caller may have needed before the walk.  When it is an integer, P
    is walked to it: the collector's norms are the integers m, and its own
    slack admits none above the bound: below 2^20 it adds less than
    2^20 1e-9 + 1e-9 < 1.  They are counted by one ``np.bincount`` with no
    sort, and a layer's norm is m / unit.  Otherwise M is walked and its
    rounded norms are counted by ``np.unique``.  Each vector keeps its norm;
    the index of its layer is built only when it is read (``_Layers``).
    """
    if bound is not None:
        P, unit = integral
        X, m = short_vectors_float(P, bound)
        m = m.astype(np.int64)
        table = np.bincount(m)
        norms = np.flatnonzero(table)
        return _Layers(half=X, distinct=norms / unit, counts=table[norms], norms=m, exact=norms)
    X, norms = short_vectors_float(M, radius)
    distinct, counts = np.unique(norms, return_counts=True)
    return _Layers(half=X, distinct=distinct, counts=counts, norms=norms)


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
    """(majorant on the grid, a-priori tolerance) of the sum, then, if asked, of the theorem's G.

    The theorem route's G = -(S_A / 2) A^-1 moves with S_A alone, so its
    tail is |A^-1|_F / 2 times S_A's, which the form part M_form of the
    sum's majorant bounds; its real tolerance GRAD_TAIL_FLOOR + TAIL_REL |G|
    is at least GRAD_TAIL_FLOOR + TAIL_REL |A^-1|_F / 2 times the form part
    of the sum's basis floor.  The numeric route's row is
    ``_numeric_bound``'s, built only when the certificate does not pass at
    the radius r_F of these rows.
    """
    g = [_summand(a, c, _X, _radius_gamma(a)) for a, c in orders]
    form = sides.side_majorant(0, g[0])
    floors = sides.basis_floors(orders)
    out = [(form + sides.side_majorant(1, g[1]), TAIL_REL * float(sum(floors)))]
    if gradient:
        half_norm = 0.5 * float(np.linalg.norm(sides.Ainv))
        out.append((half_norm * form, GRAD_TAIL_FLOOR + TAIL_REL * half_norm * floors[0]))
    return out


def _numeric_bound(sides: _Sides) -> tuple:
    """(majorant on the grid, a-priori tolerance) of the numeric route's gradient (``_grad_sum``).

    Its tail is bounded in Frobenius norm term by term:
    psi1(c) |m|^2 <= psi1(c) c lam and psi2(b) |A^-1 y|^2 <= exp(-pi b) lam,
    both decreasing, with lam = ``_norm_factor``.

    The theorem row of ``_bounds`` never needs a larger radius than this
    one.  ``side_majorant`` is linear in g with nonnegative weights, and
    |A^-1|_F <= sqrt(n) lam, so at every grid radius, with f F's form
    summand, the theorem row is
        |A^-1|_F / 2 M_form(f) <= (n/2) lam M_form(f)
            <= M_form((n/2 f + e^{-x}) lam) + M_dual(e^{-x} lam),
    this row, and its tolerance is at least GRAD_TAIL_FLOOR, this row's.
    Wherever F's row and this one meet their tolerances the theorem row
    does too, so the radius r_F of F's and the theorem row is at most the
    radius r_N of F's and this row, _RADIUS_CAP included.
    """
    n = sides.A.shape[0]
    (a, c), _ = _F_orders(n)
    lam = _norm_factor(sides.Ainv)
    grad_form = _gradient_weight(n, _X, _summand(a, c, _X, _radius_gamma(a))) * _X / math.pi * lam
    return sides.majorant(grad_form, np.exp(-_X) * lam), GRAD_TAIL_FLOOR


def _blocked_sum(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """L^t R over blocks of _BLOCK rows, the blocks' products added pairwise.

    Within a block the product rounds as one gemm; numpy's pairwise
    summation adds the blocks, so the rounding grows with the block size and
    the logarithm of their count, not with the number of rows.
    """
    full, a, b = len(L) - len(L) % _BLOCK, L.shape[1], R.shape[1]
    prods = np.matmul(L[:full].reshape(-1, _BLOCK, a).transpose(0, 2, 1),
                      R[:full].reshape(-1, _BLOCK, b)).reshape(-1, a * b)
    prods = np.vstack([prods, (L[full:].T @ R[full:]).reshape(1, a * b)])
    return np.ascontiguousarray(prods.T).sum(axis=1).reshape(a, b)


def _leaf_fold(half: HalfSet, w: np.ndarray, M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum_k w_k v_k v_k^t over the vectors y_k of ``half``, walked on M; v_k = y_k B.

    A parent's leaves are C + d e_0, with C the parent at x_0 = c, the integer
    nearest the centre -(C M)_0 / M_00 of their x_0 interval, and d = x_0 - c.
    With W_j = sum w d^j over its leaves and g = e_0 B, they add
    W_0 v v^t + W_1 (g v^t + v g^t) + W_2 g g^t, v = C B.  W_0 and W_1 are
    one ``np.bincount`` each, the W_2 terms one sum over the leaves, and the
    sums over parents are blocked (``_blocked_sum``).
    """
    p, (k, n) = half.parent, half.parents.shape
    c = np.rint(half.parents @ M[:, 0] / -M[0, 0])
    d = half.x0 - c[p]
    wd = w * d
    C = half.parents.copy()
    C[:, 0] = c
    C, g = C @ B, B[0]
    L = np.empty((k, n + 1))  # [W_0 v, W_1]
    np.multiply(C, np.bincount(p, w, k)[:, None], out=L[:, :n])
    L[:, n] = np.bincount(p, wd, k)
    S = _blocked_sum(L, C)
    ug = np.outer(g, S[n])
    return S[:n] + ug + ug.T + float(wd @ d) * np.outer(g, g)


def _grad_sum(sides: _Sides, layers: tuple, f: np.ndarray) -> tuple[np.ndarray, float]:
    """(gradient of F, its tolerance GRAD_TAIL_FLOOR + TAIL_REL |G|).

    The gradient is a symmetric matrix assembled from both lattice sums:
    -psi1 weights on m m^t over the form's vectors and psi2 weights on
    (Q^-1 y)(Q^-1 y)^t over the dual's, with
    psi1(c) = pi (pi c)^{-(n/2+1)} Gamma(n/2+1, pi c) and
    psi2(b) = exp(-pi b)/b.  Equivariant under unimodular changes of basis.
    Both weights are evaluated on the distinct norms of ``layers`` (the
    form's, then the dual's; f, F's summand, is given there) and gathered
    to the vectors through the layers' inverse index.  No vector is built:
    ``_leaf_fold`` sums each level-0 parent's leaves in closed form, each
    side's mapped by its gradient map (``sides.maps``).  Its sums over parents are blocked:
    as one gemm over all parents, the catalogue's largest projected
    residual reads 7.1e-14, and blocked 4.3e-15.
    """
    form, dual = layers
    n = sides.A.shape[0]
    c, b = form.distinct, dual.distinct
    w1 = _gradient_weight(n, math.pi * c, f)[form.inverse]
    w2 = (np.exp(-math.pi * b) / b)[dual.inverse]
    (M_form, M_dual), (B_form, B_dual) = sides.walked, sides.maps
    G = 2.0 * (_leaf_fold(dual.half, w2, M_dual, B_dual) - _leaf_fold(form.half, w1, M_form, B_form))
    return 0.5 * (G + G.T), GRAD_TAIL_FLOOR + TAIL_REL * float(np.linalg.norm(G))


@dataclass(frozen=True, eq=False)
class _Judge:
    """The counted certificate of an exact input, planned before any walk (``_judge``).

    ``plan`` is ``certify._counted(certify._plan(d Q))``.  Its tested form T
    (d Q, or the level dual dual_scale (d Q)^-1) is walked on side ``side``'s
    integral rows, where a walked norm m is the tested norm m ``scale``:
    ``T`` is T in the walk's basis, and the tested range T[x] <= 2B / s is
    the walked norms m <= ``limit``.
    """

    plan: _Plan
    side: int
    T: GramMatrix
    scale: Fraction
    limit: int


def _judge(sides: _Sides) -> Optional[_Judge]:
    """The counted certificate on the integral form d Q of an exact input, with no walk.

    None when the tested side has no integral rows, or when even the floor
    of its horizon (``_horizon_floor``) puts the range at _TABLE_ENTRIES or
    beyond: both are past every exact walk's bound, and a level too large
    to reach is ruled out before it is factored.
    """
    P, d = sides.exact
    plan = _plan(P, None, dualize=True)
    side, scale = (0, Fraction(1)) if plan.tested == SIDE_INPUT else (1, plan.dual_scale / d)
    floor = Fraction(2 * _horizon_floor(plan.weight, plan.level), plan.s) / scale
    if sides.integral[side] is None or floor >= _TABLE_ENTRIES:
        return None
    plan = _counted(plan)
    a, b = scale.numerator, scale.denominator
    T = _stored([[v * a // b for v in row] for row in sides.integral[side][0].tolist()], 1,
                plan.form._det)
    return _Judge(plan, side, T, scale, math.floor(Fraction(2 * plan.B, plan.s) / scale))


def _certificate(sides: _Sides, judge: _Judge, side: _Layers) -> Optional[FullyCriticalReport]:
    """The certificate of an exact input read off the walk of its tested side, or None.

    ``side`` is the exact walk of side ``judge.side``, whose bound covers
    ``judge.limit``.  The vectors of the layers in range, of walked norm
    m <= ``judge.limit``, are picked, with their rows (``HalfSet.rows``)
    and moments (``shells._moments``), and ``certify._report`` judges every
    layer on ``judge.T``: its report, the one ``fully_critical`` gives, is
    returned when it is fully critical.
    """
    plan = judge.plan
    pick = np.flatnonzero(side.norms <= judge.limit)
    moments = {m * judge.scale: (card, S)
               for m, card, S in _moments(side.half.rows(pick), side.norms[pick])}
    report = _report(LatticeDescriptor(gram=sides.exact[0]), plan, moments, judge.T,
                     2 * plan.B, "")
    return report if report.verdict == VERDICT_CRITICAL else None


def _radius(rows: list) -> float:
    """The first grid radius up to _RADIUS_CAP where every (majorant, a-priori tolerance) row
    meets its tolerance, or that cap when none does."""
    M, a_priori = np.array([m for m, _ in rows]), np.array([t for _, t in rows])
    fits = np.flatnonzero(np.all(M <= a_priori[:, None], axis=0) & (_RADII <= _RADIUS_CAP))
    return float(_RADII[fits[0]]) if fits.size else _RADIUS_CAP


def _walk(sides: _Sides, k: int, radius: float) -> _Layers:
    """Side k's layers to ``radius``: the form's (k = 0) or its inverse's (k = 1)."""
    return _layers(sides.walked[k], sides.integral[k], radius,
                   _exact_bound(sides.integral[k], radius))


def _judged(sides: _Sides, judge: _Judge, radius: float) -> tuple:
    """(the tested side's exact walk to ``radius``, its certificate or None), or (None, None)
    when that walk's bound does not cover the tested range."""
    k = judge.side
    bound = _exact_bound(sides.integral[k], radius)
    if bound is None or judge.limit > bound:
        return None, None
    tested = _layers(sides.walked[k], sides.integral[k], radius, bound)
    return tested, _certificate(sides, judge, tested)


def _tail(rows: list, radius: float, tolerances: list, what: str) -> float:
    """The majorant rows' sum at ``radius``, once each meets its real tolerance."""
    j = np.searchsorted(_RADII, radius, side="right") - 1
    tails = np.array([m[j] for m, _ in rows])
    if not np.all(tails <= np.array(tolerances)):
        raise TruncationError(f"{what}: tail tolerance unattained at radius {radius:.6g}")
    return float(np.sum(tails))


def _certified_sum(sides: _Sides, orders, what: str, gradient: bool = False):
    """The one certified lattice sum: (S, G, tail, radius, layers, certificate) at one radius.

    S sums c x^{-a} Gamma(a, x) over the nonzero vectors of A at
    x = pi A[m], and over those of A^-1 at x = pi A^-1[y], with ``orders``
    ((a, c) for A, then for A^-1).  With ``gradient`` (only for F's orders)
    G is F's gradient, else None.  ``_bounds`` gives F's tail majorant at
    every grid radius and its a-priori tolerance, and the theorem
    gradient's, and ``_numeric_bound`` the numeric gradient's; a radius is
    the first grid radius where the majorants it needs meet them
    (``_radius``).  The vectors of norm <= radius of A and of A^-1 are
    collected once each and grouped by norm into ``layers`` (``_layers``, on
    the sides' integral forms when they have them).  Each summand is
    evaluated once per layer and summed against the layer counts.

    An exact input plans its certificate first (``_judge``) and judges the
    first exact walk of its tested side, to r_F and then to r_N >= r_F,
    whose bound covers the tested range (``_judged``; the module docstring).
    A pass at r_F builds no more than the report reads: the numeric
    gradient's majorant, r_N, the walks' joined vectors, their layer index
    and the gradient maps are never built.  On a pass G = -(S_A / 2) A^-1
    and the certificate is returned; otherwise the radius is r_N and
    ``_grad_sum`` sums G.  The judged walk is kept when it lies at the final
    radius, and every other side is walked there.  The majorants at the
    radius must meet the real tolerances (TAIL_REL |S|, and
    GRAD_TAIL_FLOOR + TAIL_REL |G|), or TruncationError is raised.
    """
    rows = _bounds(sides, orders, gradient)  # F's, with the theorem route's G when there is one
    radius = _radius(rows)
    judge = _judge(sides) if gradient and sides.exact else None
    tested, certificate = _judged(sides, judge, radius) if judge else (None, None)
    if gradient and certificate is None:  # the numeric route, at its radius r_N >= r_F
        rows = [rows[0], _numeric_bound(sides)]
        r_N = _radius(rows)
        if r_N != radius:  # a failed walk to r_F is dropped; one short of the range tries r_N
            tested, certificate = (_judged(sides, judge, r_N) if judge and tested is None
                                   else (None, None))
        radius = r_N
    layers = [None, None]
    if tested is not None:
        layers[judge.side] = tested
    layers = tuple(_walk(sides, k, radius) if layers[k] is None else layers[k] for k in (0, 1))
    S, form_half, f = _layer_sums(orders, layers)
    tolerances = [TAIL_REL * max(abs(S), 1e-30)]
    G = None
    if gradient:
        G, gtol = (_grad_sum(sides, layers, f) if certificate is None
                   else _theorem_gradient(sides, form_half))
        tolerances.append(gtol)
    return S, G, _tail(rows, radius, tolerances, what), radius, layers, certificate


def _theorem_gradient(sides: _Sides, form_half) -> tuple[np.ndarray, float]:
    """(G, its tolerance GRAD_TAIL_FLOOR + TAIL_REL |G|) of a certified lattice.

    G = lam A^-1 with lam = -S_A / 2 = -form_half (the module docstring).
    """
    G = -float(form_half) * sides.Ainv
    return G, GRAD_TAIL_FLOOR + TAIL_REL * float(np.linalg.norm(G))


def _layer_sums(orders, layers: tuple) -> tuple:
    """(S, F's form half when ``orders`` are F's, the form's summand on its distinct norms)."""
    terms = [_summand(a, c, x, upper_gamma(a, x)) for (a, c), x
             in zip(orders, (math.pi * layers[0].distinct, math.pi * layers[1].distinct))]
    form_half = layers[0].counts @ terms[0]
    return 2.0 * float(form_half + layers[1].counts @ terms[1]), form_half, terms[0]


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
    """Height value with its gradient and stationarity diagnostics.

    ``truncation_radius`` and the vector counts are those of the final walks,
    and ``tail_estimate`` is the majorant of F's tail plus that of the
    gradient: |A^-1|_F / 2 times the form part of F's when the certificate
    passes at the theorem route's radius r_F, and otherwise the summed
    gradient's at the numeric radius r_N, which bounds a certified
    lattice's G too.
    """

    height: float
    F_value: float
    constant_C: float
    gradient: np.ndarray
    projected_residual: float
    truncation_radius: float
    tail_estimate: float
    half_vectors_form: int   # vectors enumerated, one per antipodal pair, on the form
    half_vectors_dual: int   # and on its inverse, at the truncation radius
    route: str               # ROUTE_THEOREM or ROUTE_NUMERIC: how the gradient was found
    certificate: Optional[dict]  # the theorem route's proof: {tested, level, weight,
    #                              horizon_B, layers_tested} of its certificate; else None

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
    a, g = Ainv.ravel(), G.ravel()
    lam = float(np.dot(a, g)) / float(np.dot(a, a))
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
    vectors, at a radius where both tails are within tolerance.  On the
    theorem route (module docstring) the tested side's walk certifies every
    layer a 2-design, the gradient is -(S_A / 2) A^-1, summed at F's radius
    when the walk there certifies it, and its residual is zero up to
    rounding; ``certificate`` names the side tested, its Gamma_0 level,
    weight and horizon, and the layers tested.  A walk past
    ``shells.DEFAULT_MAX_VECTORS`` vectors raises EnumerationBudgetError.
    """
    sides = _sides(L, det1=True)
    n = sides.A.shape[0]
    F, G, tail, radius, (form, dual), cert = _certified_sum(sides, _F_orders(n), "height",
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
        route=ROUTE_NUMERIC if cert is None else ROUTE_THEOREM,
        certificate=None if cert is None else {
            "tested": cert.tested, "level": cert.level, "weight": cert.weight,
            "horizon_B": cert.horizon_B, "layers_tested": cert.layers_tested},
    )
