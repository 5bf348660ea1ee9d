"""Upper incomplete gamma function for the analytic lattice sums.

Non-regularized Gamma(a, x) for real a and finite x > 0, to ~1e-14 relative
accuracy, evaluated lane-wise over a numpy array of x.  At the orders the
height and the zeta continuation meet most, ``upper_gamma`` takes closed
forms (DLMF 8.4, 8.9), none of them iterated to convergence:

- integer a >= 1 and half-integer a >= 3/2, up to _CLOSED_MAX_ORDER, on lanes
  x <= 708 (where e^{-x} is a normal float): Gamma(1, x) = e^{-x} or
  Gamma(1/2, x) = sqrt(pi) erfc(sqrt x) (``math.erfc`` per lane), then the
  upward recurrence Gamma(c + 1, x) = c Gamma(c, x) + x^c e^{-x}, whose
  terms are all positive;
- a = 0 on lanes x >= 1: Legendre's continued fraction for E1,
  e^{-x} / D_0 (``_legendre_cf``), evaluated backward from a depth set by
  the lane's own x: 40 levels for x >= 3, 60 for x >= 2, 120 for x >= 1.

Against mpmath these stay below 5e-16 relative on [1e-4, 700] at the
orders 0 to 9/2.  a = 1/2 is not among them: erfc(sqrt x) carries the
rounding of sqrt x amplified by 2x (7e-14 at x = 408); at a >= 3/2 the
recurrence's positive terms dilute it to below one rounding.

Every other lane keeps the classical iterative regimes (``_upper_gamma``):
a power series around the lower function for x < a + 1, a modified-Lentz
continued fraction (Thompson & Barnett 1986) for x >= max(a + 1, 1), a
small-order series for |a| <= 0.3 and x < 1 (the exponential-integral
series at a = 0), and downward recurrence for other negative a and x < 1.
Each regime is exercised against quadrature and mpmath in the tests.
Recorded over ``latcrit tables``, the heights of the catalogue, of [[2]] and
of diag(1, 100), and ``epstein_zeta`` of A2 at s = -0.5, 0.3, 1.7, 2.5 and
3.1, the lanes take these routes: certification none; the catalogue heights
the closed forms (a = 0 to 7/2) on every lane up to x = 708 and the
continued fraction past it (to 808); [[2]] the continued fraction at
a = 1/2, x >= pi; diag(1, 100) the small-order series on one lane (a = 0,
x = 0.31); the zeta at its other orders (a = -2.1 to 3.1, no positive
half-integer) the continued fraction, x >= 2.09.  Only direct calls reach
the lower series and the downward recurrence.

Every lane runs the scalar recurrence of its regime and stops at its own
convergence test; converged lanes are compressed out of the working
arrays, and the regime and the depth of a closed form are chosen from the
lane's own x, so a lane's value does not depend on the other lanes in the
call.  ``height`` relies on this: it evaluates each distinct norm once and
caches the grid radii's values across calls, and every value it reads is
bit for bit what one call over every vector gives for that lane.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = 1e-16
_FPMIN = 1e-300
_MAX_ITER = 500
_SMALL_A = 0.3
_EXP_NORMAL = 708.0  # e^{-x} and e^{x} are normal floats for x up to this
# the closed forms' largest order: x^c <= 708^100 and Gamma(100) stay finite
_CLOSED_MAX_ORDER = 100.0
# (lowest x, levels) of the E1 continued fraction; at each depth the cut
# error is below 5e-16 relative on [lowest x, 700] against mpmath
_E1_DEPTHS = ((3.0, 40), (2.0, 60), (1.0, 120))
# 1/Gamma(1 + a) = 1 + sum_j _RGAM[j-1] a^j (Abramowitz & Stegun 6.1.34), to
# a^18: the next term is below 1e-19 relative at |a| <= _SMALL_A
_RGAM = (
    0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
)


class GammaDomainError(ValueError):
    pass


def _converge(x: np.ndarray, state: list[np.ndarray], step, what: str) -> np.ndarray:
    """Iterate ``step`` lane-wise; each lane's value is its state[0] when it converges.

    ``step(k, x, state)`` makes iteration k = 1, 2, ... and returns the new
    state and the mask of lanes that converged at it; those lanes leave x
    and the state arrays.
    """
    out = np.empty_like(x)
    idx = np.arange(x.size)
    k = 0
    while idx.size:
        k += 1
        if k == _MAX_ITER:
            raise ArithmeticError(f"{what} failed to converge (x={x[0]})")
        state, done = step(k, x, state)
        if done.any():
            out[idx[done]] = state[0][done]
            keep = ~done
            x, idx, state = x[keep], idx[keep], [s[keep] for s in state]
    return out


def _lower_series(a: float, x: np.ndarray) -> np.ndarray:
    """Regularized-free lower gamma via series; valid for a > 0, x < a + 1."""
    def step(k, x, s):
        total, term, ap = s
        ap = ap + 1.0
        term = term * (x / ap)
        total = total + term
        return [total, term, ap], np.abs(term) < np.abs(total) * _EPS

    first = np.full_like(x, 1.0 / a)
    total = _converge(x, [first, first, np.full_like(x, a)], step, "lower gamma series")
    return total * np.exp(-x + a * np.log(x))


def _upper_cf(a: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for Gamma(a, x); valid for x > 0, x >= a + 1 or a <= 0."""
    def step(i, x, s):
        h, b, c, d = s
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < _FPMIN] = _FPMIN
        c = b + an / c
        c[np.abs(c) < _FPMIN] = _FPMIN
        d = 1.0 / d
        delta = d * c
        return [h * delta, b, c, d], np.abs(delta - 1.0) < _EPS

    b = x + 1.0 - a
    d = 1.0 / b
    h = _converge(x, [d, b, np.full_like(x, 1.0 / _FPMIN), d], step,
                  "incomplete gamma continued fraction")
    # e^{-x} x^a: one exponential of the sum rounds an exponent of size x
    # (5.7e-14 relative at x = 500), so lanes whose two factors are normal
    # floats (exponents within 708) take them separately
    ax = a * np.log(x)
    split = (x <= _EXP_NORMAL) & (np.abs(ax) <= _EXP_NORMAL)
    return h * (np.exp(np.where(split, -x, ax - x)) * np.exp(np.where(split, ax, 0.0)))


def _small_order(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) for |a| <= 0.3 and x < 1, without cancellation as a -> 0.

    Gamma(a, x) = (Gamma(1+a) - 1)/a - expm1(a log x)/a
                  - x^a sum_{k>=1} (-x)^k / (k! (a + k)),
    each term finite at a = 0, where this is the E1 series
    -gamma - log x - sum (-x)^k / (k k!).  (Gamma(1+a) - 1)/a = -h/(1 + a h)
    with 1/Gamma(1+a) = 1 + a h(a) from the Taylor coefficients _RGAM.
    """
    def step(k, x, s):
        total, term = s
        term = term * (-x / k)
        piece = term / (a + k)
        total = total + piece
        return [total, term], np.abs(piece) < np.abs(total) * _EPS + 1e-300

    h = 0.0
    for c in reversed(_RGAM):
        h = h * a + c
    lx = np.log(x)
    head = -lx if a == 0.0 else -np.expm1(a * lx) / a
    tail = _converge(x, [np.zeros_like(x), np.ones_like(x)], step, "small-order series")
    return -h / (1.0 + a * h) + head - np.exp(a * lx) * tail


def _upper_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) over a 1-D array of finite x > 0, each lane in its own regime.

    For |a| <= 0.3, lanes below 1 take the small-order series.  Otherwise
    lanes below max(a + 1, 1) take the lower series (a > 0) or the downward
    recurrence (a < 0).  The others take the continued fraction, which for
    a < 0 avoids the recurrence's cancellation at large x.
    """
    out = np.empty_like(x)
    small = abs(a) <= _SMALL_A
    low = x < (1.0 if small else max(a + 1.0, 1.0))
    xl = x[low]
    if small:
        out[low] = _small_order(a, xl)
    elif a < 0:
        out[low] = (_upper_gamma(a + 1.0, xl) - np.exp(-xl + a * np.log(xl))) / a
    else:
        out[low] = math.gamma(a) - _lower_series(a, xl)
    out[~low] = _upper_cf(a, x[~low])
    return out


def _legendre_cf(b: float, x: np.ndarray, depth: int) -> np.ndarray:
    """D_0 of Legendre's continued fraction for Gamma(b, x), cut at ``depth`` levels.

    x^{1-b} e^x Gamma(b, x) = x / D_0 with D_{k-1} = x + 2k - 1 - b - k (k - b) / D_k
    (DLMF 8.9), evaluated backward from D_{depth-1} = x + 2 depth - 1 - b.
    """
    D = x + (2 * depth - 1 - b)
    for k in range(depth - 1, 0, -1):
        D = x + (2 * k - 1 - b) - k * (k - b) / D
    return D


def _exp_integral(x: np.ndarray) -> np.ndarray:
    """E1(x) = Gamma(0, x) = e^{-x} / D_0 for x >= 1, each lane at the depth its x sets."""
    out = np.empty_like(x)
    rest = np.ones(x.shape, dtype=bool)
    for lowest, depth in _E1_DEPTHS:
        lanes = rest & (x >= lowest)
        if lanes.any():
            out[lanes] = np.exp(-x[lanes]) / _legendre_cf(0.0, x[lanes], depth)
            rest &= ~lanes
    return out


def _upward(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) at integer a >= 1 or half-integer a >= 3/2, for x <= _EXP_NORMAL.

    From Gamma(1, x) = e^{-x} or Gamma(1/2, x) = sqrt(pi) erfc(sqrt x) by
    Gamma(c + 1, x) = c Gamma(c, x) + x^c e^{-x}; at integer a this is
    (a - 1)! e^{-x} sum_{j<a} x^j / j!.
    """
    e = np.exp(-x)
    if a.is_integer():
        c, g = 1.0, e
    else:
        c, g = 0.5, math.sqrt(math.pi) * np.array([math.erfc(r) for r in np.sqrt(x).tolist()])
    while c < a:
        g = c * g + x ** c * e
        c += 1.0
    return g


def _gamma_lanes(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) over a 1-D array: closed forms on their lanes, ``_upper_gamma`` elsewhere."""
    if a == 0.0:
        closed = x >= 1.0
    elif 1.0 <= a <= _CLOSED_MAX_ORDER and (2.0 * a).is_integer():
        closed = x <= _EXP_NORMAL
    else:
        return _upper_gamma(a, x)
    out = np.empty_like(x)
    out[closed] = _exp_integral(x[closed]) if a == 0.0 else _upward(a, x[closed])
    rest = ~closed
    if rest.any():
        out[rest] = _upper_gamma(a, x[rest])
    return out


def upper_gamma(a: float, x):
    """Gamma(a, x) = integral_x^inf e^{-t} t^{a-1} dt, for finite a and finite x > 0.

    ``x`` is a float or an array; an array gives an array of its shape, a
    float gives a float.  Gamma(0, x) is the exponential integral E1(x);
    for a < -0.3 and x < 1 it is reached by the downward recurrence
    Gamma(a, x) = (Gamma(a+1, x) - x^a e^{-x}) / a.  Lanes with a closed
    form (see the module docstring) take it; the others take
    ``_upper_gamma``.
    """
    a, xs = float(a), np.asarray(x, dtype=float)
    if not math.isfinite(a):
        raise GammaDomainError(f"upper incomplete gamma requires a finite order a, got {a}")
    if not np.all(np.isfinite(xs) & (xs > 0)):
        raise GammaDomainError(f"upper incomplete gamma requires finite x > 0, got {x}")
    vals = _gamma_lanes(a, xs.ravel())
    return float(vals[0]) if xs.ndim == 0 else vals.reshape(xs.shape)
