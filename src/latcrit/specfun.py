"""Upper incomplete gamma function for the analytic lattice sums.

Non-regularized Gamma(a, x) for real a and finite x > 0, to ~1e-14 relative
accuracy, evaluated lane-wise over a numpy array of x: a power series around
the lower function for x < a + 1, a modified-Lentz continued fraction
(Thompson & Barnett 1986) for x >= max(a + 1, 1), a small-order series for
|a| <= 0.3 and x < 1 (the exponential-integral series at a = 0), and
downward recurrence for other negative a and x < 1.  These are the
classical evaluation regimes; each is exercised against quadrature and
mpmath in the tests.  Every lane runs the scalar recurrence of its regime
and stops at its own convergence test; converged lanes are compressed out
of the working arrays, so a lane's value does not depend on the other lanes
in the call.  ``height`` relies on this: it evaluates each distinct norm
once and caches the grid radii's values across calls, and every value it
reads is bit for bit what one call over every vector gives for that lane.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = 1e-16
_FPMIN = 1e-300
_MAX_ITER = 500
_SMALL_A = 0.3
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
    split = (x <= 708.0) & (np.abs(ax) <= 708.0)
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


def upper_gamma(a: float, x):
    """Gamma(a, x) = integral_x^inf e^{-t} t^{a-1} dt, for finite x > 0.

    ``x`` is a float or an array; an array gives an array of its shape, a
    float gives a float.  Gamma(0, x) is the exponential integral E1(x);
    for a < -0.3 and x < 1 it is reached by the downward recurrence
    Gamma(a, x) = (Gamma(a+1, x) - x^a e^{-x}) / a.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs) & (xs > 0)):
        raise GammaDomainError(f"upper incomplete gamma requires finite x > 0, got {x}")
    vals = _upper_gamma(float(a), xs.ravel())
    return float(vals[0]) if xs.ndim == 0 else vals.reshape(xs.shape)
