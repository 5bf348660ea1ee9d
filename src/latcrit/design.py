"""Exact spherical t-design tests of lattice layers.

Every t = 2 verdict comes from one trace identity.  For a layer M of norm m
of the form Q in dimension n, let S be the sum of x x^t over M.  The sum of
(x^t Q y)^2 over ordered pairs of M is Tr(QSQS), and Tr(QS) = m |M|.  The
eigenvalues of QS are real and nonnegative (QS is similar to Q^(1/2) S
Q^(1/2)), so Cauchy-Schwarz on them gives

    Tr(QSQS) >= Tr(QS)^2 / n = m^2 |M|^2 / n,

with equality exactly when QS is a multiple of the identity, that is when
n S = m |M| Q^{-1}: the moment identity that makes an antipodal layer a
2-design.  ``two_design_verdict`` evaluates both sides with the integral
form P = d Q, so the verdict is an identity between integers (rationals when
Q is not integral): a proof, not a numerical judgement.  A left side below
the right one contradicts the inequality and raises.

Higher even t use the general pair-power sum, which dominates the design
value c_t m^t |M|^2 with equality exactly on t-designs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .shells import Layer, _int_matrix_and_denominator, half_layer


class DesignComputationError(RuntimeError):
    """Internal inconsistency: the provable pair-sum inequality failed."""


@dataclass(frozen=True)
class DesignVerdict:
    """Outcome of an exact t-design test on one layer."""

    norm: Fraction
    t: int
    lhs: Fraction  # sum over ordered pairs of (x.y)^t
    rhs: Fraction  # design value: c_t * m^t * |X|^2 / |X| assembled exactly
    is_design: bool

    def to_dict(self) -> dict:
        def enc(v: Fraction):
            return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

        return {
            "norm": enc(self.norm),
            "t": self.t,
            "lhs": enc(self.lhs),
            "rhs": enc(self.rhs),
            "is_design": self.is_design,
        }


def design_constant(n: int, t: int, size: int) -> Fraction:
    """Exact c_t = |X| * (1*3*...*(t-1)) / (n*(n+2)*...*(n+t-2))."""
    if t % 2 != 0 or t < 2:
        raise ValueError("t must be an even positive integer")
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if size < 0:
        raise ValueError("set size must be nonnegative")
    num = math.prod(range(1, t, 2))
    den = math.prod(range(n, n + t - 1, 2))
    return Fraction(num, den) * size


def moment_matrix(L: Layer) -> np.ndarray:
    """Exact sum of x x^t over the layer (object array of Python ints)."""
    H = half_layer(L)
    n = L.gram.n
    if len(H) == 0:
        return np.zeros((n, n), dtype=object)
    S = (H.T @ H).astype(object)
    return 2 * S


def pair_power_sum(L: Layer, t: int) -> Fraction:
    """Exact sum over ordered pairs (x, y) of the layer of (x^t Q y)^t.

    Antipodal symmetry and even t let the sum run over half-layer pairs
    times 4.
    """
    if t % 2 != 0 or t < 2:
        raise ValueError("t must be an even positive integer")
    P, d = _int_matrix_and_denominator(L.gram)
    H = half_layer(L)
    k = len(H)
    if k == 0:
        return Fraction(0)
    scaled_norm = int(L.norm * d)
    # |x^t P y| <= d*m by Cauchy-Schwarz; decide whether int64 stays exact.
    if 4 * k * k * (scaled_norm ** t) < 2**62:
        G = H @ P @ H.T
        total = 4 * int((G.astype(np.int64) ** t).sum())
    else:
        G = (H.astype(object) @ P.astype(object)) @ H.T.astype(object)
        total = 4 * int((G ** t).sum())
    return Fraction(total, d ** t)


def two_design_verdict(norm: Fraction, card: int, S: np.ndarray, P: np.ndarray,
                       d: int) -> DesignVerdict:
    """Exact t = 2 verdict of a layer from its second moment.

    ``S`` is the exact sum of x x^t over the full layer of the given norm and
    cardinality, and ``P = d * Q`` the integral form.  Returns
    lhs = Tr(PSPS) / d^2, the sum of (x^t Q y)^2 over ordered pairs, and
    rhs = norm^2 * card^2 / n; they are equal exactly on 2-designs.
    """
    A = np.dot(P.astype(object), S)
    lhs = Fraction(int(np.trace(np.dot(A, A))), d * d)
    rhs = Fraction(card * card, P.shape[0]) * norm * norm
    if lhs < rhs:
        raise DesignComputationError(
            f"pair sum {lhs} fell below the design value {rhs} at norm {norm}"
        )
    return DesignVerdict(norm=norm, t=2, lhs=lhs, rhs=rhs, is_design=lhs == rhs)


def is_t_design(L: Layer, t: int, n: int) -> DesignVerdict:
    """Exact design test of a layer, in the full-set convention.

    t = 2 goes through ``two_design_verdict``; higher even t compare the
    pair-power sum with the design value, which it provably dominates, so a
    strictly smaller sum indicates a broken computation and raises.
    """
    if n != L.gram.n:
        raise ValueError("stated dimension does not match the layer's form")
    card = L.cardinality
    if t == 2:
        P, d = _int_matrix_and_denominator(L.gram)
        return two_design_verdict(L.norm, card, moment_matrix(L), P, d)
    lhs = pair_power_sum(L, t)
    rhs = design_constant(n, t, card) * L.norm ** t * card
    if lhs < rhs:
        raise DesignComputationError(
            f"pair sum {lhs} fell below the design value {rhs} at norm {L.norm}"
        )
    return DesignVerdict(norm=L.norm, t=t, lhs=lhs, rhs=rhs, is_design=lhs == rhs)
