"""Exact spherical 2-design test of a lattice layer.

Every verdict comes from one trace identity.  For a layer M of norm m of the
form Q in dimension n, let S be the sum of x x^t over M.  The sum of
(x^t Q y)^2 over ordered pairs of M is Tr(QSQS), and Tr(QS) = m |M|.  The
eigenvalues of QS are real and nonnegative (QS is similar to Q^(1/2) S
Q^(1/2)), so Cauchy-Schwarz on them gives

    Tr(QSQS) >= Tr(QS)^2 / n = m^2 |M|^2 / n,

with equality exactly when QS is a multiple of the identity, that is when
n S = m |M| Q^{-1}: the moment identity that makes an antipodal layer a
2-design.  ``two_design_verdict`` takes the ``GramMatrix`` Q it judges and
evaluates both sides on its integral form P = d Q, the object array of
Python ints the form keeps: one object product A = PS, and Tr(PSPS) =
Tr(AA) as the sum of the entries of A A^t taken entrywise.  So the verdict
is an identity between integers (rationals when Q is not integral): a
proof, not a numerical judgement.  A left side below the right one
contradicts the inequality and raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gram import GramMatrix, _frac_str


class DesignComputationError(RuntimeError):
    """Internal inconsistency: the provable pair-sum inequality failed."""


@dataclass(frozen=True)
class DesignVerdict:
    """Outcome of the exact 2-design test on one layer."""

    norm: Fraction
    lhs: Fraction  # sum over ordered pairs of (x.y)^2
    rhs: Fraction  # design value m^2 |M|^2 / n
    is_design: bool

    def to_dict(self) -> dict:
        return {
            "norm": _frac_str(self.norm),
            "t": 2,
            "lhs": _frac_str(self.lhs),
            "rhs": _frac_str(self.rhs),
            "is_design": self.is_design,
        }


def two_design_verdict(norm: Fraction, card: int, S: np.ndarray, Q: GramMatrix,
                       scale: int = 1) -> DesignVerdict:
    """Exact 2-design verdict of a layer of Q from its second moment.

    ``S`` is the exact sum of x x^t over the full layer of the given norm and
    cardinality.  With P = d Q the integral form, A = PS and norm = a / b,
    the sum of (x^t Q y)^2 over ordered pairs is Tr(AA) / d^2 and the design
    value is norm^2 card^2 / n = a^2 card^2 / (n b^2); they are compared as
    the integers Tr(AA) n b^2 and a^2 card^2 d^2, equal exactly on
    2-designs.  Both are reported divided by ``scale`` (4 restates them per
    antipodal pair).
    """
    A, d = Q._objects @ S, Q._d
    trace, a, b = int((A * A.T).sum()), norm.numerator, norm.denominator
    pairs, design = trace * Q.n * b * b, a * a * card * card * d * d
    lhs = Fraction(trace, d * d * scale)
    rhs = Fraction(a * a * card * card, Q.n * b * b * scale)
    if pairs < design:
        raise DesignComputationError(
            f"pair sum {lhs} fell below the design value {rhs} at norm {norm}"
        )
    return DesignVerdict(norm=norm, lhs=lhs, rhs=rhs, is_design=pairs == design)
