"""Certification that every layer of a lattice is a spherical 2-design.

The finite check horizon comes from the modularity of the layers'
generating function weighted by a degree-2 harmonic polynomial: it is a
modular form for Gamma_1(level), and a form of known weight and level that
vanishes to a high enough order vanishes identically.  The horizon used here
is the Sturm bound ceil(weight * index / 12), a sound over-approximation of
the sharpest possible pivot exponent; externally computed pivot data can be
supplied as an override for fast runs.  Each layer up to the horizon is
decided by ``design.two_design_verdict`` on streamed second moments.

Odd lattices are doubled (a homothety, harmless to the design structure).
Odd dimensions take their horizon from the form plus an orthogonal A1
summand: its generating function is the form's times A1's, a nonzero
series, so vanishing transfers back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .design import DesignVerdict, two_design_verdict
from .gram import (
    GramMatrix,
    LatticeDescriptor,
    double,
    is_even,
    level,
    orthosum_A1,
)
from .shells import (
    DEFAULT_MAX_VECTORS,
    EnumerationBudgetError,
    _int_matrix_and_denominator,
    layer_moments,
)

VERDICT_CRITICAL = "fully-critical"
VERDICT_FAILURE = "failure"
VERDICT_INCONCLUSIVE = "inconclusive"


def _factorize(N: int) -> dict[int, int]:
    out: dict[int, int] = {}
    m, p = N, 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def gamma1_index(N: int) -> int:
    """Index of Gamma_1(N) in SL_2(Z): N^2 prod(1 - 1/p^2), with small-N cases 1, 3."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if N == 1:
        return 1
    if N == 2:
        return 3
    idx = 1
    for p, e in _factorize(N).items():
        idx *= p ** (2 * e - 2) * (p * p - 1)
    return idx


def sturm_bound(k: int, N: int) -> int:
    """Vanishing order that forces a weight-k form on Gamma_1(N) to be zero."""
    if k < 1 or N < 1:
        raise ValueError("weight and level must be positive integers")
    return math.ceil(Fraction(k * gamma1_index(N), 12))


@dataclass(frozen=True)
class FullyCriticalReport:
    """Result of the full-criticality certification pipeline.

    Per-layer rows are stated in the original lattice's norms and count one
    representative per antipodal pair {x, -x}, the convention of the
    reference transcripts (pair sums quarter, cardinalities halve relative
    to full-set values; the design verdicts are identical either way).
    ``failure_norm`` is in the same normalization; the working even form's
    norm is twice it when ``doubled`` is set.
    """

    input: LatticeDescriptor
    doubled: bool
    augmented_with_A1: bool
    level: int
    weight: int
    bound_B: int
    per_layer: tuple[DesignVerdict, ...]  # nonempty layers, pair convention
    cardinalities: tuple[tuple[Fraction, int], ...]  # antipodal pair counts
    verdict: str
    failure_norm: Optional[Fraction] = None
    certified_upto: Optional[Fraction] = field(default=None)
    note: str = ""

    @property
    def working_failure_norm(self) -> Optional[Fraction]:
        if self.failure_norm is None:
            return None
        return self.failure_norm * 2 if self.doubled else self.failure_norm

    @property
    def verdict_text(self) -> str:
        if self.verdict == VERDICT_FAILURE:
            m = self.failure_norm
            mtxt = str(int(m)) if m.denominator == 1 else str(m)
            return f"failure-at({mtxt})"
        return self.verdict

    def to_dict(self) -> dict:
        def enc(v: Fraction):
            return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

        return {
            "name": self.input.name,
            "doubled": self.doubled,
            "augmented_with_A1": self.augmented_with_A1,
            "level": self.level,
            "weight": self.weight,
            "bound_B": self.bound_B,
            "verdict": self.verdict_text,
            "failure_norm": None if self.failure_norm is None else enc(self.failure_norm),
            "certified_upto": None if self.certified_upto is None else enc(self.certified_upto),
            "per_layer": [v.to_dict() for v in self.per_layer],
            "cardinalities": [[enc(m), c] for m, c in self.cardinalities],
            "note": self.note,
        }


def fully_critical(
    L: LatticeDescriptor | GramMatrix,
    override_bound: Optional[int] = None,
    *,
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> FullyCriticalReport:
    """Certify (or refute) that every layer of an integral lattice is a 2-design.

    Pipeline: double odd forms; in odd dimension derive the horizon from the
    A1-augmented form (weight (n+1)/2 + 2, its level), else weight n/2 + 2 and
    the form's own level; test every layer of the working even form up to
    (x.x) = 2B with B the Sturm bound, or ``override_bound`` when supplied
    (e.g. externally computed pivot data).  A failed layer is a definitive
    refutation; an exhausted enumeration budget is reported as inconclusive
    with the largest certified bound, never as a failure.
    """
    desc = L if isinstance(L, LatticeDescriptor) else LatticeDescriptor(gram=L, name=L.name)
    Q = desc.gram
    if not Q.is_integral:
        raise ValueError("full-criticality certification requires an integral form")
    n = Q.n
    doubled = not is_even(Q)
    work = double(Q) if doubled else Q
    s = 2 if doubled else 1

    if n % 2 == 1:
        lvl = level(orthosum_A1(work))
        weight = (n + 1) // 2 + 2
        augmented = True
    else:
        lvl = level(work)
        weight = n // 2 + 2
        augmented = False

    B = int(override_bound) if override_bound is not None else sturm_bound(weight, lvl)
    if B < 1:
        raise ValueError("certification bound must be positive")

    P, d = _int_matrix_and_denominator(work)

    bound = 2 * B
    note = ""
    tried = bound
    while True:
        try:
            moments = layer_moments(work, bound, max_vectors=max_vectors)
            break
        except EnumerationBudgetError:
            tried //= 2
            if tried < 2:
                raise
            bound = tried
            note = (f"enumeration budget {max_vectors} exceeded at (x,x)<={2 * B}; "
                    f"certified range reduced")

    per_layer = []
    cards = []
    failure_norm = None
    for m_work, (card, S) in moments.items():
        w = two_design_verdict(m_work, card, S, P, d)
        # restated per antipodal pair (sums quarter) and in the input's norms
        v = replace(w, norm=w.norm / s, lhs=w.lhs / (4 * s * s), rhs=w.rhs / (4 * s * s))
        per_layer.append(v)
        cards.append((v.norm, card // 2))
        if failure_norm is None and not v.is_design:
            failure_norm = v.norm

    certified = Fraction(bound, s)
    if failure_norm is not None:
        verdict = VERDICT_FAILURE
    elif bound == 2 * B:
        verdict = VERDICT_CRITICAL
    else:
        verdict = VERDICT_INCONCLUSIVE

    return FullyCriticalReport(
        input=desc,
        doubled=doubled,
        augmented_with_A1=augmented,
        level=lvl,
        weight=weight,
        bound_B=B,
        per_layer=tuple(per_layer),
        cardinalities=tuple(cards),
        verdict=verdict,
        failure_norm=failure_norm,
        certified_upto=certified,
        note=note,
    )


def dual_descriptor(L: LatticeDescriptor | GramMatrix) -> LatticeDescriptor:
    """Integral model of the dual: det(Q) * Q^{-1} with content divided out.

    Similar to the dual lattice, so it has the same design structure, while
    staying in the integral domain of the certification pipeline.
    """
    desc = L if isinstance(L, LatticeDescriptor) else LatticeDescriptor(gram=L, name=L.name)
    Q = desc.gram
    from .gram import adjugate

    adj = adjugate(Q)
    g = 0
    for row in adj.entries:
        for v in row:
            g = math.gcd(g, int(v))
    reduced = adj.scale(Fraction(1, g)) if g > 1 else adj
    name = f"{desc.name}*" if desc.name else None
    return LatticeDescriptor(gram=GramMatrix(reduced.entries, name=name), name=name)


def conjecture_probe(
    L: LatticeDescriptor | GramMatrix,
    override_bound: Optional[int] = None,
    *,
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> tuple[bool, bool]:
    """(first two layers are 2-designs, all tested layers are 2-designs).

    A (True, False) outcome would contradict the expectation that 2-designs
    on the first two layers propagate to all layers; callers should surface
    such a hit loudly.
    """
    rep = fully_critical(L, override_bound, max_vectors=max_vectors)
    first_two = all(v.is_design for v in rep.per_layer[:2])
    return first_two, rep.verdict == VERDICT_CRITICAL
