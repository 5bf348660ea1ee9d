"""Certification that every layer of a lattice is a spherical 2-design.

The finite check horizon comes from modularity.  For an even lattice of
level N in even dimension n and a harmonic polynomial P of degree 2, the
generating function sum_x P(x) q^{(x.x)/2} is a cusp form of weight
k = n/2 + 2 on Gamma_0(N) with the character chi_D(d) = (D/d),
D = (-1)^{n/2} det (Miyake, *Modular Forms* 4.9).  Sturm's theorem, which
holds for forms with a character (Sturm 1987), makes it vanish once its
order at infinity exceeds k [SL_2(Z) : Gamma_0(N)] / 12; a layer is a
2-design exactly when the coefficients of every such P vanish on it.  So
every layer with (x.x) <= 2B is tested, B = ``sturm_bound(k, N)``, and a
pass proves every layer.  A pass at a smaller bound, which the caller may
ask for, proves only the layers it tested: it is inconclusive.  Each layer
is decided by ``design.two_design_verdict`` on streamed second moments.

The layers tested are the input's own; doubling and the A1 summand only set
the horizon (level, character and weight).  An odd lattice takes it from
its double 2Q, a homothety harmless to the design structure.  Odd
dimensions take it from the even form plus an orthogonal A1 summand: its
generating function is the form's times A1's, a series with constant term
1, so vanishing transfers back.  The report names its premises: the group,
the character's discriminant D of the (augmented) working form, the weight,
the bound tested and the horizon, and how many nonempty layers the
certificate actually tested (``vacuous`` when none).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .design import DesignVerdict, two_design_verdict
from .gram import (
    GramMatrix,
    LatticeDescriptor,
    _frac_str,
    determinant,
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


def gamma0_index(N: int) -> int:
    """Index of Gamma_0(N) in SL_2(Z): N prod_{p | N} (1 + 1/p)."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    idx, m, p = N, N, 2
    while m > 1:
        if p * p > m:
            p = m
        if m % p == 0:
            idx = idx // p * (p + 1)
            while m % p == 0:
                m //= p
        p += 1
    return idx


def sturm_bound(k: int, N: int) -> int:
    """Sturm bound B of weight k on Gamma_0(N), for forms with any character.

    Such a form is zero once its order at infinity exceeds k * index / 12,
    so vanishing through q^B with B = floor(k * index / 12) suffices; B is
    at least 1, so level-1 input still tests a layer.
    """
    if k < 1 or N < 1:
        raise ValueError("weight and level must be positive integers")
    return max(1, k * gamma0_index(N) // 12)


@dataclass(frozen=True)
class FullyCriticalReport:
    """Result of the full-criticality certification pipeline.

    Per-layer rows are the input lattice's own layers and count one
    representative per antipodal pair {x, -x}, the convention of the
    reference transcripts (pair sums quarter, cardinalities halve relative
    to full-set values; the design verdicts are identical either way).
    ``failure_norm`` is in the same normalization; the working even form's
    norm is twice it when ``doubled`` is set.  The horizon's premises are
    the group Gamma_0(level), the character's discriminant ``character_D``
    and ``weight``, whose Sturm bound is ``horizon_B``; ``bound_B`` is the
    bound tested, and only a pass with ``bound_B >= horizon_B`` is fully
    critical.  ``layers_tested`` counts the nonempty layers behind the
    verdict, and a fully-critical verdict that tested none is ``vacuous``.
    """

    input: LatticeDescriptor
    doubled: bool
    augmented_with_A1: bool
    level: int
    weight: int
    bound_B: int
    horizon_B: int
    character_D: int
    per_layer: tuple[DesignVerdict, ...]  # nonempty layers, pair convention
    cardinalities: tuple[tuple[Fraction, int], ...]  # antipodal pair counts
    verdict: str
    failure_norm: Optional[Fraction] = None
    certified_upto: Optional[Fraction] = None
    note: str = ""

    @property
    def verdict_text(self) -> str:
        if self.verdict == VERDICT_FAILURE:
            return f"failure-at({self.failure_norm})"
        return self.verdict

    @property
    def first_two_designs(self) -> Optional[bool]:
        """The first two tested layers (or fewer) are 2-designs; None if nothing was certified."""
        return None if self.certified_upto == 0 else all(v.is_design for v in self.per_layer[:2])

    @property
    def group(self) -> str:
        return f"Gamma0({self.level})"

    @property
    def layers_tested(self) -> int:
        return len(self.per_layer)

    @property
    def vacuous(self) -> bool:
        return self.verdict == VERDICT_CRITICAL and not self.per_layer

    def to_dict(self) -> dict:
        return {
            "name": self.input.name,
            "doubled": self.doubled,
            "augmented_with_A1": self.augmented_with_A1,
            "group": self.group,
            "level": self.level,
            "character_D": self.character_D,
            "weight": self.weight,
            "bound_B": self.bound_B,
            "horizon_B": self.horizon_B,
            "layers_tested": self.layers_tested,
            "vacuous": self.vacuous,
            "verdict": self.verdict_text,
            "failure_norm": (None if self.failure_norm is None
                             else _frac_str(self.failure_norm)),
            "certified_upto": (None if self.certified_upto is None
                               else _frac_str(self.certified_upto)),
            "per_layer": [v.to_dict() for v in self.per_layer],
            "cardinalities": [[_frac_str(m), c] for m, c in self.cardinalities],
            "note": self.note,
        }


def fully_critical(
    L: LatticeDescriptor | GramMatrix,
    override_bound: Optional[int] = None,
    *,
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> FullyCriticalReport:
    """Certify (or refute) that every layer of an integral lattice is a 2-design.

    Pipeline: double odd forms and, in odd dimension, add an A1 summand to
    derive the horizon (weight (n+1)/2 + 2 and the augmented form's level
    and determinant, else weight n/2 + 2 and the even form's own); test
    every layer of the input with (x.x) <= 2B on the even form, B the
    Gamma_0 Sturm bound, or ``override_bound`` when supplied (e.g. the
    catalogue's reference N, to reproduce its transcripts).  A failed layer
    is a definitive refutation.
    An exhausted enumeration budget halves the range until it fits, and an
    override below the Sturm bound tests fewer layers: both are reported as
    inconclusive with the largest certified bound, never as a failure and
    never as an exception.  When no bound >= 2 fits the budget the report
    is inconclusive with ``certified_upto`` 0 and no layers.
    """
    desc = L if isinstance(L, LatticeDescriptor) else LatticeDescriptor(gram=L, name=L.name)
    Q = desc.gram
    if not Q.is_integral:
        raise ValueError("full-criticality certification requires an integral form")
    n = Q.n
    doubled = not is_even(Q)
    work = double(Q) if doubled else Q
    s = 2 if doubled else 1

    augmented = n % 2 == 1
    form = orthosum_A1(work) if augmented else work
    lvl = level(form)
    weight = form.n // 2 + 2
    D = (-1) ** (form.n // 2) * int(determinant(form))

    horizon = sturm_bound(weight, lvl)
    B = int(override_bound) if override_bound is not None else horizon
    if B < 1:
        raise ValueError("certification bound must be positive")

    P, d = _int_matrix_and_denominator(Q)

    bound, moments, note = 2 * B, {}, ""
    while bound >= 2:
        try:
            moments = layer_moments(Q, Fraction(bound, s), max_vectors=max_vectors)
            break
        except EnumerationBudgetError:
            bound //= 2
            note = (f"enumeration budget {max_vectors} exceeded at (x,x)<={2 * B // s}; "
                    + ("certified range reduced" if bound >= 2 else f"no bound >= {2 // s} fits"))
    else:  # no bound >= 2 fits: nothing is certified
        bound = 0

    per_layer = []
    cards = []
    failure_norm = None
    for m, (card, S) in moments.items():
        w = two_design_verdict(m, card, S, P, d)
        v = replace(w, lhs=w.lhs / 4, rhs=w.rhs / 4)  # restated per antipodal pair
        per_layer.append(v)
        cards.append((v.norm, card // 2))
        if failure_norm is None and not v.is_design:
            failure_norm = v.norm

    certified = Fraction(bound, s)
    if failure_norm is not None:
        verdict = VERDICT_FAILURE
    elif bound == 2 * B and B >= horizon:
        verdict = VERDICT_CRITICAL
    else:
        verdict = VERDICT_INCONCLUSIVE
        if B < horizon:
            below = (f"only layers (x,x) <= {certified} checked; "
                     f"the Gamma0({lvl}) Sturm horizon needs B = {horizon}")
            note = f"{note}; {below}" if note else below

    return FullyCriticalReport(
        input=desc,
        doubled=doubled,
        augmented_with_A1=augmented,
        level=lvl,
        weight=weight,
        bound_B=B,
        horizon_B=horizon,
        character_D=D,
        per_layer=tuple(per_layer),
        cardinalities=tuple(cards),
        verdict=verdict,
        failure_norm=failure_norm,
        certified_upto=certified,
        note=note,
    )


def conjecture_probe(
    L: LatticeDescriptor | GramMatrix,
    override_bound: Optional[int] = None,
    *,
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> tuple[Optional[bool], bool]:
    """(first two layers are 2-designs, all tested layers are 2-designs).

    A (True, False) outcome would contradict the expectation that 2-designs
    on the first two layers propagate to all layers; callers should surface
    such a hit loudly.  Both answers are read from one ``fully_critical``
    report, as the CLI's probe rows read them.  A run whose range was cut by
    the enumeration budget, or set below the horizon, tested fewer layers
    but refuted nothing, so it counts as (.., True); when the budget let no
    range be certified the first answer is None (unknown).
    """
    rep = fully_critical(L, override_bound, max_vectors=max_vectors)
    return rep.first_two_designs, rep.verdict != VERDICT_FAILURE
