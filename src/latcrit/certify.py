"""Certification that every layer of a lattice is a spherical 2-design.

The finite check horizon comes from modularity.  For an even lattice of
level N in even dimension n and a harmonic polynomial P of degree 2, the
generating function f = sum_x P(x) q^{(x.x)/2} is a cusp form of weight
k = n/2 + 2 on Gamma_0(N) with the character chi_D(d) = (D/d),
D = (-1)^{n/2} det (Miyake, *Modular Forms* 4.9); a layer is a 2-design
exactly when the coefficients of every such P vanish on it.

Theorem.  f = 0 once its coefficients vanish through q^B,
B = max(1, floor((k I - 6 (c - 1)) / 12)), I = [SL_2(Z) : Gamma_0(N)] and
c = c(N) = sum_{d | N} phi(gcd(d, N/d)) the number of cusps of Gamma_0(N)
(``gamma0_horizon``; Diamond-Shurman, *A First Course in Modular Forms*,
ch. 3, for the valence formula and the cusps).  Proof: chi_D is quadratic,
so f^2 lies in S_{2k}(Gamma_0(N)) with trivial character.  -I is in
Gamma_0(N), so every cusp is regular and f^2 has order at least 1 in the
local parameter at each of the c cusps; its orders at the points of the
upper half plane are nonnegative.  If f != 0, the valence formula, which
sums these orders (over the elliptic orders) to 2k I / 12, gives
2 ord_inf(f) + (c - 1) <= 2k I / 12, so ord_inf(f) <= (k I - 6 (c - 1)) / 12
< B + 1.  Vanishing through q^B is ord_inf(f) >= B + 1, so f = 0.  Sturm's
bound floor(k I / 12) (Sturm 1987) counts the cusp at infinity alone.

So every layer with (x.x) <= 2B is tested, and a pass proves every layer.
A pass at a smaller bound, which the caller may ask for, proves only the
layers it tested: it is inconclusive.  Each layer is decided by
``design.two_design_verdict`` on streamed second moments.

Either side of the level duality decides the other.  For a harmonic P of
degree 2, Poisson summation (the theta transformation formula, tau ->
-1/tau) carries sum_{x in L} P(x) q^{(x.x)/2} to a nonzero multiple of the
same series of the dual lattice L*: a harmonic polynomial times the Gaussian
is an eigenfunction of the Fourier transform.  So one series vanishes
exactly when the other does, and every layer of L is a 2-design exactly when
every layer of L* is (Venkov, *Reseaux et designs spheriques*, 2001;
Ebeling, *Lattices and Codes*, ch. 3).  Rescaling moves no design, so the
level dual N W^{-1} of the even working form W of level N and dimension n
stands for L: a pass on its layers proves L fully critical, and a failed
layer refutes L.  It is even, with determinant N^n / det W, so it is the
sparser lattice (the larger covolume) exactly when N^n > (det W)^2; its
level divides N.  When ``fully_critical`` picks its own horizon it then
walks the dual, at the dual's own level, weight and horizon: the theorem
holds for the dual at its own level.  An override bound always walks the
input, whose layers the reference transcripts and the conjecture probe
read.  The dual is built in closed form (``gram._level_dual``): its
integral form is (N / det W) adj(W), from the adjugate ``level`` computes,
its determinant N^n / det W, and its level N / gcd(N, c) with
c = gcd(W_ij for i < j, W_ii / 2).

The layers tested are the input's own or its level dual's (``tested``);
doubling and the A1 summand only set the horizon (level, character and
weight).  An odd lattice takes it from its double 2Q, a homothety harmless
to the design structure; a level dual is even.  Odd dimensions take it
from the even form W plus an orthogonal A1 summand: an even lattice of rank
n + 1 on which P, read in W's coordinates, is still harmonic, so the theorem
covers its series.  That series is the form's times A1's, which has
constant term 1, so vanishing transfers back.  The summand's premises are
read from W alone: l diag(W, 2)^{-1} is even integral exactly when level(W)
divides l and 4 divides l, so diag(W, 2) has level lcm(level(W), 4), twice
W's discriminant and weight (n+1)/2 + 2, and is never built.  The report
names its premises: the group and its cusp count, the character's
discriminant D of the (augmented) working form, the weight, the bound
tested and the horizon, and how many nonempty layers the certificate
actually tested (``vacuous`` when none).

A certificate is a plan and a verdict loop.  The plan (``_plan``) walks
and counts nothing: it fixes the working form, the tested side, its level
and weight.  ``_counted`` adds the cusps and the horizon B from one
factorization of the level (``_gamma0``), after a caller that may not reach
B compares its floor (``_horizon_floor``) with what it can test.  A walk
gives the layers in range with their second moments, and ``_report``
alone judges every one in increasing norm: ``fully_critical`` walks with
``layer_moments``; the height reads them off its own walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .design import DesignVerdict, two_design_verdict
from .gram import (
    GramMatrix,
    LatticeDescriptor,
    _frac_str,
    _level_dual,
    determinant,
    double,
    is_even,
    level,
)
from .shells import DEFAULT_MAX_VECTORS, EnumerationBudgetError, layer_moments

VERDICT_CRITICAL = "fully-critical"
VERDICT_FAILURE = "failure"
VERDICT_INCONCLUSIVE = "inconclusive"
SIDE_INPUT = "input"
SIDE_LEVEL_DUAL = "level-dual"


def _gamma0(N: int) -> tuple[int, int]:
    """(index, cusps) of Gamma_0(N) in SL_2(Z), from one trial division of N.

    index = N prod_{p | N} (1 + 1/p).  The cusp count sum_{d | N}
    phi(gcd(d, N/d)) is multiplicative, and at p^e || N its terms
    phi(p^min(i, e - i)) sum to p^floor(e/2) + p^floor((e-1)/2), as
    phi(1) + ... + phi(p^j) = p^j.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    index, cusps, m, p = N, 1, N, 2
    while m > 1:
        if p * p > m:
            p = m
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            index = index // p * (p + 1)
            cusps *= p ** (e // 2) + p ** ((e - 1) // 2)
        p += 1
    return index, cusps


def gamma0_cusps(N: int) -> int:
    """Number of cusps of Gamma_0(N): sum_{d | N} phi(gcd(d, N/d))."""
    return _gamma0(N)[1]


def gamma0_horizon(k: int, N: int) -> int:
    """Horizon B of a weight-k cusp form on Gamma_0(N) with a quadratic character.

    B = floor((k index - 6 (cusps - 1)) / 12): vanishing through q^B makes
    the form zero (the module docstring's theorem).  B is at least 1, so
    level-1 input still tests a layer.
    """
    return _horizon(k, N)[0]


def _horizon(k: int, N: int) -> tuple[int, int]:
    """(``gamma0_horizon(k, N)``, ``gamma0_cusps(N)``) from one factorization of N."""
    if k < 1 or N < 1:
        raise ValueError("weight and level must be positive integers")
    index, cusps = _gamma0(N)
    return max(1, (k * index - 6 * (cusps - 1)) // 12), cusps


def _horizon_floor(k: int, N: int) -> int:
    """A lower bound on ``gamma0_horizon(k, N)`` that factors nothing.

    For N > 1 the index I is at least N + 1, and the genus formula
    g = 1 + I/12 - e2/4 - e3/3 - c/2 >= 0 (Diamond-Shurman, Thm. 3.1.1)
    gives c <= I/6 + 2, so k I - 6 (c - 1) >= (k - 1) I - 6
    >= (k - 1)(N + 1) - 6.  Counting factors N (``_gamma0``), to sqrt(N) for
    a large prime factor; this factors nothing, so a caller whose walk
    cannot reach a large level's horizon gives up at once.
    """
    return max(1, ((k - 1) * (N + 1) - 6) // 12) if N > 1 else 1


@dataclass(frozen=True)
class FullyCriticalReport:
    """Result of the full-criticality certification pipeline.

    ``tested`` names the lattice whose layers were tested: the input
    (``SIDE_INPUT``) or the level dual N W^{-1} of its working even form
    (``SIDE_LEVEL_DUAL``), which decides the input by theta duality.  Every
    other field but ``input`` is then that lattice's: its per-layer rows,
    cardinalities, ``failure_norm``, ``certified_upto``, parity (a level
    dual is even, never ``doubled``) and horizon premises.  Per-layer rows
    count one representative per antipodal pair {x, -x}, the convention of
    the reference transcripts (pair sums quarter, cardinalities halve
    relative to full-set values; the design verdicts are identical either
    way).  ``failure_norm`` is in the same normalization; the working even
    form's norm is twice it when ``doubled`` is set.  The horizon's premises
    are the group Gamma_0(level) with its ``cusps``, the character's
    discriminant ``character_D`` and ``weight``, whose cusp-counted horizon
    (``gamma0_horizon``) is ``horizon_B``; ``bound_B`` is the bound
    tested, and only a pass with ``bound_B >= horizon_B`` is fully critical.
    ``layers_tested`` counts the nonempty layers behind the verdict, and a
    fully-critical verdict that tested none is ``vacuous``.
    """

    input: LatticeDescriptor
    doubled: bool
    augmented_with_A1: bool
    level: int
    weight: int
    bound_B: int
    horizon_B: int
    cusps: int
    character_D: int
    per_layer: tuple[DesignVerdict, ...]  # nonempty layers, pair convention
    cardinalities: tuple[tuple[Fraction, int], ...]  # antipodal pair counts
    verdict: str
    failure_norm: Optional[Fraction] = None
    certified_upto: Optional[Fraction] = None
    note: str = ""
    tested: str = SIDE_INPUT

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
            "tested": self.tested,
            "doubled": self.doubled,
            "augmented_with_A1": self.augmented_with_A1,
            "group": self.group,
            "level": self.level,
            "character_D": self.character_D,
            "weight": self.weight,
            "bound_B": self.bound_B,
            "horizon_B": self.horizon_B,
            "cusps": self.cusps,
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

    Pipeline: double odd forms to the even working form W of level N and,
    in odd dimension, add an A1 summand to derive the horizon (level
    lcm(N, 4), discriminant twice W's and weight (n+1)/2 + 2, read from W;
    else N, W's discriminant and weight n/2 + 2); test every layer of the
    input with (x.x) <= 2B on the even form, B the cusp-counted Gamma_0
    horizon ``gamma0_horizon`` (see the module docstring), or
    ``override_bound`` when supplied (e.g. the catalogue's reference N, to
    reproduce its transcripts).  With no override, a level dual N W^{-1}
    sparser than W (N^n > (det W)^2) is tested in the input's place, by the
    same pipeline at its own horizon (see the module docstring); the
    report's ``tested`` says which.  A failed layer is a definitive
    refutation.
    An exhausted enumeration budget halves the range until it fits, and an
    override below the horizon tests fewer layers: both are reported as
    inconclusive with the largest certified bound, never as a failure and
    never as an exception.  When no bound >= 2 fits the budget the report
    is inconclusive with ``certified_upto`` 0 and no layers.
    """
    return _certify(L, override_bound, max_vectors, dualize=override_bound is None)


class _Plan(NamedTuple):
    """A certificate's premises, fixed before any walk (``_plan``).

    ``form`` is the tested side's integral form: the input, or the level
    dual N W^{-1} = dual_scale Q^{-1} of the working form W (Q, or 2Q when Q
    is odd), so dual_scale = N / s_W.  Its layers with (x.x) <= 2B are
    tested on the even form W, which are form[x] <= 2B / s.
    """

    form: GramMatrix
    tested: str
    s: int         # 2 when ``form`` is odd and its double sets the horizon
    augmented: bool
    level: int
    weight: int
    character_D: int
    dual_scale: Optional[Fraction]  # N / s_W for the level dual, else None
    cusps: int    # of Gamma_0(level), and the horizon: 0 until counted (``_counted``)
    horizon: int
    B: Optional[int]  # the bound tested: the caller's, or None until the horizon is counted


def _counted(plan: _Plan) -> _Plan:
    """``plan`` with the cusps and the horizon of Gamma_0(level), and B the horizon if unset."""
    horizon, cusps = _horizon(plan.weight, plan.level)
    return plan._replace(cusps=cusps, horizon=horizon, B=horizon if plan.B is None else plan.B)


def _plan(Q: GramMatrix, override_bound: Optional[int], dualize: bool) -> _Plan:
    """The premises of the certificate of the integral form Q, with no walk and no count.

    The working form W is Q, or 2Q when Q is odd; with ``dualize`` and a
    level dual sparser than W (N^n > (det W)^2) the level dual is tested.
    The cusps and the horizon are left 0 for ``_counted``.
    """
    if not Q.is_integral:
        raise ValueError("full-criticality certification requires an integral form")
    s_work = 1 if is_even(Q) else 2
    work = Q if s_work == 1 else double(Q)
    N, det = level(work), int(determinant(work))
    form, lvl, tested, dual_scale = Q, N, SIDE_INPUT, None
    if dualize and N ** Q.n > det * det:
        form, lvl = _level_dual(work, N)
        det, tested, dual_scale = N ** Q.n // det, SIDE_LEVEL_DUAL, Fraction(N, s_work)
    s = 1 if is_even(form) else 2
    n = dim = Q.n
    augmented = n % 2 == 1
    if augmented:  # diag(W, 2)
        lvl, det, dim = math.lcm(lvl, 4), 2 * det, n + 1
    B = None if override_bound is None else int(override_bound)
    if B is not None and B < 1:
        raise ValueError("certification bound must be positive")
    return _Plan(form=form, tested=tested, s=s, augmented=augmented, level=lvl,
                 weight=dim // 2 + 2, character_D=(-1) ** (dim // 2) * det,
                 dual_scale=dual_scale, cusps=0, horizon=0, B=B)


def _certify(
    L: LatticeDescriptor | GramMatrix,
    override_bound: Optional[int],
    max_vectors: int,
    *,
    dualize: bool,
) -> FullyCriticalReport:
    """``fully_critical`` on the input's own layers, or, when ``dualize`` is
    set and its level dual is sparser, on the dual's: the plan, one walk of
    the tested form (``layer_moments``, its range halved while it overruns
    the budget), and the verdicts."""
    desc = L if isinstance(L, LatticeDescriptor) else LatticeDescriptor(gram=L, name=L.name)
    plan = _counted(_plan(desc.gram, override_bound, dualize))
    bound, moments, note = 2 * plan.B, {}, ""
    while bound >= 2:
        try:
            moments = layer_moments(plan.form, Fraction(bound, plan.s), max_vectors=max_vectors)
            break
        except EnumerationBudgetError:
            bound //= 2
            note = (f"enumeration budget {max_vectors} exceeded at (x,x)<={2 * plan.B // plan.s}; "
                    + ("certified range reduced" if bound >= 2
                       else f"no bound >= {2 // plan.s} fits"))
    else:  # no bound >= 2 fits: nothing is certified
        bound = 0
    return _report(desc, plan, moments, plan.form, bound, note)


def _report(desc: LatticeDescriptor, plan: _Plan, moments: dict, T: GramMatrix, bound: int,
            note: str) -> FullyCriticalReport:
    """The report of ``plan`` on the layers of ``moments``, every layer with (x.x) <= bound.

    The one verdict loop: every layer of ``moments``, in increasing norm, is
    judged on ``T``, the tested form in the moments' basis, restated per
    antipodal pair (scale 4).  ``bound``, on the even form, is 2B unless the
    budget cut it.
    """
    per_layer = tuple(two_design_verdict(m, card, S, T, scale=4)
                      for m, (card, S) in moments.items())
    failure_norm = next((v.norm for v in per_layer if not v.is_design), None)
    certified = Fraction(bound, plan.s)
    if failure_norm is not None:
        verdict = VERDICT_FAILURE
    elif bound == 2 * plan.B and plan.B >= plan.horizon:
        verdict = VERDICT_CRITICAL
    else:
        verdict = VERDICT_INCONCLUSIVE
        if plan.B < plan.horizon:
            below = (f"only layers (x,x) <= {certified} checked; "
                     f"the Gamma0({plan.level}) horizon needs B = {plan.horizon}")
            note = f"{note}; {below}" if note else below
    return FullyCriticalReport(
        input=desc,
        doubled=plan.s == 2,
        augmented_with_A1=plan.augmented,
        level=plan.level,
        weight=plan.weight,
        bound_B=plan.B,
        horizon_B=plan.horizon,
        cusps=plan.cusps,
        character_D=plan.character_D,
        per_layer=per_layer,
        cardinalities=tuple([(m, card // 2) for m, (card, _) in moments.items()]),
        verdict=verdict,
        failure_norm=failure_norm,
        certified_upto=certified,
        note=note,
        tested=plan.tested,
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
    such a hit loudly.  Both answers are read from one certificate report,
    as the CLI's probe rows read them.  A run whose range was cut by
    the enumeration budget, or set below the horizon, tested fewer layers
    but refuted nothing, so it counts as (.., True); when the budget let no
    range be certified the first answer is None (unknown).  The report
    always tests the input's own layers, never its level dual's, so that
    the first two layers are the input's.
    """
    rep = _certify(L, override_bound, max_vectors, dualize=False)
    return rep.first_two_designs, rep.verdict != VERDICT_FAILURE
